"""Named benchmark systems, each with its known-gain prior verified at build time.

Each builder returns a dict of ready components, which holds only keyword
arguments of its model builder, siso.scenario, mimo.MimoScenario or
feedback_lin.FLScenario: `mimo.MimoScenario(**build(name), structure=s)`
builds a mimo benchmark's model.  REGISTRY names each benchmark's module.
Anything derived from the true plant or reference parameters (matching
gains, certificates) is exposed only through the test-mode oracle helpers
of the design modules; the controller path consumes the returned priors
(sign/bound of the high frequency gain, the known gain matrix) as plain
inputs.  The plant assumptions are checked where a mimo.MimoScenario is
built from a benchmark.
"""

from __future__ import annotations

import numpy as np

from . import feedback_lin, mimo, signals
from .linsys import (
    DiagonalInteractor,
    Polynomial,
    StateSpace,
    companion,
    ct,
    dt,
)


def siso_third_order():
    """Third-order minimum-phase DT plant, gain 1.5, zero at 0.3, n* = 2.

    Reference model has the same relative degree (so the reference input
    feeds through into the equivalent reference signal) and different poles.
    """
    p = Polynomial.from_roots([0.8, 0.5, -0.4])
    plant = StateSpace(companion(p), [0, 0, 1], [1.5 * (-0.3), 1.5, 0.0], dt())
    pref = Polynomial.from_roots([0.6, 0.4, 0.1])
    refmodel = StateSpace(companion(pref), [0, 0, 1], [-0.2, 1.0, 0.0], dt())
    # filter roots spread away from the target poles: keeps the closed-loop
    # regressor spectrum well conditioned, which sets the adaptation rate
    return {
        "plant": plant,
        "refmodel": refmodel,
        "pm": Polynomial.from_roots([0.1, 0.2]),
        "lam": Polynomial.from_roots([-0.45, 0.6]),
        "lam_e": Polynomial.from_roots([-0.6, 0.45]),
        "sign_kp": 1.0,
        "kp_bound": 1.8,
        "um": signals.multisine(
            1,
            amps=(1.0, 1.0, 0.9, 0.9, 0.8, 0.8, 0.7, 0.7),
            freqs=(0.09, 0.27, 0.55, 0.91, 1.39, 1.93, 2.47, 2.99),
        ),
    }


def siso_first_order():
    """Scalar degenerate case: empty regressor banks, direct matching."""
    plant = StateSpace([[0.5]], [1.0], [2.0], dt())
    refmodel = StateSpace([[0.3]], [1.0], [1.0], dt())
    return {
        "plant": plant,
        "refmodel": refmodel,
        "pm": Polynomial.from_roots([0.4]),
        "lam": Polynomial([1.0]),
        "lam_e": Polynomial([1.0]),
        "sign_kp": 1.0,
        "kp_bound": 2.5,
        "um": signals.multisine(1),
    }


def _mimo_matrices():
    b = np.array([[1.0, 0.3], [0.0, 0.0], [0.2, 1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return b, c


def _check_mimo(d, sp_margin=0.5):
    """Derive the gain prior from the true Kp and verify it."""
    plant = d["plant"]
    _, kp = mimo.interactor_row_gains(plant, d["interactor"])
    if plant.domain.is_dt:
        kkt = kp @ kp.T
        scale = (2.0 - sp_margin) / np.max(np.linalg.eigvalsh(kkt))
        sp = kp.T * scale
    else:
        sp = np.linalg.inv(kp)  # Kp Sp = I: symmetric positive definite
    mimo.verify_gain_prior(kp, sp, plant.domain)
    d["sp"] = sp
    return d


def mimo_dt_2x2():
    """Square DT plant, 3 states, vector relative degree (1, 2), no zeros."""
    a = np.array([[0.5, 0.2, 0.0], [0.0, 0.0, 1.0], [0.1, 0.0, 0.3]])
    b, c = _mimo_matrices()
    plant = StateSpace(a, b, c, dt())
    am = np.array([[0.4, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -0.06, 0.5]])
    bm = np.array([[1.0, 0.1], [0.0, 0.0], [0.0, 1.0]])
    refmodel = StateSpace(am, bm, c.copy(), dt())
    ia = DiagonalInteractor(
        [Polynomial.from_roots([0.2]), Polynomial.from_roots([0.15, 0.25])]
    )
    d = {
        "plant": plant,
        "refmodel": refmodel,
        "interactor": ia,
        "fpoly": Polynomial.from_roots([0.2, 0.2]),
        "gamma": np.eye(2),
        "um": signals.multisine(2),
        "nu": 2,
        "lam": Polynomial.from_roots([0.2]),
        "lam_e": Polynomial.from_roots([0.3]),
        "nbe": 1,
    }
    return _check_mimo(d)


def mimo_ct_2x2():
    """Continuous-time counterpart of the square benchmark."""
    a = np.array([[-1.0, 0.2, 0.0], [0.0, 0.0, 1.0], [0.1, -0.5, -2.0]])
    b, c = _mimo_matrices()
    dom = ct(1e-3)
    plant = StateSpace(a, b, c, dom)
    am = np.array([[-0.8, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, -1.8]])
    bm = np.array([[1.0, 0.1], [0.0, 0.0], [0.0, 1.0]])
    refmodel = StateSpace(am, bm, c.copy(), dom)
    ia = DiagonalInteractor(
        [Polynomial.from_roots([-1.0]), Polynomial.from_roots([-1.0, -1.5])]
    )
    d = {
        "plant": plant,
        "refmodel": refmodel,
        "interactor": ia,
        "fpoly": Polynomial.from_roots([-1.2, -1.2]),
        "gamma": 2.0 * np.eye(2),
        "um": signals.multisine(2, freqs=(0.37, 0.83, 1.31, 2.17, 3.01)),
        "nu": 2,
        "lam": Polynomial.from_roots([-1.0]),
        "lam_e": Polynomial.from_roots([-1.0]),
        "nbe": 1,
    }
    return _check_mimo(d)


def mimo_rd1_ct():
    """All-channel relative degree one, one cancelled mode at -2 (stable)."""
    a = np.array([[-0.5, 0.3, 0.4], [0.2, -1.0, 0.1], [0.5, -0.3, -2.0]])
    b = np.array([[1.0, 0.2], [0.1, 1.0], [0.0, 0.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    dom = ct(1e-3)
    plant = StateSpace(a, b, c, dom)
    am = np.array([[-1.0, 0.2, 0.0], [0.0, -0.7, 0.3], [0.1, 0.0, -1.5]])
    bm = np.array([[1.0, 0.0], [0.2, 1.0], [0.0, 0.3]])
    refmodel = StateSpace(am, bm, c.copy(), dom)
    ia = DiagonalInteractor([Polynomial([1.0, 1.0]), Polynomial([1.5, 1.0])])
    d = {
        "plant": plant,
        "refmodel": refmodel,
        "interactor": ia,
        "fpoly": Polynomial.from_roots([-1.3]),
        "gamma": np.eye(2),
        "um": signals.multisine(2, freqs=(0.37, 0.83, 1.31, 2.17, 3.01)),
        "nu": 2,
        "lam": Polynomial.from_roots([-1.0]),
        "lam_e": Polynomial.from_roots([-1.0]),
        "nbe": 1,
        "q": 2.0 * np.eye(2),
    }
    d = _check_mimo(d)
    _, kp = mimo.interactor_row_gains(plant, ia)
    d["sp"] = kp  # rd1 gain S with Ms = Kp^-1 S = I
    return d


def fl_pair():
    """The two-output feedback-linearizable follower/leader pair."""
    plant, leader, interactor = feedback_lin.benchmark()
    return {
        "plant": plant,
        "leader": leader,
        "interactor": interactor,
        "step": 1e-3,
        "x0": feedback_lin.matched_x0(plant, leader),
    }


REGISTRY = {
    "siso-3rd": (siso_third_order, "siso", "3rd-order minimum-phase DT plant, n*=2"),
    "siso-1st": (siso_first_order, "siso", "scalar DT plant, degenerate filter banks"),
    "mimo-dt-2x2": (mimo_dt_2x2, "mimo", "2x2 DT plant, relative degrees (1,2)"),
    "mimo-ct-2x2": (mimo_ct_2x2, "mimo", "2x2 CT plant, relative degrees (1,2)"),
    "mimo-rd1-ct": (mimo_rd1_ct, "mimo", "2x2 CT plant, all relative degrees 1"),
    "fl-2x3": (fl_pair, "fl", "nonlinear 2-output follower with unknown-dynamics leader"),
}


def build(name):
    if name not in REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name][0]()


def describe():
    return {k: v[2] for k, v in REGISTRY.items()}
