"""Polynomial and state-space machinery shared by all controller designs.

The same operator symbol covers both time domains: in discrete time it is
the one-step advance ``D[w](t) = w(t+1)``, in continuous time the derivative
``D[w](t) = dw/dt``.  Discrete-time simulation is exact recursion;
continuous-time simulation is fixed-step classical Runge-Kutta (RK4), and
coupled loops integrate all their state (plant, filters, adaptation) with
one global step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotHurwitz, RelativeDegreeViolation, UnobservablePair, ValidationError

RANK_RTOL = 1e-9  # rank tests: sigma_min < RANK_RTOL * sigma_max


class Domain(Enum):
    DT = "dt"
    CT = "ct"


@dataclass(frozen=True)
class TimeDomain:
    """Time domain tag plus the simulation step (seconds; one sample in DT)."""

    tag: Domain
    step: float = 1.0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")

    @property
    def is_dt(self):
        return self.tag is Domain.DT


def dt(step=1.0):
    return TimeDomain(Domain.DT, step)


def ct(step=1e-3):
    return TimeDomain(Domain.CT, step)


class Polynomial:
    """Real polynomial with coefficients stored in ascending degree."""

    def __init__(self, coeffs, monic=False):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        while c.size > 1 and c[-1] == 0.0:
            c = c[:-1]
        if c[-1] == 0.0:
            raise ValueError("leading coefficient is zero")
        if monic and c[-1] != 1.0:
            raise ValueError("polynomial marked monic has leading coefficient != 1")
        self.coeffs = c
        self.monic = bool(monic) or c[-1] == 1.0

    @classmethod
    def from_roots(cls, roots):
        c = np.atleast_1d(np.poly(np.asarray(roots, dtype=float)))[::-1]
        return cls(np.real(c), monic=True)

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, z):
        return np.polyval(self.coeffs[::-1], z)

    def roots(self):
        return np.roots(self.coeffs[::-1])

    def is_stable(self, domain):
        """Strict stability for the Domain tag: CT Re < 0, DT modulus < 1."""
        r = self.roots() if self.degree > 0 else np.array([])
        if domain is Domain.CT:
            return bool(np.all(np.real(r) < 0))
        return bool(np.all(np.abs(r) < 1))

    def of_matrix(self, a):
        """Evaluate the polynomial at a square matrix."""
        out = self.coeffs[-1] * np.eye(a.shape[0])
        for c in self.coeffs[-2::-1]:
            out = out @ a + c * np.eye(a.shape[0])
        return out

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


@dataclass
class StateSpace:
    """(A, B, C) triple with a time-domain tag; no direct feedthrough."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    domain: TimeDomain

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim == 1:
            self.b = self.b[:, None]
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape[0] != n or self.c.shape[1] != n:
            raise ValueError("inconsistent state-space dimensions")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]


def rk4_step(f, t, x, h, k1=None, work=None):
    """One classical 4th-order Runge-Kutta step of x' = f(t, x); returns the new x.

    k1 may be passed in when f(t, x) was already evaluated at the grid point
    (the closed-loop drivers record signals from that same evaluation).
    work, when given, is five arrays shaped like x: the stage arguments x +
    (c h) k of stages 2, 3 and 4, then two accumulators, the last of which
    receives the new state.  Absent, they are allocated here.  x is never
    written, and each stage argument is an array of its own, so an f that
    keeps its arguments finds them intact after the step.  The update is
    x + (h/6) (((k1 + 2 k2) + 2 k3) + k4), operation for operation.
    """
    if k1 is None:
        k1 = f(t, x)
    if work is None:
        dtype = np.result_type(x, k1)
        work = [np.empty(np.shape(x), dtype) for _ in range(5)]
    x2, x3, x4, acc, new = work
    np.add(x, np.multiply(k1, 0.5 * h, out=x2), out=x2)
    k2 = f(t + 0.5 * h, x2)
    np.add(x, np.multiply(k2, 0.5 * h, out=x3), out=x3)
    k3 = f(t + 0.5 * h, x3)
    np.add(x, np.multiply(k3, h, out=x4), out=x4)
    k4 = f(t + h, x4)
    np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
    np.add(acc, np.multiply(k3, 2.0, out=new), out=new)
    np.add(new, k4, out=new)
    np.multiply(new, h / 6.0, out=new)
    return np.add(x, new, out=new)


def rk4_gain(eigs, h):
    """|R(h lambda)| of every eigenvalue: RK4's amplification of x' = lambda x.

    R is read off one rk4_step from x(0) = 1, so the RK4 formula keeps its
    one home; a stable mode is integrated without growth iff |R| <= 1.
    """
    lam = np.asarray(eigs, dtype=complex)
    return np.abs(rk4_step(lambda t, x: lam * x, 0.0, np.ones_like(lam), h))


def check_rk4_step(modes, h):
    """Reject a step h at which RK4 amplifies a stable linear mode: ValidationError on step.

    modes are (name, eigenvalue) pairs; a mode with negative real part must
    satisfy |R(h lambda)| <= 1, and the message names the first that does not.
    """
    modes = [(name, lam) for name, lam in modes if lam.real < 0]
    for (name, lam), r in zip(modes, rk4_gain([lam for _, lam in modes], h)):
        if r > 1.0:
            raise ValidationError(
                "step", f"{h:g} puts the {name} eigenvalue {complex(lam):.4g} outside "
                f"RK4's stability region (|R(h lambda)| = {r:.3g} > 1)")


def markov_params(ss, count):
    """Markov parameter sequence {C A^(i-1) B} for i = 1..count."""
    out = []
    m = ss.b
    for _ in range(count):
        out.append(ss.c @ m)
        m = ss.a @ m
    return out


def relative_degree(ss, row):
    """Smallest i >= 1 with a nonzero i-th Markov parameter in the output row.

    The zero test is scaled by the largest Markov-parameter magnitude seen.  A
    row whose parameters all vanish up to order n is decoupled from the input
    and has none: None.
    """
    seq = markov_params(ss, ss.n)
    scale = max(np.max(np.abs(m)) for m in seq)
    for i, m in enumerate(seq, start=1):
        if scale > 0.0 and np.max(np.abs(m[row])) > RANK_RTOL * scale:
            return i
    return None


def _krylov_blocks(f, g):
    """Orthonormal blocks spanning the reachable subspace of (f, g), one per power of f.

    Block Arnoldi: block 0 spans g, block k the part of f times block k - 1
    outside the blocks before it (Gram-Schmidt, repeated once against
    round-off), cut where a singular value falls below RANK_RTOL times the
    scale: |g| for block 0, |f| after.  The count of blocks is the number of
    powers the subspace needs: for (A^T, C^T), the observability index of
    (A, C).
    """
    basis = np.zeros((f.shape[0], 0))
    w, scale = g, np.linalg.norm(g, 2)
    while w.shape[1]:
        for _ in range(2):
            w = w - basis @ (basis.T @ w)
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        q = u[:, s > RANK_RTOL * scale]
        if not q.shape[1]:
            return
        yield q
        basis = np.hstack((basis, q))
        w, scale = f @ q, np.linalg.norm(f, 2)


def reachable_basis(f, g):
    """Orthonormal basis (columns) of the reachable subspace of (f, g)."""
    return np.hstack([np.zeros((f.shape[0], 0)), *_krylov_blocks(f, g)])


def observability_index(ss):
    """Smallest k such that [C; C A; ...; C A^(k-1)] spans the observable subspace of (A, C)."""
    return sum(1 for _ in _krylov_blocks(ss.a.T, ss.c.T))


def companion(poly):
    """Companion matrix of a monic polynomial: the controllable canonical A of 1/poly."""
    a = np.eye(poly.degree, k=1)
    a[-1:] = -poly.coeffs[:-1]
    return a


class RationalFilter:
    """Stable proper scalar transfers n_r(D)/d(D) replicated over a vector input.

    num is one numerator (a Polynomial or its ascending coefficients) or a
    2-D array of numerator rows, one filter per row, all over the same d.
    Held as the controllable canonical realization (fmat, g, h, j) of 1/d
    with output rows h_r = n_r[:k] - j_r d[:k] and feedthrough j_r = n_r[k];
    each filter acts on each of `width` input channels independently.  The
    loops stack realization() into their own state.
    """

    def __init__(self, num, den, domain, width=1):
        if np.ndim(num) < 2:
            num = (num if isinstance(num, Polynomial) else Polynomial(num)).coeffs
        rows = np.atleast_2d(np.asarray(num, dtype=float))
        k = den.degree
        if rows.shape[1] > k + 1:
            raise ValueError("filter must be proper (deg N <= deg d)")
        if not den.monic:
            raise ValueError("denominator must be monic")
        if not den.is_stable(domain.tag):
            raise ValueError("filter denominator is not stable for the domain")
        self.width = width
        nc = np.zeros((rows.shape[0], k + 1))
        nc[:, : rows.shape[1]] = rows
        self.j = nc[:, k]  # feedthrough (nonzero only for a biproper filter)
        self.h = nc[:, :k] - self.j[:, None] * den.coeffs[:k]  # output rows over the state
        self.fmat = companion(den)
        self.g = np.zeros(k)
        self.g[k - 1 :] = 1.0  # u enters the last state (there is none for k = 0)

    def realization(self):
        """(F, G, H, J) on the row-major flattened state; outputs: per row, every channel."""
        eye = np.eye(self.width)
        return (np.kron(self.fmat, eye), np.kron(self.g[:, None], eye),
                np.kron(self.h, eye), np.kron(self.j[:, None], eye))


class FilterBank(RationalFilter):
    """[D^p / L(D) for p in powers] applied to each channel of a vector input.

    The rational filter with monomial numerator rows: in the canonical
    realization of 1/L the state coordinates are exactly D^p/L(D)[u],
    p = 0..deg L - 1, and the power p = deg L (biproper top block) is u minus
    the denominator-weighted state.
    """

    def __init__(self, powers, lam, domain, width=1):
        powers = list(powers)
        if any(p > lam.degree or p < 0 for p in powers):
            raise ValueError("numerator power exceeds denominator degree")
        super().__init__(np.eye(lam.degree + 1)[powers], lam, domain, width)


def stack(blocks, n_in):
    """Block-diagonal companion realization of several filters on one input vector.

    blocks holds (name, (F, G, H, J), input columns); returns F and G over the
    stacked state, and per name its output rows (H over the stacked state, J
    over the input vector).
    """
    sizes = [b[1][0].shape[0] for b in blocks]
    ns = sum(sizes)
    f, g, read = np.zeros((ns, ns)), np.zeros((ns, n_in)), {}
    i = 0
    for (name, (fb, gb, hb, jb), cols), k in zip(blocks, sizes):
        f[i : i + k, i : i + k] = fb
        g[i : i + k, cols] = gb
        h, j = np.zeros((hb.shape[0], ns)), np.zeros((hb.shape[0], n_in))
        h[:, i : i + k] = hb
        j[:, cols] = jb
        read[name] = (h, j)
        i += k
    return f, g, read


class ReferenceBlock:
    """The reference block z = [x_m, bank_um, bank_ym], driven by u_m alone.

    The banks [1, D, ..., D^(nbe-1)]/lam_e(D) of u_m and y_m are present when
    lam_e is given.  z+ = F z + G u_m (DT) or dz/dt = F z + G u_m (CT),
    y_m = C_y z (y_m is folded into F), and read maps each reference
    regressor block (xm, ym, and with the banks wum, wym) to its rows over
    [z, u_m].  `stages` and `step` hold one step of z as linear maps of
    w = [z, u(t + offsets[0]), u(t + offsets[1]), ...]: stage j's z is
    stages[j][0] w, its input stages[j][1] w, and the next z is step w.  In
    discrete time that is the one stage [z, u(t)] with step [F, G].  In
    continuous time it is the RK4 step of z alone, with w = [z, u(t),
    u(t + h/2), u(t + h)]: rk4_step runs once on matrix arguments, and its f
    records the four stage arguments.
    """

    def __init__(self, refmodel, lam_e=None, nbe=0):
        ref, dom = refmodel, refmodel.domain
        mi, mo = ref.n_inputs, ref.n_outputs
        vu, vy = slice(0, mi), slice(mi, mi + mo)
        blocks = [("xm", (ref.a, ref.b, np.eye(ref.n), 0.0), vu)]
        if lam_e is not None:
            blocks += [("wum", FilterBank(range(nbe), lam_e, dom, mi).realization(), vu),
                       ("wym", FilterBank(range(nbe), lam_e, dom, mo).realization(), vy)]
        f, g, zr = stack(blocks, mi + mo)
        self.cy = ref.c @ zr["xm"][0]
        self.f = f + g[:, vy] @ self.cy
        self.g = g[:, vu]
        self.nz = f.shape[0]
        zr["ym"] = (self.cy, np.zeros((mo, mi + mo)))
        self.read = {name: np.hstack((h + j[:, vy] @ self.cy, j[:, vu]))
                     for name, (h, j) in zr.items()}
        if dom.is_dt:
            self.offsets = (0.0,)
            eye = np.eye(self.nz + mi)
            self.stages = [(eye[: self.nz], eye[self.nz :])]
            self.step = np.hstack((self.f, self.g))
        else:
            h = dom.step
            self.offsets = (0.0, 0.5 * h, h)
            eye = np.eye(self.nz + 3 * mi)
            pick = dict(zip(self.offsets, np.split(eye[self.nz :], 3)))
            self.stages = []

            def rhs(t, zw):
                self.stages.append((zw, pick[t]))
                return self.f @ zw + self.g @ pick[t]

            self.step = rk4_step(rhs, 0.0, eye[: self.nz], h)


@dataclass
class DiagonalInteractor:
    """Diagonal polynomial matrix diag{d_1(D), ..., d_M(D)}, each d_i monic stable."""

    rows: list = field(default_factory=list)

    def __post_init__(self):
        for d in self.rows:
            if not d.monic:
                raise ValueError("interactor rows must be monic")

    @property
    def m(self):
        return len(self.rows)

    @property
    def degrees(self):
        return [d.degree for d in self.rows]

    @property
    def max_degree(self):
        return max(self.degrees)

    def validate_stable(self, domain):
        for i, d in enumerate(self.rows):
            if not d.is_stable(domain):
                raise ValidationError(f"interactor[{i}]", "polynomial is not stable for the domain")


def ref_input_from_state(refmodel, interactor):
    """Parameters (A1, A2) with xi_m(D)[y_m] = A1^T x_m + A2 u_m along trajectories.

    Row i of A1^T is c_i d_i(A_m); row i of A2 sums the d_i coefficients
    against the reference Markov parameters.  Requires each reference row
    relative degree to be at least deg d_i, otherwise future inputs would
    enter the expansion (RelativeDegreeViolation on refmodel).
    """
    am, bm, cm = refmodel.a, refmodel.b, refmodel.c
    n = refmodel.n
    m_in = refmodel.n_inputs
    mm = interactor.m
    if refmodel.n_outputs != mm:
        raise ValueError("interactor size does not match reference outputs")
    a1t = np.zeros((mm, n))
    a2 = np.zeros((mm, m_in))
    for i, d in enumerate(interactor.rows):
        rr = relative_degree(refmodel, i)
        if rr is not None and rr < d.degree:
            raise RelativeDegreeViolation(
                "refmodel", f"row {i} relative degree {rr} < interactor degree {d.degree}"
            )
        a1t[i] = cm[i] @ d.of_matrix(am)
        apow = np.eye(n)
        for j in range(1, d.degree + 1):
            a2[i] += d.coeffs[j] * (cm[i] @ apow @ bm)
            apow = am @ apow
    return a1t.T, a2


def _pe_input(n_channels, domain, seed=7):
    """Persistently exciting multi-sine with a bias, as a callable of time.

    A scalar time gives shape (n_channels,); an array of times gives the
    channels along a new last axis.
    """
    rng = np.random.default_rng(seed)
    base = np.array([0.131, 0.279, 0.457, 0.683, 0.911, 1.187, 1.459, 1.733])
    if not domain.is_dt:
        base = base * 2.0  # rad/s, well resolved by the default integration step
    phases = rng.uniform(0, 2 * np.pi, size=(n_channels, base.size))
    amps = rng.uniform(0.4, 1.0, size=(n_channels, base.size))
    freqs = np.array([base * (1 + 0.13 * ch) for ch in range(n_channels)])

    def signal(t):
        t = np.asarray(t, dtype=float)[..., None]
        # one sinusoid at a time keeps temporaries at the size of the result
        return 0.3 + sum(a * np.sin(f * t + p) for f, p, a in zip(freqs.T, phases.T, amps.T))

    return signal


def ref_input_from_io(refmodel, interactor, lambda_e, n_blocks):
    """Coefficients reconstructing xi_m(D)[y_m] from filtered (u_m, y_m) signals.

    Returns (b1, b2, b20, a2) such that, up to exponentially decaying filter
    transients,

        xi_m(D)[y_m] = b1^T F[u_m] + b2^T F[y_m] + b20 y_m + a2 u_m,

    with F the n_blocks-row bank [1, D, ...]/lambda_e(D).  The coefficients
    are identified by least squares along a persistently exciting simulated
    trajectory of the reference model against the exact state-space value of
    xi_m(D)[y_m]; identification is exact up to transients for an observable
    reference model.

    The reference model and both banks are the loops' ReferenceBlock
    z = [x_m, F-state of u_m, F-state of y_m], z' = F z + G u_m (DT:
    z+ = F z + G u_m), so every simulation step is the same linear map

        z+ = P z + Q0 u_m(t) + Qh u_m(t + h/2) + Q1 u_m(t + h).

    [P, Q0, ...] is the block's step map: [F, G] in DT, the RK4 step in CT.  The
    input is evaluated at all grid and half-step times at once, the map is
    iterated over 1500 steps in DT and 20000 in CT, and the regressor rows
    (the block's wum, wym and ym readouts) and targets are matrix products
    over the stored states after the first third.

    The fit simulates instead of matching transfer-function coefficients
    exactly.  Where the filtered signals are nearly dependent (mimo-ct-2x2:
    smallest singular value about 2e-6 of the largest), the component of the
    solution along that direction (cancelling entries of about 47 in b1 and
    b20) is the least-squares solver's choice; the matching parameters and
    the recorded reference runs carry it, and an exact solver would pick
    another.
    """
    am, cm, n, dom = refmodel.a, refmodel.c, refmodel.n, refmodel.domain
    if reachable_basis(am.T, cm.T).shape[1] < n:
        raise UnobservablePair("(A_m, C_m) is not observable")
    a1, a2 = ref_input_from_state(refmodel, interactor)
    horizon = 1500 if dom.is_dt else 20000
    settle = horizon // 3
    zb = ReferenceBlock(refmodel, lambda_e, n_blocks)
    ns = zb.nz
    # regressor row [F[u_m], F[y_m], y_m] over [z, u_m]
    rows = [zb.read[name] for name in ("wum", "wym", "ym")]
    read = np.vstack(rows)
    p, q = zb.step[:, :ns], zb.step[:, ns:]
    times = np.arange(horizon) * (1.0 if dom.is_dt else dom.step) + np.array(zb.offsets)[:, None]
    um = _pe_input(refmodel.n_inputs, dom)(times)  # (stages, horizon, m_in)
    # row k + 1 first holds the input drive of step k, then gains P z_k
    traj = np.empty((horizon, ns))
    traj[0] = 0.0
    traj[0, :n] = np.random.default_rng(11).standard_normal(n)
    np.matmul(np.hstack(um[:, :-1]), q.T, out=traj[1:])
    for k in range(horizon - 1):
        traj[k + 1] += p @ traj[k]
    phi = traj[settle:] @ read[:, :ns].T + um[0, settle:] @ read[:, ns:].T
    tgt = traj[settle:, :n] @ a1  # xi_m(D)[y_m] minus the A2 u_m part
    beta, *_ = np.linalg.lstsq(phi, tgt, rcond=None)
    fit = phi @ beta
    resid = np.max(np.abs(fit - tgt))
    scale = max(1.0, np.max(np.abs(tgt)))
    if resid > 1e-6 * scale:
        raise UnobservablePair(
            f"filtered-signal reconstruction failed (residual {resid:.2e}); "
            "reference model may not be observable"
        )
    b1, b2, b20 = np.split(beta, np.cumsum([len(r) for r in rows[:2]]))
    return b1, b2, b20.T, a2


def lyapunov_solve_ct(a0, q):
    """SPD solution P of P A0 + A0^T P = -Q for Hurwitz A0 and SPD Q."""
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if np.any(np.real(np.linalg.eigvals(a0)) >= 0):
        raise NotHurwitz("A0 has an eigenvalue with nonnegative real part")
    n = a0.shape[0]
    eye = np.eye(n)
    # vec(P A0) + vec(A0^T P) = (A0^T kron I + I kron A0^T) vec(P)
    kmat = np.kron(a0.T, eye) + np.kron(eye, a0.T)
    p = np.linalg.solve(kmat, -q.reshape(-1, order="F")).reshape((n, n), order="F")
    return 0.5 * (p + p.T)
