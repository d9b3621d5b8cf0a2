"""Scenario files, experiment execution, metrics and trace persistence.

Scenarios are JSON documents with a versioned schema; unknown fields are
rejected by name.  Runs are deterministic given (scenario, seed): repeated
runs write byte-identical outputs.  Test-mode scenarios may reference the
matching-parameter oracles (for certificates and near-convergence starts);
blind scenarios never touch them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import benchmarks, feedback_lin, mimo, siso
from .engine import Structure, check_gain
from .errors import GainBoundViolation, ParseError, ValidationError
from .linsys import DiagonalInteractor, Polynomial, StateSpace, ct, dt
from .signals import Channel, RefInput, Sinusoid

SCHEMA_VERSION = 1

_TOP_FIELDS = {
    "schema_version", "name", "module", "benchmark", "mode", "structure",
    "design", "test_mode", "horizon", "step", "seed", "domain",
    "plant", "refmodel", "pm", "interactor", "f", "lambda", "lambda_e",
    "nu", "nbe", "gains", "sign_kp", "kp_bound", "um",
    "theta0", "x0", "xm0", "tail_fraction", "converge_tol",
}
_GAIN_FIELDS = {"gamma_theta", "gamma_rho", "gamma", "sp", "q", "guard"}
_MODULES = {"siso", "mimo", "fl"}
_MODES = {"nominal", "adaptive"}
_DESIGNS = {"gradient", "rd1"}


@dataclass
class Scenario:
    """A validated experiment description with resolved components."""

    name: str
    module: str
    mode: str
    structure: Structure
    design: str
    test_mode: bool
    horizon: int
    seed: int
    components: dict
    gains: dict
    theta0: object
    x0: object
    xm0: object
    tail_fraction: float
    converge_tol: float
    benchmark: str = None
    raw: dict = field(default_factory=dict)

    @property
    def domain(self):
        obj = self.components.get("plant") or self.components["leader"]
        if self.module == "fl":
            return "ct"
        return "dt" if obj.domain.is_dt else "ct"

    @property
    def step(self):
        if self.module == "fl":
            return self.components["step"]
        return self.components["plant"].domain.step


def _require(cond, fld, msg):
    if not cond:
        raise ValidationError(fld, msg)


def _check_keys(d, allowed, where):
    for k in d:
        if k not in allowed:
            raise ValidationError(f"{where}{k}", "unknown field")


def _check_gain(g, upper, fld):
    """The law's gain check at load time, reported against the scenario field."""
    try:
        check_gain(np.atleast_2d(np.asarray(g, dtype=float)), upper)
    except GainBoundViolation as exc:
        raise ValidationError(fld, str(exc)) from exc


def _poly(coeffs, fld, domain_tag=None, monic=True):
    try:
        p = Polynomial(coeffs, monic=monic)
    except (ValueError, TypeError) as exc:
        raise ValidationError(fld, str(exc)) from exc
    if domain_tag is not None and p.degree > 0 and not p.is_stable(domain_tag):
        raise ValidationError(fld, "polynomial is not stable for the domain")
    return p


def _statespace(d, fld, domain):
    _check_keys(d, {"A", "B", "C"}, f"{fld}.")
    for key in ("A", "B", "C"):
        _require(key in d, f"{fld}.{key}", "missing matrix")
    try:
        return StateSpace(d["A"], d["B"], d["C"], domain)
    except (ValueError, TypeError) as exc:
        raise ValidationError(fld, str(exc)) from exc


def _ref_input(d, fld):
    _check_keys(d, {"channels"}, f"{fld}.")
    _require("channels" in d and isinstance(d["channels"], list) and d["channels"],
             f"{fld}.channels", "must be a non-empty list")
    chans = []
    for i, chd in enumerate(d["channels"]):
        _check_keys(chd, {"sinusoids", "bias"}, f"{fld}.channels[{i}].")
        sins = []
        for j, sd in enumerate(chd.get("sinusoids", [])):
            _check_keys(sd, {"amp", "freq", "phase"}, f"{fld}.channels[{i}].sinusoids[{j}].")
            sins.append(Sinusoid(float(sd["amp"]), float(sd["freq"]), float(sd.get("phase", 0.0))))
        chans.append(Channel(sins, float(chd.get("bias", 0.0))))
    return RefInput(chans)


def scenario_from_dict(data, name=None):
    """Validate a scenario dict and resolve it into runnable components."""
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    _check_keys(data, _TOP_FIELDS, "")
    _require(data.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"must be {SCHEMA_VERSION}")
    name = data.get("name", name or "scenario")
    module = data.get("module")
    _require(module in _MODULES, "module", f"must be one of {sorted(_MODULES)}")
    mode = data.get("mode", "adaptive")
    _require(mode in _MODES, "mode", f"must be one of {sorted(_MODES)}")
    design = data.get("design", "gradient")
    _require(design in _DESIGNS, "design", f"must be one of {sorted(_DESIGNS)}")
    test_mode = bool(data.get("test_mode", False))
    _require(mode != "nominal" or test_mode, "mode",
             "nominal mode needs matching parameters: set test_mode true")
    seed = int(data.get("seed", 0))
    tail_fraction = float(data.get("tail_fraction", 0.2 if module == "fl" else 0.1))
    _require(0.0 < tail_fraction < 1.0, "tail_fraction", "must lie in (0, 1)")

    comps = {}
    bench_name = data.get("benchmark")
    if bench_name is not None:
        try:
            comps = benchmarks.build(bench_name)
        except KeyError as exc:
            raise ValidationError("benchmark", str(exc)) from exc
        _require(comps["kind"] == module, "module",
                 f"benchmark {bench_name!r} is a {comps['kind']} benchmark")
    elif module == "fl":
        raise ValidationError("benchmark", "fl scenarios must reference a benchmark")

    if module == "fl":
        horizon = int(data.get("horizon", 20000))
        if "step" in data:
            comps["step"] = float(data["step"])
            _require(comps["step"] > 0, "step", "must be positive")
    else:
        dom_tag = data.get("domain")
        if bench_name is None:
            _require(dom_tag in ("dt", "ct"), "domain",
                     "explicit scenarios must declare dt or ct")
            step = float(data.get("step", 1.0 if dom_tag == "dt" else 1e-3))
            domain = dt(step) if dom_tag == "dt" else ct(step)
            _require("plant" in data, "plant", "missing")
            _require("refmodel" in data, "refmodel", "missing")
            comps["plant"] = _statespace(data["plant"], "plant", domain)
            comps["refmodel"] = _statespace(data["refmodel"], "refmodel", domain)
            comps["kind"] = module
        else:
            bench_dom = "dt" if comps["plant"].domain.is_dt else "ct"
            _require(dom_tag is None or dom_tag == bench_dom, "domain",
                     f"benchmark {bench_name!r} is {bench_dom}")
            if "step" in data:
                _require(bench_dom == "ct", "step", "step override applies to ct only")
                step = float(data["step"])
                _require(step > 0, "step", "must be positive")
                newdom = ct(step)
                for key in ("plant", "refmodel"):
                    comps[key] = StateSpace(
                        comps[key].a, comps[key].b, comps[key].c, newdom
                    )
        horizon = int(data.get("horizon", 5000 if comps["plant"].domain.is_dt else 10000))
    _require(horizon > 0, "horizon", "must be positive")

    domain_tag = None
    if module != "fl":
        domain_tag = comps["plant"].domain.tag
        if "pm" in data:
            comps["pm"] = _poly(data["pm"], "pm", domain_tag)
        if "lambda" in data:
            comps["lam"] = _poly(data["lambda"], "lambda", domain_tag)
        if "lambda_e" in data:
            comps["lam_e"] = _poly(data["lambda_e"], "lambda_e", domain_tag)
        if "f" in data:
            comps["fpoly"] = _poly(data["f"], "f", domain_tag)
        if "interactor" in data:
            rows = [_poly(c, f"interactor[{i}]", domain_tag)
                    for i, c in enumerate(data["interactor"])]
            comps["interactor"] = DiagonalInteractor(rows)
        if "nu" in data:
            comps["nu"] = int(data["nu"])
        if "nbe" in data:
            comps["nbe"] = int(data["nbe"])
        if "um" in data:
            comps["um"] = _ref_input(data["um"], "um")
        if "sign_kp" in data:
            comps["sign_kp"] = float(data["sign_kp"])
        if "kp_bound" in data:
            kb = float(data["kp_bound"])
            _require(kb > 0, "kp_bound", "must be positive")
            comps["kp_bound"] = kb

    gains = dict(data.get("gains", {}))
    _check_keys(gains, _GAIN_FIELDS, "gains.")
    if module == "siso":
        kp_bound = comps.get("kp_bound")
        _require(kp_bound is not None, "kp_bound", "missing")
        for fld, upper in (("gamma_theta", 2.0 / kp_bound), ("gamma_rho", 2.0)):
            if gains.get(fld) is not None:
                _check_gain(gains[fld], upper, f"gains.{fld}")
    if module == "mimo":
        if "sp" in gains:
            comps["sp"] = np.atleast_2d(np.asarray(gains["sp"], dtype=float))
        _require("sp" in comps, "gains.sp", "missing known gain matrix")
        if "gamma" in gains:
            g = gains["gamma"]
            gm = (float(g) * np.eye(comps["plant"].n_outputs)
                  if np.isscalar(g) else np.atleast_2d(np.asarray(g, dtype=float)))
            _check_gain(gm, 2.0 if comps["plant"].domain.is_dt else None, "gains.gamma")
            comps["gamma"] = gm
        if "q" in gains:
            comps["q_matrix"] = np.atleast_2d(np.asarray(gains["q"], dtype=float))
    if module == "fl" and "guard" in gains:
        _require(float(gains["guard"]) > 0, "gains.guard", "must be positive")

    theta0 = data.get("theta0", "zero")
    if isinstance(theta0, str):
        _require(theta0 in ("zero", "near"), "theta0", "must be zero, near, or a list")
        _require(theta0 != "near" or test_mode, "theta0",
                 "near-convergence start needs test_mode")
    x0 = data.get("x0", "zero")
    xm0 = data.get("xm0", "zero")
    for fld, val in (("x0", x0), ("xm0", xm0)):
        if isinstance(val, str):
            _require(val in ("zero", "random"), fld, "must be zero, random, or a list")

    return Scenario(
        name=name, module=module, mode=mode,
        structure=Structure(data.get("structure", "sf_xm")),
        design=design, test_mode=test_mode, horizon=horizon, seed=seed,
        components=comps, gains=gains, theta0=theta0, x0=x0, xm0=xm0,
        tail_fraction=tail_fraction,
        converge_tol=float(data.get("converge_tol", 1e-2)),
        benchmark=bench_name, raw=data,
    )


def load_scenario(path):
    """Parse and validate a scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
    return scenario_from_dict(data, name=Path(path).stem)


@dataclass
class MetricsReport:
    """Run-level metrics; certificate counts only exist in test mode."""

    name: str
    tail_rms_e: float
    sup_theta_norm: float
    l2_tail: float
    converged: bool
    lyapunov_violations: int = None
    guard_aborted: bool = False
    horizon: int = 0

    def to_dict(self):
        return {
            "name": self.name,
            "tail_rms_e": self.tail_rms_e,
            "sup_theta_norm": self.sup_theta_norm,
            "l2_tail": self.l2_tail,
            "converged": self.converged,
            "lyapunov_violations": self.lyapunov_violations,
            "guard_aborted": self.guard_aborted,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def compute_metrics(scenario, trace):
    """Tail tracking error, parameter bounds, L2 tail and certificate checks."""
    n = trace.n_samples
    if n == 0:
        return MetricsReport(
            name=scenario.name, tail_rms_e=float("nan"), sup_theta_norm=float("nan"),
            l2_tail=float("nan"), converged=False, guard_aborted=True, horizon=0,
        )
    ntail = max(1, int(round(scenario.tail_fraction * n)))
    tail = trace.e[-ntail:]
    tail_rms = float(np.sqrt(np.mean(np.sum(tail * tail, axis=1))))
    l2cum = trace.extra.get("l2_eps_cum")
    l2_tail = float(l2cum[-1] - l2cum[-ntail]) if l2cum is not None and n > 1 else 0.0
    viol = None
    if np.any(np.isfinite(trace.v)):
        # a non-finite increment counts as a violation
        dv = np.diff(trace.v)
        if scenario.domain == "dt":
            rising = dv > 1e-12
        else:
            rising = dv / scenario.step > 1e-6 * np.maximum(trace.v[:-1], 1.0)
        viol = int(np.sum(rising | ~np.isfinite(dv)))
    guard = bool(trace.guard_events)
    return MetricsReport(
        name=scenario.name,
        tail_rms_e=tail_rms,
        sup_theta_norm=float(np.max(trace.theta_norm)),
        l2_tail=l2_tail,
        converged=bool(tail_rms < scenario.converge_tol) and not guard,
        lyapunov_violations=viol,
        guard_aborted=guard,
        horizon=n,
    )


def _init_vec(spec, dim, rng, scale=0.5):
    if isinstance(spec, str):
        if spec == "zero":
            return None
        return scale * rng.standard_normal(dim)
    return np.asarray(spec, dtype=float)


def run_experiment(scenario):
    """Execute a validated scenario; returns (SimTrace, MetricsReport)."""
    rng = np.random.default_rng(scenario.seed)
    comps = scenario.components
    adaptive = scenario.mode == "adaptive"
    if scenario.module == "siso":
        scn = siso.SisoScenario(
            plant=comps["plant"], refmodel=comps["refmodel"], pm=comps["pm"],
            lam=comps["lam"], lam_e=comps["lam_e"], structure=scenario.structure,
            sign_kp=comps["sign_kp"], kp_bound=comps["kp_bound"], um=comps["um"],
            x0=_init_vec(scenario.x0, comps["plant"].n, rng),
            xm0=_init_vec(scenario.xm0, comps["refmodel"].n, rng),
        )
        g = scenario.gains
        gains = siso.SisoGains(
            gamma_theta=g.get("gamma_theta"), gamma_rho=g.get("gamma_rho", 1.0)
        )
        nominal = siso.nominal_params(scn) if scenario.test_mode else None
        theta0 = scenario.theta0
        if isinstance(theta0, str):
            theta0 = None if theta0 == "zero" else 0.9 * nominal.theta_star
        trace = siso.run(
            scn, adaptive=adaptive, horizon=scenario.horizon, gains=gains,
            theta0=theta0, nominal=nominal,
            with_certificate=scenario.test_mode and adaptive,
        )
    elif scenario.module == "mimo":
        scn = mimo.MimoScenario(
            plant=comps["plant"], refmodel=comps["refmodel"],
            interactor=comps["interactor"], fpoly=comps["fpoly"], sp=comps["sp"],
            structure=scenario.structure, nu=comps.get("nu"), lam=comps.get("lam"),
            lam_e=comps.get("lam_e"), nbe=comps.get("nbe"),
            gamma=comps.get("gamma"), um=comps["um"],
            x0=_init_vec(scenario.x0, comps["plant"].n, rng),
            xm0=_init_vec(scenario.xm0, comps["refmodel"].n, rng),
        )
        sf_structure = scenario.structure in (Structure.SF_XM, Structure.SF_YM)
        with_cert = scenario.test_mode and adaptive and sf_structure
        nominal = mimo.nominal_params(scn) if scenario.test_mode and sf_structure else None
        theta0 = scenario.theta0
        if isinstance(theta0, str):
            if theta0 == "near":
                _require(nominal is not None, "theta0",
                         "near start needs state-feedback matching parameters")
                theta0 = 0.9 * nominal.theta_star
            else:
                theta0 = None
        trace = mimo.run(
            scn, design=scenario.design, adaptive=adaptive, horizon=scenario.horizon,
            theta0=theta0, q_matrix=comps.get("q_matrix"), nominal=nominal,
            with_certificate=with_cert,
        )
    else:
        plant, leader, interactor = comps["plant"], comps["leader"], comps["interactor"]
        tstar = None
        if scenario.test_mode:
            tstar = feedback_lin.benchmark_theta_star(plant, leader, interactor)
        theta0 = scenario.theta0
        if isinstance(theta0, str):
            theta0 = None if theta0 == "zero" else 0.9 * tstar
        else:
            theta0 = np.asarray(theta0, dtype=float)
        if not adaptive:
            theta0 = tstar
        guard = float(scenario.gains.get("guard", 1e-6))
        ctrl = feedback_lin.FLController(
            interactor=interactor, dims=comps["dims"], theta=theta0, guard=guard
        )
        x0 = comps["x0"] if scenario.x0 == "zero" else _init_vec(
            scenario.x0, plant.n, rng, scale=0.3
        )
        trace = feedback_lin.run(
            plant, leader, ctrl, adaptive=adaptive, horizon=scenario.horizon,
            step=comps["step"], x0=x0, theta_star=tstar,
        )
    return trace, compute_metrics(scenario, trace)


# -- persistence -------------------------------------------------------------


def _fmt(x):
    return repr(float(x))


def _strict_json(obj):
    """Non-finite floats become null, so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def trace_columns(trace):
    """(header, row iterator) in the fixed column order."""
    m = trace.n_channels
    header = (
        ["t"]
        + [f"y_{i+1}" for i in range(m)]
        + [f"ym_{i+1}" for i in range(m)]
        + [f"e_{i+1}" for i in range(m)]
        + [f"u_{i+1}" for i in range(m)]
        + ["m"]
        + [f"eps_{i+1}" for i in range(m)]
        + ["V", "theta_norm"]
    )

    def rows():
        for k in range(trace.n_samples):
            vals = (
                [trace.t[k]] + list(trace.y[k]) + list(trace.ym[k]) + list(trace.e[k])
                + list(trace.u[k]) + [trace.m[k]] + list(trace.eps[k])
                + [trace.v[k], trace.theta_norm[k]]
            )
            yield vals

    return header, rows


def emit_outputs(trace, report, outdir, name=None):
    """Write trace CSV, JSON report and a plot-ready long CSV; returns paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = name or report.name
    header, rows = trace_columns(trace)
    trace_path = outdir / f"{name}_trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for vals in rows():
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
    long_path = outdir / f"{name}_trace_long.csv"
    with open(long_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,series,value\n")
        for vals in rows():
            t = vals[0]
            for col, v in zip(header[1:], vals[1:]):
                fh.write(f"{_fmt(t)},{col},{_fmt(v)}\n")
    report_path = outdir / f"{name}_report.json"
    payload = report.to_dict()
    payload["guard_events"] = trace.guard_events
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return {"trace": trace_path, "long": long_path, "report": report_path}


def parse_report(path):
    """Read back a report written by emit_outputs (null metrics read as NaN)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data.pop("guard_events", None)
    for key in ("tail_rms_e", "sup_theta_norm", "l2_tail"):
        if data[key] is None:
            data[key] = float("nan")
    return MetricsReport.from_dict(data)
