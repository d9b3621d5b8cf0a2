"""Scenario files, experiment execution, metrics and trace persistence.

Scenarios are JSON documents with a versioned schema; unknown fields are
rejected by name.  Runs are deterministic given (scenario, seed): repeated
runs write byte-identical outputs.  Test-mode scenarios compute the
matching-parameter oracles once, at load (for certificates and
near-convergence starts); blind scenarios never touch them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import benchmarks, feedback_lin, mimo, siso
from .engine import Structure
from .errors import ParseError, SingularMatchingSystem, UnobservablePair, ValidationError
from .linsys import DiagonalInteractor, Polynomial, StateSpace, ct, dt
from .signals import Channel, RefInput, Sinusoid

SCHEMA_VERSION = 1

_COMMON_FIELDS = {
    "schema_version", "name", "module", "benchmark", "mode", "design", "test_mode",
    "horizon", "step", "seed", "gains", "theta0", "x0", "tail_fraction", "converge_tol",
}
_LINEAR_FIELDS = _COMMON_FIELDS | {
    "structure", "domain", "plant", "refmodel", "lambda", "lambda_e", "um", "xm0",
}
# module -> (top-level fields, gain fields) that the module reads
_FIELDS = {
    "siso": (_LINEAR_FIELDS | {"pm", "sign_kp", "kp_bound"}, {"gamma_theta", "gamma_rho"}),
    "mimo": (_LINEAR_FIELDS | {"interactor", "f", "nu", "nbe"}, {"gamma", "sp", "q"}),
    "fl": (_COMMON_FIELDS, {"guard"}),
}
# module -> the components its loop reads, each required at load from the scenario or
# its benchmark: (scenario field, component key); mimo's model names lambda and
# lambda_e for the structures that read them
_REQUIRED = {
    "siso": [("pm", "pm"), ("lambda", "lam"), ("lambda_e", "lam_e"), ("sign_kp", "sign_kp"),
             ("kp_bound", "kp_bound"), ("um", "um")],
    "mimo": [("interactor", "interactor"), ("f", "fpoly"), ("um", "um")],
}
# model attribute -> scenario field, for the errors raised while building the run object;
# siso's interactor and f are both Pm, its Sp is sign(kp), its Psi gain gamma_rho, and
# kp_bound its bound on |kp|
_ATTR_FIELDS = {"lam": "lambda", "lam_e": "lambda_e", "fpoly": "f", "gz": "gains.gamma_theta"}
_MODEL_FIELDS = {
    "mimo": {**_ATTR_FIELDS, "gamma": "gains.gamma", "sp": "gains.sp", "kp": "gains.sp",
             "q": "gains.q"},
    "siso": {**_ATTR_FIELDS, "interactor[0]": "pm", "fpoly": "pm", "gamma": "gains.gamma_rho",
             "sp": "sign_kp", "kp": "kp_bound"},
    "fl": {"guard": "gains.guard"},
}
_TOP_FIELDS = set().union(*(top for top, _ in _FIELDS.values()))
_GAIN_FIELDS = set().union(*(gains for _, gains in _FIELDS.values()))
_MODES = {"nominal", "adaptive"}


@dataclass
class Scenario:
    """A validated experiment description with its run object built.

    `model` is the run object, with its start state drawn from the seed:
    the mimo.MimoScenario of a linear module, the feedback_lin.FLScenario
    of fl.  `oracle` is the test-mode oracle, computed once here: the
    mimo.MimoNominal of a linear structure with matching parameters, fl's
    (q, m) Theta*, else None.  `theta0` is None (zero), Theta* (nominal
    mode), 0.9 Theta* ("near") or the given (q, m) array.
    """

    name: str
    module: str
    mode: str
    horizon: int
    seed: int
    model: object
    theta0: object
    oracle: object
    tail_fraction: float
    converge_tol: float
    benchmark: str = None

    @property
    def domain(self):
        return "ct" if self.module == "fl" else self.model.plant.domain.tag.value

    @property
    def step(self):
        return self.model.step if self.module == "fl" else self.model.plant.domain.step


def _require(cond, fld, msg):
    if not cond:
        raise ValidationError(fld, msg)


def _conv(fn, value, fld):
    """fn(value), with a ValueError or TypeError reported against the scenario field."""
    try:
        return fn(value)
    except (ValueError, TypeError) as exc:
        raise ValidationError(fld, str(exc)) from exc


def _int(value):
    """int(value), with a ValueError for a bool and for a number with a fractional part."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, not {value!r}")
    return int(value)


def _finite(value, fld=""):
    """Reject a number in value beyond the float range, NaN too, named by its keys and [i]s."""
    if isinstance(value, dict):
        for key, v in value.items():
            _finite(v, f"{fld}.{key}" if fld else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite(v, f"{fld}[{i}]" if isinstance(v, dict) else fld)
    else:
        _require(not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max, fld,
                 "must be finite")


def _array(value, fld, *shapes):
    """value as a float array, of one of the given shapes if any, else a ValidationError on fld."""
    a = _conv(lambda v: np.asarray(v, dtype=float), value, fld)
    _require(not shapes or a.shape in shapes, fld,
             f"has shape {a.shape}, expected one of {list(shapes)}")
    return a


def _check_keys(d, allowed, where, msg="unknown field"):
    for k in d:
        if k not in allowed:
            raise ValidationError(f"{where}{k}", msg)


def _poly(coeffs, fld):
    return _conv(lambda c: Polynomial(c, monic=True), coeffs, fld)


def _statespace(d, fld, domain):
    d = _conv(dict, d, fld)
    _check_keys(d, {"A", "B", "C"}, f"{fld}.")
    for key in ("A", "B", "C"):
        _require(key in d, f"{fld}.{key}", "missing matrix")
    return _conv(lambda d: StateSpace(d["A"], d["B"], d["C"], domain), d, fld)


def _ref_input(d, fld):
    d = _conv(dict, d, fld)
    _check_keys(d, {"channels"}, f"{fld}.")
    _require("channels" in d and isinstance(d["channels"], list) and d["channels"],
             f"{fld}.channels", "must be a non-empty list")
    chans = []
    for i, chd in enumerate(d["channels"]):
        at = f"{fld}.channels[{i}]"
        chd = _conv(dict, chd, at)
        _check_keys(chd, {"sinusoids", "bias"}, f"{at}.")
        sins = []
        for j, sd in enumerate(_conv(list, chd.get("sinusoids", []), f"{at}.sinusoids")):
            sat = f"{at}.sinusoids[{j}]"
            sd = {"phase": 0.0, **_conv(dict, sd, sat)}
            _check_keys(sd, {"amp", "freq", "phase"}, f"{sat}.")
            sins.append(Sinusoid(*(_conv(float, sd.get(k), f"{sat}.{k}")
                                   for k in ("amp", "freq", "phase"))))
        chans.append(Channel(sins, _conv(float, chd.get("bias", 0.0), f"{at}.bias")))
    return RefInput(chans)


def _init_vec(spec, fld, dim, rng, scale=0.5):
    """None for "zero", scale times a (dim,) draw from rng for "random", else the given vector."""
    if isinstance(spec, str):
        _require(spec in ("zero", "random"), fld, "must be zero, random, or a list")
        return None if spec == "zero" else scale * rng.standard_normal(dim)
    return _array(spec, fld)


def scenario_from_dict(data, name=None):
    """Validate a scenario dict and build its run object (Scenario.model)."""
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    _finite(data)
    _check_keys(data, _TOP_FIELDS, "")
    _require(data.get("schema_version") == SCHEMA_VERSION, "schema_version",
             f"must be {SCHEMA_VERSION}")
    name = data.get("name", name or "scenario")
    _require("name" not in data or isinstance(name, str) and name and not {"/", "\\"} & set(name),
             "name", "must be a non-empty file name without path separators")
    module = data.get("module")
    _require(module in _FIELDS, "module", f"must be one of {sorted(_FIELDS)}")
    unread = f"is not read by the {module} module"
    _check_keys(data, _FIELDS[module][0], "", unread)
    mode = data.get("mode", "adaptive")
    _require(mode in _MODES, "mode", f"must be one of {sorted(_MODES)}")
    design = data.get("design", "gradient")  # mimo's model checks its value
    _require(design == "gradient" or module == "mimo", "design",
             f"the {module} module runs the gradient design only")
    test_mode = data.get("test_mode", False)
    _require(isinstance(test_mode, bool), "test_mode", "must be true or false")
    _require(mode != "nominal" or test_mode, "mode",
             "nominal mode needs matching parameters: set test_mode true")
    structure = _conv(Structure, data.get("structure", "sf_xm"), "structure")
    seed = _conv(_int, data.get("seed", 0), "seed")
    _require(seed >= 0, "seed", "must be non-negative")
    converge_tol = _conv(float, data.get("converge_tol", 1e-2), "converge_tol")
    _require(0.0 < converge_tol < math.inf, "converge_tol", "must be positive and finite")
    tail_fraction = _conv(float, data.get("tail_fraction", 0.2 if module == "fl" else 0.1),
                          "tail_fraction")
    _require(0.0 < tail_fraction < 1.0, "tail_fraction", "must lie in (0, 1)")

    comps = {}
    bench_name = data.get("benchmark")
    if bench_name is not None:
        try:
            comps = benchmarks.build(bench_name)
        except KeyError as exc:
            raise ValidationError("benchmark", str(exc)) from exc
        kind = benchmarks.REGISTRY[bench_name][1]
        _require(kind == module, "module", f"benchmark {bench_name!r} is a {kind} benchmark")
    elif module == "fl":
        raise ValidationError("benchmark", "fl scenarios must reference a benchmark")

    # a given step, read once for the fl, explicit and benchmark paths alike
    step = _conv(float, data["step"], "step") if "step" in data else None
    _require(step is None or 0.0 < step < math.inf, "step", "must be positive and finite")
    if module == "fl":
        comps["step"] = comps["step"] if step is None else step
    else:
        dom_tag = data.get("domain")
        if bench_name is None:
            _require(dom_tag in ("dt", "ct"), "domain",
                     "explicit scenarios must declare dt or ct")
            _require(dom_tag == "ct" or step is None, "step",
                     "step applies to ct only; a dt loop steps once per sample")
            domain = dt() if dom_tag == "dt" else ct(1e-3 if step is None else step)
            _require("plant" in data, "plant", "missing")
            _require("refmodel" in data, "refmodel", "missing")
            comps["plant"] = _statespace(data["plant"], "plant", domain)
            comps["refmodel"] = _statespace(data["refmodel"], "refmodel", domain)
        else:
            for key in ("plant", "refmodel"):
                _require(key not in data, key, f"benchmark {bench_name!r} supplies it")
            bench_dom = "dt" if comps["plant"].domain.is_dt else "ct"
            _require(dom_tag is None or dom_tag == bench_dom, "domain",
                     f"benchmark {bench_name!r} is {bench_dom}")
            if step is not None:
                _require(bench_dom == "ct", "step", "step override applies to ct only")
                for key in ("plant", "refmodel"):
                    comps[key] = replace(comps[key], domain=ct(step))
    default = 20000 if module == "fl" else 5000 if comps["plant"].domain.is_dt else 10000
    horizon = _conv(_int, data.get("horizon", default), "horizon")
    _require(horizon > 0, "horizon", "must be positive")

    if module != "fl":
        for fld, key in (("pm", "pm"), ("lambda", "lam"), ("lambda_e", "lam_e"), ("f", "fpoly")):
            if fld in data:
                comps[key] = _poly(data[fld], fld)
        if "interactor" in data:
            rows = [_poly(c, f"interactor[{i}]")
                    for i, c in enumerate(_conv(list, data["interactor"], "interactor"))]
            comps["interactor"] = DiagonalInteractor(rows)
        for key, conv in (("nu", _int), ("nbe", _int), ("sign_kp", float), ("kp_bound", float)):
            if key in data:
                comps[key] = _conv(conv, data[key], key)
        if "um" in data:
            comps["um"] = _ref_input(data["um"], "um")
            _require(comps["um"].width == comps["refmodel"].n_inputs, "um",
                     f"needs one channel per reference input ({comps['refmodel'].n_inputs})")

    for fld, key in _REQUIRED.get(module, ()):
        _require(key in comps, fld, f"missing: the {module} loop reads it")

    gains = _conv(dict, data.get("gains", {}), "gains")
    _check_keys(gains, _GAIN_FIELDS, "gains.")
    _check_keys(gains, _FIELDS[module][1], "gains.", unread)
    # the gains are model arguments too, checked where the model is built
    comps.update({key: _array(g, f"gains.{key}") for key, g in gains.items()})
    _require(module != "mimo" or "sp" in comps, "gains.sp", "missing known gain matrix")

    # the start state, drawn from the seed: x0 first, then xm0 (rejected for fl); an fl
    # x0 of "zero" keeps the benchmark's matched start
    rng = np.random.default_rng(seed)
    x0 = _init_vec(data.get("x0", "zero"), "x0", comps["plant"].n, rng,
                   scale=0.3 if module == "fl" else 0.5)
    if x0 is not None:
        comps["x0"] = x0
    if module != "fl":
        comps["xm0"] = _init_vec(data.get("xm0", "zero"), "xm0", comps["refmodel"].n, rng)
    oracle = None
    try:
        if module == "fl":
            model = feedback_lin.FLScenario(**comps)
            if test_mode:
                oracle = tstar = feedback_lin.benchmark_theta_star(
                    model.plant, model.leader, model.interactor)
        else:
            model = (siso.scenario(**comps, structure=structure) if module == "siso" else
                     mimo.MimoScenario(**comps, structure=structure, design=design))
            if test_mode and mimo.has_matching(structure, model.plant, model.nu):
                oracle = mimo.nominal_params(model)
                tstar = oracle.theta_star
                # the prior check of the run, for exactly the runs that make it
                if mode == "adaptive" and design == "gradient":
                    mimo.verify_gain_prior(oracle.kp, model.sp, model.plant.domain, model.gz)
    except UnobservablePair as exc:  # from the _ym oracle's fit of the reference model
        raise ValidationError("refmodel", str(exc)) from exc
    except SingularMatchingSystem as exc:  # the output-feedback oracle of a non-minimal plant
        raise ValidationError("plant", str(exc)) from exc
    except ValidationError as exc:
        fld = _MODEL_FIELDS[module].get(exc.field, exc.field)
        raise ValidationError(fld, exc.message) from exc
    q, m = model.theta_dim, model.m

    theta0, near = data.get("theta0", "zero"), False
    if isinstance(theta0, str):
        _require(theta0 in ("zero", "near"), "theta0", "must be zero, near, or a list")
        near, theta0 = theta0 == "near", None
        _require(not near or test_mode, "theta0", "near-convergence start needs test_mode")
    else:
        shapes = [(q,), (q, 1)] if module == "siso" else [(q, m)]
        theta0 = np.reshape(_array(theta0, "theta0", *shapes), (q, m))
    if mode == "nominal" or near:
        if oracle is None:  # only output feedback can lack matching parameters
            raise ValidationError("nu", f"{model.nu} is below the observability index of the "
                                  "plant: no matching parameters for a nominal run or a near start")
        theta0 = tstar if mode == "nominal" else 0.9 * tstar

    return Scenario(
        name=name, module=module, mode=mode, horizon=horizon, seed=seed, model=model,
        theta0=theta0, oracle=oracle, tail_fraction=tail_fraction,
        converge_tol=converge_tol, benchmark=bench_name,
    )


def load_scenario(path, overrides=None):
    """Parse and validate a scenario file, with the top-level fields in `overrides` replaced."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
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
        return asdict(self)


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
    # scaled by a power of two within a factor 2 of max|tail|, so the squares
    # cannot overflow; the scaling is exact, so the result is bit-identical
    # whenever the unscaled formula does not overflow
    scale = math.ldexp(0.5, math.frexp(float(np.max(np.abs(tail))))[1])
    tail = tail / scale
    tail_rms = scale * float(np.sqrt(np.mean(np.sum(tail * tail, axis=1))))
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


def run_experiment(scenario):
    """Execute a validated scenario; returns (SimTrace, MetricsReport)."""
    trace = (feedback_lin if scenario.module == "fl" else mimo).run(
        scenario.model, adaptive=scenario.mode == "adaptive", horizon=scenario.horizon,
        theta0=scenario.theta0, oracle=scenario.oracle)
    return trace, compute_metrics(scenario, trace)


# -- persistence -------------------------------------------------------------


EMIT_BLOCK = 32  # trace rows formatted per block: one hstack and one tolist each


def _strict_json(obj):
    """Non-finite floats become null, so the report is strict JSON."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict_json(v) for v in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def trace_columns(trace):
    """(header, columns): the trace's column blocks in the fixed CSV order."""
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
    cols = (trace.t[:, None], trace.y, trace.ym, trace.e, trace.u, trace.m[:, None],
            trace.eps, trace.v[:, None], trace.theta_norm[:, None])
    return header, cols


def emit_outputs(trace, report, outdir, name=None):
    """Write trace CSV, JSON report and a plot-ready long CSV; returns paths.

    Every value is written as repr(float); both CSVs are written together,
    EMIT_BLOCK rows at a time, each value formatted once.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    name = name or report.name
    header, cols = trace_columns(trace)
    series = header[1:]
    trace_path = outdir / f"{name}_trace.csv"
    long_path = outdir / f"{name}_trace_long.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as wide, \
            open(long_path, "w", encoding="utf-8", newline="\n") as long:
        wide.write(",".join(header) + "\n")
        long.write("t,series,value\n")
        for k in range(0, trace.n_samples, EMIT_BLOCK):
            block = np.hstack([c[k : k + EMIT_BLOCK] for c in cols]).tolist()
            rows = [[repr(v) for v in row] for row in block]
            wide.write("".join(",".join(row) + "\n" for row in rows))
            long.write("".join(f"{row[0]},{col},{v}\n"
                               for row in rows for col, v in zip(series, row[1:])))
    report_path = outdir / f"{name}_report.json"
    payload = report.to_dict()
    payload["guard_events"] = trace.guard_events
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return {"trace": trace_path, "long": long_path, "report": report_path}

