"""Experiment orchestration: validated configs in, CSV + JSON summary out.

Each experiment maps a declarative JSON config onto one of the library
pipelines, evaluates the grid points in the declared order, and writes

    <out>/<experiment>.csv     fixed per-experiment header
    <out>/<experiment>.json    {config, results: {fits, checks}, versions,
                                wall_time_s}

All numbers are formatted with repr-exact precision, so reruns of the
same config are byte-identical apart from the wall_time_s field.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ed
from .errors import ConfigError, NumericalFault, ToleranceFailure
from .fitting import fit_exponential_rate, fit_power_law, stable_window_start
from .qfi import critical_mode_coefficient, fbar, qfi_quench
from .realspace import entanglement_depth, evolve, evolve_series, init_state, witness_qfi
from .spectral import ModelParams, critical_gamma, spectrum_table

__all__ = ["EXPERIMENTS", "PARAMS", "load_config", "validate_config", "run_experiment"]


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


# ------------------------------------------------------------ config table
#
# PARAMS gives each experiment's params as field -> (check, default), with
# REQUIRED for a field that has none.  A check takes (value, path), raises
# ConfigError naming the path, and returns the value; an object check
# returns a new dict with every default filled in.  Types are strict JSON
# types: 8.0 is no integer, NaN and +-Infinity are no number, and a bool is
# neither; float subclasses such as np.float64 count as numbers.  An integer
# beyond the float range is rejected too, since every runner takes floats.

REQUIRED = object()


def _fault(path: str, message: str) -> ConfigError:
    return ConfigError(f"config field '{path or '<root>'}': {message}")


def _typed(cls: type, name: str):
    def check(x, path):
        if not isinstance(x, cls):
            raise _fault(path, f"{x!r} is not of type '{name}'")
        return x
    return check


def _number(*, integer=False, minimum=None, exclusive_minimum=None, maximum=None, even=False):
    kind = "integer" if integer else "number"

    def check(x, path):
        if not (type(x) is int or (not integer and isinstance(x, float) and math.isfinite(x))):
            raise _fault(path, f"{x!r} is not of type '{kind}'")
        if abs(x) > sys.float_info.max:
            raise _fault(path, f"an integer of {abs(x).bit_length()} bits is beyond the float range")
        if minimum is not None and x < minimum:
            raise _fault(path, f"{x!r} is less than the minimum of {minimum!r}")
        if exclusive_minimum is not None and x <= exclusive_minimum:
            raise _fault(path, f"{x!r} is less than or equal to the minimum of {exclusive_minimum!r}")
        if maximum is not None and x > maximum:
            raise _fault(path, f"{x!r} is greater than the maximum of {maximum!r}")
        if even and x % 2:
            raise _fault(path, f"{x!r} is not even")
        return x
    return check


def _array(item, *, min_items=0, increasing=False):
    def check(xs, path):
        _typed(list, "array")(xs, path)
        if len(xs) < min_items:
            raise _fault(path, f"{xs!r} {'should be non-empty' if min_items == 1 else 'is too short'}")
        for i, x in enumerate(xs):
            item(x, f"{path}/{i}")
        if increasing and any(b <= a for a, b in zip(xs, xs[1:])):
            raise _fault(path, "grid must be strictly increasing")
        return xs
    return check


def _choice(*options):
    def check(x, path):
        if x not in options:
            raise _fault(path, f"{x!r} is not one of {list(options)!r}")
        return x
    return check


def _object(fields: dict):
    def check(obj, path):
        _typed(dict, "object")(obj, path)
        for name, (_, default) in fields.items():
            if default is REQUIRED and name not in obj:
                raise _fault(path, f"{name!r} is a required property")
        extra = sorted(k for k in obj if k not in fields)
        if extra:
            names = ", ".join(map(repr, extra))
            raise _fault(path, f"Additional properties are not allowed ({names} "
                               f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        return {name: chk(obj[name], f"{path}/{name}".lstrip("/")) if name in obj else default
                for name, (chk, default) in fields.items()}
    return check


_SITES = _number(integer=True, minimum=4, even=True)
_RATE = _number(minimum=0)
_TOLERANCE = _number(exclusive_minimum=0)
_LOG_OFFSETS = _object({
    "min": (_number(), -6.0),
    "max": (_number(), -2.0),
    "num": (_number(integer=True, minimum=4), 40),
})

PARAMS = {
    "spectrum": _object({
        "n_sites": (_SITES, REQUIRED),
        "h": (_number(), REQUIRED),
        "gamma": (_RATE, REQUIRED),
    }),
    "witness-scaling": _object({
        "sizes": (_array(_SITES, min_items=3, increasing=True), REQUIRED),
        "gamma": (_RATE, REQUIRED),
        "measure_time": (_number(exclusive_minimum=0), 7.5),
        "dt": (_number(exclusive_minimum=0), 0.05),
        "initial_kind": (_choice("vacuum", "hermitian-ground"), "hermitian-ground"),
        "initial_h": (_number(), 0.0),
        "time_sensitivity": (_typed(bool, "boolean"), True),
    }),
    "quench-series": _object({
        "n_sites": (_SITES, REQUIRED),
        "h": (_number(), REQUIRED),
        "gamma": (_RATE, REQUIRED),
        "times": (_array(_number(exclusive_minimum=0), min_items=3, increasing=True), REQUIRED),
        "fit_window": (_number(exclusive_minimum=0, maximum=1), 0.3),
    }),
    "fbar-sweep": _object({
        "h": (_number(), REQUIRED),
        "n_sites": (_SITES, 512),
        # None: default_fbar_gammas(h, points_per_side)
        "gammas": (_array(_RATE, min_items=1, increasing=True), None),
        "points_per_side": (_number(integer=True, minimum=3), 40),
    }),
    "critical-exponent": _object({
        "h": (_number(), REQUIRED),
        "log_offsets": (_LOG_OFFSETS, _LOG_OFFSETS({}, "")),
    }),
    "oracle-check": _object({
        "quench_sizes": (_array(_number(integer=True, minimum=4, maximum=ed.MAX_QUADRATURE_SITES,
                                        even=True)), [4, 6]),
        "hs": (_array(_number()), [0.3]),
        "gammas": (_array(_RATE), [0.5, 2.0]),
        "times": (_array(_number(minimum=0)), [0.5, 1.5]),
        "witness_sizes": (_array(_number(integer=True, minimum=4, maximum=ed.MAX_DENSE_SITES,
                                         even=True)), [4, 6]),
        "witness_gammas": (_array(_RATE), [0.75, 4.5]),
        "witness_times": (_array(_number(minimum=0)), [0.5, 2.0]),
        "tol_quench": (_TOLERANCE, 1e-5),
        "tol_ed": (_TOLERANCE, 1e-6),
        "tol_witness": (_TOLERANCE, 1e-6),
    }),
}

_TOP = _object({
    "experiment": (_choice(*PARAMS), REQUIRED),
    "params": (_typed(dict, "object"), {}),
    "output_path": (_typed(str, "string"), "."),
})


def validate_config(config: dict) -> dict:
    """Field checks from PARAMS plus cross-field checks.

    Returns a new config whose params carry every default; the given
    config is left as it is.
    """
    checked = _TOP(config, "")
    exp = checked["experiment"]
    if "params" not in config and exp != "oracle-check":
        raise _fault("", "'params' is a required property")
    params = checked["params"] = PARAMS[exp](checked["params"], "params")

    if exp in ("fbar-sweep", "critical-exponent") and abs(params["h"]) >= 1.0:
        raise ConfigError(f"params/h: |h| must be < 1 for {exp}, got {params['h']}")
    if exp == "critical-exponent":
        lo, hi = params["log_offsets"]["min"], params["log_offsets"]["max"]
        if lo >= hi:
            raise ConfigError("params/log_offsets: min must be below max")
        gc = critical_gamma(params["h"])
        # compare logs so that exp(max) cannot overflow
        if hi >= math.log(gc):
            raise ConfigError(f"params/log_offsets: max must be below log(gamma_c) = {math.log(gc)!r}")
        if not gc - math.exp(lo) < gc < gc + math.exp(lo):
            raise ConfigError(f"params/log_offsets: min = {lo!r} leaves gamma = gamma_c in double precision")
    return checked


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


@dataclass
class RunResult:
    csv_path: Path
    json_path: Path
    summary: dict
    ok: bool


def _versions() -> dict:
    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "mipt_qfi": __version__,
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "python": sys.version.split()[0],
    }


# ---------------------------------------------------------------- spectrum


def _run_spectrum(params: dict):
    p = ModelParams(params["n_sites"], params["h"], params["gamma"], "periodic")
    rows = [tuple(row) for row in spectrum_table(p)]
    return "k,E,Gamma", rows, [], []


# --------------------------------------------------------- witness-scaling


def _witness_series(n: int, gamma: float, step: float, counts: tuple, kind: str, h0: float):
    p = ModelParams(n, 0.0, gamma, "open")
    frames = evolve_series(init_state(n, kind, h=h0), p, step, counts)
    return [witness_qfi(state) for state in frames]


def _run_witness(params: dict):
    sizes = list(params["sizes"])
    # 0.8 T, T and 1.2 T as 4, 5 and 6 steps of T / 5, or T alone, so that
    # one exponential per size serves every time; dt is accepted but unused
    counts, main_idx = ((4, 5, 6), 1) if params["time_sensitivity"] else ((1,), 0)
    step = params["measure_time"] / counts[main_idx]

    series = [
        _witness_series(n, params["gamma"], step, counts, params["initial_kind"], params["initial_h"])
        for n in sizes
    ]
    fs = [s[main_idx] for s in series]
    rows = [(n, f, f / n, entanglement_depth(f, n)) for n, f in zip(sizes, fs)]
    fits = []
    for idx, k in enumerate(counts):
        fit = fit_power_law(sizes, [s[idx] for s in series])
        tag = "eta" if idx == main_idx else f"eta_at_t={k * step:g}"
        fits.append({"name": tag, **fit.as_dict()})
    return "N,F,F_over_N,depth", rows, fits, []


# ----------------------------------------------------------- quench-series


def _run_quench_series(params: dict):
    p = ModelParams(params["n_sites"], params["h"], params["gamma"], "periodic")
    ts = list(params["times"])
    window = params["fit_window"]
    fs = [qfi_quench(p, float(t)) for t in ts]
    # F > 0 for every t > 0; a zero is an underflow, and the fit takes log F
    for t, f in zip(ts, fs):
        if not f > 0.0:
            raise NumericalFault(
                f"quench QFI underflows to {f!r} at t = {t!r}; the growth-rate fit needs F > 0"
            )
    rows = list(zip(ts, fs))
    # transient exclusion: start at the stabilized slope, but never earlier
    # than the trailing-window default
    n = len(ts)
    late_start = n - max(3, int(np.ceil(window * n)))
    start = max(stable_window_start(ts, fs), late_start)
    fit = fit_exponential_rate(ts[start:], fs[start:])
    fits = [{"name": "growth_rate", **fit.as_dict()},
            {"name": "two_gamma_reference", "value": 2.0 * params["gamma"]}]
    return "t,F", rows, fits, []


# -------------------------------------------------------------- fbar-sweep


def default_fbar_gammas(h: float, per_side: int) -> list[float]:
    """Geometric clustering toward gamma_c from both sides, plus gamma_c.

    Offsets run from 0.5 gamma_c down to 0.025 of that.  The clustering
    floor keeps the spacing near gamma_c coarser than the finite-size
    shift of the peak, so the sweep maximum lands on the grid point
    nearest gamma_c (which is gamma_c itself).
    """
    gc = critical_gamma(h)
    offsets = 0.5 * gc * np.logspace(0.0, np.log10(0.025), per_side)
    below = np.sort(gc - offsets)
    above = np.sort(gc + offsets)
    return [float(g) for g in np.concatenate([below, [gc], above])]


def _run_fbar(params: dict):
    h = params["h"]
    gammas = params["gammas"] or default_fbar_gammas(h, params["points_per_side"])
    vals = [fbar(ModelParams(params["n_sites"], h, float(g), "periodic")) for g in gammas]
    rows = list(zip(gammas, vals))
    gc = critical_gamma(h)
    peak = gammas[int(np.argmax(vals))]
    nearest = gammas[int(np.argmin(np.abs(np.asarray(gammas) - gc)))]
    # informational: finite grids shift the peak off gamma_c a little
    checks = [{
        "name": "fbar_peak_location",
        "peak_gamma": peak,
        "gamma_c": gc,
        "grid_point_nearest_gamma_c": nearest,
    }]
    return "gamma,Fbar", rows, [], checks


# ------------------------------------------------------- critical-exponent


def _run_critical(params: dict):
    h = params["h"]
    off = params["log_offsets"]
    offsets = np.exp(np.linspace(off["min"], off["max"], off["num"]))
    gc = critical_gamma(h)

    below = [critical_mode_coefficient(h, gc - float(d)) for d in offsets]
    above = [critical_mode_coefficient(h, gc + float(d)) for d in offsets]
    rows = [(gc - d, f, "below") for d, f in sorted(zip(offsets, below), reverse=True)]
    rows += [(gc + d, f, "above") for d, f in sorted(zip(offsets, above))]
    fits = [
        {"name": "slope_above", **fit_power_law(offsets, above).as_dict()},
        {"name": "slope_below", **fit_power_law(offsets, below).as_dict()},
    ]
    return "gamma,F_kc,side", rows, fits, []


# ------------------------------------------------------------ oracle-check


def _run_oracle(params: dict):
    checks = []

    def add(name: str, delta: float, tol: float):
        checks.append({"name": name, "delta": delta, "tolerance": tol, "ok": bool(delta <= tol)})

    for n in params["quench_sizes"]:
        for h in params["hs"]:
            # the gamma = 0 ground state: one per (n, h)
            gs, _ = ed.dense_ground_state(ModelParams(n, h, 0.0, "periodic"))
            for g in params["gammas"]:
                p = ModelParams(n, h, g, "periodic")
                f_sns = ed.o_covariance_qfi(p, params["times"], gs)
                for t, f_sn in zip(params["times"], f_sns.tolist()):
                    f_modes = qfi_quench(p, t)
                    f_exact = ed.qfi_frechet(p, t, gs)
                    scale = max(abs(f_exact), 1e-12)
                    tag = f"quench[N={n},h={h},gamma={g},t={t}]"
                    # "_vs_fd" names the finite-difference reference that the
                    # exact derivative replaced; outputs keep their check names
                    add(f"{tag} modes_vs_fd", abs(f_modes - f_exact) / scale, params["tol_quench"])
                    add(f"{tag} sneddon_vs_fd", abs(f_sn - f_exact) / scale, params["tol_ed"])

    for n in params["witness_sizes"]:
        for g in params["witness_gammas"]:
            p = ModelParams(n, 0.0, g, "open")
            for t in params["witness_times"]:
                st = evolve(init_state(n), p, t, 1) if t > 0 else init_state(n)
                f_gauss = witness_qfi(st)
                f_dense = 4.0 * ed.sx_variance_dense(ed.evolve_dense(p, t, ed.dense_vacuum(n)))
                scale = max(abs(f_dense), 1e-12)
                add(f"witness[N={n},gamma={g},t={t}]", abs(f_gauss - f_dense) / scale, params["tol_witness"])

    rows = [(c["name"], c["delta"], c["tolerance"], int(c["ok"])) for c in checks]
    return "check,delta,tolerance,ok", rows, [], checks


_RUNNERS = {
    "spectrum": _run_spectrum,
    "witness-scaling": _run_witness,
    "quench-series": _run_quench_series,
    "fbar-sweep": _run_fbar,
    "critical-exponent": _run_critical,
    "oracle-check": _run_oracle,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: dict, out_dir: str | Path | None = None, threads: int = 1) -> RunResult:
    """Validate, dispatch, and write <experiment>.csv / <experiment>.json.

    Raises ToleranceFailure after writing outputs if an oracle check ends
    up above its tolerance.  ``threads`` is ignored: grid points always
    run in order.  It stays only because ``perfbench/harness.py`` passes
    it, and goes with the benchmark change listed in ROADMAP.md.
    """
    checked = validate_config(config)
    exp = checked["experiment"]
    out = Path(out_dir if out_dir is not None else checked["output_path"])
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    header, rows, fits, checks = _RUNNERS[exp](checked["params"])
    wall = time.perf_counter() - start

    csv_path = out / f"{exp}.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")

    ok = all(c.get("ok", True) for c in checks)
    summary = {
        "config": config,
        "results": {"fits": fits, "checks": checks},
        "versions": _versions(),
        "wall_time_s": wall,
    }
    json_path = out / f"{exp}.json"
    with open(json_path, "w", newline="") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    if not ok:
        failed = [c["name"] for c in checks if not c.get("ok", True)]
        raise ToleranceFailure(f"checks above tolerance: {', '.join(failed)}")
    return RunResult(csv_path, json_path, summary, ok)
