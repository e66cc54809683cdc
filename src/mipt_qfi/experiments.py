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

import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ed
from .errors import ConfigError, ToleranceFailure
from .fitting import fit_exponential_rate, fit_power_law, stable_window_start
from .qfi import critical_mode_coefficient, fbar, qfi_quench
from .realspace import entanglement_depth, evolve, init_state, witness_qfi
from .spectral import ModelParams, critical_gamma, spectrum_table

__all__ = ["EXPERIMENTS", "load_config", "validate_config", "run_experiment", "RunResult"]


@functools.cache
def _validator():
    """The config-schema validator, checked against its metaschema once."""
    import jsonschema

    schema = json.loads((Path(__file__).resolve().parent / "config.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    # strict JSON types: 8.0 is no integer and NaN or Infinity no number
    types = cls.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: type(x) is int,
        "number": lambda _, x: type(x) is int or (isinstance(x, float) and math.isfinite(x)),
    })
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _strictly_increasing(values, name: str) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigError(f"{name}: grid must be non-empty")
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ConfigError(f"{name}: grid must be strictly increasing")


def validate_config(config: dict) -> dict:
    """Schema validation plus cross-field grid checks; returns the config."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field '{path}': {error.message}")

    exp = config["experiment"]
    params = config.get("params", {})
    if exp == "witness-scaling":
        _strictly_increasing(params["sizes"], "params/sizes")
        for n in params["sizes"]:
            if n % 2 or n < 4:
                raise ConfigError(f"params/sizes: sizes must be even and >= 4, got {n}")
    if exp == "quench-series":
        _strictly_increasing(params["times"], "params/times")
    if exp == "fbar-sweep" and "gammas" in params:
        _strictly_increasing(params["gammas"], "params/gammas")
    if exp in ("fbar-sweep", "critical-exponent") and abs(params["h"]) >= 1.0:
        raise ConfigError(f"params/h: |h| must be < 1 for {exp}, got {params['h']}")
    if exp == "critical-exponent":
        off = params.get("log_offsets", {})
        lo, hi = off.get("min", -6.0), off.get("max", -2.0)
        if lo >= hi:
            raise ConfigError("params/log_offsets: min must be below max")
        gc = critical_gamma(params["h"])
        # compare logs so that exp(max) cannot overflow
        if hi >= math.log(gc):
            raise ConfigError(f"params/log_offsets: max must be below log(gamma_c) = {math.log(gc)!r}")
        if not gc - math.exp(lo) < gc < gc + math.exp(lo):
            raise ConfigError(f"params/log_offsets: min = {lo!r} leaves gamma = gamma_c in double precision")
    return config


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


def _witness_series(n: int, gamma: float, times: list[float], dt: float, kind: str, h0: float):
    p = ModelParams(n, 0.0, gamma, "open")
    state = init_state(n, kind, h=h0)
    out = []
    done = 0.0
    for t in times:
        steps = int(round((t - done) / dt))
        if steps > 0:
            state = evolve(state, p, dt, steps)
            done += steps * dt
        out.append(witness_qfi(state))
    return out


def _run_witness(params: dict):
    sizes = list(params["sizes"])
    gamma = params["gamma"]
    t_measure = params.get("measure_time", 7.5)
    dt = params.get("dt", 0.05)
    kind = params.get("initial_kind", "hermitian-ground")
    h0 = params.get("initial_h", 0.0)
    sensitivity = params.get("time_sensitivity", True)
    times = [0.8 * t_measure, t_measure, 1.2 * t_measure] if sensitivity else [t_measure]

    series = [_witness_series(n, gamma, times, dt, kind, h0) for n in sizes]
    main_idx = times.index(t_measure)
    fs = [s[main_idx] for s in series]
    rows = [(n, f, f / n, entanglement_depth(f, n)) for n, f in zip(sizes, fs)]
    fits = []
    for idx, t in enumerate(times):
        fit = fit_power_law(sizes, [s[idx] for s in series])
        tag = "eta" if idx == main_idx else f"eta_at_t={t:g}"
        fits.append({"name": tag, **fit.as_dict()})
    return "N,F,F_over_N,depth", rows, fits, []


# ----------------------------------------------------------- quench-series


def _run_quench_series(params: dict):
    p = ModelParams(params["n_sites"], params["h"], params["gamma"], "periodic")
    ts = list(params["times"])
    window = params.get("fit_window", 0.3)
    fs = [qfi_quench(p, float(t)) for t in ts]
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


def default_fbar_gammas(h: float, per_side: int = 40) -> list[float]:
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
    n_sites = params.get("n_sites", 512)
    gammas = params.get("gammas") or default_fbar_gammas(h, params.get("points_per_side", 40))
    vals = [fbar(ModelParams(n_sites, h, float(g), "periodic")) for g in gammas]
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
    off = params.get("log_offsets", {})
    lo, hi, num = off.get("min", -6.0), off.get("max", -2.0), off.get("num", 40)
    offsets = np.exp(np.linspace(lo, hi, num))
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
    tol_modes = params.get("tol_quench", 1e-5)
    tol_ed = params.get("tol_ed", 1e-6)
    tol_wit = params.get("tol_witness", 1e-6)
    checks = []

    def add(name: str, delta: float, tol: float):
        checks.append({"name": name, "delta": delta, "tolerance": tol, "ok": bool(delta <= tol)})

    for n in params.get("quench_sizes", [4, 6]):
        for h in params.get("hs", [0.3]):
            for g in params.get("gammas", [0.5, 2.0]):
                p = ModelParams(n, h, g, "periodic")
                gs, _ = ed.dense_ground_state(p)
                for t in params.get("times", [0.5, 1.5]):
                    f_modes = qfi_quench(p, t)
                    f_fd = ed.qfi_finite_difference(p, t, gs)
                    f_sn = ed.o_covariance_qfi(p, t, gs)
                    scale = max(abs(f_fd), 1e-12)
                    tag = f"quench[N={n},h={h},gamma={g},t={t}]"
                    add(f"{tag} modes_vs_fd", abs(f_modes - f_fd) / scale, tol_modes)
                    add(f"{tag} sneddon_vs_fd", abs(f_sn - f_fd) / scale, tol_ed)

    for n in params.get("witness_sizes", [4, 6]):
        for g in params.get("witness_gammas", [0.75, 4.5]):
            p = ModelParams(n, 0.0, g, "open")
            for t in params.get("witness_times", [0.5, 2.0]):
                st = evolve(init_state(n), p, t, 1) if t > 0 else init_state(n)
                f_gauss = witness_qfi(st)
                f_dense = 4.0 * ed.sx_variance_dense(ed.evolve_dense(p, t, ed.dense_vacuum(n)))
                scale = max(abs(f_dense), 1e-12)
                add(f"witness[N={n},gamma={g},t={t}]", abs(f_gauss - f_dense) / scale, tol_wit)

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
    config = validate_config(config)
    exp = config["experiment"]
    out = Path(out_dir) if out_dir is not None else Path(config.get("output_path", "."))
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    header, rows, fits, checks = _RUNNERS[exp](config.get("params", {}))
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
