"""End-to-end and per-layer benchmark of the mipt-qfi experiments.

Usage (from the repository root):

    python3 perfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

A run first probes set-up in fresh interpreters, then makes one pass over
the workload's default-seed configs, checked against the stored reference
in perfbench/reference/, then passes over the seeded configs until
--seconds have passed (at least MIN_PASSES passes in all).  Every pass
calls mipt_qfi.experiments.run_experiment with threads=1 and checks every
output (see harness.py).

--trace 0 reports the end-to-end metrics:
    setup_s      median wall of SETUP_PROBES fresh interpreters that import
                 the package and validate the workload's configs
    wall_s       median wall of one pass, the first included (the pass count
                 is printed)
    peak_rss_mb  peak resident memory of this process
    pass_frac    1 - failed runs / attempted runs (fail_frac = 1 - pass_frac)
--trace 1 splits the measuring time between untraced passes and ends with
one traced pass; it reports per-function calls and self time, work counts,
typed-error counts, the reference deviation, the cold-pass surcharge and
the tracing overhead.  Spans are written to .bench_out/.

The last line of standard output is the JSON result.  Provenance (git sha,
source digest, CPUs, versions, BLAS and its threads, kernel backend) is
printed above it and kept with the run's record in .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracing

ROOT = harness.ROOT
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_PROBE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import mipt_qfi; "
    "from mipt_qfi.experiments import validate_config; "
    "[validate_config(c) for c in json.load(sys.stdin)]"
)


def setup_seconds(configs: list[dict]) -> float:
    """Wall time of a fresh interpreter importing the package and validating configs."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src")],
        input=json.dumps(configs), text=True, stdout=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mipt_qfi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _openblas_threads(module) -> int | None:
    """Threads the OpenBLAS bundled with a numpy/scipy wheel will use, if found."""
    import ctypes

    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(module) -> str | None:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def provenance() -> dict:
    import importlib.util

    import numpy
    import scipy

    from mipt_qfi import _kernels

    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_threads": {
            "env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "numpy_openblas": _openblas_threads(numpy),
            "scipy_openblas": _openblas_threads(scipy),
        },
        "kernel_backend": _kernels.backend_name(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "threads": harness.THREADS,
    }


def _passes_for(seconds: float, configs, tmp_root, minimum: int) -> list:
    passes, start = [], time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        passes.append(harness.run_pass(configs, tmp_root))
    return passes


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp_root: Path) -> tuple[dict, list, dict]:
    """Run one workload; returns (metrics as name -> (value, unit), passes, record)."""
    configs = harness.workload_configs(workload, seed)
    setup = [] if trace else [setup_seconds(configs) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    cold = harness.run_pass(harness.workload_configs(workload, harness.DEFAULT_SEED), tmp_root,
                            harness.load_reference(workload))
    if not trace:
        passes = [cold] + _passes_for(seconds - (time.perf_counter() - start), configs, tmp_root,
                                      MIN_PASSES - 1)
        runs = [r for p in passes for r in p.runs]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "pass_frac": (1.0 - sum(r.failed for r in runs) / len(runs), "ratio"),
        }
        record = {"setup_s": setup, "pass_wall_s": [p.wall_s for p in passes]}
        return metrics, passes, record

    untraced = _passes_for(seconds / 2 - (time.perf_counter() - start), configs, tmp_root, 1)
    with tracing.Tracer() as tracer:
        traced = harness.run_pass(configs, tmp_root)
    for t_run, u_run in zip(traced.runs, untraced[-1].runs):
        if t_run.csv != u_run.csv:
            t_run.problems.append("traced CSV differs from the untraced one")
    passes = [cold] + untraced + [traced]
    runs = [r for p in passes for r in p.runs]
    untraced_wall = statistics.median(p.wall_s for p in untraced)

    metrics = {}
    for name, value in tracer.layer_metrics().items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["experiments.output_bytes"] = (sum(r.output_bytes for r in traced.runs), "bytes")
    for name in harness.ERROR_NAMES:
        metrics[f"errors.{name}"] = (sum(r.error == name for r in runs), "count")
    metrics["check.bad_outputs"] = (sum(bool(r.problems) for r in runs), "count")
    metrics["check.max_rel_dev"] = (max(r.max_rel_dev for r in cold.runs), "ratio")
    metrics["warmup.first_pass_extra_s"] = (cold.wall_s - untraced_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced_wall - 1.0, "ratio")
    record = {"cold_wall_s": cold.wall_s, "untraced_wall_s": [p.wall_s for p in untraced],
              "traced_wall_s": traced.wall_s, "spans": tracer.spans}
    return metrics, passes, record


def _report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        metrics, passes, record = measure(workload, seed, seconds, trace, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    runs = [r for p in passes for r in p.runs]
    failed = [r for r in runs if r.failed]
    for r in failed:
        print(f"FAILED {r.experiment}: {r.error or ''} {'; '.join(r.problems[:5])}", file=sys.stderr)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {len(passes)} "
          f"(the first at the default seed)  runs {len(runs)}  failed {len(failed)}  "
          f"fail_frac {len(failed) / len(runs):.3g}")
    for name, (value, unit) in metrics.items():
        note = f"  median of {len(passes)} passes" if name == "wall_s" else ""
        print(f"  {name:<40} {value:>16.9g} {unit}{note}")
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                               "provenance": prov,
                               "metrics": {k: v for k, (v, _) in metrics.items()}, **record}))
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.workload_names():
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the workload's default-seed outputs as its reference")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the temporary directories are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload != "all" and args.workload not in harness.workload_names():
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.write_reference:
        tmp_root = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
        try:
            names = harness.workload_names() if args.workload == "all" else [args.workload]
            for name in names:
                harness.write_reference(name, tmp_root)
        finally:
            shutil.rmtree(tmp_root, ignore_errors=True)
        return 0
    if args.workload == "all":
        result = _run_all(args.seed, args.seconds)
    else:
        result = _report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
