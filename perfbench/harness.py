"""Workload inputs, timed passes over a workload, and the correctness gate.

A pass runs every config of a workload once through
``mipt_qfi.experiments.run_experiment`` with ``threads=THREADS``, each run in a
fresh output directory.  Only the ``run_experiment`` calls are timed; the
output checks run afterwards.  A run fails when it raises (typed error or
any other exception), when an oracle check reports ``ok = false``, when a
number in the CSV or the summary's results is not finite, or, given a
reference, when a value leaves the reference tolerance.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

if not (ROOT / "src" / "mipt_qfi" / "__init__.py").is_file():
    raise SystemExit(f"error: no mipt_qfi sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from mipt_qfi import errors, experiments  # noqa: E402

DEFAULT_SEED = 0
THREADS = 1  # the CLI default
# Seeded inputs: every rate (gamma, gammas, witness_gammas) is scaled by a
# factor in [1 - GAMMA_JITTER, 1 + GAMMA_JITTER]; every non-zero field
# (h, hs) is shifted by up to +-H_JITTER.  h = 0 stays exact: the vacuum
# and zero-mode degeneracies of the witness runs depend on it.  The h range
# keeps the fbar-sweep grid mode nearest k_c = arccos(-h) at least 1e-4
# away from the exceptional point that gamma = gamma_c puts there.
GAMMA_JITTER = 0.01
H_JITTER = 5e-4
_GAMMA_KEYS = ("gamma", "gammas", "witness_gammas")
_H_KEYS = ("h", "hs")

# A value x passes against its reference r when
# |x - r| <= REFERENCE_RTOL * max(|r|, 1): relative for |r| >= 1, absolute
# below.  It admits the ~1e-14 shifts of re-ordered floating-point sums.
REFERENCE_RTOL = 1e-9

# most specific first: QuadratureError is a NumericalFault
TYPED_ERRORS = (
    errors.ConfigError,
    errors.ToleranceFailure,
    errors.QuadratureError,
    errors.NumericalFault,
)
ERROR_NAMES = tuple(e.__name__ for e in TYPED_ERRORS) + ("other",)


def workload_names() -> list[str]:
    return list(_load_workloads())


def _load_workloads() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def workload_configs(name: str, seed: int) -> list[dict]:
    """The workload's configs; seeds other than DEFAULT_SEED jitter gamma and h."""
    configs = copy.deepcopy(_load_workloads()[name])
    if seed == DEFAULT_SEED:
        return configs
    rng = random.Random(seed)

    def scale(g):
        return g * (1.0 + GAMMA_JITTER * rng.uniform(-1.0, 1.0))

    def shift(h):
        return h + H_JITTER * rng.uniform(-1.0, 1.0) if h != 0 else h

    for config in configs:
        params = config["params"]
        for key in sorted(params):
            jitter = scale if key in _GAMMA_KEYS else shift if key in _H_KEYS else None
            if jitter is None:
                continue
            value = params[key]
            params[key] = [jitter(v) for v in value] if isinstance(value, list) else jitter(value)
    return configs


@dataclass
class RunOutcome:
    """One run_experiment call: its time, outputs and what failed."""

    experiment: str
    seconds: float
    csv: bytes
    output_bytes: int
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    max_rel_dev: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


@dataclass
class PassResult:
    runs: list[RunOutcome]

    @property
    def wall_s(self) -> float:
        return sum(r.seconds for r in self.runs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.runs)


def _error_name(exc: BaseException) -> str:
    for cls in TYPED_ERRORS:
        if isinstance(exc, cls):
            return cls.__name__
    return "other"


def run_pass(configs: list[dict], tmp_root: Path, reference: dict | None = None) -> PassResult:
    return PassResult([_run_one(c, tmp_root, reference) for c in configs])


def _run_one(config: dict, tmp_root: Path, reference: dict | None) -> RunOutcome:
    exp = config["experiment"]
    out = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        error = None
        start = time.perf_counter()
        try:
            experiments.run_experiment(copy.deepcopy(config), out, threads=THREADS)
        except Exception as exc:  # the gate counts every failure and goes on
            error = _error_name(exc)
        seconds = time.perf_counter() - start
        csv_path, json_path = out / f"{exp}.csv", out / f"{exp}.json"
        csv = csv_path.read_bytes() if csv_path.exists() else b""
        output_bytes = sum(p.stat().st_size for p in (csv_path, json_path) if p.exists())
        outcome = RunOutcome(exp, seconds, csv, output_bytes, error)
        if error is None:
            results = json.loads(json_path.read_text())["results"]
            outcome.problems = check_outputs(csv.decode(), results)
            if reference is not None:
                problems, outcome.max_rel_dev = compare_reference(csv.decode(), results, reference[exp])
                outcome.problems += problems
        return outcome
    finally:
        shutil.rmtree(out)


def _cells(csv_text: str) -> list[list]:
    """CSV rows with numeric cells parsed to floats, others kept as text."""
    rows = []
    for line in csv_text.splitlines():
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def _leaves(obj, path: str = "") -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        return [leaf for k in sorted(obj) for leaf in _leaves(obj[k], f"{path}/{k}")]
    if isinstance(obj, list):
        return [leaf for i, v in enumerate(obj) for leaf in _leaves(v, f"{path}/{i}")]
    return [(path, obj)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_outputs(csv_text: str, results: dict) -> list[str]:
    """Non-finite numbers in the CSV or results, and oracle checks not ok."""
    problems = []
    for i, row in enumerate(_cells(csv_text)):
        if any(_is_number(x) and not math.isfinite(x) for x in row):
            problems.append(f"non-finite value in CSV row {i}")
    for path, value in _leaves(results):
        if _is_number(value) and not math.isfinite(value):
            problems.append(f"non-finite value at results{path}")
    for check in results.get("checks", []):
        if check.get("ok") is False:
            problems.append(f"check {check['name']} not ok")
    return problems


def compare_reference(csv_text: str, results: dict, ref: dict) -> tuple[list[str], float]:
    """Problems against the stored reference, and the largest finite deviation.

    The deviation of a number is |x - r| / max(|r|, 1); any other leaf
    (text, flag, null) must match exactly.
    """
    got = [(f"csv/{i}/{j}", x) for i, row in enumerate(_cells(csv_text)) for j, x in enumerate(row)]
    got += _leaves(results, "results")
    want = [(f"csv/{i}/{j}", x) for i, row in enumerate(_cells(ref["csv"])) for j, x in enumerate(row)]
    want += _leaves(ref["results"], "results")
    if [p for p, _ in got] != [p for p, _ in want]:
        return ["output layout differs from the reference"], 0.0
    problems, worst = [], 0.0
    for (path, x), (_, r) in zip(got, want):
        if _is_number(x) and _is_number(r):
            dev = abs(x - r) / max(abs(r), 1.0)
            if not dev <= REFERENCE_RTOL:
                problems.append(f"{path}: {x!r} vs reference {r!r}")
            if math.isfinite(dev):
                worst = max(worst, dev)
        elif x != r:
            problems.append(f"{path}: {x!r} vs reference {r!r}")
    return problems, worst


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())


def reference_outputs(configs: list[dict], tmp_root: Path) -> dict:
    """CSV text and summary results of each config, keyed by experiment."""
    ref = {}
    for config in configs:
        exp = config["experiment"]
        out = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            experiments.run_experiment(copy.deepcopy(config), out, threads=THREADS)
            ref[exp] = {
                "csv": (out / f"{exp}.csv").read_text(),
                "results": json.loads((out / f"{exp}.json").read_text())["results"],
            }
        finally:
            shutil.rmtree(out)
    return ref


def write_reference(workload: str, tmp_root: Path) -> None:
    """Store the default-seed outputs of a workload as its reference."""
    ref = reference_outputs(workload_configs(workload, DEFAULT_SEED), tmp_root)
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
