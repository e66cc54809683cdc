"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They run the harness on a small cut of every experiment, so they take
seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from mipt_qfi import experiments, realspace  # noqa: E402

SMALL = [
    {"experiment": "witness-scaling", "params": {"sizes": [4, 6, 8], "gamma": 0.75, "measure_time": 1.0, "dt": 0.1}},
    {"experiment": "spectrum", "params": {"n_sites": 16, "h": 0.3, "gamma": 2.0}},
    {"experiment": "quench-series", "params": {"n_sites": 16, "h": 0.3, "gamma": 2.0,
                                                "times": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}},
    {"experiment": "fbar-sweep", "params": {"h": 0.6, "n_sites": 16, "points_per_side": 3}},
    {"experiment": "critical-exponent", "params": {"h": 0.6, "log_offsets": {"min": -6, "max": -2, "num": 4}}},
    {"experiment": "oracle-check", "params": {"quench_sizes": [4], "gammas": [0.5], "times": [0.5],
                                               "witness_sizes": [4], "witness_gammas": [0.75],
                                               "witness_times": [0.5]}},
]


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def reference(tmp_root) -> dict:
    return harness.reference_outputs(SMALL, tmp_root)


def test_traced_and_untraced_csvs_are_byte_identical(tmp_root, reference):
    untraced = harness.run_pass(SMALL, tmp_root, reference)
    with tracing.Tracer() as tracer:
        traced = harness.run_pass(SMALL, tmp_root)
    assert untraced.failed == 0 and traced.failed == 0
    assert [r.csv for r in traced.runs] == [r.csv for r in untraced.runs]
    assert tracer.spans
    # the wrappers are gone again
    assert experiments.evolve is realspace.evolve
    assert not hasattr(realspace.evolve, "__wrapped__")


def test_nan_output_fails_the_run(tmp_root, monkeypatch):
    # a NaN string table passes witness_qfi's imaginary-part check
    monkeypatch.setattr(realspace, "xx_table", lambda g: np.full((g.shape[0] // 2,) * 2, np.nan + 0j))
    monkeypatch.setattr(experiments, "spectrum_table", lambda p: np.full((p.n_sites // 2, 3), np.nan))
    result = harness.run_pass(SMALL[:2], tmp_root)
    witness, spectrum = result.runs
    assert witness.failed
    assert spectrum.error is None and spectrum.problems  # caught by the finiteness rule
    assert result.failed / len(result.runs) > 0


def test_reference_tolerance(reference):
    ref = reference["spectrum"]
    rows = [line.split(",") for line in ref["csv"].splitlines()]

    def shifted(rel):
        out = [rows[0]] + [[r[0], repr(float(r[1]) * (1 + rel)), r[2]] for r in rows[1:]]
        return "\n".join(",".join(r) for r in out) + "\n"

    problems, dev = harness.compare_reference(shifted(1e-14), ref["results"], ref)
    assert not problems and dev < 1e-13
    problems, dev = harness.compare_reference(shifted(1e-6), ref["results"], ref)
    assert problems and dev > harness.REFERENCE_RTOL


def test_child_self_times_fit_inside_parent(tmp_root):
    with tracing.Tracer() as tracer:
        harness.run_pass(SMALL, tmp_root)
    spans = tracer.spans
    own = tracing.self_times(spans)
    child_self = [0.0] * len(spans)
    for (_, _, _, parent), s in zip(spans, own):
        if parent >= 0:
            child_self[parent] += s
    for (label, start, end, _), total in zip(spans, child_self):
        assert total <= end - start + 1e-9, label
    assert min(own) >= -1e-9
    # self times partition the top-level spans
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(own) == pytest.approx(roots, abs=1e-9)
    labels = {s[0] for s in spans}
    assert {"realspace.majorana_correlations", "spectral.mode_system", "ed.evolve_dense", "fitting"} <= labels
    # witness_qfi's own call to majorana_correlations is a child span
    parents = {spans[p][0] for label, _, _, p in spans if label == "realspace.majorana_correlations"}
    assert "realspace.witness_qfi" in parents


def test_seed_jitters_only_rates_and_fields():
    base = harness.workload_configs("oracle", harness.DEFAULT_SEED)
    a, b = harness.workload_configs("oracle", 7), harness.workload_configs("oracle", 7)
    assert a == b and a != base
    for key in ("gammas", "witness_gammas"):
        for x, x0 in zip(a[0]["params"][key], base[0]["params"][key]):
            assert abs(x / x0 - 1) <= harness.GAMMA_JITTER
    assert abs(a[0]["params"]["hs"][0] - base[0]["params"]["hs"][0]) <= harness.H_JITTER
    assert a[0]["params"]["quench_sizes"] == base[0]["params"]["quench_sizes"]
    witness = harness.workload_configs("witness-long", 7)[0]["params"]
    assert witness["sizes"] == [16, 24, 32] and witness["dt"] == 0.01 and "initial_h" not in witness


def test_metric_names_match_benchmark_json(tmp_root, reference, monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(harness, "workload_configs", lambda name, seed: SMALL)
    monkeypatch.setattr(harness, "load_reference", lambda name: reference)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, passes, _ = run.measure("small", 1, 0.0, trace, tmp_root)
        assert [(m["name"], m["unit"]) for m in spec[key]] == [(k, u) for k, (_, u) in metrics.items()]
        assert all(math.isfinite(v) for v, _ in metrics.values())
        assert sum(p.failed for p in passes) == 0
