"""Golden outputs of the shipped configs in docs/configs.

Each config runs through run_experiment, which validates it first, and
its CSV and its JSON ``results`` are compared with the copies in
tests/data: a number x passes against its stored value r when
|x - r| <= 1e-12 * max(|r|, 1), and any other cell or leaf (text, flag,
null) must match exactly.  The bound admits the ~1e-15 relative shifts
that the BLAS thread count leaves in the witness-scaling values at
N = 64 and 128.

After a deliberate change of the outputs, rewrite the copies with

    PYTHONPATH=src python tests/test_shipped_configs.py
"""

import json
import tempfile
from pathlib import Path

import pytest

from mipt_qfi.experiments import EXPERIMENTS, load_config, run_experiment

CONFIGS = Path(__file__).parents[1] / "docs" / "configs"
DATA = Path(__file__).parent / "data"
RTOL = 1e-12


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(value, path: str):
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key], f"{path}/{key}")]
    if isinstance(value, list):
        return [leaf for i, x in enumerate(value) for leaf in _leaves(x, f"{path}/{i}")]
    return [(path, value)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _mismatches(got: list, want: list) -> list[str]:
    if [p for p, _ in got] != [p for p, _ in want]:
        return ["layout differs"]
    bad = []
    for (path, x), (_, r) in zip(got, want):
        if _is_number(x) and _is_number(r):
            if not abs(x - r) <= RTOL * max(abs(r), 1.0):
                bad.append(f"{path}: {x!r} vs {r!r}")
        elif x != r:
            bad.append(f"{path}: {x!r} vs {r!r}")
    return bad


def _csv_leaves(text: str) -> list:
    return [(f"csv/{i}/{j}", _cell(c)) for i, line in enumerate(text.splitlines())
            for j, c in enumerate(line.split(","))]


def _run(name: str, out: Path):
    result = run_experiment(load_config(CONFIGS / f"{name}.json"), out_dir=out)
    return result.csv_path.read_text(), result.summary["results"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_shipped_config_matches_its_golden_output(tmp_path, name):
    csv_text, results = _run(name, tmp_path)
    want_csv = (DATA / f"{name}.csv").read_text()
    want_results = json.loads((DATA / f"{name}.json").read_text())
    assert _mismatches(_csv_leaves(csv_text), _csv_leaves(want_csv)) == []
    assert _mismatches(_leaves(results, "results"), _leaves(want_results, "results")) == []


def record() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            csv_text, results = _run(name, Path(tmp))
            (DATA / f"{name}.csv").write_text(csv_text)
            (DATA / f"{name}.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
