"""The benchmark's tracer patches package functions by name and reads work
counts off their arguments; a renamed or re-signed function must fail here,
not only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = [(m, name) for m, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"mipt_qfi.{module}"), name, None))


@pytest.mark.parametrize("label", sorted(tracing.WORK))
def test_work_counter_accepts_the_positional_parameters(label):
    module, name = label.split(".")
    params = inspect.signature(getattr(importlib.import_module(f"mipt_qfi.{module}"), name)).parameters
    positional = [
        p.name for p in params.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and p.default is p.empty
    ]
    _, counter = tracing.WORK[label]
    inspect.signature(counter).bind(*positional)
