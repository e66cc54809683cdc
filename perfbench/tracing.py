"""Spans around calls into the package's public functions, from outside it.

``Tracer`` replaces every binding of each traced function inside the
loaded ``mipt_qfi`` modules with a wrapper: the defining module's own name
(so ``witness_qfi``'s call to ``majorana_correlations`` becomes a child
span) and each importing module's name (``experiments.evolve``,
``qfi.mode_system``, ...).  Leaving the ``with`` block restores the
originals.  Spans are kept in memory as ``[label, start, end, parent]``
with the parent's index or -1; a single stack gives the parent, which is
exact because every benchmark run uses ``threads=1``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "realspace": ("init_state", "evolve", "majorana_correlations", "witness_qfi"),
    "qfi": ("qfi_quench", "fbar", "mode_qfi_coefficients", "r_matrix", "critical_mode_coefficient"),
    "spectral": ("mode_system", "spectrum_table"),
    "quench": ("ising_ground_amplitudes", "evolve_amplitudes"),
    "ed": (
        "evolve_dense",
        "build_h_eff",
        "build_hamiltonian",
        "dense_ground_state",
        "qfi_finite_difference",
        "o_covariance_qfi",
        "sx_variance_dense",
    ),
    "fitting": ("fit_power_law", "fit_exponential_rate", "stable_window_start"),
    "experiments": ("validate_config", "run_experiment"),
}

# work counts read off call arguments; each lambda takes the traced
# function's own parameters
WORK = {
    "realspace.evolve": ("realspace.evolve.steps", lambda state, params, dt, n_steps: n_steps),
    "realspace.witness_qfi": (
        "realspace.witness_qfi.pairs",
        lambda state: state.n_sites * (state.n_sites - 1) // 2,
    ),
    "qfi.qfi_quench": ("qfi.qfi_quench.modes", lambda params, t, amps0=None: params.n_sites // 2),
    "qfi.mode_qfi_coefficients": ("qfi.mode_qfi_coefficients.modes", lambda params: params.n_sites // 2),
}


def label_of(module: str, name: str) -> str:
    """Span label of a traced function; the three fits share one label."""
    return "fitting" if module == "fitting" else f"{module}.{name}"


def labels() -> list[str]:
    return list(dict.fromkeys(label_of(m, f) for m, fns in TRACED.items() for f in fns))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for label, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (label, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


class Tracer:
    """Context manager that records spans and work counts while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "mipt_qfi" or n.startswith("mipt_qfi.")]
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"mipt_qfi.{mod_name}")
            for name in names:
                orig = getattr(module, name)
                wrapper = self._wrap(label_of(mod_name, name), orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter = WORK.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                work[counter[0]] += counter[1](*args, **kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per label, plus the work counts (zero when unused)."""
        calls, self_s = Counter(), defaultdict(float)
        for (label, *_), own in zip(self.spans, self_times(self.spans)):
            calls[label] += 1
            self_s[label] += own
        out = {}
        for label in labels():
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        for name, _ in WORK.values():
            out[name] = self.work[name]
        return out
