"""Every function, class and method in `src/mipt_qfi` is reached from other
package code, so that the package holds what the experiments run and a
definition that only tests call lives in `tests/`.

A definition counts as reached when its name appears as an AST name or
attribute somewhere in `src/mipt_qfi` outside its own body; imports,
`__all__` strings and docstrings do not count, and neither does a dunder
method, which Python calls by protocol.  The exceptions are the names the
benchmark in `perfbench/` pins, read from its files: the traced functions
of `tracing.TRACED` and every `module.name` attribute of a package module
there (the classes of `harness.TYPED_ERRORS`, `_kernels.backend_name`,
...), plus `GaussianState.orthonormality_defect`, the frame's health
figure for the run diagnostics of ROADMAP item 6.  Once the benchmark
stops naming a pinned definition, this test flags it.

Likewise every defaulted parameter of a package function is set by some
call in `src/mipt_qfi`, by position or by keyword, outside the function's
own body: a default that no caller overrides is a knob that does nothing.
The exceptions, in `UNSET_DEFAULTS`:
- `_kernels.xx_table.steps`, the branch counts that the run diagnostics
  of ROADMAP item 6 will record
- `experiments.run_experiment.threads`, which the benchmark's harness
  passes until ROADMAP item 1 drops it
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mipt_qfi"
BENCH = ROOT / "perfbench"
MODULES = {path.stem for path in SRC.glob("*.py")}
KEPT = {"GaussianState.orthonormality_defect"}
UNSET_DEFAULTS = {
    "_kernels.xx_table.steps",
    "experiments.run_experiment.threads",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree, prefix=""):
    """(qualified name, node) of every function, class and method, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}{node.name}"
            yield name, node
            yield from definitions(node, f"{name}.")
        else:
            yield from definitions(node, prefix)


def references(tree):
    """(name, line) of every AST name and attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def pinned():
    """Names the benchmark binds: its traced functions and its package attributes."""
    names = set()
    for path in BENCH.glob("*.py"):
        tree = parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                names.update(n for fns in ast.literal_eval(node.value).values() for n in fns)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                names.add(node.attr)
    return names


def unreached():
    trees = {path.name: parse(path) for path in sorted(SRC.glob("*.py"))}
    refs = {name: list(references(tree)) for name, tree in trees.items()}
    keep = pinned()
    out = []
    for file, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in keep or qualname in KEPT:
                continue
            first, last = node.lineno, node.end_lineno
            if not any(
                ref == name and not (other == file and first <= line <= last)
                for other, found in refs.items()
                for ref, line in found
            ):
                out.append(f"{file[:-3]}.{qualname}")
    return out


def test_benchmark_pins_are_found():
    # a parse that finds nothing would let every definition through
    assert {"r_matrix", "build_h_eff", "QuadratureError", "backend_name"} <= pinned()


def test_every_src_definition_is_reached_from_src():
    assert unreached() == []


def defaulted(node):
    """(position, name) of each defaulted parameter; position is None for a keyword-only one.

    The position counts from the first argument a caller writes, so a
    method's `self` or `cls` is left out.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    first = 1 if positional and positional[0].arg in ("self", "cls") else 0
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield i - first, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def calls(tree):
    """(callee name, node) of every call in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def sets(call, position, name):
    """Whether the call passes the parameter; a * or ** argument may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def unset_defaults():
    """`module.qualname.param` of each defaulted parameter that no package call sets.

    A dunder method is left out: Python calls it by protocol.
    """
    trees = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    found = {module: list(calls(tree)) for module, tree in trees.items()}
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if isinstance(node, ast.ClassDef) or dunder:
                continue
            first, last = node.lineno, node.end_lineno
            for position, name in defaulted(node):
                if not any(
                    callee == node.name
                    and not (other == module and first <= call.lineno <= last)
                    and sets(call, position, name)
                    for other, pairs in found.items()
                    for callee, call in pairs
                ):
                    out.append(f"{module}.{qualname}.{name}")
    return out


def test_every_defaulted_parameter_is_set_from_src():
    assert sorted(set(unset_defaults()) - UNSET_DEFAULTS) == []


def test_unset_default_exemptions_are_still_unset():
    # a scan that finds nothing would pass the gate; an exemption whose
    # parameter a caller now sets, or that is gone, is stale
    assert UNSET_DEFAULTS <= set(unset_defaults())
