"""Structural lints on the valkit sources, checked with `ast`.

Every valkit module uses each name it imports: a stdlib-only stand-in for a
linter's unused-import rule. Each module under `src/valkit` is parsed, and
every name bound by an import must be read somewhere in that module, in code
or in a string annotation. The package `__init__.py` is exempt because its
imports are re-exports.

Tables work on rows: generic inference (`inference.py`, `algebra.py`) and the
four table operations never name `Assignment` or call an assignment's
`.restrict` or `.merge`, which would rebuild per-row assignments.

The reference implementations are for the tests alone: no module other than
its defining one calls `solve_naive`, `combination_verdict` or
`check_complete_disagreement`, so the analysis path cannot drift back onto
them.

Boolean potentials are relations: possibilistic data is read, analysed and
written as a relation, and only `core.py`, which defines the Boolean
semiring, names `BOOLEAN`.

Gamma has one producer, `JoinTree.combination`: no module other than
`inference.py`, which defines `calibrate`, and `disagreement.py`, whose
support analysis is the one caller on the analysis path, calls `calibrate`.
So no helper can build a second tree under its own guard and answer, or
refuse, what the analysis does not.

A model analysis is one `classify` call: no module other than
`contextuality.py` calls `check_no_signalling`, and no module defines or calls
`classify_checked`, the second entry point that `classify` absorbed.

No valkit module imports `dataclasses`: every value type is a `core.Record`,
and importing `dataclasses` would put it and `inspect` back on every
command's start-up.

The traced benchmark wraps valkit functions by name: every `(module,
function)` pair in `LAYERS` of `bench/tracing.py` must still name a callable
in `valkit.<module>`, so a rename under `src/` cannot silently drop a layer.
"""

import ast
import importlib
from pathlib import Path

import valkit

PACKAGE = Path(valkit.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used(tree)
        for name, line in sorted(_imported(tree).items()):
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Mapping\ndef f(x: 'Mapping') -> int:\n    return 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}


ROW_ONLY_MODULES = ("inference.py", "algebra.py")
TABLE_OPERATIONS = {
    "relations.py": ("natural_join", "project_relation"),
    "potentials.py": ("combine_potentials", "project_potential"),
}


def _assignment_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Assignment":
            found.append(f"{node.lineno}: names Assignment")
        elif isinstance(node, ast.alias) and node.name == "Assignment":
            found.append("imports Assignment")
        elif isinstance(node, ast.Attribute) and node.attr == "Assignment":
            found.append(f"{node.lineno}: names Assignment")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("restrict", "merge"):
                found.append(f"{node.lineno}: calls .{node.func.attr}")
    return found


def test_inference_and_table_operations_work_on_rows():
    offences = []
    for name in ROW_ONLY_MODULES:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        offences.extend(f"{name}:{use}" for use in _assignment_uses(tree))
    for name, functions in TABLE_OPERATIONS.items():
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for function in functions:
            assert function in defined, f"{name} no longer defines {function}"
            offences.extend(f"{name}:{function}:{use}" for use in _assignment_uses(defined[function]))
    assert not offences, "per-row Assignment use:\n" + "\n".join(offences)


def test_the_row_check_sees_assignment_use():
    tree = ast.parse(
        "from .core import Assignment\n"
        "def join(r1, r2):\n"
        "    return {x.merge(y) for x in r1 for y in r2 if x.restrict(d) == core.Assignment(())}\n"
    )
    assert len(_assignment_uses(tree)) == 4
    assert _assignment_uses(ast.parse("def join(r1, r2):\n    return r1 | r2\n")) == []


REFERENCE_ONLY = {
    "solve_naive": "inference.py",
    "combination_verdict": "disagreement.py",
    "check_complete_disagreement": "disagreement.py",
}


def _reference_calls(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in REFERENCE_ONLY and REFERENCE_ONLY[name] != module:
                found.append(f"{module}:{node.lineno}: calls {name}")
    return found


def test_reference_implementations_have_no_caller_outside_their_module():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_reference_calls(tree, path.name))
    assert not offences, "reference implementation called on the analysis path:\n" + "\n".join(offences)


def test_the_reference_check_sees_calls():
    source = "def f(kb, g, p):\n    return combination_verdict(kb, g), inference.solve_naive(p)\n"
    assert len(_reference_calls(ast.parse(source), "contextuality.py")) == 2
    assert _reference_calls(ast.parse(source), "disagreement.py") == ["disagreement.py:2: calls solve_naive"]
    assert _reference_calls(ast.parse("from .inference import solve_naive\n"), "cli.py") == []
    complete = "def g(kb):\n    return disagreement.check_complete_disagreement(kb)\n"
    assert _reference_calls(ast.parse(complete), "contextuality.py") == [
        "contextuality.py:2: calls check_complete_disagreement"
    ]
    assert _reference_calls(ast.parse(complete), "disagreement.py") == []


CALIBRATING_MODULES = ("inference.py", "disagreement.py")


def _calibrate_calls(tree: ast.AST, module: str) -> list[str]:
    found = []
    if module in CALIBRATING_MODULES:
        return found
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "calibrate":
                found.append(f"{module}:{node.lineno}: calls calibrate")
    return found


def test_only_the_support_analysis_calibrates():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_calibrate_calls(tree, path.name))
    assert not offences, "a join tree calibrated outside the support analysis:\n" + "\n".join(offences)


def test_the_calibrate_check_sees_calls():
    source = "def gamma(model):\n    return calibrate(kb).combination(), inference.calibrate(kb, None)\n"
    assert _calibrate_calls(ast.parse(source), "contextuality.py") == [
        "contextuality.py:2: calls calibrate",
        "contextuality.py:2: calls calibrate",
    ]
    assert _calibrate_calls(ast.parse(source), "disagreement.py") == []
    assert _calibrate_calls(ast.parse(source), "inference.py") == []
    assert _calibrate_calls(ast.parse("from .inference import calibrate\n"), "contextuality.py") == []


BOOLEAN_MODULES = ("core.py",)


def _boolean_uses(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == "BOOLEAN")
            or (isinstance(node, ast.Attribute) and node.attr == "BOOLEAN")
            or (isinstance(node, ast.alias) and node.name == "BOOLEAN")
        ):
            found.append(f"{module}:{getattr(node, 'lineno', '?')}: names BOOLEAN")
    return found


def test_only_the_semiring_module_names_boolean():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in BOOLEAN_MODULES:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            offences.extend(_boolean_uses(tree, path.name))
    assert not offences, "Boolean semiring named outside core.py:\n" + "\n".join(offences)


def test_the_boolean_check_sees_a_use():
    source = "from .core import BOOLEAN\nfrom . import core\nx = (BOOLEAN, core.BOOLEAN)\n"
    assert len(_boolean_uses(ast.parse(source), "reports.py")) == 3
    assert _boolean_uses(ast.parse("x = NONNEG_RATIONAL\n"), "reports.py") == []


def _model_analysis_offences(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "classify_checked":
            found.append(f"{module}:{node.lineno}: defines classify_checked")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "classify_checked" or (name == "check_no_signalling" and module != "contextuality.py"):
                found.append(f"{module}:{node.lineno}: calls {name}")
    return found


def test_a_model_analysis_has_one_entry_point():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_model_analysis_offences(tree, path.name))
    assert not offences, "model analysis outside classify:\n" + "\n".join(offences)


def test_the_model_analysis_check_sees_a_second_entry_point():
    source = (
        "def classify_checked(model):\n"
        "    return model\n"
        "def f(model):\n"
        "    return check_no_signalling(model), contextuality.classify_checked(model)\n"
    )
    assert len(_model_analysis_offences(ast.parse(source), "reports.py")) == 3
    assert _model_analysis_offences(ast.parse(source), "contextuality.py") == [
        "contextuality.py:1: defines classify_checked",
        "contextuality.py:4: calls classify_checked",
    ]
    assert _model_analysis_offences(ast.parse("from .contextuality import check_no_signalling\n"), "reports.py") == []


def _dataclass_imports(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            found.append(f"{module}:{node.lineno}: imports dataclasses")
    return found


def test_no_module_imports_dataclasses():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_dataclass_imports(tree, path.name))
    assert not offences, "dataclasses on the import path:\n" + "\n".join(offences)


def test_the_dataclass_check_sees_an_import():
    source = "import dataclasses\nfrom dataclasses import dataclass, field\nimport os, dataclasses as dc\n"
    assert _dataclass_imports(ast.parse(source), "core.py") == [
        "core.py:1: imports dataclasses",
        "core.py:2: imports dataclasses",
        "core.py:3: imports dataclasses",
    ]
    assert _dataclass_imports(ast.parse("from .core import Record\nimport operator\n"), "core.py") == []


def _traced_layers() -> tuple[tuple[str, str], ...]:
    """`LAYERS` of bench/tracing.py, read with `ast` so that `bench` is never imported."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYERS")


def test_every_traced_layer_names_a_valkit_function():
    layers = _traced_layers()
    assert layers
    missing = [
        f"{module}.{function}"
        for module, function in layers
        if not callable(getattr(importlib.import_module(f"valkit.{module}"), function, None))
    ]
    assert not missing, "bench/tracing.py LAYERS names no valkit function:\n" + "\n".join(missing)
