"""Structural lints on the valkit sources, checked with `ast`.

Every valkit module and every test module uses each name it imports: a
stdlib-only stand-in for a linter's unused-import rule. Each module under
`src/valkit` and `tests` is parsed, and every name bound by an import must be
read somewhere in that module, in code or in a string annotation. The
package `__init__.py` is exempt because its imports are re-exports.

One algebra contract: every class in `src/valkit` that subclasses
`ValuationAlgebra` defines `project`, `combine`, `combine_project`,
`neutral`, `null`, `is_neutral` and `combine_size_bound` itself, and the
base class defines only `__init__`, `leq` and `claimed_axioms`, so no
instance can fall back on a stub or an optional default.

A valuation's label is its `domain`: no valkit module calls `.label(`, so
generic inference reads d(phi) one way, as the tables store it, and no
algebra method can come back to restate it.

Tables work on rows: generic inference (`inference.py`, `algebra.py`) and the
four table operations never name `Assignment` or call an assignment's
`.restrict` or `.merge`, which would rebuild per-row assignments.

Combination is a hash join of stored rows: inside `potentials.py`, only
`Potential.from_table`, which fills a nonzero default over the whole frame
product or names the first missing row, and the table view's iteration,
which readers walk in frame order, call `.rows(`, so no frame walk can
return to combination or projection. And the table operations (`_join`,
`project_potential`, `_reduced`, `support_relation` and
`is_neutral_potential`) read a table's stored numerators and denominator
only, never the view, so none of them can walk the frame through the view
either.

A potential has one way in: in every valkit module, only
`rational_potential`, which every constructor ends in, and `_reduced`, which
every table operation ends in, construct a `_Values`, so no other path can
store a table without the carrier check or the canonical form.

The exact LP becomes integers in one place: inside `feasibility.py`, only
`LinearSystem.__post_init__` reads a system's `.entries` or `.rhs`, and it
keeps the integer form that the simplex and both witness checks read. So no
solver or check can go back to scaling the system on its own.

The reference implementations are for the tests alone: no module other than
its defining one calls `solve_naive`, `combination_verdict` or
`check_complete_disagreement`, so the analysis path cannot drift back onto
them.

Gamma has one producer, `JoinTree.combination`: no module other than
`inference.py`, which defines `calibrate`, and `disagreement.py`, whose
support analysis is the one caller on the analysis path, calls `calibrate`.
So no helper can build a second tree under its own guard and answer, or
refuse, what the analysis does not. And `.combination(` is called only in
`inference.py`, whose `JoinTree.gamma` joins Gamma up to `TUPLE_CAP`
tuples, and in `contextuality.py`, whose public `gamma` passes its cell
limit: every other module takes Gamma as the tree carries it, and every
join of Gamma is guarded by its count.

A model analysis is one `classify` call: no module other than
`contextuality.py` calls `check_no_signalling`, and no module defines or calls
`classify_checked`, the second entry point that `classify` absorbed.

A model holds one knowledgebase: only `contextuality.py`, where
`EmpiricalModel` checks its sections once as the knowledgebase they form,
calls `Knowledgebase(...)` on an expression that reads `.sections`. Every
other module takes a model's knowledgebase from `model.knowledgebase()`, so
none can rebuild and re-check it.

No valkit module imports `dataclasses`: every value type is a `core.Record`,
and importing `dataclasses` would put it and `inspect` back on every
command's start-up.

No valkit module imports `argparse`, `gettext` or `hashlib`: `vk` reads its
arguments from one table, and takes a digest with CPython's built-in SHA-256,
falling back to `hashlib` only in `cli._sha256`. Each would otherwise load on
every command's start-up.

A model and a knowledgebase are read through their algebra: neither
`contextuality.py` nor `disagreement.py` calls `isinstance` against `Relation`
or `Potential`, so the normalisation rule, a support and a model's kind each
come from the knowledgebase's algebra, never from a member's type.

Only `cli.py` imports `gc`, and only `cli.run`, the `vk` process entry, calls
`gc.freeze`: the library never freezes a caller's heap.

No valkit module imports `lru_cache` or `cache` from `functools`: a
process-wide memo outlives the analysis that filled it and keeps every key of a
wide input alive, while one command derives each analysis once.

The traced benchmark wraps valkit functions by name: every `(module,
function)` pair in `LAYERS` of `bench/tracing.py` must still name a callable
in `valkit.<module>`, so a rename under `src/` cannot silently drop a layer.

README's "Library entry points" block is run as written, so every name it
lists must import from `valkit`; a deleted export cannot linger in the docs.
"""

import ast
import importlib
from pathlib import Path

import valkit

PACKAGE = Path(valkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
README = Path(__file__).resolve().parent.parent / "README.md"


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
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used(tree)
        for name, line in sorted(_imported(tree).items()):
            if name not in used:
                unused.append(f"{path.parent.name}/{path.name}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Mapping\ndef f(x: 'Mapping') -> int:\n    return 1\n")
    assert set(_imported(tree)) - _used(tree) == {"os"}


CONTRACT = ("project", "combine", "combine_project", "neutral", "null", "is_neutral", "combine_size_bound")
BASE = ("__init__", "leq", "claimed_axioms")


def _contract_gaps(tree: ast.AST, module: str) -> tuple[list[str], list[str]]:
    """The `ValuationAlgebra` subclasses in `tree`, and each breach: a method an instance lacks or the base adds, or a `.label(` call."""
    instances, gaps = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "label":
            gaps.append(f"{module}:{node.lineno}: calls .label(")
        if not isinstance(node, ast.ClassDef):
            continue
        defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        if node.name == "ValuationAlgebra":
            gaps += [f"{module}:{node.name}: defines {name}" for name in sorted(defined - set(BASE))]
        elif any(getattr(base, "id", getattr(base, "attr", None)) == "ValuationAlgebra" for base in node.bases):
            instances.append(node.name)
            gaps += [f"{module}:{node.name}: lacks {name}" for name in CONTRACT if name not in defined]
    return instances, gaps


def test_every_algebra_instance_defines_the_contract():
    instances, gaps = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found, wrong = _contract_gaps(ast.parse(path.read_text(encoding="utf-8")), path.name)
        instances += found
        gaps += wrong
    assert sorted(instances) == ["PotentialAlgebra", "RelationAlgebra"]
    assert not gaps, "algebra contract:\n" + "\n".join(gaps)


def test_the_contract_check_sees_a_missing_method():
    methods = "".join(f"    def {name}(self, *args): ...\n" for name in CONTRACT if name != "null")
    tree = ast.parse(
        f"class Half(algebra.ValuationAlgebra):\n{methods}"
        "class ValuationAlgebra:\n    def combine_project(self, phi, psi, target): ...\n"
    )
    assert _contract_gaps(tree, "m.py") == (
        ["Half"],
        ["m.py:Half: lacks null", "m.py:ValuationAlgebra: defines combine_project"],
    )


def test_the_contract_check_sees_a_label_method_and_call():
    source = (
        "class ValuationAlgebra:\n"
        "    def __init__(self, universe): ...\n"
        "    def leq(self, phi, psi): ...\n"
        "    def claimed_axioms(self): ...\n"
        "    def label(self, phi): ...\n"
        "def f(algebra, phi):\n"
        "    return algebra.label(phi), phi.domain, label(phi)\n"
    )
    assert _contract_gaps(ast.parse(source), "m.py") == (
        [],
        ["m.py:ValuationAlgebra: defines label", "m.py:7: calls .label("],
    )


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


FRAME_WALKERS = ("Potential.from_table", "_Values.__iter__")


def _scoped(node: ast.AST, scope: str = ""):
    """Every node below `node` with the qualified name of the function or class it is in ("" at module level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        yield scope, child
        yield from _scoped(child, scope)


def _frame_walks(tree: ast.AST) -> list[str]:
    """Each `.rows(` call outside the functions of FRAME_WALKERS, as "qualified name:line"."""
    return [
        f"{scope or '<module>'}:{node.lineno}: calls .rows"
        for scope, node in _scoped(tree)
        if scope not in FRAME_WALKERS
        and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "rows"
    ]


def test_only_the_constructors_walk_a_frame_product_in_potentials():
    tree = ast.parse((PACKAGE / "potentials.py").read_text(encoding="utf-8"))
    offences = _frame_walks(tree)
    assert not offences, "potentials.py enumerates a frame product outside its constructors:\n" + "\n".join(offences)


def test_the_frame_walk_check_sees_a_planted_call():
    source = (
        "def combine_potentials(phi, psi):\n"
        "    return {row: 1 for row in phi.universe.rows(union)}\n"
        "class Potential:\n"
        "    @classmethod\n"
        "    def from_table(cls, universe, domain):\n"
        "        return [universe.rows(domain) for _ in (lambda: universe.rows(domain),)]\n"
        "def constant_potential(universe, domain):\n"
        "    return dict.fromkeys(universe.rows(domain))\n"
        "ROWS = VariableUniverse.rows(u, d)\n"
    )
    assert _frame_walks(ast.parse(source)) == [
        "combine_potentials:2: calls .rows",
        "constant_potential:8: calls .rows",
        "<module>:9: calls .rows",
    ]


VALUES_BUILDERS = ("potentials.py:rational_potential", "potentials.py:_reduced")


def _values_builds(name: str, tree: ast.AST) -> list[str]:
    """Each call of `_Values` outside the functions of VALUES_BUILDERS, as "module:qualified name:line"."""
    return [
        f"{name}:{scope or '<module>'}:{node.lineno}: constructs _Values"
        for scope, node in _scoped(tree)
        if f"{name}:{scope}" not in VALUES_BUILDERS
        and isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_Values"
    ]


def test_only_the_canonical_builders_construct_a_table_view():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        offences.extend(_values_builds(path.name, ast.parse(path.read_text(encoding="utf-8"))))
    assert not offences, "a table view is built outside rational_potential and _reduced:\n" + "\n".join(offences)


def test_the_table_view_check_sees_a_planted_construction():
    source = (
        "def rational_potential(universe, domain, parts):\n"
        "    return Potential(universe, domain, _Values({}, 1, universe, domain))\n"
        "class Potential:\n"
        "    def __post_init__(self):\n"
        "        self.table = _Values(dict(self.table), 1, self.universe, self.domain)\n"
        "def constant_potential(universe, domain, value):\n"
        "    return potentials._Values(dict.fromkeys(universe.rows(domain), 1), 1, universe, domain)\n"
        "EMPTY = _Values({}, 1, None, frozenset())\n"
    )
    assert _values_builds("potentials.py", ast.parse(source)) == [
        "potentials.py:Potential.__post_init__:5: constructs _Values",
        "potentials.py:constant_potential:7: constructs _Values",
        "potentials.py:<module>:8: constructs _Values",
    ]
    assert len(_values_builds("documents.py", ast.parse(source))) == 4


STORED_ROW_READERS = ("_join", "project_potential", "_reduced", "support_relation", "is_neutral_potential")


def _view_reads(tree: ast.AST) -> list[str]:
    """Each use of a `.table` other than reading its `.nums` or `.den` inside STORED_ROW_READERS, as "name:line"."""
    scoped = [(scope, node) for scope, node in _scoped(tree) if scope in STORED_ROW_READERS]
    stored = {id(node.value) for _, node in scoped if isinstance(node, ast.Attribute) and node.attr in ("nums", "den")}
    return [
        f"{scope}:{node.lineno}: reads the view"
        for scope, node in scoped
        if isinstance(node, ast.Attribute) and node.attr == "table" and id(node) not in stored
    ]


def test_table_operations_read_only_the_stored_numerators():
    tree = ast.parse((PACKAGE / "potentials.py").read_text(encoding="utf-8"))
    offences = _view_reads(tree)
    assert not offences, "a potential table operation reads the total-table view:\n" + "\n".join(offences)
    assert {scope for scope, _ in _scoped(tree)} >= set(STORED_ROW_READERS)


def test_the_view_read_check_sees_a_planted_read():
    source = (
        "def _join(phi, psi, target):\n"
        "    for row, v in phi.table.items():\n"
        "        yield psi.table.nums[row], psi.table.den\n"
        "def project_potential(phi, target):\n"
        "    return [v for v in phi.table], phi.table[()], len(phi.table.nums)\n"
        "def support_relation(phi):\n"
        "    return frozenset(phi.table.keys())\n"
        "def is_neutral_potential(phi):\n"
        "    return set(phi.table.values()) == {1}\n"
        "def total_mass(phi):\n"
        "    return sum(phi.table.values())\n"
    )
    assert _view_reads(ast.parse(source)) == [
        "_join:2: reads the view",
        "project_potential:5: reads the view",
        "project_potential:5: reads the view",
        "support_relation:7: reads the view",
        "is_neutral_potential:9: reads the view",
    ]


SYSTEM_READERS = ("LinearSystem.__post_init__",)


def _system_reads(tree: ast.AST) -> list[str]:
    """Each read of `.entries` or `.rhs` outside the functions of SYSTEM_READERS, as "qualified name:line"."""
    return [
        f"{scope or '<module>'}:{node.lineno}: reads .{node.attr}"
        for scope, node in _scoped(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("entries", "rhs") and scope not in SYSTEM_READERS
    ]


def test_only_the_linear_system_reads_its_rational_entries():
    tree = ast.parse((PACKAGE / "feasibility.py").read_text(encoding="utf-8"))
    offences = _system_reads(tree)
    assert not offences, "feasibility.py reads a system's Fraction entries outside LinearSystem:\n" + "\n".join(offences)


def test_the_system_read_check_sees_a_planted_read():
    source = (
        "class LinearSystem:\n"
        "    def __post_init__(self):\n"
        "        return self.entries, self.rhs\n"
        "def validate_solution(system, solution):\n"
        "    return _scaled(system.entries), system.rhs.get(row)\n"
        "RHS = SYSTEM.rhs\n"
    )
    assert _system_reads(ast.parse(source)) == [
        "validate_solution:5: reads .entries",
        "validate_solution:5: reads .rhs",
        "<module>:6: reads .rhs",
    ]


REFERENCE_ONLY = {
    "solve_naive": "inference.py",
    "combination_verdict": "disagreement.py",
    "check_complete_disagreement": "disagreement.py",
    "search_truth_valuations": "disagreement.py",
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
    search = "from .disagreement import search_truth_valuations\nfound = search_truth_valuations(kb)\n"
    assert _reference_calls(ast.parse(search), "reports.py") == ["reports.py:2: calls search_truth_valuations"]


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


def _combination_calls(tree: ast.AST, module: str) -> list[str]:
    if module == "inference.py":
        return []
    return [
        f"{module}:{node.lineno}: calls .combination"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "combination"
        if module != "contextuality.py" or not (node.args or node.keywords)
    ]


def test_only_a_count_guarded_caller_joins_gamma():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_combination_calls(tree, path.name))
    assert not offences, "Gamma joined without a cell limit on its count:\n" + "\n".join(offences)


def test_the_combination_check_sees_calls():
    source = "def gamma(tree, report):\n    return tree.combination(), report.gamma.combination()\n"
    assert _combination_calls(ast.parse(source), "contextuality.py") == [
        "contextuality.py:2: calls .combination",
        "contextuality.py:2: calls .combination",
    ]
    assert _combination_calls(ast.parse(source), "inference.py") == []
    limited = "def gamma(g, cell_limit):\n    return g.combination(cell_limit), g.combination(cell_limit=cell_limit)\n"
    assert _combination_calls(ast.parse(limited), "contextuality.py") == []
    assert len(_combination_calls(ast.parse(limited), "reports.py")) == 2
    assert _combination_calls(ast.parse("def f(tree):\n    return tree.gamma, tree.combination\n"), "reports.py") == []


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


def _section_knowledgebases(tree: ast.AST, module: str) -> list[str]:
    if module == "contextuality.py":
        return []
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "Knowledgebase":
            continue
        arguments = [*node.args, *(keyword.value for keyword in node.keywords)]
        if any(isinstance(n, ast.Attribute) and n.attr == "sections" for arg in arguments for n in ast.walk(arg)):
            found.append(f"{module}:{node.lineno}: builds a Knowledgebase from .sections")
    return found


def test_only_the_model_builds_its_knowledgebase():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_section_knowledgebases(tree, path.name))
    assert not offences, "a model's knowledgebase rebuilt outside EmpiricalModel:\n" + "\n".join(offences)


def test_the_model_knowledgebase_check_sees_a_rebuild():
    source = (
        "def f(model, u):\n"
        "    a = Knowledgebase(model.scenario.universe, model.sections)\n"
        "    b = algebra.Knowledgebase(u, tuple(s for s in model.sections))\n"
        "    c = Knowledgebase(universe=u, valuations=model.sections)\n"
        "    return a, b, c\n"
    )
    assert _section_knowledgebases(ast.parse(source), "reports.py") == [
        "reports.py:2: builds a Knowledgebase from .sections",
        "reports.py:3: builds a Knowledgebase from .sections",
        "reports.py:4: builds a Knowledgebase from .sections",
    ]
    assert _section_knowledgebases(ast.parse(source), "contextuality.py") == []
    fine = "def f(model, u, sections):\n    return model.knowledgebase(), Knowledgebase(u, sections), len(model.sections)\n"
    assert _section_knowledgebases(ast.parse(fine), "reports.py") == []


ALGEBRA_READERS = ("contextuality.py", "disagreement.py")
VALUATION_TYPES = ("Relation", "Potential")


def _valuation_type_tests(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        for part in ast.walk(node.args[1]):
            name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
            if name in VALUATION_TYPES:
                found.append(f"{module}:{node.lineno}: isinstance against {name}")
    return found


def test_models_and_knowledgebases_read_their_algebra_not_a_members_type():
    offences = []
    for module in ALGEBRA_READERS:
        path = PACKAGE / module
        offences.extend(_valuation_type_tests(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), module))
    assert not offences, "a valuation type tested where the algebra decides:\n" + "\n".join(offences)


def test_the_valuation_type_check_sees_an_isinstance():
    source = (
        "def f(phi, kb):\n"
        "    a = isinstance(phi, Relation)\n"
        "    b = isinstance(phi, (int, potentials.Potential))\n"
        "    return a, b, isinstance(kb.algebra(), RelationAlgebra), type(phi) is Relation\n"
    )
    assert _valuation_type_tests(ast.parse(source), "contextuality.py") == [
        "contextuality.py:2: isinstance against Relation",
        "contextuality.py:3: isinstance against Potential",
    ]
    assert _valuation_type_tests(ast.parse("ok = isinstance(x, (RelationAlgebra, PotentialAlgebra))\n"), "disagreement.py") == []


def _imports(tree: ast.AST, module: str, banned: tuple[str, ...]) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{module}:{node.lineno}: imports {top}" for top in banned if top in (n.split(".")[0] for n in names)]
    return found


def _dataclass_imports(tree: ast.AST, module: str) -> list[str]:
    return _imports(tree, module, ("dataclasses",))


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


# `argparse` (with `gettext`) and OpenSSL's `hashlib` cost a `vk` child more
# than its own parse; only `cli._sha256` may fall back to `hashlib`.
ARGV_AND_DIGEST_MODULES = ("argparse", "gettext", "hashlib", "_hashlib")


def _argv_and_digest_imports(tree: ast.Module, module: str) -> list[str]:
    if module == "cli.py":
        tree = ast.Module(
            [node for node in tree.body if not (isinstance(node, ast.FunctionDef) and node.name == "_sha256")], []
        )
    return _imports(tree, module, ARGV_AND_DIGEST_MODULES)


def test_no_module_imports_argparse_or_hashlib():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_argv_and_digest_imports(tree, path.name))
    assert not offences, "argparse or hashlib on the import path:\n" + "\n".join(offences)


def test_the_argparse_and_hashlib_check_sees_an_import():
    source = "import argparse\nfrom hashlib import sha256\ndef _sha256():\n    import hashlib\n"
    assert _argv_and_digest_imports(ast.parse(source), "reports.py") == [
        "reports.py:1: imports argparse",
        "reports.py:2: imports hashlib",
        "reports.py:4: imports hashlib",
    ]
    assert _argv_and_digest_imports(ast.parse(source), "cli.py") == [
        "cli.py:1: imports argparse",
        "cli.py:2: imports hashlib",
    ]


# `gc.freeze` moves every live object out of the collector's reach for the
# rest of the process: only the `vk` process entry, `cli.run`, may call it,
# after `main` returns, so the library never freezes a caller's heap.
def _heap_freezes(tree: ast.Module, module: str) -> list[str]:
    if module == "cli.py":
        tree = ast.Module(
            [node for node in tree.body if not (isinstance(node, ast.FunctionDef) and node.name == "run")], []
        )
        found = []
    else:
        found = _imports(tree, module, ("gc",))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "freeze" and getattr(node.value, "id", None) == "gc":
            found.append(f"{module}:{node.lineno}: names gc.freeze")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [f"{module}:{node.lineno}: imports freeze" for a in node.names if a.name == "freeze"]
    return found


def test_only_the_process_entry_freezes_the_heap():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_heap_freezes(tree, path.name))
    assert not offences, "gc imported or frozen outside cli.run:\n" + "\n".join(offences)


def test_the_heap_freeze_check_sees_a_freeze():
    source = (
        "import gc\n"
        "from gc import freeze\n"
        "def main(argv):\n"
        "    gc.freeze()\n"
        "def run():\n"
        "    gc.freeze()\n"
    )
    assert _heap_freezes(ast.parse(source), "reports.py") == [
        "reports.py:1: imports gc",
        "reports.py:2: imports gc",
        "reports.py:2: imports freeze",
        "reports.py:4: names gc.freeze",
        "reports.py:6: names gc.freeze",
    ]
    assert _heap_freezes(ast.parse(source), "cli.py") == ["cli.py:2: imports freeze", "cli.py:4: names gc.freeze"]
    assert _heap_freezes(ast.parse("import gc\ndef run():\n    gc.freeze()\n"), "cli.py") == []
    assert _heap_freezes(ast.parse("x = cache.freeze()\n"), "reports.py") == []


MEMOS = ("lru_cache", "cache")


def _memo_imports(tree: ast.AST, module: str) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{module}:{node.lineno}: imports {a.name}" for a in node.names if a.name in MEMOS]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            if node.attr in MEMOS:
                found.append(f"{module}:{node.lineno}: names functools.{node.attr}")
    return found


def test_no_module_imports_a_memo():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offences.extend(_memo_imports(tree, path.name))
    assert not offences, "a process-wide memo:\n" + "\n".join(offences)


def test_the_memo_check_sees_an_import():
    source = (
        "from functools import lru_cache\n"
        "from functools import reduce, cache as memo\n"
        "import functools\n"
        "f = functools.cache\n"
    )
    assert _memo_imports(ast.parse(source), "relations.py") == [
        "relations.py:1: imports lru_cache",
        "relations.py:2: imports cache",
        "relations.py:4: names functools.cache",
    ]
    assert _memo_imports(ast.parse("from functools import cached_property, reduce\n"), "inference.py") == []


def _traced_layers() -> tuple[tuple[str, str], ...]:
    """`LAYERS` of bench/tracing.py, read with `ast` so that `bench` is never imported."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no LAYERS")


def _missing_layers(layers) -> list[str]:
    """The `module.function` pairs of `layers` that name no callable of `valkit.<module>`."""
    return [
        f"{module}.{function}"
        for module, function in layers
        if not callable(getattr(importlib.import_module(f"valkit.{module}"), function, None))
    ]


def test_every_traced_layer_names_a_valkit_function():
    layers = _traced_layers()
    assert layers
    missing = _missing_layers(layers)
    assert not missing, "bench/tracing.py LAYERS names no valkit function:\n" + "\n".join(missing)


def test_the_layer_check_sees_a_missing_name():
    layers = (("potentials", "combine_potentials"), ("potentials", "combine"), ("core", "NONNEG_RATIONAL"))
    assert _missing_layers(layers) == ["potentials.combine", "core.NONNEG_RATIONAL"]


def _entry_point_block() -> str:
    """The fenced Python block under README's "## Library entry points" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library entry points\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_entry_points_import_from_valkit():
    tree = ast.parse(_entry_point_block(), filename=str(README))
    assert len(tree.body) == 1
    statement = tree.body[0]
    assert isinstance(statement, ast.ImportFrom) and statement.module == "valkit" and statement.names
    exec(compile(tree, str(README), "exec"), {})  # an ImportError names any entry point valkit lacks
