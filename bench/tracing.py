"""Traced in-process replay: per-layer spans and counters for the benchmark.

The replay calls `valkit.cli.main(argv)` on the workload's inputs with
stdout captured, exactly as the CLI loop would, and checks every result the
same way. After one untraced warm-up pass, every input runs twice per pass,
untraced and traced, back to back in alternating order, so that
`trace.overhead_frac` compares the same work at the same moment. For a
traced run the public functions listed in LAYERS are wrapped by rebinding
every `valkit.*` module attribute that refers to them (for example both
`valkit.relations.natural_join` and `valkit.algebra.natural_join`); an
untraced run restores the originals. valkit's sources are not changed.

A span is (name, start, end, parent span, op id, size); size is a count
taken at the same boundary (tuples out of a join, cells out of a combine,
|Gamma|, LP columns, ...). Spans stay in memory in flat arrays and are
written to spans.tsv.gz in the run's directory when the run ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import sys
import time
import traceback
from array import array
from pathlib import Path

import oracle

# (module, function) pairs to wrap. Functions outside the metric list are
# wrapped too where their time would otherwise count as a parent's self time.
LAYERS = (
    ("documents", "parse_document_text"),
    ("documents", "canonical_json"),
    ("reports", "build_report"),
    ("reports", "verify_report"),
    ("inference", "solve_fusion"),
    ("inference", "heuristic_order"),
    ("relations", "natural_join"),
    ("relations", "project_relation"),
    ("potentials", "combine_potentials"),
    ("potentials", "project_potential"),
    ("disagreement", "analyze_knowledgebase"),
    ("disagreement", "check_local_agreement"),
    ("disagreement", "check_global_agreement_adjoint"),
    ("disagreement", "check_global_agreement_potentials"),
    ("disagreement", "check_complete_disagreement"),
    ("disagreement", "marginal_system"),
    ("feasibility", "solve_feasibility"),
    ("feasibility", "validate_certificate"),
    ("feasibility", "validate_solution"),
    ("contextuality", "classify"),
    ("contextuality", "check_no_signalling"),
    ("contextuality", "gamma"),
    ("logic", "csp_to_knowledgebase"),
)
OPS = ("op.analyze", "op.verify", "op.infer")
NAMES = OPS + tuple(f"{m}.{f}" for m, f in LAYERS)
SRC = Path(__file__).resolve().parent.parent / "src"


def _size(name: str, result, args) -> int:
    """The count recorded at a span's boundary (0 where none applies)."""
    if name == "relations.natural_join":
        return len(result.tuples)
    if name == "potentials.combine_potentials":
        return len(result.table)
    if name == "contextuality.gamma":
        return len(result.tuples)
    if name == "feasibility.solve_feasibility":
        return len(args[0].columns)
    if name == "reports.build_report":
        analysis = result["analysis"]
        g = analysis.get("gamma") or analysis.get("global", {}).get("truth") or {}
        return int(bool(g.get("omitted")))
    return 0


class Tracer:
    """Span recorder; installs and removes the wrappers."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("q")
        self.lp_shapes: list[tuple[int, int, int]] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.bindings: list[tuple[object, str, object, object]] = []  # module, attr, original, wrapped

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.size.append(0)
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def wrapper(self, name: str, fn):
        name_id = NAMES.index(name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.size[index] = _size(name, result, args)
            if name == "disagreement.marginal_system":
                tracer.lp_shapes.append((len(result.rows), len(result.columns), len(result.entries)))
            return result

        traced.__wrapped__ = fn
        return traced

    def bind(self) -> None:
        """Find every valkit module attribute that refers to a listed function."""
        modules = {k: m for k, m in sys.modules.items() if k == "valkit" or k.startswith("valkit.")}
        for module_name, fn_name in LAYERS:
            original = getattr(modules[f"valkit.{module_name}"], fn_name)
            wrapped = self.wrapper(f"{module_name}.{fn_name}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.bindings.append((module, attr, original, wrapped))

    def install(self) -> None:
        for module, attr, _, wrapped in self.bindings:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.bindings:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tparent\top\tname\tstart\tend\tsize\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{NAMES[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.size[i]}\n"
                )


def replay(run, inst, tracer: Tracer | None, ops: list[tuple[str, bool]]) -> float:
    """One input's ops through valkit.cli.main, checked as in the timed loop; returns their wall time."""
    from valkit.cli import main

    t0 = time.perf_counter()
    out = _call(main, tracer, ops, "op." + inst.op, run.op_argv(inst), inst.is_model)
    if out is None:
        run.record(inst, inst.op, ["non-zero exit in process"])
        if inst.op == "analyze":
            run.record(inst, "verify", ["no report to verify"])
        return time.perf_counter() - t0
    data = out.encode()
    problems = oracle.check(inst, data)
    if not run.same_as_before(inst, data):
        problems.append("output differs from an earlier repeat")
    run.record(inst, inst.op, problems)
    if inst.op == "analyze":
        path = run.report_path(inst)
        path.write_bytes(data)
        argv = ["verify", path.relative_to(SRC.parent).as_posix(), run.source(inst)]
        vout = _call(main, tracer, ops, "op.verify", argv, False)
        run.record(inst, "verify", [] if vout is not None and vout.startswith("ok") else ["verify failed in process"])
    return time.perf_counter() - t0


def _call(main, tracer, ops, op_name, argv, is_model) -> str | None:
    stdout, stderr = io.StringIO(), io.StringIO()
    index = None
    if tracer is not None:
        tracer.op_id = len(ops)
        ops.append((op_name, is_model))
        index = tracer.open(NAMES.index(op_name))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception:  # a crash fails this op, as a crashing child would, and the run goes on
        traceback.print_exc()
        code = None
    finally:
        if index is not None:
            tracer.close(index)
    return stdout.getvalue() if code == 0 else None


class Summary:
    """Per-name totals over the traced passes."""

    def __init__(self, tracer: Tracer, ops: list[tuple[str, bool]]):
        n = len(tracer.name)
        child = [0.0] * n
        duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child[p] += duration[i]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.size_sum: dict[str, int] = {}
        self.size_max: dict[str, int] = {}
        self.local_projects = 0
        self.no_signalling_in_model_analyze = 0
        self.gamma_by_op: dict[int, int] = {}
        useful = lp_cols = 0
        self.analyze_time = 0.0
        self.analyze_self: dict[str, float] = {}
        for i in range(n):
            name = NAMES[tracer.name[i]]
            size = tracer.size[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration[i]
            own = duration[i] - child[i]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.size_sum[name] = self.size_sum.get(name, 0) + size
            self.size_max[name] = max(self.size_max.get(name, 0), size)
            p = tracer.parent[i]
            if name.endswith(("project_relation", "project_potential")) and p >= 0:
                if NAMES[tracer.name[p]] == "disagreement.check_local_agreement":
                    self.local_projects += 1
            op_name, is_model = ops[tracer.op[i]]
            if op_name == "op.analyze":
                self.analyze_self[name] = self.analyze_self.get(name, 0.0) + own
                if name == "reports.build_report":
                    self.analyze_time += duration[i]
                if name == "contextuality.check_no_signalling" and is_model:
                    self.no_signalling_in_model_analyze += 1
            if name == "contextuality.gamma":
                self.gamma_by_op[tracer.op[i]] = size
            if name == "feasibility.solve_feasibility" and tracer.op[i] in self.gamma_by_op:
                useful += self.gamma_by_op[tracer.op[i]]
                lp_cols += size
        self.useful_col_frac = useful / lp_cols if lp_cols else 0.0
        self.model_analyze_ops = sum(1 for op_name, is_model in ops if op_name == "op.analyze" and is_model)


def traced(run) -> tuple[dict, list[tuple]]:
    """Per-layer metrics of the workload, per traced pass."""
    interp, import_s = run.interpreter_costs()

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import valkit.cli  # noqa: F401  (loads every valkit module the CLI uses)

    tracer = Tracer()
    tracer.bind()
    ops: list[tuple[str, bool]] = []
    for inst in run.instances:  # warm-up: the first pass in a process also pays for allocation
        replay(run, inst, None, ops)
    # Each input runs untraced and traced back to back, in alternating order,
    # so that drift in the machine's speed cancels out of trace.overhead_frac.
    walls = {False: 0.0, True: 0.0}
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or (time.perf_counter() - t0) * (passes + 1) / passes <= run.seconds:
        for k, inst in enumerate(run.instances):
            for traced_now in (False, True) if (k + passes) % 2 == 0 else (True, False):
                if traced_now:
                    tracer.install()
                try:
                    walls[traced_now] += replay(run, inst, tracer if traced_now else None, ops)
                finally:
                    tracer.uninstall()
        passes += 1
    tracer.write(run.workdir / "spans.tsv.gz")

    s = Summary(tracer, ops)

    def per_pass(value):
        return value / passes

    def calls(name):
        return per_pass(s.calls.get(name, 0))

    def self_s(name):
        return per_pass(s.self_s.get(name, 0.0))

    def total(name):
        return per_pass(s.total.get(name, 0.0))

    shapes = tracer.lp_shapes
    build_calls = s.calls.get("reports.build_report", 0)
    rows = [
        ("cli.interp_start_s", interp, "s", "median bare interpreter start"),
        ("cli.import_s", import_s, "s", "median 'import valkit.cli' child, minus start"),
        ("documents.parse_document_text.self_s", self_s("documents.parse_document_text"), "s", ""),
        ("documents.parse_document_text.calls", calls("documents.parse_document_text"), "count", ""),
        ("documents.canonical_json.self_s", self_s("documents.canonical_json"), "s", ""),
        ("reports.build_report.self_s", self_s("reports.build_report"), "s", "rendering, minus traced children"),
        ("reports.verify_report.self_s", self_s("reports.verify_report"), "s", ""),
        ("reports.gamma_omitted_frac", s.size_sum.get("reports.build_report", 0) / build_calls if build_calls else 0.0,
         "frac", f"of {build_calls} reports, Gamma past TUPLE_CAP"),
        ("inference.solve_fusion.calls", calls("inference.solve_fusion"), "count", ""),
        ("inference.solve_fusion.self_s", self_s("inference.solve_fusion"), "s", ""),
        ("inference.solve_fusion.total_s", total("inference.solve_fusion"), "s", ""),
        ("inference.heuristic_order.calls", calls("inference.heuristic_order"), "count", ""),
        ("inference.heuristic_order.self_s", self_s("inference.heuristic_order"), "s", ""),
        ("inference.max_intermediate_cells",
         max(s.size_max.get("relations.natural_join", 0), s.size_max.get("potentials.combine_potentials", 0)),
         "cells", "largest join or combine result"),
        ("relations.natural_join.calls", calls("relations.natural_join"), "count", ""),
        ("relations.natural_join.self_s", self_s("relations.natural_join"), "s", ""),
        ("relations.natural_join.out_tuples", per_pass(s.size_sum.get("relations.natural_join", 0)), "tuples", ""),
        ("relations.project_relation.calls", calls("relations.project_relation"), "count", ""),
        ("relations.project_relation.self_s", self_s("relations.project_relation"), "s", ""),
        ("potentials.combine_potentials.calls", calls("potentials.combine_potentials"), "count", ""),
        ("potentials.combine_potentials.self_s", self_s("potentials.combine_potentials"), "s", ""),
        ("potentials.combine_potentials.out_cells", per_pass(s.size_sum.get("potentials.combine_potentials", 0)),
         "cells", ""),
        ("potentials.project_potential.calls", calls("potentials.project_potential"), "count", ""),
        ("potentials.project_potential.self_s", self_s("potentials.project_potential"), "s", ""),
        ("disagreement.check_local_agreement.self_s", self_s("disagreement.check_local_agreement"), "s", ""),
        ("disagreement.check_local_agreement.project_calls", per_pass(s.local_projects), "count", ""),
        ("disagreement.check_global_agreement_adjoint.total_s", total("disagreement.check_global_agreement_adjoint"),
         "s", ""),
        ("disagreement.check_complete_disagreement.total_s", total("disagreement.check_complete_disagreement"), "s", ""),
        ("disagreement.marginal_system.self_s", self_s("disagreement.marginal_system"), "s", ""),
        ("disagreement.lp_rows", _mean(r for r, _, _ in shapes), "rows", f"mean of {len(shapes)} systems"),
        ("disagreement.lp_cols", _mean(c for _, c, _ in shapes), "cols", f"mean of {len(shapes)} systems"),
        ("disagreement.lp_nonzeros", _mean(z for _, _, z in shapes), "count", f"mean of {len(shapes)} systems"),
        ("feasibility.solve_feasibility.calls", calls("feasibility.solve_feasibility"), "count", ""),
        ("feasibility.solve_feasibility.self_s", self_s("feasibility.solve_feasibility"), "s", ""),
        ("feasibility.validate_certificate.calls", calls("feasibility.validate_certificate"), "count", ""),
        ("feasibility.validate_certificate.self_s", self_s("feasibility.validate_certificate"), "s", ""),
        ("feasibility.validate_solution.calls", calls("feasibility.validate_solution"), "count", ""),
        ("feasibility.useful_col_frac", s.useful_col_frac, "frac", "|Gamma| / LP columns"),
        ("contextuality.classify.total_s", total("contextuality.classify"), "s", ""),
        ("contextuality.check_no_signalling.calls_per_analyze",
         s.no_signalling_in_model_analyze / s.model_analyze_ops if s.model_analyze_ops else 0.0,
         "count", f"over {s.model_analyze_ops} model analyses"),
        ("contextuality.check_no_signalling.self_s", self_s("contextuality.check_no_signalling"), "s", ""),
        ("contextuality.gamma.total_s", total("contextuality.gamma"), "s", ""),
        ("logic.csp_to_knowledgebase.calls", calls("logic.csp_to_knowledgebase"), "count", ""),
        ("logic.csp_to_knowledgebase.self_s", self_s("logic.csp_to_knowledgebase"), "s", ""),
        ("trace.overhead_frac", walls[True] / walls[False] - 1.0, "frac",
         f"traced {walls[True]:.3f} s vs untraced {walls[False]:.3f} s over the same ops"),
    ]
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    analysis = per_pass(s.analyze_time)
    if analysis:
        lp = per_pass(s.analyze_self.get("feasibility.solve_feasibility", 0.0))
        fusion = per_pass(sum(v for k, v in s.analyze_self.items() if k.startswith(("inference.", "relations."))))
        rows.append(("share.analysis_s", analysis, "s", "in-process analysis time per pass (build_report)"))
        rows.append(("share.solve_feasibility_self", lp / analysis, "frac", "of analysis time"))
        rows.append(("share.inference_relations_self", fusion / analysis, "frac", "of analysis time"))
    rows.append(("passes", passes, "count", f"paired untraced and traced passes; {len(tracer.name)} spans"))
    return metrics, rows


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
