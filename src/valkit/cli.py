"""The vk command line tool.

Subcommands: analyze (agreement / contextuality reports), infer (project a
knowledgebase combination onto a query), list-builtins, and verify (re-check
an emitted report against its input). Exit codes: 0 for a completed analysis
regardless of verdict, 2 for unusable input, 3 for capability or resource
errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from .builtins import BUILTINS, builtin
from .documents import (
    ParsedInput,
    canonical_json,
    document_for,
    load_json,
    parse_document_text,
    potential_values,
    relation_rows,
)
from .errors import CapabilityError, ParseError, ResourceLimitError, ValkitError
from .inference import DEFAULT_CELL_LIMIT, InferenceProblem, resolve_cell_limit, solve_fusion
from .relations import Relation
from .reports import build_report, verify_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _read_text(path: str) -> tuple[str, bytes]:
    """A file's text and raw bytes; an unreadable or non-UTF-8 file is a ParseError."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror}") from None
    try:
        return raw.decode("utf-8"), raw
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}") from None


def _load_input(source: str, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> tuple[ParsedInput, bytes]:
    """Resolve a path or builtin:NAME into a parsed input plus the bytes its digest covers; tables obey `cell_limit`."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        payload = builtin(name)
        document = document_for(payload)
        return ParsedInput(document["kind"], payload), canonical_json(document).encode("utf-8")
    text, raw = _read_text(source)
    return parse_document_text(text, cell_limit), raw


def _digest(raw: bytes) -> str:
    """The SHA-256 of an input's bytes, as a report records it; `hashlib` loads only when a digest is taken."""
    import hashlib

    return hashlib.sha256(raw).hexdigest()


def _human_analysis(doc: dict) -> list[str]:
    lines = []
    analysis = doc["analysis"]
    if "no-signalling" in analysis:
        lines.append(f"no-signalling: {analysis['no-signalling']['verdict']}")
        if analysis.get("class") is None:
            lines.append("class: not classified (signalling model)")
            return lines
        lines.append(f"class: {analysis['class']}")
        strong = analysis["strong"]["contextual"]
        logical = analysis["logical"]["contextual"]
        lines.append(f"strongly contextual: {'yes' if strong else 'no'}")
        lines.append(f"logically contextual: {'yes' if logical else 'no'}")
        if analysis.get("probabilistic") is not None:
            pc = analysis["probabilistic"]["contextual"]
            lines.append(f"probabilistically contextual: {'yes' if pc else 'no'}")
        lines.append(f"gamma size: {analysis['gamma']['size']}")
    else:
        local = analysis["local"]["verdict"]
        lines.append(f"local agreement: {local}")
        if local == "fail":
            lines.append(f"  disagreeing pair: {analysis['local']['pair']}")
        g = analysis["global"]
        if g["verdict"] == "agree":
            lines.append("global agreement: agree")
        elif "witness-index" in g:
            lines.append(f"global agreement: disagree (witness member {g['witness-index']})")
        else:
            lines.append("global agreement: disagree (infeasibility certificate)")
        complete = analysis["complete-disagreement"]
        lines.append(f"complete disagreement: {'yes' if complete else 'no'}")
    return lines


def cmd_analyze(args) -> int:
    cell_limit = resolve_cell_limit(args.limit)
    parsed, raw = _load_input(args.source, cell_limit)
    digest = _digest(raw)
    started = time.perf_counter()
    report = build_report(args.source, digest, parsed, cell_limit=cell_limit)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        print(f"source: {args.source}")
        print(f"kind: {parsed.kind}")
        for line in _human_analysis(report):
            print(line)
        print(f"time: {elapsed_ms:.1f} ms")
    return EXIT_OK


def cmd_infer(args) -> int:
    cell_limit = resolve_cell_limit(args.limit)
    parsed, _ = _load_input(args.source, cell_limit)
    kb = parsed.knowledgebase(cell_limit)
    query = frozenset(name.strip() for name in args.query.split(",") if name.strip())
    order = None
    if args.order:
        order = tuple(name.strip() for name in args.order.split(","))
    result = solve_fusion(InferenceProblem(kb, query), order=order, cell_limit=cell_limit)
    names = sorted(query)
    if isinstance(result, Relation):
        body = {"type": "relation", "tuples": relation_rows(result, names)}
    else:
        body = {"type": "potential", "values": potential_values(result, names)}
    if args.json:
        sys.stdout.write(canonical_json({"query": names, **body}))
        return EXIT_OK
    print(f"query: {','.join(names)}")
    if "tuples" in body:
        print(f"tuples: {len(body['tuples'])}")
        for row in body["tuples"]:
            print("  " + ",".join(row))
    else:
        for key, value in body["values"].items():
            print(f"  {key} -> {value}")
    return EXIT_OK


def cmd_list_builtins(args) -> int:
    for spec in BUILTINS:
        if args.describe:
            print(f"{spec.name:12} {spec.kind:16} {spec.summary}")
        else:
            print(spec.name)
    return EXIT_OK


def cmd_verify(args) -> int:
    cell_limit = resolve_cell_limit()
    report = load_json(_read_text(args.report)[0], "report JSON")
    if not isinstance(report, dict):
        raise ParseError("report must be a JSON object")
    parsed, raw = _load_input(args.source, cell_limit)
    problems = verify_report(report, parsed, _digest(raw), cell_limit)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: report verifies against {args.source}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vk",
        description="Agreement and contextuality analysis for valuation-algebra knowledgebases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a model or knowledgebase and emit a report")
    analyze.add_argument("source", help="input file or builtin:NAME (see list-builtins)")
    analyze.add_argument("--json", action="store_true", help="emit the machine-readable report")
    analyze.add_argument("--limit", default=None, help="intermediate-table cell limit")
    analyze.set_defaults(func=cmd_analyze)

    infer = sub.add_parser("infer", help="project the combined knowledgebase onto a query")
    infer.add_argument("source", help="input file or builtin:NAME")
    infer.add_argument("--query", required=True, help="comma-separated query variables")
    infer.add_argument("--order", default=None, help="comma-separated elimination order")
    infer.add_argument("--limit", default=None, help="intermediate-table cell limit")
    infer.add_argument("--json", action="store_true")
    infer.set_defaults(func=cmd_infer)

    listing = sub.add_parser("list-builtins", help="list the built-in models and knowledgebases")
    listing.add_argument("--describe", action="store_true")
    listing.set_defaults(func=cmd_list_builtins)

    verify = sub.add_parser("verify", help="re-check a report against its input")
    verify.add_argument("report", help="report JSON produced by analyze --json")
    verify.add_argument("source", help="the input file or builtin:NAME the report was produced from")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err.message}{err.location()}", file=sys.stderr)
        return EXIT_INPUT
    except (CapabilityError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
