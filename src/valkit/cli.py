"""The vk command line tool.

Subcommands: analyze (agreement / contextuality reports), infer (project a
knowledgebase combination onto a query), list-builtins, and verify (re-check
an emitted report against its input). Exit codes: 0 for a completed analysis
regardless of verdict, 2 for unusable input or a usage error, 3 for
capability or resource errors, for running out of memory, and for a result
holding a number too long to write.

`parse_argv` reads the argument vector against the `COMMANDS` table, with
argparse's grammar: options go before or after the positionals, a value
follows its option or its `=`, a unique prefix names a long option, `--`
ends the options, and a value may look like a negative number (`-5`).
"""

from __future__ import annotations

import gc
import os
import re
import sys
import time
from typing import Callable, NoReturn

from .builtins import BUILTINS, builtin
from .contextuality import EmpiricalModel
from .core import Record
from .documents import (
    TOO_LONG,
    ParsedInput,
    canonical_json,
    document_for,
    load_json,
    parse_document_text,
    potential_values,
    relation_rows,
)
from .errors import ArgumentError, CapabilityError, ParseError, ResourceLimitError, ValkitError
from .inference import DEFAULT_CELL_LIMIT, InferenceProblem, solve_fusion
from .relations import Relation
from .reports import build_report, verify_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def resolve_cell_limit(flag: str | None = None) -> int:
    """The --limit value if given, else VK_CELL_LIMIT, else the default; each must be a positive integer."""
    source, raw = ("--limit", flag) if flag is not None else ("VK_CELL_LIMIT", os.environ.get("VK_CELL_LIMIT"))
    if raw is None:
        return DEFAULT_CELL_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(f"{source} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ArgumentError(f"{source} must be positive")
    return value


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


def _load_input(source: str, cell_limit: int | None = DEFAULT_CELL_LIMIT) -> tuple[ParsedInput, bytes | None]:
    """A path or builtin:NAME as a parsed input plus a file's bytes (None for a builtin); tables obey `cell_limit`."""
    if source.startswith("builtin:"):
        payload = builtin(source[len("builtin:"):])
        kind = "empirical-model" if isinstance(payload, EmpiricalModel) else "knowledgebase"
        return ParsedInput(kind, payload), None
    text, raw = _read_text(source)
    return parse_document_text(text, cell_limit), raw


def _sha256():
    """CPython's built-in SHA-256 constructor, which loads without OpenSSL; `hashlib`'s where there is none.

    The module is `_sha256` up to Python 3.11 and `_sha2` from 3.12. Only that
    one is tried: a failed import searches every `sys.path` entry.
    """
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        import hashlib

        return hashlib.sha256


def _digest(parsed: ParsedInput, raw: bytes | None) -> str:
    """The SHA-256 a report records: of a file's bytes, or of a builtin's canonical document.

    The document is rendered, and the hash module loaded, only when a digest is taken.
    """
    if raw is None:
        raw = canonical_json(document_for(parsed.payload)).encode("utf-8")
    return _sha256()(raw).hexdigest()


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


def _write(render: Callable[[], str]) -> int:
    """Write the text that `render` builds, once it is whole.

    An int past the interpreter's limit on digits cannot become text (str()
    raises ValueError, the only ValueError rendering can raise), so such a
    result is refused with nothing written.
    """
    try:
        text = render()
    except ValueError:
        raise ResourceLimitError(TOO_LONG) from None
    sys.stdout.write(text)
    return EXIT_OK


def _lines(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def cmd_analyze(source: str, json: bool, limit: str | None) -> int:
    cell_limit = resolve_cell_limit(limit)
    parsed, raw = _load_input(source, cell_limit)
    digest = _digest(parsed, raw)
    started = time.perf_counter()
    report = build_report(source, digest, parsed, cell_limit=cell_limit)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if json:
        return _write(lambda: canonical_json(report))
    return _write(
        lambda: _lines([f"source: {source}", f"kind: {parsed.kind}", *_human_analysis(report), f"time: {elapsed_ms:.1f} ms"])
    )


def _names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated flag value, stripped, with empty entries dropped."""
    return tuple(name for name in map(str.strip, text.split(",")) if name)


def _human_inference(names: list[str], body: dict) -> list[str]:
    lines = [f"query: {','.join(names)}"]
    if "tuples" in body:
        lines.append(f"tuples: {len(body['tuples'])}")
        lines.extend("  " + ",".join(row) for row in body["tuples"])
    else:
        lines.extend(f"  {key} -> {value}" for key, value in body["values"].items())
    return lines


def cmd_infer(source: str, query: str, order: str | None, limit: str | None, json: bool) -> int:
    cell_limit = resolve_cell_limit(limit)
    parsed, _ = _load_input(source, cell_limit)
    kb = parsed.knowledgebase()
    variables = frozenset(_names(query))
    elimination = None if order is None else _names(order)
    result = solve_fusion(InferenceProblem(kb, variables), order=elimination, cell_limit=cell_limit)
    names = sorted(variables)
    if isinstance(result, Relation):
        body = {"type": "relation", "tuples": relation_rows(result, names)}
    else:
        body = {"type": "potential", "values": potential_values(result, names)}
    if json:
        return _write(lambda: canonical_json({"query": names, **body}))
    return _write(lambda: _lines(_human_inference(names, body)))


def cmd_list_builtins(describe: bool) -> int:
    for spec in BUILTINS:
        if describe:
            print(f"{spec.name:12} {spec.kind:16} {spec.summary}")
        else:
            print(spec.name)
    return EXIT_OK


def cmd_verify(report: str, source: str) -> int:
    cell_limit = resolve_cell_limit()
    document = load_json(_read_text(report)[0], "report JSON")
    if not isinstance(document, dict):
        raise ParseError("report must be a JSON object")
    parsed, raw = _load_input(source, cell_limit)
    problems = verify_report(document, parsed, _digest(parsed, raw), cell_limit)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print(f"ok: report verifies against {source}")
    return EXIT_OK


class Command(Record):
    """One subcommand: its handler, its help line, its (name, help) positionals and its options.

    An option is an (option, takes a value, help) triple; `required` names the
    options that must be given. The handler takes one keyword per positional
    and option: the value given, or None for an absent option, or for a flag
    whether it was given.
    """

    handler: Callable[..., int]
    help: str
    positionals: tuple = ()
    options: tuple = ()
    required: tuple = ()


COMMANDS = {
    "analyze": Command(
        cmd_analyze,
        "classify a model or knowledgebase and emit a report",
        positionals=(("source", "input file or builtin:NAME (see list-builtins)"),),
        options=(
            ("--json", False, "emit the machine-readable report"),
            ("--limit", True, "intermediate-table cell limit"),
        ),
    ),
    "infer": Command(
        cmd_infer,
        "project the combined knowledgebase onto a query",
        positionals=(("source", "input file or builtin:NAME"),),
        options=(
            ("--query", True, "comma-separated query variables"),
            ("--order", True, "comma-separated elimination order"),
            ("--limit", True, "intermediate-table cell limit"),
            ("--json", False, ""),
        ),
        required=("--query",),
    ),
    "list-builtins": Command(
        cmd_list_builtins, "list the built-in models and knowledgebases", options=(("--describe", False, ""),)
    ),
    "verify": Command(
        cmd_verify,
        "re-check a report against its input",
        positionals=(
            ("report", "report JSON produced by analyze --json"),
            ("source", "the input file or builtin:NAME the report was produced from"),
        ),
    ),
}

_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's: such a token is an argument
_SEPARATOR = "--"


def _field(option: str) -> str:
    return option[2:].replace("-", "_")


def _spelled(option: str, takes_value: bool) -> str:
    return f"{option} {_field(option).upper()}" if takes_value else option


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: vk [-h] {{{','.join(COMMANDS)}}} ..."
    spec = COMMANDS[command]
    words = ["vk", command, "[-h]"]
    for option, takes_value, _ in spec.options:
        word = _spelled(option, takes_value)
        words.append(word if option in spec.required else f"[{word}]")
    words.extend(name for name, _ in spec.positionals)
    return "usage: " + " ".join(words)


def _help(command: str | None) -> str:
    """The text `-h` prints: usage, a description, then one aligned line per command, positional and option."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        lead = "Agreement and contextuality analysis for valuation-algebra knowledgebases."
        sections = [("commands", [(name, spec.help) for name, spec in COMMANDS.items()])]
    else:
        spec = COMMANDS[command]
        lead = spec.help
        sections = [("positional arguments", spec.positionals)] if spec.positionals else []
        options += [(_spelled(option, takes_value), text) for option, takes_value, text in spec.options]
    sections.append(("options", options))
    width = max(len(left) for _, rows in sections for left, _ in rows)
    blocks = [_usage(command), lead]
    for title, rows in sections:
        blocks.append("\n".join([f"{title}:", *(f"  {left:<{width}}  {text}".rstrip() for left, text in rows)]))
    return "\n\n".join(blocks) + "\n"


def _refuse(command: str | None, message: str) -> NoReturn:
    """A usage error: usage and the message on stderr, then exit status 2."""
    prog = "vk" if command is None else f"vk {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _option(token: str, options: tuple[str, ...], command: str | None):
    """How `token` reads among `options`: None for an argument, else (option, value after `=`, or None).

    The option is None for an unknown one. A long option may be named by a
    unique prefix; a `-` alone, a negative number and a token with a space
    are arguments, and an option's name may carry its value after `=`.
    """
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return token, None
    head, equals, value = token.partition("=")
    if equals and head in options:
        return head, value
    if token.startswith("--"):
        matches = [option for option in options if option.startswith(head)]
        if len(matches) > 1:
            _refuse(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if equals else None
    elif token[:2] in options:
        return token[:2], token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _read_help(command: str | None, value: str | None) -> NoReturn:
    """`-h`: the help on stdout and exit status 0; a value given to it is a usage error."""
    if value is not None:
        _refuse(command, f"argument -h/--help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(EXIT_OK)


def parse_argv(argv: list[str]) -> tuple[str, dict]:
    """The command and its handler's keyword arguments that `argv` gives; a usage error exits 2, `-h` exits 0."""
    extras = []
    start = 0
    while start < len(argv) and argv[start] != _SEPARATOR:
        read = _option(argv[start], _HELP, None)
        if read is None:
            break
        option, value = read
        if option is None:
            extras.append(argv[start])
        else:
            _read_help(None, value)
        start += 1
    if start == len(argv):
        _refuse(None, "the following arguments are required: command")
    command = argv[start]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _refuse(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    fields = _parse_command(command, argv[start + 1 :], extras)
    if extras:
        _refuse(None, f"unrecognized arguments: {' '.join(extras)}")
    return command, fields


def _parse_command(command: str, tokens: list[str], extras: list[str]) -> dict:
    """The fields that `tokens` give `command`'s handler; tokens it cannot place are added to `extras`.

    Every token before `--` is read before any is used, as argparse does, so
    an ambiguous prefix is refused first. Then each option takes the value
    after it, and each argument fills the next open positional. The `--` is
    absorbed only by a run of arguments (since the last option) that fills a
    positional; otherwise it is an extra.
    """
    spec = COMMANDS[command]
    takes_value = {option: takes for option, takes, _ in spec.options}
    cut = tokens.index(_SEPARATOR) if _SEPARATOR in tokens else len(tokens)
    reads = [_option(token, _HELP + tuple(takes_value), command) for token in tokens[:cut]]
    reads += [None] * (len(tokens) - cut)
    fields = {_field(option): None if takes else False for option, takes in takes_value.items()}
    open_positionals = [name for name, _ in spec.positionals]
    placed = 0  # positionals filled since the last option
    index = 0
    while index < len(tokens):
        token, read = tokens[index], reads[index]
        index += 1
        if index - 1 == cut:
            continue
        if read is None:
            if open_positionals:
                fields[open_positionals.pop(0)] = token
                placed += 1
            else:
                extras.append(token)
            continue
        placed = 0
        option, value = read
        if option is None:
            extras.append(token)
        elif option in _HELP:
            _read_help(command, value)
        elif not takes_value[option]:
            if value is not None:
                _refuse(command, f"argument {option}: ignored explicit argument {value!r}")
            fields[_field(option)] = True
        elif value is not None:
            fields[_field(option)] = value
        elif index < cut and reads[index] is None:
            fields[_field(option)] = tokens[index]
            index += 1
        else:
            _refuse(command, f"argument {option}: expected one argument")
    if cut < len(tokens) and not placed:
        extras.append(_SEPARATOR)
    missing = open_positionals + [option for option in spec.required if fields[_field(option)] is None]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    return fields


def main(argv: list[str] | None = None) -> int:
    command, fields = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[command].handler(**fields)
    except ParseError as err:
        print(f"error: {err.message}{err.location()}", file=sys.stderr)
        return EXIT_INPUT
    except (CapabilityError, ResourceLimitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ValkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def run() -> NoReturn:
    """The `vk` process: `main` on `sys.argv`, then exit with its status.

    The heap is frozen on the way out, also when a usage error or `-h` exits,
    so the interpreter's collections at shutdown neither traverse nor free the
    objects the command left behind. Atexit hooks and the final flush of
    stdout and stderr still run. `main` freezes nothing, so a caller that runs
    it in process keeps a collectable heap.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
