"""Command-line surface tying the modules together.

Every subcommand reads apx from ``--input`` (``-`` for stdin) and writes
either human-readable text or JSON with the stable top-level shape
``{"schema": "afrob/1", "command": ..., "result": ...}``.  All collections
are emitted in canonical order, so identical inputs and seeds produce
byte-identical output.

Exit status: 0 success, 1 usage error, 2 parse error, 3 size limit.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, NamedTuple, Sequence

from .apx import parse_apx
from .errors import AfrobError, ParseError, SizeLimit, UndeclaredArgument
from .framework import ArgumentationFramework, _attacks_in, _bits
from .invariance import AttackClassification, _classify, _State
from .labelling import labellings_for
from .oracle import AuditReport, exhaustive_audit
from .robustness import RobustnessResult, robustness_degree
from .semantics import Semantics, extension_difference, extension_masks

SCHEMA = "afrob/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SIZE = 3

_ALL_SEMANTICS = [s.value for s in Semantics]
_LABELLING_SEMANTICS = ["com", "stb", "prf", "gde", "sst"]
_CLASSIFY_SEMANTICS = ["cf", "adm"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise _UsageError(message)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _load(path: str) -> ArgumentationFramework:
    if path == "-":
        # the bytes, decoded as strictly as a file: sys.stdin itself may
        # decode with surrogateescape (under the C and POSIX locales)
        return parse_apx(sys.stdin.buffer.read().decode("utf-8"))
    with open(path, "r", encoding="utf-8") as handle:
        return parse_apx(handle.read())


def _fmt_set(values) -> str:
    return "{" + ",".join(sorted(values)) + "}"


class _Family(NamedTuple):
    """An extension family to print: its masks in canonical (size, then
    names) order, as enumerated, and the names of the mask bits.
    :func:`_json` writes it as the list of the sets' sorted name lists."""

    masks: Sequence[int]
    names: tuple[str, ...]


class _Attacks(tuple):
    """Attacks to print.  :func:`_json` writes them as the list of their
    ``{"source", "target"}`` dicts, in one call."""


def _set_items(
    masks: Sequence[int], names: Sequence[str], start: str, sep: str, end: str, empty: str
) -> list[str]:
    """Each set of ``masks`` (in canonical order) written as
    ``start``, its members' names joined by ``sep``, and ``end``; the empty
    set as ``empty``.  That order puts every set after its prefix, the set
    minus its highest member, so a set whose prefix is in the family is
    written as the prefix's item without ``end``, plus one name."""
    items: dict[int, str] = {}
    cut = -len(end)
    for m in masks:
        if not m:
            items[m] = empty
            continue
        top = m.bit_length() - 1
        prefix = m ^ 1 << top
        if not prefix:
            items[m] = start + names[top] + end
        elif prefix in items:
            items[m] = items[prefix][:cut] + sep + names[top] + end
        else:
            items[m] = start + sep.join([names[i] for i in _bits(m)]) + end
    return list(items.values())


def _fmt_extensions(masks: Sequence[int], names: Sequence[str]) -> str:
    return ",".join(_set_items(masks, names, "{", ",", "}", "{}")) or "-"


def _int_text(value: int) -> str:
    """``value`` in decimal, exactly, at any length.  ``int.__repr__``
    refuses past the interpreter's digit limit (4,300 by default); a
    ``Decimal`` converts without one, and is imported only then."""
    try:
        return int.__repr__(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values the
    CLI prints: dicts with str keys, lists, str, int, bool and None, a
    :class:`_Family` as its list of name lists and an :class:`_Attacks` as
    its list of dicts.  Any other type raises
    TypeError.  ``json.dumps`` runs its pure-Python encoder whenever it
    indents; this writer leaves only the string escapes (the C-accelerated
    ``ensure_ascii`` one) to ``json`` and writes a string member without a
    call of its own."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is _Family:
        if not value.masks:
            return "[]"
        deeper = inner + "  "
        names = [_quote(name) for name in value.names]
        items = _set_items(value.masks, names, "[" + deeper, "," + deeper, inner + "]", "[]")
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if kind is _Attacks:
        if not value:
            return "[]"
        deeper = inner + "  "
        head, middle, tail = "{" + deeper + '"source": ', "," + deeper + '"target": ', inner + "}"
        items = [head + _quote(source) + middle + _quote(target) + tail for source, target in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    # a str or int subclass (an enum member) prints as its value, as in json
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, str):
        return _quote(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, command: str, result: dict, text_lines: Iterable[str]) -> int:
    if args.format == "json":
        print(_json({"schema": SCHEMA, "command": command, "result": result}))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK


def _classification_json(classification: AttackClassification) -> dict:
    return {
        "attack": {"source": classification.attack.source, "target": classification.attack.target},
        "semantics": classification.semantics.value,
        "verdict": classification.verdict.value,
        "witnesses": [
            {"in_set": sorted(w.in_set), "rule": w.rule.value} for w in classification.witnesses
        ],
    }


def _classification_text(classification: AttackClassification) -> list[str]:
    lines = [
        f"attack: {classification.attack.source} -> {classification.attack.target}",
        f"semantics: {classification.semantics.value}",
        f"verdict: {classification.verdict.value}",
    ]
    for witness in classification.witnesses:
        lines.append(f"witness: in={_fmt_set(witness.in_set)} rule={witness.rule.value}")
    return lines


def _cmd_extensions(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    family = _Family(extension_masks(af, semantics), af.sorted_arguments)
    result = {"semantics": semantics.value, "extensions": family}
    text = _set_items(*family, "{", ",", "}", "{}") if args.format == "text" else ()
    return _emit(args, "extensions", result, text)


def _cmd_labellings(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    found = labellings_for(af, semantics)
    result = {
        "semantics": semantics.value,
        "labellings": [
            {"in": sorted(l.in_set), "out": sorted(l.out_set), "undec": sorted(l.undec_set)}
            for l in found
        ],
    }
    text = [
        f"in={_fmt_set(l.in_set)} out={_fmt_set(l.out_set)} undec={_fmt_set(l.undec_set)}"
        for l in found
    ]
    return _emit(args, "labellings", result, text)


def _cmd_check_attack(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    # one state of the relation gives the rule scan and Dung's delta
    state = _State(*af.bit_rows)
    a, b = af._index(args.source), af._index(args.target)
    classification = _classify(af, state, a, b, semantics, args.preferred_only)
    result = _classification_json(classification)
    text = _classification_text(classification)
    if args.oracle:
        # both in canonical order, as enumerated
        lost, gained = state.changes(a, b, semantics)
        invariant = not lost and not gained
        names = af.sorted_arguments
        result["oracle"] = {
            "invariant": invariant,
            "lost": _Family(lost, names),
            "gained": _Family(gained, names),
        }
        text.append(
            f"oracle: {'invariant' if invariant else 'changed'}"
            f" lost={_fmt_extensions(lost, names)} gained={_fmt_extensions(gained, names)}"
        )
    return _emit(args, "check-attack", result, text)


def _cmd_invariant_attacks(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    state = _State(*af.bit_rows)
    rows = state.invariant_rows(semantics)
    found = _Attacks(_attacks_in(af.sorted_arguments, rows))
    result = {"semantics": semantics.value, "attacks": found}
    text = [f"{a.source} -> {a.target}" for a in found]
    if args.oracle:
        # the candidates the rules call invariant that Dung's delta changes
        changed = state.changed_rows(semantics)
        wrong = [row & changed_row for row, changed_row in zip(rows, changed)]
        disagreements = _Attacks(_attacks_in(af.sorted_arguments, wrong))
        result["oracle_disagreements"] = disagreements
        text.append(f"oracle disagreements: {len(disagreements)}")
    return _emit(args, "invariant-attacks", result, text)


def _cmd_robustness(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    result_obj: RobustnessResult = robustness_degree(
        af,
        semantics,
        strategy=args.strategy,
        max_steps=args.max_steps,
        paranoid=args.paranoid,
    )
    result = {
        "semantics": semantics.value,
        "degree": result_obj.degree,
        "witness": _Attacks(result_obj.witness),
        "explored_states": result_obj.explored_states,
        "strategy": result_obj.strategy,
        "truncated": result_obj.truncated,
    }
    text = [
        f"degree: {result_obj.degree}",
        "witness: " + (", ".join(f"{a.source}->{a.target}" for a in result_obj.witness) or "-"),
        "explored_states: " + _int_text(result_obj.explored_states),
        f"strategy: {result_obj.strategy}",
    ]
    if result_obj.truncated:
        text.append("truncated: lower bound only (max-steps reached)")
    return _emit(args, "robustness", result, text)


def _cmd_equivalent(args) -> int:
    af = _load(args.input)
    other = _load(args.other)
    semantics = Semantics(args.semantics)
    lost, gained = extension_difference(af, other, semantics)
    equivalent = not lost and not gained
    names = af.sorted_arguments
    result = {
        "semantics": semantics.value,
        "equivalent": equivalent,
        "lost": _Family(lost, names),
        "gained": _Family(gained, names),
    }
    text = [
        f"equivalent: {'true' if equivalent else 'false'}",
        f"lost: {_fmt_extensions(lost, names)}",
        f"gained: {_fmt_extensions(gained, names)}",
    ]
    return _emit(args, "equivalent", result, text)


def _relations(report: AuditReport, write: Callable[[list], object]) -> dict[int, object]:
    """``write`` of the attack list of each framework with a disagreement,
    by the framework's id: decoded once, shared by its disagreements."""
    frameworks = {id(d.framework): d.framework for d in report.discrepancies}
    return {k: write(_attacks_in(f.sorted_arguments, f.target_rows)) for k, f in frameworks.items()}


def _audit_json(report: AuditReport) -> dict:
    relations = _relations(report, _Attacks)
    return {
        "semantics": report.semantics.value,
        "arguments": report.argument_count,
        "exhaustive": report.exhaustive,
        "seed": report.seed,
        "frameworks_checked": report.frameworks_checked,
        "candidates_checked": report.candidates_checked,
        "disagreements": len(report.discrepancies),
        "by_rule": report.by_rule(),
        "discrepancies": [
            {
                "attacks": relations[id(d.framework)],
                "attack": {"source": d.attack.source, "target": d.attack.target},
                "predicate_verdict": d.predicate_verdict.value,
                "oracle_invariant": d.oracle_verdict,
                "rules": [rule.value for rule in d.rules],
                "lost": _Family(d.lost, d.framework.sorted_arguments),
                "gained": _Family(d.gained, d.framework.sorted_arguments),
            }
            for d in report.discrepancies
        ],
    }


def format_audit_text(report: AuditReport) -> list[str]:
    lines = [
        f"semantics: {report.semantics.value}",
        f"arguments: {report.argument_count}",
        f"mode: {'exhaustive' if report.exhaustive else f'sampled (seed={report.seed})'}",
        f"frameworks: {report.frameworks_checked}",
        f"candidates: {report.candidates_checked}",
        f"disagreements: {len(report.discrepancies)}",
    ]
    for rule, count in report.by_rule().items():
        lines.append(f"by rule: {rule}={count}")
    relations = _relations(report, lambda r: ",".join(f"({a.source},{a.target})" for a in r))
    for d in report.discrepancies:
        relation, names = relations[id(d.framework)], d.framework.sorted_arguments
        lines.append(
            f"disagreement: R={{{relation}}} add=({d.attack.source},{d.attack.target})"
            f" predicate={d.predicate_verdict.value}"
            f" oracle={'invariant' if d.oracle_verdict else 'changed'}"
            f" lost={_fmt_extensions(d.lost, names)} gained={_fmt_extensions(d.gained, names)}"
        )
    return lines


def _cmd_audit(args) -> int:
    report = exhaustive_audit(
        args.args,
        Semantics(args.semantics),
        seed=args.seed,
        samples=args.samples,
    )
    if args.format == "text":
        return _emit(args, "audit", {}, format_audit_text(report))
    return _emit(args, "audit", _audit_json(report), ())


@cache
def _parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The command parser and each command's own parser, by name, built on
    first use and then shared by every call in the process."""
    parser = _Parser(prog="afrob", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="apx file, or - for stdin")
        p.add_argument("--format", choices=["json", "text"], default="text")
        # every command runs in one process: --jobs is validated and ignored,
        # so that callers that still pass it keep working
        p.add_argument("--jobs", type=_positive, default=1, help="ignored")

    p = sub.add_parser("extensions", help="enumerate the extension set")
    p.add_argument("--semantics", choices=_ALL_SEMANTICS, required=True)
    common(p)
    p.set_defaults(func=_cmd_extensions)

    p = sub.add_parser("labellings", help="enumerate restricted complete labellings")
    p.add_argument("--semantics", choices=_LABELLING_SEMANTICS, required=True)
    common(p)
    p.set_defaults(func=_cmd_labellings)

    p = sub.add_parser("check-attack", help="classify a single attack addition")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument("--oracle", action="store_true", help="append Dung's delta: sets lost and gained")
    p.add_argument("--preferred-only", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_check_attack)

    p = sub.add_parser("invariant-attacks", help="list all invariant new attacks")
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also list the rule-invariant attacks that Dung's delta says change the extension set",
    )
    common(p)
    p.set_defaults(func=_cmd_invariant_attacks)

    p = sub.add_parser("robustness", help="measure the robustness degree")
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument("--strategy", choices=["exhaustive", "greedy"], required=True)
    p.add_argument("--max-steps", type=_count, default=None)
    p.add_argument("--paranoid", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser("equivalent", help="compare two frameworks' extension sets")
    p.add_argument("--semantics", choices=_ALL_SEMANTICS, required=True)
    p.add_argument("--other", required=True, help="second apx file")
    common(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("audit", help="compare the rule scan with Dung's delta")
    p.add_argument("--args", type=_count, required=True, help="number of arguments")
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=1000)
    common(p, with_input=False)
    p.set_defaults(func=_cmd_audit)

    return parser, sub.choices


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    # a command's arguments go straight to its own parser; anything else
    # (no command, --help, an unknown command) to the command parser
    command = commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    # reading the input is the only decoding the commands do
    except (ParseError, UndeclaredArgument, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (OSError, AfrobError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())
