"""Command-line surface tying the modules together.

Every subcommand reads apx from ``--input`` (``-`` for stdin) and writes
either human-readable text or JSON with the stable top-level shape
``{"schema": "afrob/1", "command": ..., "result": ...}``.  All collections
are emitted in canonical order, so identical inputs and seeds produce
byte-identical output.

Exit status: 0 success, 1 usage error, 2 parse error, 3 size limit,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Iterable

from .apx import parse_apx
from .errors import (
    AfrobError,
    InternalInvariantViolation,
    ParseError,
    SizeLimit,
    UndeclaredArgument,
)
from .framework import ArgumentationFramework, _attacks_in, _bits
from .invariance import (
    AttackClassification,
    classify_attack,
    enumerate_invariant_attacks,
    sigma_equivalent,
)
from .labelling import labellings_for
from .oracle import AuditReport, exhaustive_audit, extension_changes, oracle_invariant
from .robustness import RobustnessResult, robustness_degree
from .semantics import Semantics, extension_difference, extension_masks, extension_sort_key

SCHEMA = "afrob/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_INTERNAL = 4

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
        return parse_apx(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_apx(handle.read())


def _sorted_extensions(family) -> list[list[str]]:
    return [sorted(ext) for ext in sorted(family, key=extension_sort_key)]


def _fmt_set(values) -> str:
    return "{" + ",".join(sorted(values)) + "}"


def _fmt_extensions(family) -> str:
    return ",".join(_fmt_set(ext) for ext in sorted(family, key=extension_sort_key)) or "-"


def _emit(args, command: str, result: dict, text_lines: Iterable[str]) -> int:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "command": command, "result": result}, indent=2))
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


def _extension_lists(af: ArgumentationFramework, semantics: Semantics) -> list[list[str]]:
    """The extensions as sorted name lists, in ``extension_sort_key``'s
    order, named straight from the masks."""
    # each list is ascending because sorted_arguments is, so ordering the
    # lists by (size, members) is ordering the sets by (size, sorted names)
    names = af.sorted_arguments
    found = [[names[i] for i in _bits(m)] for m in extension_masks(af, semantics)]
    found.sort(key=lambda ext: (len(ext), ext))
    return found


def _cmd_extensions(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    found = _extension_lists(af, semantics)
    result = {"semantics": semantics.value, "extensions": found}
    # a generator, so the text is only built when it is printed
    text = ("{" + ",".join(ext) + "}" for ext in found)
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
    attack = (args.source, args.target)
    classification = classify_attack(af, attack, semantics, preferred_only=args.preferred_only)
    result = _classification_json(classification)
    text = _classification_text(classification)
    if args.oracle:
        invariant = oracle_invariant(af, attack, semantics)
        lost, gained = extension_changes(af, attack, semantics)
        result["oracle"] = {
            "invariant": invariant,
            "lost": _sorted_extensions(lost),
            "gained": _sorted_extensions(gained),
        }
        text.append(
            f"oracle: {'invariant' if invariant else 'changed'}"
            f" lost={_fmt_extensions(lost)} gained={_fmt_extensions(gained)}"
        )
    return _emit(args, "check-attack", result, text)


def _cmd_invariant_attacks(args) -> int:
    af = _load(args.input)
    semantics = Semantics(args.semantics)
    found = sorted(enumerate_invariant_attacks(af, semantics))
    result = {
        "semantics": semantics.value,
        "attacks": [{"source": a.source, "target": a.target} for a in found],
    }
    text = [f"{a.source} -> {a.target}" for a in found]
    if args.oracle:
        disagreements = [
            {"source": a.source, "target": a.target}
            for a in found
            if not oracle_invariant(af, a, semantics)
        ]
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
        "witness": [{"source": a.source, "target": a.target} for a in result_obj.witness],
        "explored_states": result_obj.explored_states,
        "strategy": result_obj.strategy,
        "truncated": result_obj.truncated,
    }
    text = [
        f"degree: {result_obj.degree}",
        "witness: " + (", ".join(f"{a.source}->{a.target}" for a in result_obj.witness) or "-"),
        f"explored_states: {result_obj.explored_states}",
        f"strategy: {result_obj.strategy}",
    ]
    if result_obj.truncated:
        text.append("truncated: lower bound only (max-steps reached)")
    return _emit(args, "robustness", result, text)


def _cmd_equivalent(args) -> int:
    af = _load(args.input)
    other = _load(args.other)
    semantics = Semantics(args.semantics)
    equivalent = sigma_equivalent(af, other, semantics)
    lost, gained = extension_difference(af, other, semantics)
    result = {
        "semantics": semantics.value,
        "equivalent": equivalent,
        "lost": _sorted_extensions(lost),
        "gained": _sorted_extensions(gained),
    }
    text = [
        f"equivalent: {'true' if equivalent else 'false'}",
        f"lost: {_fmt_extensions(lost)}",
        f"gained: {_fmt_extensions(gained)}",
    ]
    return _emit(args, "equivalent", result, text)


def _audit_json(report: AuditReport) -> dict:
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
                "attacks": [
                    {"source": a.source, "target": a.target}
                    for a in _attacks_in(d.framework.sorted_arguments, d.framework.target_rows)
                ],
                "attack": {"source": d.attack.source, "target": d.attack.target},
                "predicate_verdict": d.predicate_verdict.value,
                "oracle_invariant": d.oracle_verdict,
                "rules": [rule.value for rule in d.rules],
                "lost": _sorted_extensions(d.lost),
                "gained": _sorted_extensions(d.gained),
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
    for d in report.discrepancies:
        attacks = ",".join(
            f"({a.source},{a.target})"
            for a in _attacks_in(d.framework.sorted_arguments, d.framework.target_rows)
        )
        lines.append(
            f"disagreement: R={{{attacks}}} add=({d.attack.source},{d.attack.target})"
            f" predicate={d.predicate_verdict.value}"
            f" oracle={'invariant' if d.oracle_verdict else 'changed'}"
            f" lost={_fmt_extensions(d.lost)} gained={_fmt_extensions(d.gained)}"
        )
    return lines


def _cmd_audit(args) -> int:
    report = exhaustive_audit(
        args.args,
        Semantics(args.semantics),
        seed=args.seed,
        samples=args.samples,
        jobs=args.jobs,
    )
    text = format_audit_text(report) if args.format == "text" else ()
    return _emit(args, "audit", _audit_json(report), text)


@cache
def _parsers() -> tuple[_Parser, _Parser]:
    """The command parser and its ``audit`` subparser, built on first use
    and then shared by every call in the process."""
    parser = _Parser(prog="afrob", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("--input", required=True, help="apx file, or - for stdin")
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument(
            "--jobs",
            type=_positive,
            # a string default goes through the type too, so a bad
            # AFROB_JOBS is the same usage error as a bad --jobs
            default="1",
            help="worker processes for audits",
        )

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
    p.add_argument("--oracle", action="store_true", help="append the recomputation verdict")
    p.add_argument("--preferred-only", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_check_attack)

    p = sub.add_parser("invariant-attacks", help="list all invariant new attacks")
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument("--oracle", action="store_true", help="double-check each attack")
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

    p = sub.add_parser("audit", help="cross-validate classifier vs recomputation")
    p.add_argument("--args", type=_count, required=True, help="number of arguments")
    p.add_argument("--semantics", choices=_CLASSIFY_SEMANTICS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=1000)
    common(p, with_input=False)
    p.set_defaults(func=_cmd_audit)

    return parser, p


def run_cli(argv=None) -> int:
    parser, audit = _parsers()
    # only audit uses workers, so only audit takes its --jobs default from
    # AFROB_JOBS, read on every call because the parser outlives it
    audit.set_defaults(jobs=os.environ.get("AFROB_JOBS", "1"))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, UndeclaredArgument) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AfrobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())
