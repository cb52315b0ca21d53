"""Command-line surface tying the modules together.

Every subcommand reads apx from ``--input`` (``-`` for stdin) and writes
either human-readable text or JSON with the stable top-level shape
``{"schema": "afrob/1", "command": ..., "result": ...}``.  All collections
are emitted in canonical order, so identical inputs and seeds produce
byte-identical output.

Exit status: 0 success, 1 usage error, 2 parse error, 3 size limit.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import NamedTuple, Sequence

from .apx import parse_apx
from .errors import AfrobError, ParseError, SizeLimit, UndeclaredArgument
from .framework import ArgumentationFramework, _attacks_in, _bits
from .invariance import _classify, _verdict
from .oracle import AuditReport, _Discrepancies, exhaustive_audit
from .robustness import robustness_degree
from .semantics import Semantics, _enumerate, extension_difference, extension_masks, labellings_for

SCHEMA = "afrob/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SIZE = 3


class _UsageError(Exception):
    pass


def _count(text: str, least: int = 0, kind: str = "non-negative") -> int:
    # ASCII digits only (str.isdecimal accepts every Unicode decimal digit),
    # and no more than int reads (sys.get_int_max_str_digits())
    try:
        if text.isascii() and text.isdecimal() and int(text) >= least:
            return int(text)
    except ValueError:
        pass
    from argparse import ArgumentTypeError  # argparse loads only to refuse

    raise ArgumentTypeError(f"expected a {kind} integer, got {text!r}")


def _positive(text: str) -> int:
    return _count(text, 1, "positive")


def _load(path: str) -> ArgumentationFramework:
    # bytes, decoded in one place: sys.stdin may decode with surrogateescape
    # (under the C and POSIX locales), and parse_apx reads every line end
    if path == "-":
        if sys.stdin is None:  # fd 0 was closed at start
            raise OSError("stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return parse_apx(data.decode("utf-8"))


def _fmt_set(sorted_names: Sequence[str]) -> str:
    return "{" + ",".join(sorted_names) + "}"


class _Family(NamedTuple):
    """An extension family to print: its masks in canonical (size, then
    names) order, as enumerated, and the names of the mask bits.
    :func:`_json` writes it as the list of the sets' sorted name lists."""

    masks: Sequence[int]
    names: tuple[str, ...]


class _Attacks(tuple):
    """Attacks to print.  :func:`_json` writes them as the list of their
    ``{"source", "target"}`` dicts, in one call."""


def _relation_text(
    pairs: Sequence[str], rows: tuple[int, ...], start: str, sep: str, end: str, empty: str
) -> str:
    """The relation with target rows ``rows``, written as ``start``, the
    texts ``pairs[a * n + b]`` of its attacks (a, b) in canonical order
    joined by ``sep``, and ``end``; a relation with no attack as ``empty``."""
    n = len(rows)
    texts = [pairs[a * n + b] for a, row in enumerate(rows) for b in _bits(row)]
    return start + sep.join(texts) + end if texts else empty


def _each_disagreement(discrepancies: _Discrepancies, quote, pair, *relation: str):
    """Per disagreement of an audit, in order, from the index tuples it
    keeps: the names of its argument order, each through ``quote``, its
    relation's :func:`_relation_text` (with the ``relation`` parts and
    ``pair(source, target)`` of the quoted names per attack), and the
    disagreement's (a, b, rules, invariant, lost, gained).  The names and
    attack texts are built once per argument order, and each relation's
    text once, for all its disagreements."""
    order = None
    for names, rows, found in discrepancies.relations:
        if names is not order:
            order, quoted = names, [quote(name) for name in names]
            pairs = [pair(source, target) for source in quoted for target in quoted]
        text = _relation_text(pairs, rows, *relation)
        for disagreement in found:
            yield quoted, text, disagreement


def _tails(names: Sequence[str], sep: str) -> list[str]:
    """Per subset m of ``names`` (bit i for ``names[i]``), its members'
    names in bit order, each after ``sep``.  Built by doubling, as
    ``framework._BIT_TABLE`` is: entry m + 2^i is entry m followed by
    ``sep`` and ``names[i]``."""
    texts = [""]
    for name in names:
        piece = sep + name
        texts += [t + piece for t in texts]
    return texts


def _set_items(
    masks: Sequence[int],
    names: Sequence[str],
    start: str,
    sep: str,
    end: str,
    empty: str,
    between: str,
) -> str:
    """The sets of ``masks`` joined by ``between``: each written as
    ``start``, its members' names in bit order joined by ``sep``, and
    ``end``; the empty set as ``empty``.  A large family is written from
    tables of subset texts for the two halves of the argument order, the
    low k = n // 2 names and the rest: a set is its low half's open text
    (``opened``, "" for no member) plus its high half's text, either after
    a low member (``after``: ``sep`` before each name, then ``end``) or
    alone (``alone``: the whole set's text, ``empty`` for ∅), in one
    concatenation per set and one join.  The tables cost one string per
    subset of either half, so a family too small to pay for them (a size
    measured on the benchmark's families) is spelled out set by set."""
    n = len(names)
    k = n // 2
    if 4 * len(masks) <= (1 << k) + (2 << n - k):
        return between.join([
            start + sep.join([names[i] for i in _bits(m)]) + end if m else empty for m in masks
        ])
    cut = len(sep)
    low_tails, high_tails = _tails(names[:k], sep), _tails(names[k:], sep)
    opened = [""] + [start + t[cut:] for t in low_tails[1:]]
    after = [t + end for t in high_tails]
    alone = [empty] + [start + t[cut:] + end for t in high_tails[1:]]
    low = (1 << k) - 1
    return between.join([opened[m & low] + (after if m & low else alone)[m >> k] for m in masks])


def _family_json(masks: Sequence[int], names: Sequence[str], indent: str) -> tuple[str, str, str]:
    """The JSON list of the sets of ``masks``, a nonempty family, at
    ``indent``, each set the list of its members' texts in ``names``: as its
    opening bracket, its sets' text (:func:`_set_items`) and its closing
    bracket, which the caller joins with the rest of its document."""
    inner = indent + "  "
    deeper = inner + "  "
    sets = _set_items(masks, names, "[" + deeper, "," + deeper, inner + "]", "[]", "," + inner)
    return "[" + inner, sets, indent + "]"


def _attack_parts(indent: str) -> tuple[str, str, str]:
    """The texts around the source's and the target's JSON in an attack's
    ``{"source", "target"}`` dict at ``indent``."""
    deeper = indent + "  "
    return "{" + deeper + '"source": ', "," + deeper + '"target": ', indent + "}"


def _fmt_extensions(family: _Family) -> str:
    return _set_items(*family, "{", ",", "}", "{}", ",") or "-"


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
    :class:`_Family` as its list of name lists, an :class:`_Attacks` as
    its list of dicts, and an audit's :class:`~afrob.oracle._Discrepancies`
    as its list of disagreement dicts, written from key texts fixed at its
    depth and from the index tuples it keeps (:func:`_each_disagreement`),
    decoding none.  Any other type, an enum member included, raises
    TypeError.  Every piece of the document goes into one list
    (:func:`_write`), joined once here, so no level copies the text of the
    levels inside it.  ``json.dumps`` runs its pure-Python encoder whenever
    it indents; this writer leaves only the string escapes (the
    C-accelerated ``ensure_ascii`` one) to ``json`` and writes a string
    member without a call of its own."""
    out: list[str] = []
    _write(value, indent, out)
    return "".join(out)


def _write(value, indent: str, out: list[str]) -> None:
    """Append the pieces of :func:`_json`'s text of ``value`` at ``indent``
    to ``out``.  A family, an attack list and an audit's disagreements
    each append their items' text, built in one join."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
        return
    inner = indent + "  "
    if kind is list:
        if not value:
            out.append("[]")
            return
        lead, sep = "[" + inner, "," + inner
        for v in value:
            if type(v) is str:
                out.append(lead + _quote(v))
            else:
                out.append(lead)
                _write(v, inner, out)
            lead = sep
        out.append(indent + "]")
        return
    if kind is dict:
        if not value:
            out.append("{}")
            return
        lead, sep = "{" + inner, "," + inner
        for k, v in value.items():
            if type(v) is str:
                out.append(lead + _quote(k) + ": " + _quote(v))
            else:
                out.append(lead + _quote(k) + ": ")
                _write(v, inner, out)
            lead = sep
        out.append(indent + "}")
        return
    if kind is _Family:
        if value.masks:
            out += _family_json(value.masks, [_quote(name) for name in value.names], indent)
        else:
            out.append("[]")
        return
    if kind is _Attacks:
        if not value:
            out.append("[]")
            return
        head, middle, tail = _attack_parts(inner)
        items = [head + _quote(source) + middle + _quote(target) + tail for source, target in value]
        out += ("[" + inner, ("," + inner).join(items), indent + "]")
        return
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(_int_text(value))
    elif kind is _Discrepancies:
        if not value:
            out.append("[]")
            return
        deeper = inner + "  "
        nested = deeper + "  "
        head, middle, tail = _attack_parts(nested)
        # every key text at this depth, once; %s takes the values' own texts
        item = "".join([
            "{", deeper, '"attacks": %s,', deeper, '"attack": {', deeper, '  "source": %s,',
            deeper, '  "target": %s', deeper, '},', deeper, '"predicate_verdict": %s,',
            deeper, '"oracle_invariant": %s,', deeper, '"rules": %s,', deeper, '"lost": %s,',
            deeper, '"gained": %s', inner, "}",
        ])
        verdicts: dict[tuple, tuple[str, str]] = {}  # a handful of distinct rule tuples
        items = []
        for names, relation, (a, b, rules, invariant, lost, gained) in _each_disagreement(
            value,
            _quote,
            lambda source, target: head + source + middle + target + tail,
            "[" + nested, "," + nested, deeper + "]", "[]",
        ):
            if rules not in verdicts:
                verdicts[rules] = (
                    _json([rule.value for rule in rules], deeper), _quote(_verdict(rules).value)
                )
            rule_text, verdict = verdicts[rules]
            items.append(item % (
                relation,
                names[a],
                names[b],
                verdict,
                "true" if invariant else "false",
                rule_text,
                "".join(_family_json(lost, names, deeper)) if lost else "[]",
                "".join(_family_json(gained, names, deeper)) if gained else "[]",
            ))
        out += ("[" + inner, ("," + inner).join(items), indent + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _cmd_extensions(args) -> dict:
    af = _load(args.input)
    family = _Family(extension_masks(af, args.semantics), af.sorted_arguments)
    return {"semantics": args.semantics, "extensions": family}


def _extensions_text(result: dict) -> list[str]:
    # one item holding every line: a family can hold thousands of sets
    return [_set_items(*result["extensions"], "{", ",", "}", "{}", "\n")]


def _cmd_labellings(args) -> dict:
    af = _load(args.input)
    names = af.sorted_arguments
    return {
        "semantics": args.semantics,
        "labellings": [
            {
                "in": [names[i] for i in _bits(in_set)],
                "out": [names[i] for i in _bits(out)],
                "undec": [names[i] for i in _bits(undec)],
            }
            for in_set, out, undec in labellings_for(af, args.semantics)
        ],
    }


def _labellings_text(result: dict) -> list[str]:
    return [
        f"in={_fmt_set(l['in'])} out={_fmt_set(l['out'])} undec={_fmt_set(l['undec'])}"
        for l in result["labellings"]
    ]


def _cmd_check_attack(args) -> dict:
    af = _load(args.input)
    # one state of the relation gives the rule scan and Dung's delta
    record = _enumerate(af)
    a, b = af._index(args.source), af._index(args.target)
    verdict, found = _classify(record, a, b, args.semantics, args.preferred_only)
    names = af.sorted_arguments
    result = {
        "attack": {"source": names[a], "target": names[b]},
        "semantics": args.semantics,
        "verdict": verdict.value,
        "witnesses": [
            {"in_set": [names[i] for i in _bits(s)], "rule": rule.value} for s, rule in found
        ],
    }
    if args.oracle:
        # both in canonical order, as enumerated
        lost, gained = record.state.changes(a, b, args.semantics)
        result["oracle"] = {
            "invariant": not lost and not gained,
            "lost": _Family(lost, names),
            "gained": _Family(gained, names),
        }
    return result


def _check_attack_text(result: dict) -> list[str]:
    attack = result["attack"]
    lines = [
        f"attack: {attack['source']} -> {attack['target']}",
        f"semantics: {result['semantics']}",
        f"verdict: {result['verdict']}",
    ]
    lines += [f"witness: in={_fmt_set(w['in_set'])} rule={w['rule']}" for w in result["witnesses"]]
    if oracle := result.get("oracle"):
        lines.append(
            f"oracle: {'invariant' if oracle['invariant'] else 'changed'}"
            f" lost={_fmt_extensions(oracle['lost'])} gained={_fmt_extensions(oracle['gained'])}"
        )
    return lines


def _cmd_invariant_attacks(args) -> dict:
    af = _load(args.input)
    state = _enumerate(af).state
    rows = state.invariant_rows(args.semantics)
    found = _Attacks(_attacks_in(af.sorted_arguments, rows))
    result = {"semantics": args.semantics, "attacks": found}
    if args.oracle:
        # the candidates the rules call invariant that Dung's delta changes
        changed = state.changed_rows(args.semantics)
        wrong = [row & changed_row for row, changed_row in zip(rows, changed)]
        result["oracle_disagreements"] = _Attacks(_attacks_in(af.sorted_arguments, wrong))
    return result


def _invariant_attacks_text(result: dict) -> list[str]:
    lines = [f"{source} -> {target}" for source, target in result["attacks"]]
    if "oracle_disagreements" in result:
        lines.append(f"oracle disagreements: {len(result['oracle_disagreements'])}")
    return lines


def _cmd_robustness(args) -> dict:
    af = _load(args.input)
    found = robustness_degree(
        af, args.semantics, strategy=args.strategy, max_steps=args.max_steps, paranoid=args.paranoid
    )
    return {"semantics": args.semantics, **found._asdict(), "witness": _Attacks(found.witness)}


def _robustness_text(result: dict) -> list[str]:
    lines = [
        f"degree: {result['degree']}",
        "witness: " + (", ".join(f"{s}->{t}" for s, t in result["witness"]) or "-"),
        "explored_states: " + _int_text(result["explored_states"]),
        f"strategy: {result['strategy']}",
    ]
    if result["truncated"]:
        lines.append("truncated: lower bound only (max-steps reached)")
    return lines


def _cmd_equivalent(args) -> dict:
    if args.input == args.other == "-":
        # stdin is read once, so the second read would parse an empty framework
        raise _UsageError("--input and --other cannot both be - (stdin is read once)")
    af = _load(args.input)
    other = _load(args.other)
    lost, gained = extension_difference(af, other, args.semantics)
    names = af.sorted_arguments
    return {
        "semantics": args.semantics,
        "equivalent": not lost and not gained,
        "lost": _Family(lost, names),
        "gained": _Family(gained, names),
    }


def _equivalent_text(result: dict) -> list[str]:
    return [
        f"equivalent: {'true' if result['equivalent'] else 'false'}",
        f"lost: {_fmt_extensions(result['lost'])}",
        f"gained: {_fmt_extensions(result['gained'])}",
    ]


def _audit_result(report: AuditReport) -> dict:
    return {
        "semantics": report.semantics.value,
        "arguments": report.argument_count,
        "exhaustive": report.exhaustive,
        "seed": report.seed,
        "frameworks_checked": report.frameworks_checked,
        "candidates_checked": report.candidates_checked,
        "disagreements": len(report.discrepancies),
        "by_rule": report.by_rule(),
        "discrepancies": report.discrepancies,
    }


def _audit_text(result: dict) -> list[str]:
    mode = "exhaustive" if result["exhaustive"] else f"sampled (seed={result['seed']})"
    lines = [
        f"semantics: {result['semantics']}",
        f"arguments: {result['arguments']}",
        f"mode: {mode}",
        f"frameworks: {result['frameworks_checked']}",
        f"candidates: {result['candidates_checked']}",
        f"disagreements: {result['disagreements']}",
    ]
    lines += [f"by rule: {rule}={count}" for rule, count in result["by_rule"].items()]
    verdicts: dict[tuple, str] = {}
    for names, relation, (a, b, rules, invariant, lost, gained) in _each_disagreement(
        result["discrepancies"], str, "({},{})".format, "", ",", "", ""
    ):
        if rules not in verdicts:
            verdicts[rules] = _verdict(rules).value
        lines.append(
            f"disagreement: R={{{relation}}} add=({names[a]},{names[b]})"
            f" predicate={verdicts[rules]}"
            f" oracle={'invariant' if invariant else 'changed'}"
            f" lost={_fmt_extensions(_Family(lost, names))}"
            f" gained={_fmt_extensions(_Family(gained, names))}"
        )
    return lines


def _cmd_audit(args) -> dict:
    return _audit_result(
        exhaustive_audit(args.args, args.semantics, seed=args.seed, samples=args.samples)
    )


# Each command's options, declared once: _read_argv reads a well-formed argv
# from this table, and _parser builds argparse's parser from it.  A command:
# its help, its function, its text renderer and its options, in help order.
# An option: its string, then dest, type, choices, required, default and help.
_FLAG = (bool, None, False, False)  # a store_true flag, which takes no value
# every command runs in one process: --jobs is validated and ignored, so that
# callers that still pass it keep working
_OUTPUT = {"--format": ("format", str, ["json", "text"], False, "text", None),
           "--jobs": ("jobs", _positive, None, False, 1, "ignored")}
_IO = {"--input": ("input", str, None, True, None, "apx file, or - for stdin"), **_OUTPUT}
_SEMANTICS = {"--semantics": ("semantics", str, [s.value for s in Semantics], True, None, None)}
_CLASSIFY = {"--semantics": ("semantics", str, ["cf", "adm"], True, None, None)}
_COMMANDS = {
    "extensions": ("enumerate the extension set", _cmd_extensions, _extensions_text, {
        **_SEMANTICS, **_IO,
    }),
    "labellings": ("enumerate restricted complete labellings", _cmd_labellings, _labellings_text, {
        "--semantics": ("semantics", str, ["com", "stb", "prf", "gde", "sst"], True, None, None),
        **_IO,
    }),
    "check-attack": ("classify a single attack addition", _cmd_check_attack, _check_attack_text, {
        "--from": ("source", str, None, True, None, None),
        "--to": ("target", str, None, True, None, None),
        **_CLASSIFY,
        "--oracle": ("oracle", *_FLAG, "append Dung's delta: sets lost and gained"),
        "--preferred-only": ("preferred_only", *_FLAG, None),
        **_IO,
    }),
    "invariant-attacks": (
        "list all invariant new attacks", _cmd_invariant_attacks, _invariant_attacks_text, {
            **_CLASSIFY,
            "--oracle": ("oracle", *_FLAG, "also list the rule-invariant attacks that Dung's"
                         " delta says change the extension set"),
            **_IO,
        },
    ),
    "robustness": ("measure the robustness degree", _cmd_robustness, _robustness_text, {
        **_CLASSIFY,
        "--strategy": ("strategy", str, ["exhaustive", "greedy"], True, None, None),
        "--max-steps": ("max_steps", _count, None, False, None, None),
        "--paranoid": ("paranoid", *_FLAG, None),
        **_IO,
    }),
    "equivalent": ("compare two frameworks' extension sets", _cmd_equivalent, _equivalent_text, {
        **_SEMANTICS, "--other": ("other", str, None, True, None, "second apx file"), **_IO,
    }),
    "audit": ("compare the rule scan with Dung's delta", _cmd_audit, _audit_text, {
        "--args": ("args", _count, None, True, None, "number of arguments"),
        **_CLASSIFY,
        "--seed": ("seed", _count, None, False, 0, None),
        "--samples": ("samples", _count, None, False, 1000, None),
        **_OUTPUT,
    }),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """``parse_args``'s namespace for a well-formed argv: a command name, then
    exact option strings of that command, each but a flag with one value that
    starts with no ``-`` (``-`` aside) and passes its type and choices, every
    required one given (a repeated one keeps its last value); else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][3]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:
            return None
        dest, kind, choices = option[:3]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        try:
            value = kind(value)
        except Exception:  # argparse reads the argv again and says why
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest, _, _, required, default, _ in options.values():
        if required and dest not in values:
            return None
        values.setdefault(dest, default)
    return SimpleNamespace(**values, command=argv[0])


@cache
def _parser():
    """The one argparse parser, a subparser per command (whose name is the
    ``command`` it sets), built from ``_COMMANDS`` on first use and shared;
    argparse is imported only then."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # exit code 1 instead of argparse's 2
            raise _UsageError(message)

    parser = _Parser(prog="afrob", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (dest, kind, choices, required, default, about) in options.items():
            how = {"action": "store_true"} if kind is bool else {"type": kind, "choices": choices}
            p.add_argument(flag, dest=dest, required=required, default=default, help=about, **how)
    return parser


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse reads what the table declines: no command, --help, an
        # abbreviation, a usage error
        args = _read_argv(argv) or _parser().parse_args(argv)
        # a command returns its afrob/1 result; text is rendered from it
        # only when text is asked for
        _, func, text, _ = _COMMANDS[args.command]
        result = func(args)
        if args.format == "json":
            out = _json({"schema": SCHEMA, "command": args.command, "result": result})
        else:
            out = "\n".join(text(result))
        if sys.stdout is None:  # fd 1 was closed at start
            raise OSError("stdout is closed")
        if out:  # an empty result prints nothing
            # the text, then its newline: unbuffered (python -u), a write that
            # a closed pipe cuts short raises nothing, and the newline's raises
            print(out)
        # a failed write surfaces here, not in the interpreter's final flush
        sys.stdout.flush()
        return EXIT_OK
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    # reading the input is the only decoding the commands do
    except (ParseError, UndeclaredArgument, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except BrokenPipeError:
        return EXIT_USAGE  # a reader that closed stdout early made no usage error
    except (OSError, AfrobError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    status = run_cli()
    if status:
        # a command prints only its complete result, so stdout's buffer holds at
        # most the bytes whose write failed: the final flush sends them to
        # os.devnull (fd 1, as sys.stdout is None if stdout was never open)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(status)
