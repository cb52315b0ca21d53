import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import afrob
from afrob import Semantics, exhaustive_audit, extensions
from afrob.cli import (
    _COMMANDS,
    _Attacks,
    _Family,
    _audit_result,
    _audit_text,
    _json,
    _parser,
    _read_argv,
    _set_items,
    _UsageError,
    run_cli,
)
from afrob.framework import Attack
from afrob.oracle import canonical_names, framework_from_mask
from conftest import clear_caches, mutual_pairs
from oracles import audit_lines, audit_result, emit_apx, extension_changes, extension_sort_key

G3_APX = "arg(1).\narg(2).\narg(3).\narg(4).\natt(1,2).\natt(2,3).\n"


@pytest.fixture
def g3_file(tmp_path):
    path = tmp_path / "g3.apx"
    path.write_text(G3_APX)
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "afrob/1"
    return payload


def test_extensions_json(capsys, g3_file):
    payload = run_json(
        capsys, "extensions", "--semantics", "adm", "--input", g3_file, "--format", "json"
    )
    assert payload["command"] == "extensions"
    assert payload["result"]["extensions"] == [
        [],
        ["1"],
        ["4"],
        ["1", "3"],
        ["1", "4"],
        ["1", "3", "4"],
    ]


def test_extensions_text(capsys, g3_file):
    code, out, _ = run(capsys, "extensions", "--semantics", "stb", "--input", g3_file)
    assert code == 0
    assert out == "{1,3,4}\n"


def test_extensions_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"arg(a).\n"), encoding="utf-8"))
    code, out, _ = run(capsys, "extensions", "--semantics", "gde", "--input", "-")
    assert code == 0
    assert out == "{a}\n"


def test_grounded_has_no_argument_limit(capsys, tmp_path):
    # the fixpoint reads no conflict-free set, so the 2^30 subsets of 30
    # unattacked arguments are never built
    path = tmp_path / "free.apx"
    names = sorted(f"x{i}" for i in range(30))
    path.write_text("".join(f"arg({name}).\n" for name in names))
    base = ("--semantics", "gde", "--input", str(path), "--format", "json")
    payload = run_json(capsys, "extensions", *base)
    assert payload["result"]["extensions"] == [names]
    payload = run_json(capsys, "labellings", *base)
    assert payload["result"]["labellings"] == [{"in": names, "out": [], "undec": []}]
    code, out, err = run(capsys, "equivalent", *base, "--other", str(path))
    assert code == 0, err
    assert json.loads(out)["result"]["equivalent"] is True


def test_labellings(capsys, g3_file):
    payload = run_json(
        capsys, "labellings", "--semantics", "prf", "--input", g3_file, "--format", "json"
    )
    assert payload["result"]["labellings"] == [
        {"in": ["1", "3", "4"], "out": ["2"], "undec": []}
    ]


def test_check_attack_text(capsys, g3_file):
    code, out, _ = run(
        capsys,
        "check-attack", "--from", "1", "--to", "4", "--semantics", "adm",
        "--input", g3_file,
    )
    assert code == 0
    assert "verdict: breaks_non_decreasing" in out
    assert "rule=ND-in-in" in out


def test_check_attack_oracle_json(capsys, g3_file):
    payload = run_json(
        capsys,
        "check-attack", "--from", "2", "--to", "2", "--semantics", "adm",
        "--oracle", "--input", g3_file, "--format", "json",
    )
    result = payload["result"]
    assert result["verdict"] == "invariant"
    assert result["witnesses"] == []
    assert result["oracle"] == {"invariant": True, "lost": [], "gained": []}


def test_check_attack_oracle_prints_the_decoded_sorted_changes(capsys, tmp_path):
    # both formats, against the sets lost and gained by recomputation, each
    # decoded and sorted by extension_sort_key, on seeded frameworks where
    # ascending masks are not in canonical order; some changes lose nothing,
    # some lose or gain several sets
    rng = random.Random(9)
    path = tmp_path / "af.apx"
    empty = several = 0
    for n in range(5, 10):
        for _ in range(3):
            mask = rng.getrandbits(n * n) & rng.getrandbits(n * n)
            af = framework_from_mask(canonical_names(n), mask)
            path.write_text(emit_apx(af))
            pairs = [(a, b) for a in af.arguments for b in af.arguments]
            for source, target in rng.sample(pairs, 6):
                for semantics in ("cf", "adm"):
                    lost, gained = extension_changes(af, (source, target), semantics)
                    lists = [
                        [sorted(e) for e in sorted(f, key=extension_sort_key)] for f in (lost, gained)
                    ]
                    empty += not lost and bool(gained)  # a change with nothing lost
                    several += len(lost) > 1 or len(gained) > 1
                    base = (
                        "check-attack", "--from", source, "--to", target, "--semantics", semantics,
                        "--oracle", "--input", str(path),
                    )
                    code, out, err = run(capsys, *base, "--format", "json")
                    assert code == 0, err
                    payload = json.loads(out)
                    assert out == json.dumps(payload, indent=2) + "\n"
                    invariant = not lost and not gained
                    expected = {"invariant": invariant, "lost": lists[0], "gained": lists[1]}
                    assert payload["result"]["oracle"] == expected
                    code, out, err = run(capsys, *base)
                    assert code == 0, err
                    lost_text, gained_text = (
                        ",".join("{" + ",".join(e) + "}" for e in l) or "-" for l in lists
                    )
                    assert out.splitlines()[-1] == (
                        f"oracle: {'invariant' if invariant else 'changed'}"
                        f" lost={lost_text} gained={gained_text}"
                    )
    assert empty and several


def test_check_attack_preferred_only(capsys, g3_file):
    payload = run_json(
        capsys,
        "check-attack", "--from", "4", "--to", "2", "--semantics", "adm",
        "--preferred-only", "--input", g3_file, "--format", "json",
    )
    assert payload["result"]["verdict"] == "breaks_non_increasing"


def test_check_attack_preferred_only_refuses_cf(capsys, g3_file):
    code, out, err = run(
        capsys,
        "check-attack", "--from", "2", "--to", "1", "--semantics", "cf",
        "--preferred-only", "--input", g3_file,
    )
    assert (code, out) == (1, "")
    assert "preferred-only" in err


def test_invariant_attacks(capsys, g3_file):
    code, out, _ = run(
        capsys, "invariant-attacks", "--semantics", "cf", "--input", g3_file
    )
    assert code == 0
    assert out == "2 -> 1\n3 -> 2\n"


def test_invariant_attacks_oracle(capsys, g3_file):
    payload = run_json(
        capsys,
        "invariant-attacks", "--semantics", "adm", "--oracle",
        "--input", g3_file, "--format", "json",
    )
    assert payload["result"]["attacks"] == [{"source": "2", "target": "2"}]
    assert payload["result"]["oracle_disagreements"] == []


def _count_add_attack(monkeypatch) -> list:
    calls = []
    original = afrob.ArgumentationFramework.add_attack

    def counted(self, *attack):
        calls.append(attack)
        return original(self, *attack)

    monkeypatch.setattr(afrob.ArgumentationFramework, "add_attack", counted)
    return calls


def test_invariant_attacks_oracle_reads_the_delta(capsys, monkeypatch, tmp_path):
    # a1 attacks itself and a2; no rule sees that (a2, a1) lets {a2} defend
    # itself, and the oracle check finds that without adding any attack
    path = tmp_path / "miss.apx"
    path.write_text("arg(a1).\narg(a2).\natt(a1,a1).\natt(a1,a2).\n")
    calls = _count_add_attack(monkeypatch)
    payload = run_json(
        capsys,
        "invariant-attacks", "--semantics", "adm", "--oracle",
        "--input", str(path), "--format", "json",
    )
    assert payload["result"]["attacks"] == [
        {"source": "a2", "target": "a1"},
        {"source": "a2", "target": "a2"},
    ]
    assert payload["result"]["oracle_disagreements"] == [{"source": "a2", "target": "a1"}]
    assert calls == []


def _count_conflict_free_passes(monkeypatch):
    """The rows each conflict-free pass is called with, from now on, in
    every module that can call one: two for a whole pass, three for a
    pass over part of the arguments."""
    calls = []
    for module in (afrob.semantics, afrob.invariance, afrob.oracle, afrob.robustness):
        original = getattr(module, "_conflict_free", None)
        if original is not None:

            def counted(*rows, original=original):
                calls.append(rows)
                return original(*rows)

            monkeypatch.setattr(module, "_conflict_free", counted)
    return calls


@pytest.mark.parametrize("semantics, passes", [("cf", 0), ("adm", 1)])
def test_invariant_attacks_oracle_makes_one_conflict_free_pass(
    capsys, monkeypatch, g3_file, semantics, passes
):
    # the rule rows and Dung's delta read one state of the relation: cf
    # needs no conflict-free set at all, adm enumerates them once
    calls = _count_conflict_free_passes(monkeypatch)
    run_json(
        capsys,
        "invariant-attacks", "--semantics", semantics, "--oracle",
        "--input", g3_file, "--format", "json",
    )
    assert len(calls) == passes


def test_check_attack_oracle_adds_no_attack(capsys, monkeypatch, g3_file):
    # the classification and the oracle's lost and gained sets come from
    # one state of the relation, without expanding the framework
    calls = _count_add_attack(monkeypatch)
    payload = run_json(
        capsys,
        "check-attack", "--from", "4", "--to", "2", "--semantics", "adm",
        "--oracle", "--input", g3_file, "--format", "json",
    )
    assert payload["result"]["oracle"] == {"invariant": False, "lost": [], "gained": [["3", "4"]]}
    assert calls == []


def test_robustness(capsys, g3_file):
    payload = run_json(
        capsys,
        "robustness", "--semantics", "cf", "--strategy", "exhaustive",
        "--input", g3_file, "--format", "json",
    )
    result = payload["result"]
    assert result["degree"] == 2
    assert result["truncated"] is False
    assert len(result["witness"]) == 2


def test_robustness_max_steps(capsys, g3_file):
    payload = run_json(
        capsys,
        "robustness", "--semantics", "cf", "--strategy", "greedy",
        "--max-steps", "1", "--input", g3_file, "--format", "json",
    )
    assert payload["result"]["degree"] == 1
    assert payload["result"]["truncated"] is True


def test_equivalent(capsys, tmp_path, g3_file):
    other = tmp_path / "expanded.apx"
    other.write_text(G3_APX + "att(2,1).\n")
    payload = run_json(
        capsys,
        "equivalent", "--semantics", "cf", "--input", g3_file,
        "--other", str(other), "--format", "json",
    )
    assert payload["result"]["equivalent"] is True

    code, out, _ = run(
        capsys,
        "equivalent", "--semantics", "adm", "--input", g3_file, "--other", str(other),
    )
    assert code == 0
    assert "equivalent: false" in out
    assert "gained: {2}" in out


def test_equivalent_requires_shared_arguments(capsys, tmp_path, g3_file):
    other = tmp_path / "different.apx"
    other.write_text("arg(x).\n")
    code, _, err = run(
        capsys, "equivalent", "--semantics", "cf", "--input", g3_file, "--other", str(other)
    )
    assert code == 1
    assert "argument set" in err


@pytest.mark.parametrize("stdin", [G3_APX.encode(), b""], ids=["g3", "empty"])
def test_equivalent_refuses_stdin_for_both_inputs(capsys, monkeypatch, stdin):
    # stdin is read once: the second read would parse an empty framework, so
    # the pair is refused as a usage error before either is read
    buffer = io.BytesIO(stdin)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(buffer, encoding="utf-8"))
    code, out, err = run(
        capsys, "equivalent", "--semantics", "adm", "--input", "-", "--other", "-"
    )
    assert (code, out) == (1, "")
    assert err == "error: --input and --other cannot both be - (stdin is read once)\n"
    assert buffer.tell() == 0


def test_audit(capsys):
    payload = run_json(
        capsys, "audit", "--args", "2", "--semantics", "cf", "--format", "json"
    )
    result = payload["result"]
    assert result["exhaustive"] is True
    assert result["frameworks_checked"] == 16
    assert result["disagreements"] == 0


def test_audit_decodes_each_framework_once(capsys, monkeypatch):
    # the disagreements of one relation share its attack list, written once
    # from its rows for JSON and once for text (both from the one typed
    # leaf), and each still prints the whole relation in canonical order
    report = exhaustive_audit(3, Semantics.ADMISSIBLE)
    relations = [sorted(d.framework.attacks) for d in report.discrepancies]
    distinct = {id(d.framework) for d in report.discrepancies}
    assert len(relations) > len(distinct) > 1
    written = []
    relation_text = afrob.cli._relation_text

    def counting(pairs, rows, *parts):
        written.append(rows)
        return relation_text(pairs, rows, *parts)

    monkeypatch.setattr(afrob.cli, "_relation_text", counting)
    payload = run_json(capsys, "audit", "--args", "3", "--semantics", "adm", "--format", "json")
    assert len(written) == len(set(written)) == len(distinct)
    assert [d["attacks"] for d in payload["result"]["discrepancies"]] == [
        [{"source": s, "target": t} for s, t in relation] for relation in relations
    ]
    written.clear()
    code, out, _ = run(capsys, "audit", "--args", "3", "--semantics", "adm")
    assert code == 0 and len(written) == len(set(written)) == len(distinct)
    lines = [line for line in out.splitlines() if line.startswith("disagreement: ")]
    assert [line.split(" add=")[0] for line in lines] == [
        "disagreement: R={" + ",".join(f"({s},{t})" for s, t in relation) + "}"
        for relation in relations
    ]


@pytest.mark.parametrize("semantics", ["cf", "adm"])
@pytest.mark.parametrize(
    "options",
    [("--args", "2"), ("--args", "3"), ("--args", "4", "--seed", "7", "--samples", "300")],
    ids=["n2", "n3", "n4-seeded"],
)
def test_audit_prints_the_reference_result(capsys, semantics, options):
    # the disagreements' typed leaf writes json.dumps of the plain dict form,
    # byte for byte, and the text renders the reference's lines
    n = int(options[1])
    seed, samples = (7, 300) if "--seed" in options else (0, 1000)
    report = exhaustive_audit(n, semantics, seed=seed, samples=samples)
    reference = audit_result(report)
    payload = {"schema": "afrob/1", "command": "audit", "result": reference}
    code, out, err = run(capsys, "audit", *options, "--semantics", semantics, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(payload, indent=2) + "\n"
    assert _audit_text(_audit_result(report)) == audit_lines(reference)
    code, out, err = run(capsys, "audit", *options, "--semantics", semantics)
    assert (code, err) == (0, "")
    assert out == "\n".join(audit_lines(reference)) + "\n"


def test_audit_text_reports_disagreements(capsys):
    code, out, _ = run(capsys, "audit", "--args", "2", "--semantics", "adm")
    assert code == 0
    assert "disagreements: 4" in out
    assert "by rule: NI-out-self-defense=2" in out
    assert out.count("disagreement: R=") == 4


def test_usage_error_exit_code(capsys, g3_file):
    code, _, err = run(capsys, "extensions", "--semantics", "nope", "--input", g3_file)
    assert code == 1
    assert "error" in err

    code, _, _ = run(capsys, "check-attack", "--from", "z", "--to", "1",
                     "--semantics", "cf", "--input", g3_file)
    assert code == 1


_LONG = "9" * 5000  # past int's digit limit, sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "--args", "-1", "--semantics", "adm"], "non-negative integer"),
        (["audit", "--args", "2", "--samples", "-1", "--semantics", "adm"], "non-negative integer"),
        (
            ["robustness", "--semantics", "cf", "--strategy", "greedy", "--max-steps", "-1"],
            "non-negative integer",
        ),
        (["audit", "--args", "2", "--semantics", "cf", "--jobs", "0"], "positive integer"),
        (["audit", "--args", "2", "--semantics", "cf", "--jobs", "-5"], "positive integer"),
        # Random(-1) draws what Random(1) draws, so a seed is a count too
        (["audit", "--args", "5", "--semantics", "adm", "--seed", "-1"], "non-negative integer"),
        # a count is ASCII digits: str.isdecimal alone accepts any Unicode digit
        (["audit", "--args", "\u0662", "--semantics", "cf"], "non-negative integer"),
        (
            ["audit", "--args", "2", "--samples", "\u0662", "--semantics", "cf"],
            "non-negative integer",
        ),
        (
            ["robustness", "--semantics", "cf", "--strategy", "greedy", "--max-steps", "\uff13"],
            "non-negative integer",
        ),
        (["audit", "--args", "2", "--semantics", "cf", "--jobs", "\uff13"], "positive integer"),
        # int refuses that many digits with a ValueError, which argparse
        # would report as an invalid value of the type function, by its name
        (["audit", "--args", _LONG, "--semantics", "cf"], "--args: expected a non-negative"),
        (
            ["audit", "--args", "2", "--samples", _LONG, "--semantics", "cf"],
            "--samples: expected a non-negative",
        ),
        (
            ["robustness", "--semantics", "cf", "--strategy", "greedy", "--max-steps", _LONG],
            "--max-steps: expected a non-negative",
        ),
        (
            ["audit", "--args", "2", "--semantics", "cf", "--jobs", _LONG],
            "--jobs: expected a positive",
        ),
        (
            ["audit", "--args", "2", "--semantics", "cf", "--seed", _LONG],
            "--seed: expected a non-negative",
        ),
    ],
    ids=[
        "args",
        "samples",
        "max-steps",
        "jobs-zero",
        "jobs-negative",
        "seed-negative",
        "args-arabic-indic-digit",
        "samples-arabic-indic-digit",
        "max-steps-fullwidth-digit",
        "jobs-fullwidth-digit",
        "args-5000-digits",
        "samples-5000-digits",
        "max-steps-5000-digits",
        "jobs-5000-digits",
        "seed-5000-digits",
    ],
)
def test_negative_counts_are_usage_errors(capsys, g3_file, argv, message):
    if argv[0] == "robustness":
        argv = argv + ["--input", g3_file]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err and err.count("\n") == 1


def _no_parser():
    raise AssertionError("a well-formed argv builds no argparse parser")


@pytest.mark.parametrize(
    "argv",
    [["extensions", "--semantics", "adm"], ["audit", "--args", "2", "--semantics", "adm"]],
    ids=["extensions", "audit"],
)
def test_help_and_usage_errors_leave_the_parser_as_it_was(capsys, monkeypatch, g3_file, argv):
    # argparse reads each fallback; after it, the option table still answers
    # the well-formed argv without argparse, and argparse alone still prints
    # the same
    if argv[0] != "audit":
        argv = argv + ["--input", g3_file]
    alone = run(capsys, *argv)
    assert alone[0] == 0
    fallbacks = [
        (["--help"], 0),
        ([argv[0], "--help"], 0),
        ([*argv, "--jobs", "0"], 1),
        (["extensions", "--semantics", "nope", "--input", g3_file], 1),
    ]
    for fallback, status in fallbacks:
        assert run(capsys, *fallback)[0] == status
        with monkeypatch.context() as patched:
            patched.setattr("afrob.cli._parser", _no_parser)
            assert run(capsys, *argv) == alone
        with monkeypatch.context() as patched:
            patched.setattr("afrob.cli._read_argv", lambda argv: None)
            assert run(capsys, *argv) == alone


def test_only_an_argv_the_table_declines_builds_the_parser(capsys, g3_file):
    # a well-formed argv is read from the option table alone; the first argv
    # the table declines builds argparse's parsers, and later ones reuse them
    _parser.cache_clear()
    for semantics in ["cf", "adm", "prf"]:
        assert run(capsys, "extensions", "--semantics", semantics, "--input", g3_file)[0] == 0
    assert _parser.cache_info().misses == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "extensions", "--sem", "adm", "--input", g3_file)[0] == 0
    assert run(capsys, "audit", "--args", "2")[0] == 1
    assert run(capsys, "extensions", "--semantics", "adm", "--input", g3_file)[0] == 0
    assert (_parser.cache_info().misses, _parser.cache_info().hits) == (1, 2)


@pytest.mark.parametrize("value", ["0", "x"])
@pytest.mark.parametrize(
    "argv",
    [["extensions", "--semantics", "adm"], ["audit", "--args", "2", "--semantics", "adm"]],
    ids=["extensions", "audit"],
)
def test_afrob_jobs_is_ignored(capsys, monkeypatch, g3_file, argv, value):
    if argv[0] != "audit":
        argv = argv + ["--input", g3_file]
    monkeypatch.delenv("AFROB_JOBS", raising=False)
    expected = run(capsys, *argv)
    monkeypatch.setenv("AFROB_JOBS", value)
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "extensions", "--semantics", "cf", "--input", str(tmp_path / "nope.apx")
    )
    assert code == 1


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a).\nbogus\n")
    code, _, err = run(capsys, "extensions", "--semantics", "cf", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


def test_undecodable_input_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.apx"
    bad.write_bytes(b"arg(a).\n% caf\xe9\n\xff\n")
    code, out, err = run(capsys, "extensions", "--semantics", "cf", "--input", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 'utf-8' codec can't decode byte 0xe9 in position 13")


def test_undecodable_stdin_is_a_parse_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"arg(a).\n\xff\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "extensions", "--semantics", "cf", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_a_file_and_stdin_report_the_same_decode_position(capsys, monkeypatch, tmp_path):
    # a bad byte 19 KB in: the position counts from the input's first
    # byte, whether the bytes come from a file or from stdin
    data = "".join(f"arg(x{i}).\n" for i in range(1700)).encode() + b"% \xff\n"
    path = tmp_path / "big.apx"
    path.write_bytes(data)
    message = f"parse error: 'utf-8' codec can't decode byte 0xff in position {len(data) - 2}"
    code, out, err = run(capsys, "extensions", "--semantics", "gde", "--input", str(path))
    assert (code, out, err.startswith(message)) == (2, "", True), err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run(capsys, "extensions", "--semantics", "gde", "--input", "-") == (code, out, err)


def test_stdin_decodes_strictly_under_surrogateescape(capsys, monkeypatch):
    # under the C and POSIX locales sys.stdin decodes with surrogateescape,
    # which would let a non-UTF-8 byte in a comment through
    stdin = io.TextIOWrapper(
        io.BytesIO(b"arg(a).\n% \xff\n"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run(capsys, "extensions", "--semantics", "cf", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: 'utf-8' codec can't decode byte 0xff in position 10")


def test_size_limit_exit_code(capsys, tmp_path):
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(x{i}).\n" for i in range(25)))
    code, _, err = run(capsys, "extensions", "--semantics", "cf", "--input", str(big))
    assert code == 3


def test_robustness_state_budget_exit_code(capsys, monkeypatch, g3_file):
    # g3's exhaustive adm search explores two states
    monkeypatch.setattr(afrob.robustness, "MAX_SEARCH_STATES", 1)
    argv = ["robustness", "--semantics", "adm", "--strategy", "exhaustive", "--input", g3_file]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "exceeds 1 states" in err


def test_exhaustive_cf_robustness_runs_no_search(capsys, tmp_path):
    # the seven-argument tournament has 21 cf-invariant candidates, and
    # 2^21 states exceed the search budget
    names = canonical_names(7)
    tournament = tmp_path / "tournament.apx"
    tournament.write_text(
        "".join(f"arg({a}).\n" for a in names)
        + "".join(f"att({a},{b}).\n" for i, a in enumerate(names) for b in names[i + 1 :])
    )
    payload = run_json(
        capsys,
        "robustness", "--semantics", "cf", "--strategy", "exhaustive",
        "--input", str(tournament), "--format", "json",
    )
    result = payload["result"]
    assert (result["degree"], result["explored_states"]) == (21, 2**21)


def test_cf_robustness_on_many_self_attackers_prints_exact_counts(capsys, tmp_path):
    # 121 self-attackers leave 121 * 120 = 14,520 cf-invariant candidates;
    # 2^14520 states has 4,371 digits, past the interpreter's default limit
    # of 4,300 for printing an int (JSON parses it here as a Decimal)
    k = 121 * 120
    selves = tmp_path / "selves.apx"
    selves.write_text("".join(f"arg({a}).\natt({a},{a}).\n" for a in canonical_names(121)))
    argv = ["robustness", "--semantics", "cf", "--strategy", "exhaustive", "--input", str(selves)]
    for cap, degree, states in (((), k, 1 << k), (("--max-steps", "14519"), k - 1, (1 << k) - 1)):
        code, out, err = run(capsys, *argv, *cap, "--format", "json")
        assert code == 0, err
        result = json.loads(out, parse_int=Decimal)["result"]
        assert (result["degree"], result["explored_states"]) == (degree, Decimal(states))
        assert result["truncated"] is bool(cap)
        code, out, err = run(capsys, *argv, *cap)
        assert code == 0, err
        assert f"explored_states: {Decimal(states)}\n" in out


def test_labellings_size_limit_exit_code(capsys, tmp_path):
    # the limit reads the arguments a semantics enumerates over: cf and adm
    # all of them, the derived families the core.  21 unattacked arguments
    # are all grounded and leave the core empty; 11 mutually attacking pairs
    # leave all 22 in it
    names = [f"x{i}" for i in range(21)]
    free = tmp_path / "free.apx"
    free.write_text("".join(f"arg({a}).\n" for a in names))
    for semantics in ("com", "stb", "prf", "sst", "gde"):
        payload = run_json(
            capsys, "extensions", "--semantics", semantics, "--input", str(free), "--format", "json"
        )
        assert payload["result"]["extensions"] == [sorted(names)]
    payload = run_json(
        capsys, "labellings", "--semantics", "com", "--input", str(free), "--format", "json"
    )
    assert payload["result"]["labellings"] == [{"in": sorted(names), "out": [], "undec": []}]
    for semantics in ("cf", "adm"):
        code, out, err = run(capsys, "extensions", "--semantics", semantics, "--input", str(free))
        assert (code, out) == (3, "")
        assert "21 arguments exceed the enumeration limit of 20" in err
    pairs = tmp_path / "pairs.apx"
    pairs.write_text(emit_apx(mutual_pairs(11)))
    for command in ("extensions", "labellings"):
        for semantics in ("com", "stb", "prf", "sst"):
            code, out, err = run(capsys, command, "--semantics", semantics, "--input", str(pairs))
            assert (code, out) == (3, ""), (command, semantics)
            assert "22 arguments exceed the enumeration limit of 20" in err


@pytest.mark.parametrize("semantics", ["cf", "adm"])
def test_audit_size_limit_exits_before_sampling(capsys, semantics):
    # 2000 arguments would mean drawing 1000 masks of four million bits,
    # also for cf, whose audit builds no state
    code, out, err = run(capsys, "audit", "--args", "2000", "--semantics", semantics)
    assert code == 3
    assert out == ""
    assert "enumeration limit of 20" in err


def test_json_output_is_byte_identical_across_runs(capsys, g3_file):
    argv = ["extensions", "--semantics", "adm", "--input", g3_file, "--format", "json"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_text_and_json_verdicts_agree(capsys, g3_file):
    code, text_out, _ = run(
        capsys,
        "check-attack", "--from", "2", "--to", "1", "--semantics", "adm",
        "--input", g3_file,
    )
    payload = run_json(
        capsys,
        "check-attack", "--from", "2", "--to", "1", "--semantics", "adm",
        "--input", g3_file, "--format", "json",
    )
    assert code == 0
    assert f"verdict: {payload['result']['verdict']}" in text_out


def _child_env():
    # the child imports the afrob under test, whether it came from PYTHONPATH
    # or from pytest's pythonpath setting
    source_root = os.path.dirname(os.path.dirname(afrob.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "afrob", *argv], capture_output=True, env=_child_env()
    )


def test_module_entry_point(capsys, tmp_path, g3_file):
    argv = ("extensions", "--semantics", "adm", "--input", g3_file, "--format", "json")
    completed = _run_module(*argv)
    assert (completed.returncode, completed.stderr) == (0, b"")
    assert completed.stdout == run(capsys, *argv)[1].encode()
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a).\nbogus\n")
    completed = _run_module("extensions", "--semantics", "adm", "--input", str(bad))
    assert (completed.returncode, completed.stdout) == (2, b"")
    assert completed.stderr == (
        b"parse error: line 2, column 1: expected 'arg(NAME).' or 'att(NAME,NAME).'\n"
    )


@pytest.mark.parametrize("output", ["json", "text"])
def test_a_closed_stdout_exits_1_without_a_message(tmp_path, output):
    # a reader that stops early (| head -c 1) made no usage error; the
    # output, all 16,384 sets, is far larger than a pipe holds
    free = tmp_path / "free.apx"
    free.write_text("".join(f"arg(x{i}).\n" for i in range(14)))
    child = subprocess.Popen(
        [sys.executable, "-m", "afrob", "extensions", "--semantics", "cf",
         "--input", str(free), "--format", output],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert len(child.stdout.read(1)) == 1
    child.stdout.close()
    with child.stderr:
        err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_failed_write_exits_1_with_one_error_line(g3_file):
    # buffered (PYTHONUNBUFFERED unset), the output waits in stdout's buffer
    # until run_cli's flush fails; the interpreter's final flush of the same
    # bytes must not fail a second time, with its own message and exit 120
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        completed = subprocess.run(
            [sys.executable, "-m", "afrob", "extensions", "--semantics", "adm",
             "--input", g3_file],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
        )
    lines = completed.stderr.splitlines()
    assert (completed.returncode, len(lines)) == (1, 1), completed.stderr
    assert lines[0].startswith(b"error: ")


def test_a_stdout_closed_at_start_exits_1_with_one_error_line(g3_file):
    # with fd 1 closed (>&-), sys.stdout is None: the command has nowhere to
    # print, as with a full disk
    completed = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "afrob",
         "extensions", "--semantics", "adm", "--input", g3_file],
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert (completed.returncode, completed.stderr) == (1, b"error: stdout is closed\n")


# stdin read for --input and for --other, after a file for --input
_STDIN_ARGVS = {
    "input": ["extensions", "--semantics", "adm", "--input", "-"],
    "other": ["equivalent", "--semantics", "adm", "--input", "{g3}", "--other", "-"],
}


@pytest.mark.parametrize("argv", _STDIN_ARGVS.values(), ids=_STDIN_ARGVS)
def test_run_cli_reports_a_stdin_closed_at_start(capsys, monkeypatch, g3_file, argv):
    # with fd 0 closed (<&-), sys.stdin is None: - names no input to read
    monkeypatch.setattr(sys, "stdin", None)
    argv = [part.format(g3=g3_file) for part in argv]
    assert run(capsys, *argv) == (1, "", "error: stdin is closed\n")


@pytest.mark.parametrize("argv", _STDIN_ARGVS.values(), ids=_STDIN_ARGVS)
def test_a_stdin_closed_at_start_exits_1_with_one_error_line(g3_file, argv):
    argv = [part.format(g3=g3_file) for part in argv]
    completed = subprocess.run(
        ["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m", "afrob", *argv],
        capture_output=True,
        env=_child_env(),
    )
    assert (completed.returncode, completed.stdout, completed.stderr) == (
        1, b"", b"error: stdin is closed\n"
    )


class _ClosedStdout(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_cli_returns_1_without_a_message_for_a_closed_stdout(capsys, monkeypatch, g3_file):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert run_cli(["extensions", "--semantics", "adm", "--input", g3_file]) == 1
    assert capsys.readouterr().err == ""


def test_a_present_attack_is_invariant_past_the_enumeration_limit(capsys, tmp_path):
    # re-adding x1 -> x2 changes nothing, so it is decided before any set of
    # the 25 arguments is enumerated, also under --preferred-only; --oracle
    # lists the sets lost and gained, so it still reads them and refuses
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(x{i}).\n" for i in range(1, 26)) + "att(x1,x2).\n")
    argv = ("check-attack", "--from", "x1", "--to", "x2", "--semantics", "adm",
            "--input", str(big), "--format", "json")
    plain = run(capsys, *argv)
    assert (plain[0], plain[2]) == (0, "")
    assert json.loads(plain[1])["result"]["verdict"] == "invariant"
    assert run(capsys, *argv, "--preferred-only") == plain
    code, out, err = run(capsys, *argv, "--oracle")
    assert (code, out) == (3, "")
    assert err == "size limit: 25 arguments exceed the enumeration limit of 20\n"


def test_import_leaves_multiprocessing_unloaded():
    # every command runs in one process, so no CLI process pays for it
    code = "import sys, afrob.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_child_env()).returncode == 0


# run_cli on argv[1:] (no call without one); the last stdout line is the
# status and what the process added of three modules no command needs
_FOOTPRINT = """\
import sys
before = set(sys.modules)
import afrob.cli
status = afrob.cli.run_cli(sys.argv[1:]) if sys.argv[1:] else None
print(status, *sorted({"dataclasses", "inspect", "argparse"} & set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "argv, last_line",
    [
        ([], "None"),
        (["check-attack", "--from", "1", "--to", "3", "--semantics", "adm"], "0"),
        (["audit", "--args", "2", "--semantics", "adm", "--samples", "5", "--jobs", "1"], "0"),
        (["audit", "--args", "-1", "--semantics", "adm"], "1 argparse"),
        (["check-attack", "--from", "1", "--semantics", "adm"], "1 argparse"),
    ],
    ids=["import", "check-attack", "audit", "bad-count", "missing-option"],
)
def test_a_fresh_process_imports_argparse_only_for_what_the_table_declines(
    g3_file, argv, last_line
):
    # -S: no site hook loads a module before the snapshot; dataclasses and
    # inspect are never loaded, argparse only for a usage error
    if argv[:1] == ["check-attack"]:
        argv = argv + ["--input", g3_file]
    found = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, *argv],
        capture_output=True, text=True, env=_child_env(),
    )
    assert found.stdout.splitlines()[-1] == last_line, found.stderr


def test_the_package_exports_exactly_its_public_names():
    # the library holds only what the commands use, plus the deliberate
    # name-returning entries; the tests' references live in tests/oracles.py
    public = {
        name
        for name, value in vars(afrob).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public) == [
        "AfrobError",
        "ArgumentSetMismatch",
        "ArgumentationFramework",
        "Attack",
        "AttackClassification",
        "AuditReport",
        "DiscrepancyReport",
        "ParseError",
        "RobustnessResult",
        "Rule",
        "Semantics",
        "SizeLimit",
        "UndeclaredArgument",
        "UnknownArgument",
        "UnsupportedSemantics",
        "Verdict",
        "Witness",
        "canonical_names",
        "classify_attack",
        "cross_validate",
        "exhaustive_audit",
        "extension_difference",
        "extension_masks",
        "extensions",
        "framework_from_mask",
        "invariant_attacks",
        "labellings_for",
        "parse_apx",
        "robustness_degree",
    ]


def _golden_cases(name):
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "case", _golden_cases("g3_cli_golden.json"), ids=lambda case: " ".join(case["argv"][1:])
)
def test_g3_json_matches_the_pinned_output(capsys, g3_file, case):
    # pinned: check-attack (adm, with and without --preferred-only) for every
    # candidate of g3, with full witness lists, and invariant-attacks for cf
    # and adm; the afrob/1 output must stay byte-identical
    code, out, err = run(capsys, *case["argv"], "--input", g3_file, "--format", "json")
    assert code == 0, err
    assert out == json.dumps(case["output"], indent=2) + "\n"


@pytest.mark.parametrize(
    "case", _golden_cases("g3_enumeration_golden.json"), ids=lambda case: " ".join(case["argv"])
)
def test_g3_enumerations_match_the_pinned_output(capsys, g3_file, case):
    # pinned: extensions under all seven semantics and labellings under the
    # five restrictions, JSON and text; the output must stay byte-identical
    code, out, err = run(capsys, *case["argv"], "--input", g3_file)
    assert code == 0, err
    assert out == case["output"]


def _report_case_id(case):
    other = " + " + case["other"].replace("\n", " ").strip() if "other" in case else ""
    return " ".join(case["argv"]) + other


@pytest.mark.parametrize("case", _golden_cases("g3_report_golden.json"), ids=_report_case_id)
def test_g3_reports_match_the_pinned_output(capsys, tmp_path, g3_file, case):
    # pinned: equivalent under all seven semantics, JSON and text, against g3
    # plus each "other" attack list (in the second, canonical order puts the
    # lost {4} before {1,3}, the reverse of ascending masks), audit --args 2,
    # and the text of check-attack --oracle, invariant-attacks --oracle and
    # robustness; the output must stay byte-identical
    argv = list(case["argv"])
    if argv[0] != "audit":
        argv += ["--input", g3_file]
    if "other" in case:
        other = tmp_path / "other.apx"
        other.write_text(G3_APX + case["other"])
        argv += ["--other", str(other)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == case["output"]


# a<->b, c attacks itself and a10, and a2 is unattacked: its labellings have
# out and undec members, their canonical order ({a,a2}, {a2}, {a2,b} for com)
# is not the extension order, and a10 sorts before a2
UNDEC_APX = (
    "arg(a).\narg(b).\narg(c).\narg(a10).\narg(a2).\n"
    "att(a,b).\natt(b,a).\natt(c,c).\natt(c,a10).\n"
)


@pytest.mark.parametrize(
    "case", _golden_cases("undec_golden.json"), ids=lambda case: " ".join(case["argv"])
)
def test_undec_outputs_match_the_pinned_output(capsys, tmp_path, case):
    # pinned: labellings under the five restrictions, JSON and text, and
    # check-attack (adm, with and without --preferred-only) for five
    # candidates; the output must stay byte-identical
    path = tmp_path / "undec.apx"
    path.write_text(UNDEC_APX)
    code, out, err = run(capsys, *case["argv"], "--input", str(path))
    assert code == 0, err
    assert out == case["output"]


INPUT = "{input}"


def _golden_argvs():
    """The first pinned argv of each command in the g3 golden files, with
    the input files the golden tests add."""
    argvs = {}
    for name in ("g3_cli_golden.json", "g3_enumeration_golden.json", "g3_report_golden.json"):
        for case in _golden_cases(name):
            argvs.setdefault(case["argv"][0], case["argv"])
    inputs = {"audit": [], "equivalent": ["--input", INPUT, "--other", INPUT]}
    return [argv + inputs.get(command, ["--input", INPUT]) for command, argv in argvs.items()]


_DISPATCH_ARGVS = _golden_argvs() + [
    [],
    ["nope"],
    ["-h"],
    ["extensions", "-h"],
    ["extensions", "--semantics", "adm"],
    ["extensions", "--semantics", "adm", "--input", INPUT, "extra"],
    ["robustness", "--semantics", "cf", "--strategy", "greedy", "--max-steps", "-1", "--input", INPUT],
    ["audit", "--args", "2", "--semantics", "cf", "--jobs", "0"],
    ["extensions", "--semantics", "adm", "--input", INPUT, "--"],
    ["extensions", "--semantics", "adm", "--", "--input", INPUT],
]


def test_golden_argvs_cover_every_command():
    assert sorted(argv[0] for argv in _golden_argvs()) == sorted(_COMMANDS)


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_direct_dispatch_matches_the_top_level_parser(capsys, monkeypatch, g3_file, argv):
    # the top-level parser's subparsers action hands every token after the
    # command to that command's own parser, so handing those tokens to the
    # command's parser directly must give the same exit code, stdout and
    # stderr: an error reads the same whichever parser raises it (the
    # top-level one raises "unrecognized arguments")
    argv = [g3_file if part == INPUT else part for part in argv]
    expected = run(capsys, *argv)
    parser = _parser()
    commands = next(action.choices for action in parser._actions if action.dest == "command")

    def dispatch(argv):
        if not argv or argv[0] not in commands:
            return parser.parse_args(argv)
        args = commands[argv[0]].parse_args(argv[1:])
        args.command = argv[0]
        return args

    monkeypatch.setattr("afrob.cli._parser", lambda: types.SimpleNamespace(parse_args=dispatch))
    monkeypatch.setattr("afrob.cli._read_argv", lambda argv: None)
    assert run(capsys, *argv) == expected


_JSON = ["--format", "json", "--jobs", "1"]

# one argv of each shape the benchmark's request pools send (perfbench/workloads.py)
_POOL_ARGVS = [
    ["extensions", "--input", INPUT, "--semantics", "prf", *_JSON],
    ["labellings", "--input", INPUT, "--semantics", "com", *_JSON],
    ["invariant-attacks", "--input", INPUT, "--semantics", "adm", "--oracle", *_JSON],
    [
        "check-attack", "--input", INPUT, "--semantics", "adm", "--from", "4", "--to", "2",
        "--oracle", *_JSON,
    ],
    [
        "check-attack", "--input", INPUT, "--semantics", "adm", "--from", "4", "--to", "2",
        "--oracle", "--preferred-only", *_JSON,
    ],
    [
        "robustness", "--input", INPUT, "--semantics", "adm", "--strategy", "exhaustive",
        "--max-steps", "2", *_JSON,
    ],
    [
        "robustness", "--input", INPUT, "--semantics", "cf", "--strategy", "greedy",
        "--paranoid", *_JSON,
    ],
    ["audit", "--args", "4", "--semantics", "cf", "--samples", "48", "--seed", "812", *_JSON],
]

# a value of another parse for each option, so that a repeated option changes
# the namespace
_OTHER_VALUE = {
    "--semantics": "cf",
    "--format": "text",
    "--jobs": "2",
    "--from": "1",
    "--to": "3",
    "--strategy": "greedy",
    "--max-steps": "1",
    "--args": "2",
    "--seed": "7",
    "--samples": "3",
}

# values argparse refuses, reads differently from how they look, or leaves
# to the command: a bad choice, stdin, values starting with -, an empty
# value, bad and edge ints (int refuses 5,000 digits), non-ASCII digits
_ODD_VALUES = [
    "nope", "-", "-x", "-5", "-1", "", "0", "x", " 5", "+5", "1_0", "9" * 5000, "\u0662", "\uff13"
]


def _near_misses(argv):
    """``argv`` and argvs one edit away from it: a token dropped; an option
    repeated with its own and with another value; an option and its value
    dropped; an option abbreviated or =-joined to its value; a value
    replaced by an odd one or given a space."""
    yield argv
    for i in range(1, len(argv)):
        yield argv[:i] + argv[i + 1 :]
    for i, token in enumerate(argv):
        if not token.startswith("--"):
            continue
        has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
        value = argv[i + 1 : i + 2] if has_value else []
        yield argv + [token, *value]
        if value:
            yield argv + [token, _OTHER_VALUE.get(token, value[0])]
        yield argv[:i] + argv[i + 1 + len(value) :]
        if token[:5] != token:
            yield argv[:i] + [token[:5]] + argv[i + 1 :]
        if value:
            yield argv[:i] + [f"{token}={value[0]}"] + argv[i + 2 :]
            for odd in [*_ODD_VALUES, value[0] + " x"]:
                yield argv[: i + 1] + [odd] + argv[i + 2 :]


def _argparse_args(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where
    argparse prints help or a usage error."""
    try:
        return vars(_parser().parse_args(argv))
    except (SystemExit, _UsageError):
        return None


@pytest.mark.parametrize(
    "argv", _DISPATCH_ARGVS + _POOL_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments"
)
def test_the_option_table_reads_what_argparse_reads(capsys, monkeypatch, tmp_path, argv):
    # the table reads an argv only as argparse would, and declines the rest;
    # either way run_cli prints what it prints with argparse alone
    # every golden and pool argv is read from the table, none falls back
    well_formed = argv in _golden_argvs() or argv in _POOL_ARGVS
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g3.apx").write_text(G3_APX)
    argv = ["g3.apx" if part == INPUT else part for part in argv]
    assert (_read_argv(argv) is not None) == well_formed

    def run_with_stdin(argv):
        # --input - reads the g3 document from stdin, afresh on each run
        stdin = io.TextIOWrapper(io.BytesIO(G3_APX.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        return run(capsys, *argv)

    for near in _near_misses(argv):
        read = _read_argv(near)
        expected = _argparse_args(near)
        capsys.readouterr()
        assert read is None or vars(read) == expected, near
        fast = run_with_stdin(near)
        with monkeypatch.context() as patched:
            patched.setattr("afrob.cli._read_argv", lambda argv: None)
            assert run_with_stdin(near) == fast, near


_HELP = _golden_cases("help_golden.json")


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != _HELP["python"],
    reason=f"the help bytes are pinned as argparse formats them under Python {_HELP['python']}",
)
@pytest.mark.parametrize("case", _HELP["cases"], ids=lambda case: " ".join(case["argv"]))
def test_help_matches_the_pinned_output(capsys, monkeypatch, case):
    # the parsers built from the option table print the help the
    # hand-written parsers printed, byte for byte, at a fixed width
    monkeypatch.setenv("COLUMNS", str(_HELP["columns"]))
    assert run(capsys, *case["argv"]) == (0, case["output"], "")


@pytest.mark.parametrize("argv", _golden_argvs(), ids=lambda argv: argv[0])
def test_json_output_builds_no_text(capsys, monkeypatch, g3_file, argv):
    # a command returns its afrob/1 result and text is rendered from it only
    # under --format text: with every text renderer refusing, the JSON run
    # still exits 0 with the same output, and only the text run reaches a
    # renderer
    argv = [g3_file if part == INPUT else part for part in argv] + ["--format", "json"]
    expected = run(capsys, *argv)
    assert expected[0] == 0, expected[2]

    def refuse(result):
        raise AssertionError("text is rendered only for --format text")

    for name, (summary, func, _, options) in _COMMANDS.items():
        monkeypatch.setitem(_COMMANDS, name, (summary, func, refuse, options))
    for reader in (_read_argv, lambda argv: None):
        monkeypatch.setattr("afrob.cli._read_argv", reader)
        assert run(capsys, *argv) == expected
        with pytest.raises(AssertionError, match="only for --format text"):
            run_cli(argv + ["--format", "text"])


# the afrob.cli globals that perfbench/tracing.py wraps, and the command
# that reaches each besides parse_apx, which every command with --input does
_TRACED_BY_COMMAND = {
    "labellings": "labellings_for",
    "robustness": "robustness_degree",
    "audit": "exhaustive_audit",
}
_TRACED = ("parse_apx", *_TRACED_BY_COMMAND.values())


@pytest.mark.parametrize("argv", _golden_argvs(), ids=lambda argv: argv[0])
def test_commands_call_the_globals_a_tracer_wraps(capsys, monkeypatch, g3_file, argv):
    # a tracer replaces these module globals with wrappers that time each
    # call, so a command must call what it uses through them; wrapped, a
    # command prints the same bytes
    argv = [g3_file if part == INPUT else part for part in argv]
    expected = run(capsys, *argv)
    assert expected[0] == 0, expected[2]
    called = set()
    for name in _TRACED:

        def record(*args, _name=name, _original=getattr(afrob.cli, name), **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(afrob.cli, name, record)
    assert run(capsys, *argv) == expected
    wanted = {"parse_apx"} if "--input" in argv else set()
    if argv[0] in _TRACED_BY_COMMAND:
        wanted.add(_TRACED_BY_COMMAND[argv[0]])
    assert called == wanted


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", _golden_argvs(), ids=lambda argv: argv[0])
def test_a_valid_jobs_value_changes_no_output(capsys, g3_file, argv, jobs):
    # --jobs is validated and ignored: a positive value is accepted and
    # changes neither the exit code nor a byte of stdout
    argv = [g3_file if part == INPUT else part for part in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert run(capsys, *argv, "--jobs", jobs)[:2] == (code, out)


def test_cold_and_warm_caches_print_the_same_bytes(capsys, g3_file):
    # a process caches the last two documents parsed, their extension
    # records and their relations' states; a request answered from them
    # prints what a fresh process prints
    for argv in _golden_argvs():
        argv = [g3_file if part == INPUT else part for part in argv]
        clear_caches()
        cold = run(capsys, *argv)
        assert cold[0] == 0, cold[2]
        assert run(capsys, *argv) == cold


def test_an_invariance_round_parses_once_and_makes_one_whole_pass(capsys, monkeypatch, g3_file):
    # the four requests the invariance workload sends per framework: one
    # parse, one pass over every argument (the preferred sets read only
    # the core's), and three cache hits
    calls = _count_conflict_free_passes(monkeypatch)
    common = ("--input", g3_file, "--oracle", "--format", "json")
    for argv in (
        ("invariant-attacks", "--semantics", "cf"),
        ("invariant-attacks", "--semantics", "adm"),
        ("check-attack", "--semantics", "adm", "--from", "4", "--to", "2"),
        ("check-attack", "--semantics", "adm", "--from", "4", "--to", "2", "--preferred-only"),
    ):
        run_json(capsys, *argv, *common)
    assert sum(len(rows) == 2 for rows in calls) == 1
    info = afrob.apx.parse_apx.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_the_three_questions_about_one_framework_share_one_record(capsys, monkeypatch, g3_file):
    # which attacks keep adm, how many can be chained, and whether one keeps
    # the preferred sets: the search starts from the root state the first
    # request built, and the preferred sets read only the core
    calls = _count_conflict_free_passes(monkeypatch)
    common = ("--semantics", "adm", "--input", g3_file, "--format", "json")
    for argv in (
        ("invariant-attacks",),
        ("robustness", "--strategy", "greedy"),
        ("check-attack", "--from", "4", "--to", "2", "--preferred-only"),
    ):
        run_json(capsys, *argv, *common)
    assert sorted(len(rows) for rows in calls) == [2, 3]


def test_cached_states_are_keyed_by_the_whole_framework(capsys, tmp_path):
    # two relations over one argument set, asked back to back, each get
    # their own answer; a comment changes the document, not the framework
    names = "arg(a).\narg(b).\narg(c).\n"
    documents = {
        "chain": names + "att(a,b).\natt(b,c).\n",
        "cycle": names + "att(a,b).\natt(b,a).\n",
        "commented": "% the chain again\n" + names + "att(a,b).\natt(b,c).\n",
    }
    argv = ("invariant-attacks", "--semantics", "adm", "--oracle", "--format", "json")
    answers = {}
    for name, text in documents.items():
        path = tmp_path / f"{name}.apx"
        path.write_text(text)
        answers[name] = run(capsys, *argv, "--input", str(path))
        assert answers[name][0] == 0, answers[name][2]
    clear_caches()
    cold = run(capsys, *argv, "--input", str(tmp_path / "cycle.apx"))
    assert answers["cycle"] == cold != answers["chain"]
    assert answers["commented"] == answers["chain"]


def test_a_refusal_leaves_nothing_half_built_in_the_cache(capsys, tmp_path, g3_file):
    # 21 unattacked arguments pass the enumeration limit: the cached state
    # of their relation refuses every time it is asked, and a small request
    # after it is answered as from a fresh process
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(x{i}).\n" for i in range(21)))
    refused = (3, "", "size limit: 21 arguments exceed the enumeration limit of 20\n")
    for _ in range(2):
        assert run(capsys, "invariant-attacks", "--semantics", "adm", "--input", str(big)) == refused
    small = ("invariant-attacks", "--semantics", "adm", "--oracle", "--input", g3_file)
    after = run(capsys, *small)
    clear_caches()
    assert after == run(capsys, *small)
    assert after[0] == 0, after[2]


def test_extension_lists_follow_extension_sort_key():
    # every framework with at most three arguments, where ascending masks
    # happen to be in this order already, and sparse seeded ones on five,
    # where they are not ({a1,a4} is a larger mask than {a2,a3})
    rng = random.Random(0)
    frameworks = [
        framework_from_mask(canonical_names(n), mask) for n in range(4) for mask in range(1 << n * n)
    ]
    frameworks += [
        framework_from_mask(canonical_names(5), rng.getrandbits(25) & rng.getrandbits(25))
        for _ in range(100)
    ]
    for af in frameworks:
        for semantics in Semantics:
            family = sorted(extensions(af, semantics), key=extension_sort_key)
            printed = _Family(afrob.extension_masks(af, semantics), af.sorted_arguments)
            assert [af._names(m) for m in printed.masks] == family
            assert _set_items(*printed, "{", ",", "}", "{}", "\n") == "\n".join(
                "{" + ",".join(sorted(ext)) + "}" for ext in family
            )


def test_empty_set_first_and_set_without_prefix_in_full(capsys, tmp_path):
    # adm of c -> a, b -> c: {a,b}'s prefix {a} is not admissible
    path = tmp_path / "af.apx"
    path.write_text("arg(a).\narg(b).\narg(c).\natt(c,a).\natt(b,c).\n")
    argv = ("extensions", "--semantics", "adm", "--input", str(path))
    assert run(capsys, *argv) == (0, "{}\n{b}\n{a,b}\n", "")
    assert run_json(capsys, *argv, "--format", "json")["result"]["extensions"] == [
        [],
        ["b"],
        ["a", "b"],
    ]


def test_an_empty_family_prints_nothing_or_a_dash(capsys, tmp_path):
    path = tmp_path / "self.apx"
    path.write_text("arg(a).\natt(a,a).\n")
    assert run(capsys, "extensions", "--semantics", "stb", "--input", str(path)) == (0, "", "")
    # a -> b on b -> a gains {a} and loses no admissible set
    path.write_text("arg(a).\narg(b).\natt(b,a).\n")
    code, out, _ = run(capsys, "check-attack", "--from", "a", "--to", "b", "--semantics", "adm",
                       "--oracle", "--input", str(path))
    assert (code, out.splitlines()[-1]) == (0, "oracle: changed lost=- gained={a}")


def _seeded_frameworks():
    # n = 0..12 at three densities; canonical names from a10 on sort out of
    # numeric order
    rng = random.Random(21)
    for n in range(13):
        for density in (0.05, 0.15, 0.35):
            mask = sum(1 << p for p in range(n * n) if rng.random() < density)
            yield framework_from_mask(canonical_names(n), mask)


def test_extensions_output_is_json_dumps_of_the_sorted_family(capsys, tmp_path):
    # both formats, byte for byte, against the family decoded and sorted by
    # extension_sort_key; the population holds empty families and families
    # where a set's prefix (the set minus its highest member) is absent
    path = tmp_path / "af.apx"
    empty = prefix_absent = 0
    for af in _seeded_frameworks():
        path.write_text(emit_apx(af))
        for semantics in Semantics:
            family = [sorted(e) for e in sorted(extensions(af, semantics), key=extension_sort_key)]
            masks = set(afrob.extension_masks(af, semantics))
            prefixes = {m ^ 1 << m.bit_length() - 1 for m in masks if m & m - 1}
            empty += not family
            prefix_absent += not prefixes <= masks
            base = ("extensions", "--semantics", semantics.value, "--input", str(path))
            code, out, err = run(capsys, *base, "--format", "json")
            assert code == 0, err
            result = {"semantics": semantics.value, "extensions": family}
            expected = {"schema": "afrob/1", "command": "extensions", "result": result}
            assert out == json.dumps(expected, indent=2) + "\n"
            code, out, err = run(capsys, *base)
            assert code == 0, err
            assert out == "".join("{" + ",".join(e) + "}\n" for e in family)
    assert empty and prefix_absent


def test_json_writer_matches_json_dumps_on_the_goldens():
    values = [case["output"] for case in _golden_cases("g3_cli_golden.json")]
    values.append(_golden_cases("robustness_golden.json"))
    for value in values:
        assert _json(value) == json.dumps(value, indent=2)


_ESCAPED_TEXT = st.text(st.characters(categories=["Cc", "Cs", "Po", "Lo", "So"]))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.text()
    | _ESCAPED_TEXT,
    lambda children: st.lists(children) | st.dictionaries(st.text() | _ESCAPED_TEXT, children),
    max_leaves=40,
)


def test_json_writer_writes_a_family_as_json_dumps_of_its_lists():
    af = framework_from_mask(canonical_names(11), 0x1234567 << 40 | 0x89ABCDEF)
    for semantics in Semantics:
        family = _Family(afrob.extension_masks(af, semantics), af.sorted_arguments)
        lists = [sorted(af._names(m)) for m in family.masks]
        for value, expected in (
            (family, lists),
            ({"extensions": family}, {"extensions": lists}),
            ([{"a": [family]}], [{"a": [lists]}]),
        ):
            assert _json(value) == json.dumps(expected, indent=2)
    assert _json(_Family([], ("a",))) == "[]"
    assert _json({"x": _Family([0], ())}) == json.dumps({"x": [[]]}, indent=2)


# a family's names and separators in JSON (two levels deep, as in afrob/1)
# and in the two text renderings: start, sep, end, empty, between
_FAMILY_SEPARATORS = (
    (json.dumps, ("[\n      ", ",\n      ", "\n    ]", "[]", ",\n    ")),
    (str, ("{", ",", "}", "{}", "\n")),
    (str, ("{", ",", "}", "{}", ",")),
)


def _writer_families():
    # cf on 0-16 unattacked and on sparse arguments, adm on the sparse ones
    # (where some sets' prefixes are not admissible), and arbitrary masks in
    # any order, with and without the empty set
    rng = random.Random(56)
    for n in range(17):
        names = canonical_names(n)
        sparse = framework_from_mask(names, sum(1 << rng.randrange(n * n) for _ in range(n)))
        for af, semantics in ((framework_from_mask(names, 0), "cf"), (sparse, "cf"), (sparse, "adm")):
            yield afrob.extension_masks(af, semantics), af.sorted_arguments
        for size in (1, 3, 40, 700):
            masks = rng.sample(range(1 << n), min(size, 1 << n))
            yield masks, sparse.sorted_arguments
            yield [0] + [m for m in masks if m], sparse.sorted_arguments


def test_family_writer_tables_match_per_set_spelling(monkeypatch):
    # _set_items on both sides of its size threshold against each set spelled
    # from its members, read bit by bit; the table route is the one that
    # builds _tails
    tables = []
    tails = afrob.cli._tails
    monkeypatch.setattr(afrob.cli, "_tails", lambda *args: tables.append(1) or tails(*args))
    seen = set()
    for masks, names in _writer_families():
        members = [[i for i in range(len(names)) if m >> i & 1] for m in masks]
        before = len(tables)
        for text, (start, sep, end, empty, between) in _FAMILY_SEPARATORS:
            quoted = [text(name) for name in names]
            spelled = between.join([
                start + sep.join([quoted[i] for i in s]) + end if s else empty for s in members
            ])
            assert _set_items(masks, quoted, start, sep, end, empty, between) == spelled
        prefixes = {m ^ 1 << m.bit_length() - 1 for m in masks if m & m - 1}
        seen.add((len(tables) > before, 0 in masks, prefixes <= set(masks)))
        lists = [[names[i] for i in s] for s in members]
        assert _json(_Family(masks, names)) == json.dumps(lists, indent=2)
    # each route wrote families with and without the empty set, and one with
    # a set whose prefix is absent
    assert {(route, has_empty) for route, has_empty, _ in seen} == {
        (True, True), (True, False), (False, True), (False, False)
    }
    assert (True, True, False) in seen and (False, True, False) in seen


def test_json_copies_a_large_family_once():
    # every piece of the document is joined once, at the top: a writer that
    # copies the family's text again at each nesting level peaks above 3x
    af = framework_from_mask(canonical_names(16), 0)
    family = _Family(afrob.extension_masks(af, "cf"), af.sorted_arguments)
    result = {"semantics": "cf", "extensions": family}
    document = {"schema": "afrob/1", "command": "extensions", "result": result}
    tracemalloc.start()
    try:
        text = _json(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family.masks) == 1 << 16
    assert peak < 3 * len(text)


def test_json_writer_writes_attacks_as_json_dumps_of_their_dicts():
    names = ["a", '"q"', "back\\slash", "\x00\n", "caf\u00e9", "\ud800", ""]
    attacks = [Attack(s, t) for s in names for t in names[::-1]]
    for found in ([], attacks[:1], attacks):
        dicts = [{"source": s, "target": t} for s, t in found]
        for value, expected in (
            (_Attacks(found), dicts),
            ({"attacks": _Attacks(found), "n": 1}, {"attacks": dicts, "n": 1}),
            ([{"a": [_Attacks(found)]}, _Attacks(found)], [{"a": [dicts]}, dicts]),
        ):
            assert _json(value) == json.dumps(expected, indent=2)


@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "text",
    ['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "caf\u00e9 \u65e5\u672c \U0001f600", "\ud800", "x\udfffy", ""],
)
def test_json_writer_escapes_strings_as_json_dumps(text):
    for value in (text, [text], {text: [text, {text: text}], "empty": [[], {}]}):
        assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, {"a"}, {1: "a"}, ["a", (1, 2)], Semantics.ADMISSIBLE, afrob.Verdict.INVARIANT],
)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
