import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import afrob
from afrob import Semantics, exhaustive_audit, extension_sort_key, extensions
from afrob.apx import emit_apx
from afrob.cli import _Attacks, _Family, _json, _parser, _set_items, run_cli
from afrob.framework import Attack
from afrob.oracle import canonical_names, framework_from_mask
from conftest import mutual_pairs
from oracles import extension_changes

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


@pytest.mark.parametrize("semantics, passes", [("cf", 0), ("adm", 1)])
def test_invariant_attacks_oracle_makes_one_conflict_free_pass(
    capsys, monkeypatch, g3_file, semantics, passes
):
    # the rule rows and Dung's delta read one state of the relation: cf
    # needs no conflict-free set at all, adm enumerates them once
    calls = []
    for module in (afrob.semantics, afrob.invariance, afrob.oracle, afrob.robustness):
        original = getattr(module, "_conflict_free", None)
        if original is not None:

            def counted(*rows, original=original):
                calls.append(rows)
                return original(*rows)

            monkeypatch.setattr(module, "_conflict_free", counted)
    afrob.semantics._enumerate.cache_clear()  # a cached framework would hide a pass
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


def test_audit(capsys):
    payload = run_json(
        capsys, "audit", "--args", "2", "--semantics", "cf", "--format", "json"
    )
    result = payload["result"]
    assert result["exhaustive"] is True
    assert result["frameworks_checked"] == 16
    assert result["disagreements"] == 0


def test_audit_json_builds_no_text(capsys, monkeypatch):
    def refuse(report):
        raise AssertionError("the text report is built only when it is printed")

    monkeypatch.setattr(afrob.cli, "format_audit_text", refuse)
    payload = run_json(
        capsys, "audit", "--args", "2", "--semantics", "adm", "--format", "json"
    )
    assert payload["result"]["disagreements"] == 4


def test_audit_decodes_each_framework_once(capsys, monkeypatch):
    # the disagreements of one framework share its attack list, in JSON and
    # in text (which builds no JSON result), and each still prints the
    # whole relation in canonical order
    report = exhaustive_audit(3, Semantics.ADMISSIBLE)
    relations = [sorted(d.framework.attacks) for d in report.discrepancies]
    distinct = {id(d.framework) for d in report.discrepancies}
    assert len(relations) > len(distinct) > 1
    decoded = []
    attacks_in = afrob.cli._attacks_in

    def counting(order, rows):
        decoded.append(order)
        return attacks_in(order, rows)

    monkeypatch.setattr(afrob.cli, "_attacks_in", counting)
    payload = run_json(capsys, "audit", "--args", "3", "--semantics", "adm", "--format", "json")
    assert len(decoded) == len(distinct)
    assert [d["attacks"] for d in payload["result"]["discrepancies"]] == [
        [{"source": s, "target": t} for s, t in relation] for relation in relations
    ]
    decoded.clear()
    code, out, _ = run(capsys, "audit", "--args", "3", "--semantics", "adm")
    assert code == 0 and len(decoded) == len(distinct)
    lines = [line for line in out.splitlines() if line.startswith("disagreement: ")]
    assert [line.split(" add=")[0] for line in lines] == [
        "disagreement: R={" + ",".join(f"({s},{t})" for s, t in relation) + "}"
        for relation in relations
    ]


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
    ],
    ids=["args", "samples", "max-steps", "jobs-zero", "jobs-negative"],
)
def test_negative_counts_are_usage_errors(capsys, g3_file, argv, message):
    if argv[0] == "robustness":
        argv = argv + ["--input", g3_file]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [["extensions", "--semantics", "adm"], ["audit", "--args", "2", "--semantics", "adm"]],
    ids=["extensions", "audit"],
)
def test_help_and_usage_errors_leave_the_parser_as_it_was(capsys, g3_file, argv):
    if argv[0] != "audit":
        argv = argv + ["--input", g3_file]
    alone = run(capsys, *argv)
    assert alone[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, *argv) == alone
    assert run(capsys, argv[0], "--help")[0] == 0
    assert run(capsys, *argv) == alone
    assert run(capsys, *argv, "--jobs", "0")[0] == 1
    assert run(capsys, *argv) == alone
    assert run(capsys, "extensions", "--semantics", "nope", "--input", g3_file)[0] == 1
    assert run(capsys, *argv) == alone


def test_parser_is_built_once_per_process(capsys, g3_file):
    _parser.cache_clear()
    for semantics in ["cf", "adm", "prf"]:
        assert run(capsys, "extensions", "--semantics", semantics, "--input", g3_file)[0] == 0
    assert _parser.cache_info().misses == 1


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


def test_audit_size_limit_exits_before_sampling(capsys):
    # 2000 arguments would mean drawing 1000 masks of four million bits
    code, out, err = run(capsys, "audit", "--args", "2000", "--semantics", "adm")
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


def test_module_entry_point(g3_file):
    completed = subprocess.run(
        [sys.executable, "-m", "afrob", "extensions", "--semantics", "adm",
         "--input", g3_file, "--format", "json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert completed.returncode == 0
    payload = json.loads(completed.stdout)
    assert payload["schema"] == "afrob/1"
    assert len(payload["result"]["extensions"]) == 6


def test_import_leaves_multiprocessing_unloaded():
    # every command runs in one process, so no CLI process pays for it
    code = "import sys, afrob.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_child_env()).returncode == 0


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
            assert _set_items(*printed, "{", ",", "}", "{}") == [
                "{" + ",".join(sorted(ext)) + "}" for ext in family
            ]


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


def test_json_writer_prints_enum_members_as_json_dumps():
    value = [Semantics.ADMISSIBLE, {"verdict": afrob.Verdict.INVARIANT}]
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a"}, {1: "a"}, ["a", (1, 2)]])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
