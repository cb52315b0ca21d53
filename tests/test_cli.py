import io
import json
import os
import random
import subprocess
import sys

import pytest

import afrob
from afrob import Semantics, extension_sort_key, extensions
from afrob.cli import _extension_lists, _parsers, run_cli
from afrob.oracle import canonical_names, framework_from_mask

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
    monkeypatch.setattr(sys, "stdin", io.StringIO("arg(a).\n"))
    code, out, _ = run(capsys, "extensions", "--semantics", "gde", "--input", "-")
    assert code == 0
    assert out == "{a}\n"


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


def test_check_attack_preferred_only(capsys, g3_file):
    payload = run_json(
        capsys,
        "check-attack", "--from", "4", "--to", "2", "--semantics", "adm",
        "--preferred-only", "--input", g3_file, "--format", "json",
    )
    assert payload["result"]["verdict"] == "breaks_non_increasing"


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


def test_bad_afrob_jobs_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("AFROB_JOBS", "x")
    code, out, err = run(capsys, "audit", "--args", "2", "--semantics", "cf")
    assert code == 1
    assert out == ""
    assert "positive integer" in err


def test_afrob_jobs_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process, so its AFROB_JOBS default must
    # follow the environment from one call to the next
    codes = []
    for value in ["x", None, "0"]:
        if value is None:
            monkeypatch.delenv("AFROB_JOBS", raising=False)
        else:
            monkeypatch.setenv("AFROB_JOBS", value)
        codes.append(run(capsys, "audit", "--args", "2", "--semantics", "cf")[0])
    assert codes == [1, 0, 1]


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
    _parsers.cache_clear()
    for semantics in ["cf", "adm", "prf"]:
        assert run(capsys, "extensions", "--semantics", semantics, "--input", g3_file)[0] == 0
    assert _parsers.cache_info().misses == 1


@pytest.mark.parametrize("value", ["0", "x"])
def test_afrob_jobs_is_read_by_audit_alone(capsys, monkeypatch, g3_file, value):
    argv = ["extensions", "--semantics", "adm", "--input", g3_file]
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


def test_size_limit_exit_code(capsys, tmp_path):
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(x{i}).\n" for i in range(25)))
    code, _, err = run(capsys, "extensions", "--semantics", "cf", "--input", str(big))
    assert code == 3


def test_labellings_size_limit_exit_code(capsys, tmp_path):
    big = tmp_path / "big.apx"
    big.write_text("".join(f"arg(x{i}).\n" for i in range(21)))
    code, _, err = run(capsys, "labellings", "--semantics", "com", "--input", str(big))
    assert code == 3
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


def test_module_entry_point(g3_file):
    # the child imports the afrob under test, whether it came from PYTHONPATH
    # or from pytest's pythonpath setting
    source_root = os.path.dirname(os.path.dirname(afrob.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "afrob", "extensions", "--semantics", "adm",
         "--input", g3_file, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0
    payload = json.loads(completed.stdout)
    assert payload["schema"] == "afrob/1"
    assert len(payload["result"]["extensions"]) == 6


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
            assert _extension_lists(af, semantics) == [sorted(ext) for ext in family]
