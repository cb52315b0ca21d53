"""Mutation check: each mutant below must make the tests listed with it fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant is one exact text replacement in one file.  Each is applied to a
fresh copy of the whole tree (``pyproject.toml`` puts the checkout's
``src`` on pytest's path whatever ``PYTHONPATH`` says, so a copy of
``src`` alone would test the unmutated code), and ``pytest -x`` runs its
tests there.  The runner checks that the old text occurs exactly once and
that the tests imported ``afrob`` from the copy.  It exits nonzero if any
mutant survives.  A run that exceeds the timeout counts as killed: the
mutant made the tests hang.  Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900

# loaded into the mutant's pytest run with -p; records where afrob came from
_PROBE = '''\
import sys
from pathlib import Path


def pytest_sessionfinish(session):
    module = sys.modules.get("afrob")
    if module is not None:
        Path(__file__).with_suffix(".out").write_text(module.__file__)
'''


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "admissible-answers-its-targets",
        "src/afrob/semantics.py",
        "if not triple[2] & ~triple[1]]",
        "if not triple[2] & triple[1]]",
        (
            "tests/test_invariance.py::"
            "test_each_conflict_free_triple_carries_its_set_targets_and_attackers",
        ),
    ),
    Mutant(
        "pass-attackers-are-targets",
        "src/afrob/semantics.py",
        "threat | a))",
        "threat | t))",
        (
            "tests/test_invariance.py::"
            "test_each_conflict_free_triple_carries_its_set_targets_and_attackers",
        ),
    ),
    Mutant(
        "core-unanswered-unmasked",
        "src/afrob/semantics.py",
        "            unanswered = core & ~attacked\n",
        "            unanswered = (1 << len(targets)) - 1 & ~attacked\n",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "self-defense-tables-swapped",
        "src/afrob/invariance.py",
        "def _self_defense_row(odd: tuple[int, ...], reverse_odd: tuple[int, ...], a: int)",
        "def _self_defense_row(reverse_odd: tuple[int, ...], odd: tuple[int, ...], a: int)",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "reach-odd-loop-ignored",
        "src/afrob/invariance.py",
        "    if gain_even & bit:\n",
        "    if False:\n",
        (
            "tests/test_robustness.py::test_derived_states_equal_a_rebuild",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "reverse-reach-unswapped",
        "src/afrob/invariance.py",
        "*_reach_with(reverse_odd, reverse_even, b, a),",
        "*_reach_with(reverse_odd, reverse_even, a, b),",
        (
            "tests/test_robustness.py::test_derived_states_equal_a_rebuild",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "odd-closure-no-empty-walk",
        "src/afrob/invariance.py",
        "o, e = 0, 1 << i\n",
        "o, e = 0, 0\n",
        # the closure then need not converge (a self-loop oscillates), so a
        # pinned case that fails fast comes first
        (
            "tests/test_framework.py::test_odd_walk_examples",
            "tests/test_framework.py::test_odd_walk_matches_enumeration_exhaustively",
        ),
    ),
    Mutant(
        "reinstating-row-is-out",
        "src/afrob/invariance.py",
        "row = threat | _defending_undec(",
        "row = out | _defending_undec(",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "cf-closed-form-without-self-attackers",
        "src/afrob/invariance.py",
        "else targets[a] | attackers[a] | loops\n",
        "else targets[a] | attackers[a]\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "greedy-follows-every-candidate",
        "src/afrob/robustness.py",
        '            if strategy == "greedy":\n                break\n',
        "",
        ("tests/test_robustness.py",),
    ),
    Mutant(
        "adm-gain-without-single-unanswered-check",
        "src/afrob/invariance.py",
        "if unanswered and not unanswered & (unanswered - 1):",
        "if unanswered:",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "stb-cover",
        "src/afrob/semantics.py",
        "for m, d in zip(sets, decided) if d == core)",
        "for m, d in zip(sets, decided))",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "undec-defends-undec-counts-self-attackers",
        "src/afrob/invariance.py",
        "        if not targets[c] >> c & 1:\n            row |= attackers[c]\n",
        "        row |= attackers[c]\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "labellings-unsorted",
        "src/afrob/semantics.py",
        "masks = sorted(extension_masks(af, semantics), key=lambda m: tuple(_bits(m)))",
        "masks = extension_masks(af, semantics)",
        ("tests/test_acceptance.py::test_criterion_6_labelling_correspondence",),
    ),
    Mutant(
        "labelling-undec-holds-in",
        "src/afrob/semantics.py",
        "[(m, out, full & ~(m | out)) for m, out",
        "[(m, out, full & ~out) for m, out",
        (
            "tests/test_acceptance.py::test_criterion_6_labelling_correspondence",
            "tests/test_cli.py::test_undec_outputs_match_the_pinned_output",
        ),
    ),
    Mutant(
        "preferred-only-scans-every-admissible-set",
        "src/afrob/invariance.py",
        "    found = state.witnesses(a, b, semantics, family)\n",
        "    found = state.witnesses(a, b, semantics)\n",
        (
            "tests/test_cli.py::test_undec_outputs_match_the_pinned_output",
            "tests/test_acceptance.py::test_criterion_7_preferred_only_shortcut",
        ),
    ),
    Mutant(
        "difference-in-mask-order",
        "src/afrob/semantics.py",
        "return tuple(m for m in before if m not in kept), tuple(m for m in after if m not in kept)",
        "return tuple(sorted(m for m in before if m not in kept)),"
        " tuple(sorted(m for m in after if m not in kept))",
        ("tests/test_cli.py::test_g3_reports_match_the_pinned_output",),
    ),
    Mutant(
        "difference-lost-gained-swapped",
        "src/afrob/semantics.py",
        "return tuple(m for m in before if m not in kept), tuple(m for m in after if m not in kept)",
        "return tuple(m for m in after if m not in kept), tuple(m for m in before if m not in kept)",
        ("tests/test_oracle.py::test_mask_level_checks_match_name_level_extension_sets",),
    ),
    Mutant(
        "audit-stores-lost-as-gained",
        "src/afrob/oracle.py",
        "                    lost=lost,\n",
        "                    lost=gained,\n",
        ("tests/test_oracle.py::test_audit_two_arguments_adm_characterisation",),
    ),
    Mutant(
        "apx-accepts-a-document-with-a-rejected-line",
        "src/afrob/apx.py",
        '    if len(found) != text.count("\\n") + 1:\n',
        "    if not found:\n",
        ("tests/test_apx.py::test_parse_matches_the_line_by_line_reference",),
    ),
    Mutant(
        "apx-line-space-is-space-and-tab",
        "src/afrob/apx.py",
        '    rf"^[^\\S\\n]*(?:%[^\\n]*|(?:arg\\(({_NAME.pattern})\\)"\n'
        '    rf"|att\\(({_NAME.pattern}),({_NAME.pattern})\\))\\.[^\\S\\n]*)?$",\n',
        '    rf"^[ \\t]*(?:%[^\\n]*|(?:arg\\(({_NAME.pattern})\\)"\n'
        '    rf"|att\\(({_NAME.pattern}),({_NAME.pattern})\\))\\.[ \\t]*)?$",\n',
        (
            "tests/test_apx.py::test_parser_whitespace_is_str_isspace",
            "tests/test_apx.py::test_parse_matches_the_line_by_line_reference",
        ),
    ),
    Mutant(
        "command-parser-given-the-command-name",
        "src/afrob/cli.py",
        "command.parse_args(argv[1:])",
        "command.parse_args(argv)",
        ("tests/test_cli.py::test_direct_dispatch_matches_the_top_level_parser",),
    ),
    Mutant(
        "bit-table-covers-its-bound",
        "src/afrob/framework.py",
        "    if mask < _SMALL:\n",
        "    if mask <= _SMALL:\n",
        ("tests/test_framework.py::test_bits_matches_the_bit_by_bit_reference",),
    ),
    Mutant(
        "bit-table-descending",
        "src/afrob/framework.py",
        "[b + _tail for b in _BIT_TABLE]",
        "[_tail + b for b in _BIT_TABLE]",
        (
            "tests/test_framework.py::test_bits_matches_the_bit_by_bit_reference",
            "tests/test_cli.py::test_g3_reports_match_the_pinned_output",
        ),
    ),
    Mutant(
        "equivalent-text-prints-gained-as-lost",
        "src/afrob/cli.py",
        'f"gained: {_fmt_extensions(result[\'gained\'])}"',
        'f"lost: {_fmt_extensions(result[\'gained\'])}"',
        ("tests/test_cli.py::test_g3_reports_match_the_pinned_output",),
    ),
    Mutant(
        "capped-state-unclassified-before-truncated",
        "src/afrob/robustness.py",
        "                if truncated and children_capped:\n",
        "                if children_capped:\n",
        (
            "tests/test_robustness.py::test_capped_search_stops_classifying_at_the_cap_once_truncated",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "capped-state-unclassified-one-level-early",
        "src/afrob/robustness.py",
        "children_capped = max_steps is not None and depth + 1 >= max_steps",
        "children_capped = max_steps is not None and depth + 2 >= max_steps",
        (
            "tests/test_robustness.py::test_capped_search_stops_classifying_at_the_cap_once_truncated",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "failure-keeps-stdout-buffer",
        "src/afrob/cli.py",
        "    if status:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_a_failed_write_exits_1_with_one_error_line",),
    ),
    Mutant(
        "present-attack-scanned",
        "src/afrob/invariance.py",
        "    if state.targets[a] >> b & 1:\n"
        "        return Verdict.INVARIANT, []  # re-adding an attack changes nothing\n",
        "",
        (
            "tests/test_invariance.py::test_classify_existing_attack_is_invariant",
            "tests/test_cli.py::test_a_present_attack_is_invariant_past_the_enumeration_limit",
        ),
    ),
    Mutant(
        "set-text-last-end-dropped",
        "src/afrob/cli.py",
        "items.append((end + between).join(opens.values()) + end)",
        "items.append((end + between).join(opens.values()))",
        (
            "tests/test_cli.py::test_empty_set_first_and_set_without_prefix_in_full",
            "tests/test_cli.py::test_extension_lists_follow_extension_sort_key",
        ),
    ),
    Mutant(
        "set-with-present-prefix-built-from-start",
        "src/afrob/cli.py",
        "opens[m] = opens[prefix] + tails[top]",
        "opens[m] = start + tails[top]",
        ("tests/test_cli.py::test_extension_lists_follow_extension_sort_key",),
    ),
    Mutant(
        "set-with-absent-prefix-written-as-its-top",
        "src/afrob/cli.py",
        "        elif prefix:\n",
        "        elif False:\n",
        ("tests/test_cli.py::test_empty_set_first_and_set_without_prefix_in_full",),
    ),
    Mutant(
        "empty-set-separator-dropped",
        "src/afrob/cli.py",
        "    return between.join(items)\n",
        '    return "".join(items)\n',
        ("tests/test_cli.py::test_empty_set_first_and_set_without_prefix_in_full",),
    ),
    Mutant(
        "stdout-closed-at-start-unchecked",
        "src/afrob/cli.py",
        "        if sys.stdout is None:  # fd 1 was closed at start\n",
        "        if False:\n",
        ("tests/test_cli.py::test_a_stdout_closed_at_start_exits_1_with_one_error_line",),
    ),
    Mutant(
        "robustness-text-always-truncated",
        "src/afrob/cli.py",
        '    if result["truncated"]:\n',
        "    if True:\n",
        ("tests/test_cli.py::test_g3_reports_match_the_pinned_output",),
    ),
)


def _ignore(directory: str, names: list[str]) -> set[str]:
    """Leave out version control and what test and build runs leave behind."""
    skipped = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "build", ".perfbench_out"}
    return {name for name in names if name in skipped or name.endswith(".egg-info")}


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests there;
    return whether they failed and how the run ended."""
    with tempfile.TemporaryDirectory(prefix="afrob-mutant-") as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / mutant.path
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        # python -m puts the working directory first on sys.path, so the
        # probe is importable from there; pytest adds the copy's src itself
        probe = copy / "afrob_mutant_probe.py"
        probe.write_text(_PROBE)
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-p", probe.stem, *mutant.tests,
        ]
        try:
            result = subprocess.run(
                command, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        imported = probe.with_suffix(".out")
        source = Path(imported.read_text()) if imported.exists() else None
        if source is None or not source.resolve().is_relative_to(copy.resolve()):
            raise SystemExit(
                f"{mutant.name}: the tests imported afrob from {source}, not from the copy\n"
                + result.stdout[-2000:]
            )
        lines = result.stdout.strip().splitlines()
        return result.returncode != 0, lines[-1] if lines else f"exit {result.returncode}"


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        started = time.perf_counter()
        killed, summary = run(mutant)
        elapsed = time.perf_counter() - started
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict} {mutant.name} ({elapsed:.1f} s): {summary}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} mutants survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
