"""Mutation check: each mutant below must make the tests listed with it fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant is one exact text replacement in one file.  Each is applied to a
fresh copy of the whole tree (``pyproject.toml`` puts the checkout's
``src`` on pytest's path whatever ``PYTHONPATH`` says, so a copy of
``src`` alone would test the unmutated code), and ``pytest -x`` runs its
tests there.  The runner checks that the old text occurs exactly once and
that the tests imported ``afrob`` from the copy.  It exits nonzero if any
mutant survives.  A mutant is killed when a test fails (pytest's exit
status 1) or the run exceeds the timeout: the mutant made the tests hang.
Any other status is no verdict (a test id that does not exist and a
mutant that does not import both exit 4), so the runner stops there with
the mutant's name and the tail of pytest's output.  Standard library only;
pytest does not collect this file, but ``tests/test_mutants.py`` checks
in every test run that each old text occurs once and each listed test
exists, so an edit that strands a mutant fails there.
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
        "        if row & bit:\n",
        "        if odd[a] >> c & 1:\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "self-defense-row-for-the-target",
        "src/afrob/invariance.py",
        "defense = _self_defense_row(self.reach[0], a)",
        "defense = _self_defense_row(self.reach[0], b)",
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
        "child-rebuilds-its-reach",
        "src/afrob/invariance.py",
        "        child._reach = _reach_with(",
        "        _unused = _reach_with(",
        (
            "tests/test_robustness.py::"
            "test_a_search_builds_the_conflict_free_sets_and_reach_tables_once",
        ),
    ),
    Mutant(
        "child-rebuilds-its-cf",
        "src/afrob/invariance.py",
        "        child._cf = [\n",
        "        _unused = [\n",
        (
            "tests/test_robustness.py::"
            "test_a_search_builds_the_conflict_free_sets_and_reach_tables_once",
        ),
    ),
    Mutant(
        "child-cf-set-holding-a-gains-no-target",
        "src/afrob/invariance.py",
        "(m, h | bit_b if m & bit_a else h, t",
        "(m, h, t",
        ("tests/test_robustness.py::test_derived_states_equal_a_rebuild",),
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
        'return islice(found, 1) if strategy == "greedy" else found',
        "return found",
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
        "minimal-drops-equal-keys",
        "src/afrob/semantics.py",
        "if not any(u & k == u and u != k for u in kept):",
        "if not any(u & k == u for u in kept):",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "grounded-takes-attacked-arguments",
        "src/afrob/semantics.py",
        "if not row & ~attacked)",
        "if not row & attacked)",
        ("tests/test_semantics.py::test_grounded_examples",),
    ),
    Mutant(
        "nd-out-in-undefended-where-b-attacks-a",
        "src/afrob/invariance.py",
        "if s & bit and not (hit_by & out or attacks_a):",
        "if s & bit and not hit_by & out:",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "witnesses-gains-before-losses",
        "src/afrob/invariance.py",
        "        return losses + gains\n",
        "        return gains + losses\n",
        ("tests/test_cli.py::test_g3_reports_match_the_pinned_output",),
    ),
    Mutant(
        "subset-count-off-by-one",
        "src/afrob/robustness.py",
        "term = term * (k - i + 1) // i",
        "term = term * (k - i) // i",
        ("tests/test_robustness.py",),
    ),
    Mutant(
        "mask-decoder-keeps-target-bits-in-name-order",
        "src/afrob/oracle.py",
        "sum(1 << position[b] for b in _bits(row))",
        "sum(1 << b for b in _bits(row))",
        ("tests/test_oracle.py::test_framework_from_mask_equals_the_name_level_decoder",),
    ),
    Mutant(
        "undec-defends-undec-counts-self-attackers",
        "src/afrob/invariance.py",
        "        if not targets[c] >> c & 1:\n            row |= attackers[c]\n",
        "        row |= attackers[c]\n",
        ("tests/test_invariance.py",),
    ),
    Mutant(
        "witness-undec-defends-undec-counts-self-attackers",
        "src/afrob/invariance.py",
        "unlooped = sum(1 << c for c in _bits(hits) if not targets[c] >> c & 1)",
        "unlooped = hits",
        ("tests/test_invariance.py::test_rule_scan_matches_the_name_level_reference",),
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
        "            lost=lost,\n",
        "            lost=gained,\n",
        ("tests/test_oracle.py::test_audit_two_arguments_adm_characterisation",),
    ),
    Mutant(
        "disagreement-sides-swapped",
        "src/afrob/oracle.py",
        "            if changed_row >> b & 1:\n",
        "            if not changed_row >> b & 1:\n",
        ("tests/test_oracle.py::test_disagreements_read_the_side_that_disagrees",),
    ),
    Mutant(
        "false-alarm-verdict-flipped",
        "src/afrob/oracle.py",
        "found.append((a, b, rules, True, (), ()))",
        "found.append((a, b, rules, False, (), ()))",
        ("tests/test_oracle.py::test_disagreements_read_the_side_that_disagrees",),
    ),
    Mutant(
        "cf-audit-skips-adm-samples",
        "src/afrob/oracle.py",
        "        if semantics == Semantics.CONFLICT_FREE:\n            continue",
        "        if semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):\n            continue",
        ("tests/test_oracle.py::test_audit_three_arguments_ledger",),
    ),
    Mutant(
        "cf-audit-drops-skipped-candidates",
        "src/afrob/oracle.py",
        "        candidates += n * n - mask.bit_count()\n"
        "        if semantics == Semantics.CONFLICT_FREE:\n"
        "            continue  # the rules and the delta read one closed form: nothing to compare\n",
        "        if semantics == Semantics.CONFLICT_FREE:\n"
        "            continue  # the rules and the delta read one closed form: nothing to compare\n"
        "        candidates += n * n - mask.bit_count()\n",
        (
            "tests/test_oracle.py::test_audit_one_argument_cf",
            "tests/test_oracle.py::test_a_cf_audit_builds_no_state",
        ),
    ),
    Mutant(
        "audit-skips-a-sample-with-one-disagreement",
        "src/afrob/oracle.py",
        "        if found:\n",
        "        if found[1:]:\n",
        ("tests/test_oracle.py::test_audit_two_arguments_adm_characterisation",),
    ),
    Mutant(
        "audit-length-counts-relations",
        "src/afrob/oracle.py",
        "self._count = sum(len(found) for _, _, found in self.relations)",
        "self._count = len(self.relations)",
        ("tests/test_oracle.py::test_audit_three_arguments_ledger",),
    ),
    Mutant(
        "by-rule-adds-one-per-rule-tuple",
        "src/afrob/oracle.py",
        "counts[key] = counts.get(key, 0) + count",
        "counts[key] = counts.get(key, 0) + 1",
        ("tests/test_oracle.py::test_audit_two_arguments_adm_characterisation",),
    ),
    Mutant(
        "audit-relation-text-shared-across-frameworks",
        "src/afrob/cli.py",
        "        text = _relation_text(pairs, rows, *relation)\n",
        "        text = _relation_text(pairs, discrepancies.relations[0][1], *relation)\n",
        ("tests/test_cli.py::test_audit_decodes_each_framework_once",),
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
        "parser-not-given-the-command-name",
        "src/afrob/cli.py",
        "_parser().parse_args(argv)",
        "_parser().parse_args(argv[1:])",
        ("tests/test_cli.py::test_help_matches_the_pinned_output",),
    ),
    Mutant(
        "option-table-skips-choices",
        "src/afrob/cli.py",
        "        if choices is not None and value not in choices:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_the_option_table_reads_what_argparse_reads",),
    ),
    Mutant(
        "option-table-skips-required",
        "src/afrob/cli.py",
        "        if required and dest not in values:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_the_option_table_reads_what_argparse_reads",),
    ),
    Mutant(
        "option-table-takes-values-starting-with-a-dash",
        "src/afrob/cli.py",
        '        if value is None or value.startswith("-") and value != "-":\n',
        "        if value is None:\n",
        ("tests/test_cli.py::test_the_option_table_reads_what_argparse_reads",),
    ),
    Mutant(
        "option-table-keeps-the-first-of-a-repeated-option",
        "src/afrob/cli.py",
        "        values[dest] = value\n",
        "        values.setdefault(dest, value)\n",
        ("tests/test_cli.py::test_the_option_table_reads_what_argparse_reads",),
    ),
    Mutant(
        "count-accepts-any-unicode-digit",
        "src/afrob/cli.py",
        "        if text.isascii() and text.isdecimal() and int(text) >= least:\n",
        "        if text.isdecimal() and int(text) >= least:\n",
        ("tests/test_cli.py::test_negative_counts_are_usage_errors",),
    ),
    Mutant(
        "count-lets-int-refuse-its-digits",
        "src/afrob/cli.py",
        "    except ValueError:\n        pass\n",
        "    except ():\n        pass\n",
        ("tests/test_cli.py::test_negative_counts_are_usage_errors",),
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
        "            if truncated and depth == max_steps:\n",
        "            if depth == max_steps:\n",
        (
            "tests/test_robustness.py::test_capped_search_stops_classifying_at_the_cap_once_truncated",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "capped-state-unclassified-one-level-early",
        "src/afrob/robustness.py",
        "truncated and depth == max_steps",
        "truncated and depth + 1 == max_steps",
        (
            "tests/test_robustness.py::test_capped_search_stops_classifying_at_the_cap_once_truncated",
            "tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",
        ),
    ),
    Mutant(
        "search-key-collides",
        "src/afrob/robustness.py",
        "1 << a * n + b",
        "1 << a + b",
        ("tests/test_robustness.py",),
    ),
    Mutant(
        "cap-one-step-late",
        "src/afrob/robustness.py",
        "if depth == max_steps:",
        "if depth - 1 == max_steps:",
        ("tests/test_robustness.py",),
    ),
    Mutant(
        "witness-is-the-last-deepest-path",
        "src/afrob/robustness.py",
        "if depth > degree:",
        "if depth >= degree:",
        ("tests/test_robustness.py::test_seeded_searches_match_the_recorded_goldens",),
    ),
    Mutant(
        "search-follows-a-reached-state-again",
        "src/afrob/robustness.py",
        "            if child in seen:\n                continue\n",
        "",
        ("tests/test_robustness.py::test_exhaustive_search_builds_each_state_once",),
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
        "table-route-after-and-alone-swapped",
        "src/afrob/cli.py",
        "(after if m & low else alone)[m >> k]",
        "(alone if m & low else after)[m >> k]",
        (
            "tests/test_cli.py::test_family_writer_tables_match_per_set_spelling",
            "tests/test_cli.py::test_extension_lists_follow_extension_sort_key",
        ),
    ),
    Mutant(
        "doubling-puts-the-new-name-first",
        "src/afrob/cli.py",
        "texts += [t + piece for t in texts]",
        "texts += [piece + t for t in texts]",
        ("tests/test_cli.py::test_family_writer_tables_match_per_set_spelling",),
    ),
    Mutant(
        "table-route-empty-set-dropped",
        "src/afrob/cli.py",
        "alone = [empty] + [",
        'alone = [""] + [',
        ("tests/test_cli.py::test_family_writer_tables_match_per_set_spelling",),
    ),
    Mutant(
        "table-route-end-dropped-after-a-low-member",
        "src/afrob/cli.py",
        "after = [t + end for t in high_tails]",
        "after = high_tails",
        ("tests/test_cli.py::test_family_writer_tables_match_per_set_spelling",),
    ),
    Mutant(
        "stdout-closed-at-start-unchecked",
        "src/afrob/cli.py",
        "        if sys.stdout is None:  # fd 1 was closed at start\n",
        "        if False:\n",
        ("tests/test_cli.py::test_a_stdout_closed_at_start_exits_1_with_one_error_line",),
    ),
    Mutant(
        "stdin-closed-at-start-unchecked",
        "src/afrob/cli.py",
        "        if sys.stdin is None:  # fd 0 was closed at start\n",
        "        if False:\n",
        ("tests/test_cli.py::test_a_stdin_closed_at_start_exits_1_with_one_error_line",),
    ),
    Mutant(
        # a relation gets the state of the first one over its argument set
        "root-state-keyed-by-argument-names",
        "src/afrob/semantics.py",
        '    def state(self) -> "_State":\n'
        "        from .invariance import _State  # invariance imports this module\n\n"
        "        return _State(*self.af.bit_rows)\n",
        '    def state(self, _BY_NAMES={}) -> "_State":\n'
        "        from .invariance import _State  # invariance imports this module\n\n"
        "        return _State(*_BY_NAMES.setdefault(self.af.sorted_arguments, self.af).bit_rows)\n",
        ("tests/test_cli.py::test_cached_states_are_keyed_by_the_whole_framework",),
    ),
    Mutant(
        "robustness-builds-its-own-root-state",
        "src/afrob/robustness.py",
        "root = _enumerate(af).state",
        "root = _State(*af.bit_rows)",
        ("tests/test_cli.py::test_the_three_questions_about_one_framework_share_one_record",),
    ),
    Mutant(
        "robustness-text-always-truncated",
        "src/afrob/cli.py",
        '    if result["truncated"]:\n',
        "    if True:\n",
        ("tests/test_cli.py::test_g3_reports_match_the_pinned_output",),
    ),
    Mutant(
        "framework-assignment-stored",
        "src/afrob/framework.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_framework.py::test_a_framework_refuses_assignment_and_deletion",),
    ),
    Mutant(
        "argparse-imported-with-the-cli",
        "src/afrob/cli.py",
        "import os\nimport sys\n",
        "import argparse\nimport os\nimport sys\n",
        (
            "tests/test_cli.py::"
            "test_a_fresh_process_imports_argparse_only_for_what_the_table_declines",
        ),
    ),
    Mutant(
        # ArgumentTypeError, a count's refusal, then escapes run_cli
        "option-table-declines-only-a-value-error",
        "src/afrob/cli.py",
        "        except Exception:  # argparse reads the argv again and says why\n",
        "        except ValueError:\n",
        ("tests/test_cli.py::test_negative_counts_are_usage_errors",),
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
        if result.returncode not in (0, 1):
            raise SystemExit(
                f"{mutant.name}: pytest exited {result.returncode}, neither a pass nor a"
                f" test failure\n{(result.stdout + result.stderr)[-2000:]}"
            )
        imported = probe.with_suffix(".out")
        source = Path(imported.read_text()) if imported.exists() else None
        if source is None or not source.resolve().is_relative_to(copy.resolve()):
            raise SystemExit(
                f"{mutant.name}: the tests imported afrob from {source}, not from the copy\n"
                + result.stdout[-2000:]
            )
        lines = result.stdout.strip().splitlines()
        return result.returncode == 1, lines[-1] if lines else f"exit {result.returncode}"


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
    print(f"{len(MUTANTS)} mutants, all killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
