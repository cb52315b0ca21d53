import pytest
from hypothesis import given, settings

from afrob import (
    ArgumentationFramework,
    ArgumentSetMismatch,
    Rule,
    Semantics,
    UnsupportedSemantics,
    Verdict,
    admissible_sets,
    classify_admissible_attack,
    classify_attack,
    classify_conflict_free_attack,
    conflict_free_sets,
    enumerate_invariant_attacks,
    extension_set_included,
    framework_classifier,
    invariant_attacks,
    labelling_from_set,
    non_decreasing_violations,
    non_increasing_violations,
    oracle_invariant,
    sigma_equivalent,
)
from afrob.framework import Attack
from afrob.invariance import candidate_attacks
from afrob.oracle import canonical_names, framework_from_mask
from afrob.semantics import extension_sort_key
from conftest import frameworks


def sets(*members):
    return frozenset(frozenset(m) for m in members)


def _adm_labellings(af):
    return [
        labelling_from_set(af, ext)
        for ext in sorted(admissible_sets(af), key=extension_sort_key)
    ]


# --- inclusion and equivalence ---------------------------------------------


def test_inclusion_examples():
    assert extension_set_included(sets("a"), sets("a"))  # reflexive on a point
    assert extension_set_included(sets("a"), sets("ab"))
    assert not extension_set_included(sets("a", "b"), sets("a"))


def test_inclusion_both_ways_does_not_imply_equality():
    one = sets("a")
    two = sets("a", "")
    assert extension_set_included(one, two)
    assert extension_set_included(two, one)
    assert one != two


@given(frameworks(), frameworks(), frameworks())
def test_inclusion_is_reflexive_and_transitive(af1, af2, af3):
    families = [conflict_free_sets(af) for af in (af1, af2, af3)]
    for fam in families:
        assert extension_set_included(fam, fam)
    a, b, c = families
    if extension_set_included(a, b) and extension_set_included(b, c):
        assert extension_set_included(a, c)


def test_sigma_equivalent_examples(g3):
    assert sigma_equivalent(g3, g3, Semantics.ADMISSIBLE)
    assert sigma_equivalent(g3, g3.add_attack("2", "1"), Semantics.CONFLICT_FREE)
    assert not sigma_equivalent(g3, g3.add_attack("1", "4"), Semantics.ADMISSIBLE)


def test_sigma_equivalent_requires_same_arguments(g3, mutual):
    with pytest.raises(ArgumentSetMismatch):
        sigma_equivalent(g3, mutual, Semantics.CONFLICT_FREE)


def test_sigma_equivalent_is_an_equivalence_relation(g3):
    variants = [g3, g3.add_attack("2", "1"), g3.add_attack("3", "2"), g3.add_attack("1", "4")]
    for sem in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        for a in variants:
            assert sigma_equivalent(a, a, sem)
            for b in variants:
                assert sigma_equivalent(a, b, sem) == sigma_equivalent(b, a, sem)
                for c in variants:
                    if sigma_equivalent(a, b, sem) and sigma_equivalent(b, c, sem):
                        assert sigma_equivalent(a, c, sem)


# --- conflict-free classification ------------------------------------------


def test_classify_cf_examples(g3, mutual):
    assert classify_conflict_free_attack(g3, ("2", "1")).verdict is Verdict.INVARIANT
    non_invariant = classify_conflict_free_attack(g3, ("1", "4"))
    assert non_invariant.verdict is Verdict.BREAKS_NON_DECREASING
    assert non_invariant.witnesses == (
        (frozenset({"1", "4"}), Rule.CF_NEVER_IN),
    )
    assert classify_conflict_free_attack(mutual, ("a", "b")).verdict is Verdict.INVARIANT


def test_classify_cf_invariant_verdicts_carry_no_witnesses(g3):
    assert classify_conflict_free_attack(g3, ("3", "2")).witnesses == ()


@settings(deadline=None, max_examples=60)
@given(frameworks())
def test_classify_cf_never_reports_gains(af):
    for attack in candidate_attacks(af):
        verdict = classify_conflict_free_attack(af, attack).verdict
        assert verdict in (Verdict.INVARIANT, Verdict.BREAKS_NON_DECREASING)


def test_classify_cf_matches_oracle_exhaustively():
    # two-argument sweep here; the three-argument sweep runs in acceptance
    names = canonical_names(2)
    for mask in range(1 << 4):
        af = framework_from_mask(names, mask)
        for attack in candidate_attacks(af):
            predicted = classify_conflict_free_attack(af, attack).verdict is Verdict.INVARIANT
            assert predicted == oracle_invariant(af, attack, Semantics.CONFLICT_FREE)


# --- admissible rule scans ---------------------------------------------------


def test_non_decreasing_violations_examples(g3):
    labellings = _adm_labellings(g3)
    rules = {w.rule for w in non_decreasing_violations(g3, Attack("1", "4"), labellings)}
    assert Rule.ND_IN_IN in rules
    witnesses = non_decreasing_violations(g3, Attack("2", "4"), labellings)
    assert (frozenset({"1", "4"}), Rule.ND_OUT_IN_UNDEFENDED) in witnesses
    assert non_decreasing_violations(g3, Attack("2", "2"), labellings) == []


def test_non_increasing_violations_examples(g3):
    labellings = _adm_labellings(g3)
    witnesses = non_increasing_violations(g3, Attack("4", "2"), labellings)
    assert (frozenset({"1", "3", "4"}), Rule.NI_IN_OUT_REINSTATES) in witnesses
    self_defense = non_increasing_violations(g3, Attack("2", "1"), labellings)
    assert {w.rule for w in self_defense} == {Rule.NI_OUT_SELF_DEFENSE}
    assert {w.in_set for w in self_defense} == {
        frozenset({"1"}),
        frozenset({"1", "3"}),
        frozenset({"1", "4"}),
        frozenset({"1", "3", "4"}),
    }
    assert non_increasing_violations(g3, Attack("2", "2"), labellings) == []


def test_classify_adm_worked_example(g3):
    byattack = {
        ("1", "4"): (Verdict.BREAKS_NON_DECREASING, Rule.ND_IN_IN),
        ("4", "2"): (Verdict.BREAKS_NON_INCREASING, Rule.NI_IN_OUT_REINSTATES),
        ("2", "4"): (Verdict.BREAKS_NON_DECREASING, Rule.ND_OUT_IN_UNDEFENDED),
        ("2", "1"): (Verdict.BREAKS_NON_INCREASING, Rule.NI_OUT_SELF_DEFENSE),
    }
    for attack, (verdict, rule) in byattack.items():
        classification = classify_admissible_attack(g3, attack)
        assert classification.verdict is verdict, attack
        assert rule in {w.rule for w in classification.witnesses}, attack


def test_classify_adm_invariant_example(g3):
    classification = classify_admissible_attack(g3, ("2", "2"))
    assert classification.verdict is Verdict.INVARIANT
    assert classification.witnesses == ()


def test_classify_adm_can_break_both(g3):
    # (3,1) deletes {1,3} and also matches a gain rule
    classification = classify_admissible_attack(g3, ("3", "1"))
    assert classification.verdict is Verdict.BREAKS_BOTH
    rules = {w.rule for w in classification.witnesses}
    assert Rule.ND_IN_IN in rules
    assert Rule.NI_IN_IN_DEFENDS in rules


def test_classify_existing_attack_is_invariant(g3):
    assert classify_admissible_attack(g3, ("1", "2")).verdict is Verdict.INVARIANT
    assert classify_conflict_free_attack(g3, ("1", "2")).verdict is Verdict.INVARIANT


def test_classify_attack_dispatch(g3):
    assert classify_attack(g3, ("2", "2"), "adm").verdict is Verdict.INVARIANT
    assert classify_attack(g3, ("2", "1"), "cf").verdict is Verdict.INVARIANT
    with pytest.raises(UnsupportedSemantics):
        classify_attack(g3, ("2", "2"), Semantics.STABLE)


def test_preferred_only_agrees_on_small_frameworks():
    # exhaustive: no verdict differences for up to three arguments
    for n in (1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            for attack in candidate_attacks(af):
                full = classify_admissible_attack(af, attack).verdict
                pruned = classify_admissible_attack(af, attack, preferred_only=True).verdict
                assert full == pruned, (af, attack)


def test_preferred_only_diverges_on_a_known_four_argument_case():
    # characterisation: restricting the scan to maximal-in labellings can
    # miss a deletion that only a smaller extension's labelling reveals
    af = ArgumentationFramework(
        ["1", "2", "3", "4"],
        [("1", "1"), ("3", "2"), ("2", "3"), ("4", "1")],
    )
    attack = ("1", "2")
    assert classify_admissible_attack(af, attack).verdict is Verdict.BREAKS_NON_DECREASING
    assert classify_admissible_attack(af, attack, preferred_only=True).verdict is Verdict.INVARIANT
    assert not oracle_invariant(af, attack, Semantics.ADMISSIBLE)


# --- invariant attack enumeration -------------------------------------------


def test_enumerate_invariant_attacks_examples(g3, mutual, empty_af):
    assert enumerate_invariant_attacks(g3, Semantics.CONFLICT_FREE) == frozenset(
        {Attack("2", "1"), Attack("3", "2")}
    )
    assert enumerate_invariant_attacks(mutual, Semantics.CONFLICT_FREE) == frozenset()
    assert enumerate_invariant_attacks(empty_af, Semantics.ADMISSIBLE) == frozenset()
    assert enumerate_invariant_attacks(g3, Semantics.ADMISSIBLE) == frozenset(
        {Attack("2", "2")}
    )
    with pytest.raises(UnsupportedSemantics):
        enumerate_invariant_attacks(g3, Semantics.PREFERRED)


def test_shared_classifier_matches_per_candidate_classification_exhaustively():
    # one labelling enumeration and one odd-walk memo per framework must
    # give, in canonical order, exactly what a fresh classification of each
    # candidate gives
    names = canonical_names(3)
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            fresh = [
                attack
                for attack in candidate_attacks(af)
                if classify_attack(af, attack, semantics).verdict is Verdict.INVARIANT
            ]
            assert list(invariant_attacks(af, semantics)) == fresh, (mask, semantics)


def test_framework_classifier_rejects_unsupported_semantics(g3):
    with pytest.raises(UnsupportedSemantics):
        framework_classifier(g3, Semantics.STABLE)


def test_enumerated_attacks_are_new(g3):
    for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        for attack in enumerate_invariant_attacks(g3, semantics):
            assert attack not in g3.attacks


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_every_expansion_is_weakly_non_increasing_for_cf(af):
    before = conflict_free_sets(af)
    for attack in candidate_attacks(af):
        after = conflict_free_sets(af.add_attack(*attack))
        assert extension_set_included(after, before)
