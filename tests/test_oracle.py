from afrob import (
    ArgumentationFramework,
    Semantics,
    Verdict,
    cross_validate,
    exhaustive_audit,
    extension_changes,
    oracle_invariant,
)
from afrob.framework import Attack
from afrob.invariance import candidate_attacks
from afrob.oracle import NO_RULE_FIRED, canonical_names, framework_from_mask


def test_oracle_invariant_examples(g3):
    assert oracle_invariant(g3, ("2", "2"), Semantics.ADMISSIBLE)
    assert not oracle_invariant(g3, ("4", "2"), Semantics.ADMISSIBLE)
    assert oracle_invariant(g3, ("1", "2"), Semantics.ADMISSIBLE)  # already present
    assert oracle_invariant(g3, ("1", "2"), Semantics.CONFLICT_FREE)


def test_extension_changes(g3):
    lost, gained = extension_changes(g3, ("4", "2"), Semantics.ADMISSIBLE)
    assert frozenset({"3", "4"}) in gained
    assert lost == frozenset()
    lost, gained = extension_changes(g3, ("1", "4"), Semantics.CONFLICT_FREE)
    assert lost == frozenset({frozenset({"1", "4"}), frozenset({"1", "3", "4"})})
    assert gained == frozenset()


def test_candidate_attacks_excludes_existing(g3):
    candidates = candidate_attacks(g3)
    assert len(candidates) == 14
    assert Attack("1", "2") not in candidates
    assert Attack("2", "3") not in candidates
    assert candidates == sorted(candidates)


def test_cross_validate_g3_is_clean(g3):
    assert cross_validate(g3, Semantics.ADMISSIBLE) == []
    assert cross_validate(g3, Semantics.CONFLICT_FREE) == []


def test_cross_validate_empty_framework(empty_af):
    assert cross_validate(empty_af, Semantics.ADMISSIBLE) == []


def test_audit_one_argument_cf():
    report = exhaustive_audit(1, Semantics.CONFLICT_FREE)
    assert report.exhaustive
    assert report.frameworks_checked == 2
    assert report.candidates_checked == 1
    assert report.discrepancies == ()


def test_audit_two_arguments_adm_characterisation():
    # adjudication record: over the sixteen two-argument relations the rule
    # scan and the recomputation disagree on exactly four candidates, two
    # self-defense false alarms and two missed self-defense gains
    report = exhaustive_audit(2, Semantics.ADMISSIBLE)
    assert len(report.discrepancies) == 4
    assert report.by_rule() == {"NI-out-self-defense": 2, NO_RULE_FIRED: 2}
    for discrepancy in report.discrepancies:
        lost, gained = extension_changes(
            discrepancy.framework, discrepancy.attack, discrepancy.semantics
        )
        assert (lost, gained) == (discrepancy.lost, discrepancy.gained)
        assert discrepancy.oracle_verdict == (not lost and not gained)
        assert (discrepancy.predicate_verdict is Verdict.INVARIANT) != discrepancy.oracle_verdict


def test_audit_three_arguments_ledger():
    # the exhaustive n=3 ledger pins the gain-side (NI) rules: a rule that
    # fires more or less often than today moves these counts
    adm = exhaustive_audit(3, Semantics.ADMISSIBLE)
    assert (adm.frameworks_checked, adm.candidates_checked) == (512, 2304)
    assert len(adm.discrepancies) == 324
    assert adm.by_rule() == {
        "NI-in-out-reinstates": 6,
        "NI-in-undec-defends-undec": 6,
        "NI-out-self-defense": 174,
        NO_RULE_FIRED: 144,
    }
    cf = exhaustive_audit(3, Semantics.CONFLICT_FREE)
    assert (cf.frameworks_checked, cf.candidates_checked) == (512, 2304)
    assert cf.discrepancies == ()


def test_missed_gain_discrepancy_is_a_real_gain():
    # one of the two-argument misses: a1 attacks itself and a2, and the rule
    # scan cannot see that a2 could start defending itself
    af = ArgumentationFramework(["a1", "a2"], [("a1", "a1"), ("a1", "a2")])
    assert not oracle_invariant(af, ("a2", "a1"), Semantics.ADMISSIBLE)
    lost, gained = extension_changes(af, ("a2", "a1"), Semantics.ADMISSIBLE)
    assert gained == frozenset({frozenset({"a2"})})
    assert lost == frozenset()


def test_oracle_is_stable_under_renaming(g3):
    renamed = ArgumentationFramework(["p", "q", "r", "s"], [("p", "q"), ("q", "r")])
    mapping = {"1": "p", "2": "q", "3": "r", "4": "s"}
    for attack in candidate_attacks(g3):
        image = (mapping[attack.source], mapping[attack.target])
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            assert oracle_invariant(g3, attack, semantics) == oracle_invariant(
                renamed, image, semantics
            )


def test_audit_is_deterministic_for_a_seed():
    one = exhaustive_audit(4, Semantics.ADMISSIBLE, seed=3, samples=30)
    two = exhaustive_audit(4, Semantics.ADMISSIBLE, seed=3, samples=30)
    assert one == two
    assert not one.exhaustive
    assert one.seed == 3
    assert one.frameworks_checked == 30


def test_audit_with_worker_processes_matches_sequential():
    sequential = exhaustive_audit(2, Semantics.ADMISSIBLE, jobs=1)
    parallel = exhaustive_audit(2, Semantics.ADMISSIBLE, jobs=2)
    assert sequential == parallel


def test_framework_from_mask_round_trip():
    names = canonical_names(3)
    af = framework_from_mask(names, 0b101)
    assert af.arguments == frozenset(names)
    assert af.attacks == frozenset({Attack("a1", "a1"), Attack("a1", "a3")})
