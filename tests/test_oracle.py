import random
import tracemalloc

import pytest

import afrob.invariance
import afrob.oracle
import afrob.semantics
from afrob import (
    ArgumentationFramework,
    SizeLimit,
    Semantics,
    Verdict,
    classify_attack,
    cross_validate,
    exhaustive_audit,
    extension_difference,
    extension_masks,
    extensions,
    robustness_degree,
)
from afrob.framework import Attack
from afrob.invariance import _State
from afrob.oracle import NO_RULE_FIRED, canonical_names, framework_from_mask
from oracles import candidate_attacks, extension_changes, oracle_invariant, sigma_equivalent


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


def test_mask_level_checks_match_name_level_extension_sets():
    # oracle_invariant and sigma_equivalent compare mask tuples; here they
    # must agree with equality of the decoded extension sets, and the
    # lost/gained sets with their set differences, for every semantics on
    # every candidate of every three-argument framework
    names = canonical_names(3)
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        for attack in candidate_attacks(af):
            expanded = af.add_attack(*attack)
            for semantics in Semantics:
                before = extensions(af, semantics)
                after = extensions(expanded, semantics)
                assert oracle_invariant(af, attack, semantics) == (before == after)
                assert sigma_equivalent(af, expanded, semantics) == (before == after)
                assert extension_changes(af, attack, semantics) == (before - after, after - before)
                # the masks themselves: filters of the enumerated tuples, in
                # canonical order
                masks = extension_masks(af, semantics)
                expanded_masks = extension_masks(expanded, semantics)
                assert extension_difference(af, expanded, semantics) == (
                    tuple(m for m in masks if m not in expanded_masks),
                    tuple(m for m in expanded_masks if m not in masks),
                )


def _assert_delta_is_recomputation(af):
    # every ordered pair, present attacks and self-attacks included: the
    # candidates the delta marks changed, and per candidate the extensions
    # it loses and gains, read off one state
    names = af.sorted_arguments
    state = _State(*af.bit_rows)
    for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        changed = state.changed_rows(semantics)
        assert len(changed) == len(names)
        for a, source in enumerate(names):
            for b, target in enumerate(names):
                invariant = oracle_invariant(af, (source, target), semantics)
                assert invariant == (not changed[a] >> b & 1), (af, source, target, semantics)
                lost, gained = state.changes(a, b, semantics)
                decoded = frozenset(map(af._names, lost)), frozenset(map(af._names, gained))
                expected = extension_changes(af, (source, target), semantics)
                assert decoded == expected, (af, source, target, semantics)


def test_delta_matches_recomputation_on_every_small_relation():
    for n in range(4):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            _assert_delta_is_recomputation(framework_from_mask(names, mask))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_delta_matches_recomputation_on_seeded_relations(n):
    rng = random.Random(n)
    names = canonical_names(n)
    for p in (0.1, 0.25, 0.5):
        for _ in range(50):
            attacks = [(s, t) for s in names for t in names if rng.random() < p]
            _assert_delta_is_recomputation(ArgumentationFramework(names, attacks))


def test_delta_rejects_other_semantics(g3):
    with pytest.raises(afrob.UnsupportedSemantics):
        cross_validate(g3, Semantics.COMPLETE)
    # refused before any work, even with no framework to audit
    with pytest.raises(afrob.UnsupportedSemantics):
        exhaustive_audit(4, Semantics.COMPLETE, samples=0)


def test_audit_adds_and_enumerates_nothing(monkeypatch):
    # one state per framework decides every candidate by the rules and by
    # the delta, and gives each of the 324 disagreements of the n=3 adm
    # ledger its rules and changed extensions on argument indices: no
    # framework is expanded or enumerated, no candidate classified, and no
    # name looked up or extension decoded
    calls = {"add_attack": 0, "_enumerate": 0, "_classify": 0, "_index": 0, "_names": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner, name in [
        (ArgumentationFramework, "add_attack"),
        (ArgumentationFramework, "_index"),
        (ArgumentationFramework, "_names"),
        (afrob.semantics, "_enumerate"),
        (afrob.invariance, "_classify"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    # a binding of its own in the oracle module would be counted too
    monkeypatch.setattr(afrob.oracle, "_classify", afrob.invariance._classify, raising=False)
    cf = exhaustive_audit(3, Semantics.CONFLICT_FREE)
    assert (cf.candidates_checked, len(cf.discrepancies)) == (2304, 0)
    adm = exhaustive_audit(3, Semantics.ADMISSIBLE)
    assert (adm.candidates_checked, len(adm.discrepancies)) == (2304, 324)
    assert calls == {"add_attack": 0, "_enumerate": 0, "_classify": 0, "_index": 0, "_names": 0}


def test_oracle_invariant_enumerates_the_framework_once(monkeypatch):
    # the record cache holds a framework and the one it is compared with,
    # so comparing every expansion with one framework runs its pass once
    af = framework_from_mask(canonical_names(4), 0x1234)
    passes = []
    conflict_free = afrob.semantics._conflict_free

    def counted(targets, *rest):
        passes.append(targets)
        return conflict_free(targets, *rest)

    afrob.semantics._enumerate.cache_clear()
    monkeypatch.setattr(afrob.semantics, "_conflict_free", counted)
    candidates = candidate_attacks(af)
    for attack in candidates:
        oracle_invariant(af, attack, Semantics.ADMISSIBLE)
    assert passes.count(af.target_rows) == 1
    assert len(passes) == len(candidates) + 1


def test_sampled_audit_memory_does_not_grow_with_the_sample_count(monkeypatch):
    # each sample is drawn as it is checked; the stub leaves only the audit's
    # own bookkeeping, which drawing every mask first grows to megabytes
    monkeypatch.setattr(afrob.oracle, "cross_validate", lambda af, semantics: [])
    tracemalloc.start()
    try:
        report = exhaustive_audit(4, "cf", samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.frameworks_checked == 100_000
    assert peak < 1_000_000


def test_audit_checks_the_enumeration_limit_first():
    with pytest.raises(SizeLimit, match="enumeration limit of 20"):
        exhaustive_audit(2000, Semantics.ADMISSIBLE)


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
        decode = discrepancy.framework._names
        assert (lost, gained) == (
            frozenset(map(decode, discrepancy.lost)), frozenset(map(decode, discrepancy.gained))
        )
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
    # each disagreement carries the rules (distinct, in witness order) and
    # the verdict of classifying its candidate on its own
    for report in adm.discrepancies:
        classification = classify_attack(report.framework, report.attack, Semantics.ADMISSIBLE)
        rules = tuple(dict.fromkeys(w.rule for w in classification.witnesses))
        assert (report.rules, report.predicate_verdict) == (rules, classification.verdict)
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


def test_framework_from_mask_round_trip():
    names = canonical_names(3)
    af = framework_from_mask(names, 0b101)
    assert af.arguments == frozenset(names)
    assert af.attacks == frozenset({Attack("a1", "a1"), Attack("a1", "a3")})


def test_framework_from_mask_equals_the_name_level_decoder():
    # from n = 10 on the canonical order is not the index order (a10 sorts
    # before a2), so the row slices must be permuted
    rng = random.Random(0)
    for n in range(13):
        names = canonical_names(n)
        for _ in range(50):
            mask = rng.getrandbits(n * n)
            attacks = [(names[k // n], names[k % n]) for k in range(n * n) if mask >> k & 1]
            assert framework_from_mask(names, mask) == ArgumentationFramework(names, attacks)
    # bit a*n + b is (names[a], names[b]) in the order given, not the sorted one
    mask = 1 << 0 * 3 + 1 | 1 << 1 * 3 + 0 | 1 << 2 * 3 + 0
    assert framework_from_mask(["b", "c", "a"], mask).attacks == {
        ("b", "c"),
        ("c", "b"),
        ("a", "b"),
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda g3: exhaustive_audit(-1, Semantics.ADMISSIBLE),
        lambda g3: exhaustive_audit(4, Semantics.ADMISSIBLE, samples=-1),
        lambda g3: robustness_degree(g3, Semantics.CONFLICT_FREE, max_steps=-1),
    ],
    ids=["audit-arguments", "audit-samples", "robustness-max-steps"],
)
def test_negative_counts_are_rejected(g3, call):
    with pytest.raises(ValueError):
        call(g3)
