import random

import oracles
import pytest
from hypothesis import given, settings

from afrob import (
    ArgumentationFramework,
    ArgumentSetMismatch,
    Rule,
    Semantics,
    SizeLimit,
    UnsupportedSemantics,
    Verdict,
    classify_attack,
    extensions,
    invariant_attacks,
)
from afrob.framework import Attack
from afrob.invariance import _DELETION_RULES, _State
from afrob.oracle import canonical_names, framework_from_mask
from afrob.semantics import _enumerate
from oracles import (
    candidate_attacks,
    extension_set_included,
    extension_sort_key,
    oracle_invariant,
    sigma_equivalent,
)
from conftest import frameworks


def sets(*members):
    return frozenset(frozenset(m) for m in members)


def _witnesses(af, attack, prefix):
    # the witnesses of the ND (deletion) or NI (gain) rules, in scan order
    found = classify_attack(af, attack, Semantics.ADMISSIBLE).witnesses
    return [w for w in found if w.rule.value.startswith(prefix)]


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
    families = [extensions(af, Semantics.CONFLICT_FREE) for af in (af1, af2, af3)]
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
    assert classify_attack(g3, ("2", "1"), Semantics.CONFLICT_FREE).verdict is Verdict.INVARIANT
    non_invariant = classify_attack(g3, ("1", "4"), Semantics.CONFLICT_FREE)
    assert non_invariant.verdict is Verdict.BREAKS_NON_DECREASING
    assert non_invariant.witnesses == (
        (frozenset({"1", "4"}), Rule.CF_NEVER_IN),
    )
    assert classify_attack(mutual, ("a", "b"), Semantics.CONFLICT_FREE).verdict is Verdict.INVARIANT


def test_classify_cf_invariant_verdicts_carry_no_witnesses(g3):
    assert classify_attack(g3, ("3", "2"), Semantics.CONFLICT_FREE).witnesses == ()


@settings(deadline=None, max_examples=60)
@given(frameworks())
def test_classify_cf_never_reports_gains(af):
    for attack in candidate_attacks(af):
        verdict = classify_attack(af, attack, Semantics.CONFLICT_FREE).verdict
        assert verdict in (Verdict.INVARIANT, Verdict.BREAKS_NON_DECREASING)


def test_classify_cf_matches_oracle_exhaustively():
    # two-argument sweep here; the three-argument sweep runs in acceptance
    names = canonical_names(2)
    for mask in range(1 << 4):
        af = framework_from_mask(names, mask)
        for attack in candidate_attacks(af):
            cf = Semantics.CONFLICT_FREE
            predicted = classify_attack(af, attack, cf).verdict is Verdict.INVARIANT
            assert predicted == oracle_invariant(af, attack, cf)


# --- admissible rule scans ---------------------------------------------------


def test_non_decreasing_violations_examples(g3):
    rules = {w.rule for w in _witnesses(g3, Attack("1", "4"), "ND")}
    assert Rule.ND_IN_IN in rules
    witnesses = _witnesses(g3, Attack("2", "4"), "ND")
    assert (frozenset({"1", "4"}), Rule.ND_OUT_IN_UNDEFENDED) in witnesses
    assert _witnesses(g3, Attack("2", "2"), "ND") == []


def test_non_increasing_violations_examples(g3):
    witnesses = _witnesses(g3, Attack("4", "2"), "NI")
    assert (frozenset({"1", "3", "4"}), Rule.NI_IN_OUT_REINSTATES) in witnesses
    self_defense = _witnesses(g3, Attack("2", "1"), "NI")
    assert {w.rule for w in self_defense} == {Rule.NI_OUT_SELF_DEFENSE}
    assert {w.in_set for w in self_defense} == {
        frozenset({"1"}),
        frozenset({"1", "3"}),
        frozenset({"1", "4"}),
        frozenset({"1", "3", "4"}),
    }
    assert _witnesses(g3, Attack("2", "2"), "NI") == []


def test_classify_adm_worked_example(g3):
    byattack = {
        ("1", "4"): (Verdict.BREAKS_NON_DECREASING, Rule.ND_IN_IN),
        ("4", "2"): (Verdict.BREAKS_NON_INCREASING, Rule.NI_IN_OUT_REINSTATES),
        ("2", "4"): (Verdict.BREAKS_NON_DECREASING, Rule.ND_OUT_IN_UNDEFENDED),
        ("2", "1"): (Verdict.BREAKS_NON_INCREASING, Rule.NI_OUT_SELF_DEFENSE),
    }
    for attack, (verdict, rule) in byattack.items():
        classification = classify_attack(g3, attack, Semantics.ADMISSIBLE)
        assert classification.verdict is verdict, attack
        assert rule in {w.rule for w in classification.witnesses}, attack


def test_classify_adm_invariant_example(g3):
    classification = classify_attack(g3, ("2", "2"), Semantics.ADMISSIBLE)
    assert classification.verdict is Verdict.INVARIANT
    assert classification.witnesses == ()


def test_classify_adm_can_break_both(g3):
    # (3,1) deletes {1,3} and also matches a gain rule
    classification = classify_attack(g3, ("3", "1"), Semantics.ADMISSIBLE)
    assert classification.verdict is Verdict.BREAKS_BOTH
    rules = {w.rule for w in classification.witnesses}
    assert Rule.ND_IN_IN in rules
    assert Rule.NI_IN_IN_DEFENDS in rules


def test_classify_existing_attack_is_invariant(g3):
    assert classify_attack(g3, ("1", "2"), Semantics.ADMISSIBLE).verdict is Verdict.INVARIANT
    assert classify_attack(g3, ("1", "2"), Semantics.CONFLICT_FREE).verdict is Verdict.INVARIANT


def test_classify_attack_dispatch(g3):
    assert classify_attack(g3, ("2", "2"), "adm").verdict is Verdict.INVARIANT
    assert classify_attack(g3, ("2", "1"), "cf").verdict is Verdict.INVARIANT
    with pytest.raises(UnsupportedSemantics):
        classify_attack(g3, ("2", "2"), Semantics.STABLE)


def test_preferred_only_is_refused_for_cf(g3):
    # cf has no labellings to restrict, so the flag would be silently ignored
    with pytest.raises(UnsupportedSemantics, match="preferred-only"):
        classify_attack(g3, ("2", "1"), Semantics.CONFLICT_FREE, preferred_only=True)


def test_preferred_only_size_limit_names_every_argument():
    # the preferred sets read only the 22-argument core, the scan all 25
    pairs = [(f"p{i}", f"q{i}") for i in range(11)]
    names = [x for pair in pairs for x in pair] + ["r0", "r1", "r2"]
    af = ArgumentationFramework(names, pairs + [(q, p) for p, q in pairs])
    with pytest.raises(SizeLimit, match="^25 arguments exceed"):
        classify_attack(af, ("r0", "r1"), Semantics.ADMISSIBLE, preferred_only=True)


def test_preferred_only_agrees_on_small_frameworks():
    # exhaustive: no verdict differences for up to three arguments
    for n in (1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            for attack in candidate_attacks(af):
                full = classify_attack(af, attack, Semantics.ADMISSIBLE)
                pruned = classify_attack(af, attack, Semantics.ADMISSIBLE, preferred_only=True)
                assert full.verdict == pruned.verdict, (af, attack)


def test_preferred_only_diverges_on_a_known_four_argument_case():
    # characterisation: restricting the scan to maximal-in labellings can
    # miss a deletion that only a smaller extension's labelling reveals
    af = ArgumentationFramework(
        ["1", "2", "3", "4"],
        [("1", "1"), ("3", "2"), ("2", "3"), ("4", "1")],
    )
    attack = ("1", "2")
    full = classify_attack(af, attack, Semantics.ADMISSIBLE)
    pruned = classify_attack(af, attack, Semantics.ADMISSIBLE, preferred_only=True)
    assert full.verdict is Verdict.BREAKS_NON_DECREASING
    assert pruned.verdict is Verdict.INVARIANT
    assert not oracle_invariant(af, attack, Semantics.ADMISSIBLE)


def _rule_scan_population():
    # every framework on up to three arguments, plus seeded samples on four
    # and five arguments (each pair attacked with probability one half)
    for n in (0, 1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            yield framework_from_mask(names, mask)
    rng = random.Random(11)
    for n, count in ((4, 300), (5, 100)):
        names = canonical_names(n)
        for _ in range(count):
            yield framework_from_mask(names, rng.getrandbits(n * n))


def test_rule_scan_matches_the_name_level_reference():
    # pins every rule, the NI (gain) rules included, witness by witness and
    # in order, under the full scan and under preferred_only
    for af in _rule_scan_population():
        args = af.arguments
        attacks = {tuple(attack) for attack in af.attacks}
        families = {
            False: oracles.admissible(args, attacks),
            True: oracles.preferred(args, attacks),
        }
        for attack in candidate_attacks(af):
            for preferred_only, family in families.items():
                found = classify_attack(af, attack, Semantics.ADMISSIBLE, preferred_only)
                witnesses = tuple((w.in_set, w.rule.value) for w in found.witnesses)
                expected = oracles.rule_scan(args, attacks, family, tuple(attack))
                assert (found.verdict.value, witnesses) == expected, (af, attack, preferred_only)


def _witness_population():
    # every relation on up to three arguments, and 3,000 seeded ones on four
    # to seven, each with its root state and its preferred sets
    relations = [(n, mask) for n in range(4) for mask in range(1 << n * n)]
    rng = random.Random(29)
    relations += [(n, rng.getrandbits(n * n)) for n in (4, 5, 6, 7) for _ in range(750)]
    for n, mask in relations:
        af = framework_from_mask(canonical_names(n), mask)
        record = _enumerate(af)
        yield af, record.state, frozenset(record.prf)


def test_witnesses_test_the_bit_the_rule_rows_hold():
    # the per-candidate bit tests give, witness by witness and in order, what
    # the rules' whole rows give (the row form in tests/oracles.py), for
    # every absent candidate, over every admissible set and the preferred ones
    calls = 0
    for af, state, preferred in _witness_population():
        for a, row in enumerate(state.targets):
            for b in range(len(state.targets)):
                if row >> b & 1:
                    continue
                for family in (None, preferred):
                    found = state.witnesses(a, b, Semantics.ADMISSIBLE, family)
                    assert found == oracles.rule_row_witnesses(state, a, b, family), (af, a, b)
                    calls += 1
    assert calls > 95_000


# --- invariant attack enumeration -------------------------------------------


def test_enumerate_invariant_attacks_examples(g3, mutual, empty_af):
    assert invariant_attacks(g3, Semantics.CONFLICT_FREE) == [Attack("2", "1"), Attack("3", "2")]
    assert invariant_attacks(mutual, Semantics.CONFLICT_FREE) == []
    assert invariant_attacks(empty_af, Semantics.ADMISSIBLE) == []
    assert invariant_attacks(g3, Semantics.ADMISSIBLE) == [Attack("2", "2")]
    with pytest.raises(UnsupportedSemantics):
        invariant_attacks(g3, Semantics.PREFERRED)


def test_shared_classifier_matches_per_candidate_classification_exhaustively():
    # the rule rows ORed over all admissible sets must give, in canonical
    # order, exactly what a fresh classification of each candidate gives:
    # on every relation of three arguments and on seeded ones of four to six
    rng = random.Random(11)
    population = [(3, mask) for mask in range(1 << 9)]
    for n, count in [(4, 300), (5, 100), (6, 100)]:
        population += [(n, rng.getrandbits(n * n)) for _ in range(count)]
    for n, mask in population:
        af = framework_from_mask(canonical_names(n), mask)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            fresh = [
                attack
                for attack in candidate_attacks(af)
                if classify_attack(af, attack, semantics).verdict is Verdict.INVARIANT
            ]
            assert list(invariant_attacks(af, semantics)) == fresh, (n, mask, semantics)


def test_enumerated_attacks_are_new(g3):
    for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        for attack in invariant_attacks(g3, semantics):
            assert attack not in g3.attacks


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_every_expansion_is_weakly_non_increasing_for_cf(af):
    before = extensions(af, Semantics.CONFLICT_FREE)
    for attack in candidate_attacks(af):
        after = extensions(af.add_attack(*attack), Semantics.CONFLICT_FREE)
        assert extension_set_included(after, before)


# --- the adm rows of one state ------------------------------------------------


def _adm_row_population():
    # every relation on up to three arguments, and seeded sparse relations
    # on seven and eight arguments (the greedy robustness sizes), each root
    # followed by a chain of three derived states, each yielded with
    # whether it is derived
    rng = random.Random(23)
    roots = [
        framework_from_mask(canonical_names(n), m) for n in (1, 2, 3) for m in range(1 << n * n)
    ]
    for n in (7, 8):
        names = canonical_names(n)
        for k in range(20):
            pairs = rng.sample([(a, b) for a in names for b in names], (k % 3 + 1) * n // 2 + 1)
            roots.append(ArgumentationFramework(names, pairs))
    for af in roots:
        state = _State(*af.bit_rows)
        yield af, state, False
        for _ in range(3):
            candidates = candidate_attacks(af)
            if not candidates:
                break
            attack = rng.choice(candidates)
            af = af.add_attack(*attack)
            state = state.child(af._index(attack.source), af._index(attack.target))
            yield af, state, True


def test_adm_rows_of_a_state_match_the_definitional_references():
    # the all-candidates rows the robustness search reads, root and derived
    # alike: the invariant rows against the name-level rule scan, the loss
    # against Dung's, recomputed from the admissible sets, and the changed
    # rows against recomputation of both families
    derived = 0
    for af, state, is_derived in _adm_row_population():
        derived += is_derived
        args, names = af.arguments, af.sorted_arguments
        attacks = {tuple(attack) for attack in af.attacks}
        family = oracles.admissible(args, attacks)
        invariant = state.invariant_rows(Semantics.ADMISSIBLE)
        changed = state.changed_rows(Semantics.ADMISSIBLE)
        for a, source in enumerate(names):
            loss = set().union(
                *(s for s in family if not any((x, source) in attacks for x in s))
            )
            assert af._names(state.adm_rows[0][a]) == loss, (af, source)
            for b, target in enumerate(names):
                verdict, _ = oracles.rule_scan(args, attacks, family, (source, target))
                assert bool(invariant[a] >> b & 1) == (
                    verdict == "invariant" and (source, target) not in attacks
                ), (af, source, target)
                expected = not oracle_invariant(af, (source, target), Semantics.ADMISSIBLE)
                assert bool(changed[a] >> b & 1) == expected, (af, source, target)
    assert derived > 1000


def _assert_canonical(af, masks):
    keys = [extension_sort_key(af._names(m)) for m in masks]
    assert all(one < two for one, two in zip(keys, keys[1:])), (af, masks)


def test_every_family_and_state_list_comes_in_extension_sort_key_order():
    # every relation on up to three arguments, and seeded sparse ones on
    # five to eight, where ascending masks are not in canonical order
    # ({a1,a4} is a larger mask than {a2,a3}): the families, root and
    # derived state lists and witnesses are in that order as enumerated,
    # with no sort after the conflict-free pass
    rng = random.Random(5)
    frameworks = [
        framework_from_mask(canonical_names(n), m) for n in range(4) for m in range(1 << n * n)
    ]
    frameworks += [
        framework_from_mask(canonical_names(n), rng.getrandbits(n * n) & rng.getrandbits(n * n))
        for n in (5, 6, 7, 8)
        for _ in range(10)
    ]
    # every ND match before every NI match, each group in order
    kind = lambda w: w[1] not in _DELETION_RULES
    not_ascending = witnesses_not_ascending = 0
    for af in frameworks:
        key = lambda w: (kind(w), extension_sort_key(af._names(w[0])))
        enum = _enumerate(af)
        not_ascending += list(enum.cf) != sorted(enum.cf)
        for semantics in ("cf", "adm", "com", "stb", "prf", "sst"):
            _assert_canonical(af, getattr(enum, semantics))
        root = _State(*af.bit_rows)
        candidates = candidate_attacks(af)
        for attack in candidates if len(af.arguments) <= 3 else rng.sample(candidates, 8):
            child = root.child(af._index(attack.source), af._index(attack.target))
            for state in (root, child):
                _assert_canonical(af, [m for m, _, _ in state.cf])
                _assert_canonical(af, [m for m, _, _ in state.adm])
        n = len(af.arguments)
        for a in range(n):
            for b in range(n):
                # every admissible set, then the record's preferred ones
                for family in (None, frozenset(enum.prf)):
                    found = root.witnesses(a, b, Semantics.ADMISSIBLE, family)
                    assert found == sorted(found, key=key), (af, a, b, family)
                    witnesses_not_ascending += found != sorted(found, key=lambda w: (kind(w), w[0]))
    assert not_ascending > 20 and witnesses_not_ascending > 20


def test_each_conflict_free_triple_carries_its_set_targets_and_attackers():
    # every relation over at most three arguments and seeded ones over five
    # to eight: a root state's conflict-free list is the pass's triples, its
    # admissible list the triples whose set attacks each of its attackers,
    # and the record's cf and adm families are those lists' sets
    frameworks = [
        framework_from_mask(canonical_names(n), mask) for n in range(4) for mask in range(1 << n * n)
    ]
    rng = random.Random(38)
    frameworks += [
        framework_from_mask(canonical_names(n), rng.getrandbits(n * n) & rng.getrandbits(n * n))
        for n in (5, 6, 7, 8)
        for _ in range(10)
    ]
    for af in frameworks:
        n, rows = len(af.arguments), af.target_rows
        state = _State(*af.bit_rows)
        for m, h, t in state.cf:
            assert h == af.attacked_by(m), (af, m)
            attackers = {j for j in range(n) for i in range(n) if m >> i & rows[j] >> i & 1}
            assert t == sum(1 << j for j in attackers), (af, m)
        assert state.adm == [(m, h, t) for m, h, t in state.cf if t & ~h == 0], af
        enum = _enumerate(af)
        assert list(enum.cf) == [m for m, _, _ in state.cf], af
        assert list(enum.adm) == [m for m, _, _ in state.adm], af
