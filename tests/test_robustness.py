import random

import pytest

from afrob import (
    ArgumentationFramework,
    RobustnessResult,
    Semantics,
    UnknownArgument,
    UnsupportedSemantics,
    Verdict,
    classify_attack,
    enumerate_invariant_attacks,
    oracle_invariant,
    robustness_degree,
    verify_witness,
)
from afrob.framework import Attack
from afrob.invariance import candidate_attacks
from afrob.oracle import canonical_names, framework_from_mask


def test_golden_degrees(g3, mutual, empty_af):
    result = robustness_degree(g3, Semantics.CONFLICT_FREE)
    assert result.degree == 2
    assert set(result.witness) == {Attack("2", "1"), Attack("3", "2")}
    assert result.explored_states == 4
    assert robustness_degree(mutual, Semantics.CONFLICT_FREE).degree == 0
    assert robustness_degree(mutual, Semantics.ADMISSIBLE).degree == 0
    assert robustness_degree(empty_af, Semantics.ADMISSIBLE).degree == 0


def test_greedy_matches_on_goldens(g3, mutual):
    assert robustness_degree(g3, Semantics.CONFLICT_FREE, strategy="greedy").degree == 2
    assert robustness_degree(mutual, Semantics.CONFLICT_FREE, strategy="greedy").degree == 0


def test_strategy_and_semantics_validation(g3):
    with pytest.raises(UnsupportedSemantics):
        robustness_degree(g3, Semantics.STABLE)
    with pytest.raises(ValueError):
        robustness_degree(g3, Semantics.CONFLICT_FREE, strategy="magic")


def test_max_steps_flags_a_lower_bound(g3):
    capped = robustness_degree(g3, Semantics.CONFLICT_FREE, max_steps=1)
    assert capped.degree == 1
    assert capped.truncated
    assert robustness_degree(g3, Semantics.CONFLICT_FREE, max_steps=0).degree == 0
    uncapped = robustness_degree(g3, Semantics.CONFLICT_FREE, max_steps=5)
    assert uncapped.degree == 2
    assert not uncapped.truncated


def test_verify_witness_examples(g3):
    assert verify_witness(g3, Semantics.CONFLICT_FREE, [("2", "1"), ("3", "2")])
    assert not verify_witness(g3, Semantics.ADMISSIBLE, [("1", "4")])
    assert verify_witness(g3, Semantics.CONFLICT_FREE, [])
    with pytest.raises(UnknownArgument):
        verify_witness(g3, Semantics.CONFLICT_FREE, [("1", "z")])


def _random_frameworks(count, seed, max_args=4):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, max_args)
        cases.append(framework_from_mask(canonical_names(n), rng.getrandbits(n * n)))
    return cases


def _fresh_candidates(af, semantics, paranoid):
    # every candidate classified on its own, sharing nothing between them
    return [
        attack
        for attack in candidate_attacks(af)
        if classify_attack(af, attack, semantics).verdict is Verdict.INVARIANT
        and (not paranoid or oracle_invariant(af, attack, semantics))
    ]


def _reference_greedy(af, semantics, paranoid, max_steps=None):
    current, witness, truncated = af, [], False
    while True:
        candidates = _fresh_candidates(current, semantics, paranoid)
        if not candidates:
            break
        if max_steps is not None and len(witness) >= max_steps:
            truncated = True
            break
        current = current.add_attack(*candidates[0])
        witness.append(candidates[0])
    return RobustnessResult(len(witness), tuple(witness), len(witness) + 1, "greedy", truncated)


def _reference_exhaustive(af, semantics, max_steps):
    memo = {}
    truncated = False

    def search(current):
        nonlocal truncated
        if current.attacks not in memo:
            candidates = _fresh_candidates(current, semantics, False)
            best = (0, ())
            if len(current.attacks) - len(af.attacks) >= max_steps:
                truncated = truncated or bool(candidates)
            else:
                for attack in candidates:
                    degree, witness = search(current.add_attack(*attack))
                    if 1 + degree > best[0]:
                        best = (1 + degree, (attack,) + witness)
            memo[current.attacks] = best
        return memo[current.attacks]

    degree, witness = search(af)
    return RobustnessResult(degree, witness, len(memo), "exhaustive", truncated)


def test_lazy_greedy_takes_the_first_of_the_full_candidate_list():
    names = canonical_names(3)
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            for paranoid in (False, True):
                expected = _reference_greedy(af, semantics, paranoid)
                found = robustness_degree(af, semantics, strategy="greedy", paranoid=paranoid)
                assert found == expected, (mask, semantics, paranoid)
            capped = robustness_degree(af, semantics, strategy="greedy", max_steps=1)
            assert capped == _reference_greedy(af, semantics, False, max_steps=1)


def test_capped_exhaustive_search_matches_per_candidate_classification():
    # the depth cap only asks whether a candidate exists; every eighth
    # three-argument relation keeps the per-candidate reference quick
    names = canonical_names(3)
    for mask in range(0, 1 << 9, 8):
        af = framework_from_mask(names, mask)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            expected = _reference_exhaustive(af, semantics, max_steps=2)
            assert robustness_degree(af, semantics, max_steps=2) == expected, (mask, semantics)


def test_greedy_never_beats_exhaustive():
    for af in _random_frameworks(40, seed=11, max_args=3):
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            greedy = robustness_degree(af, semantics, strategy="greedy")
            exhaustive = robustness_degree(af, semantics)
            assert greedy.degree <= exhaustive.degree


def test_cf_degree_equals_the_initial_invariant_candidate_count():
    # invariant additions never change the conflict-free family or its
    # credulous in-set, so the candidate set is order-independent
    for n in (1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            expected = len(enumerate_invariant_attacks(af, Semantics.CONFLICT_FREE))
            assert robustness_degree(af, Semantics.CONFLICT_FREE).degree == expected
    for af in _random_frameworks(30, seed=13, max_args=4):
        expected = len(enumerate_invariant_attacks(af, Semantics.CONFLICT_FREE))
        assert robustness_degree(af, Semantics.CONFLICT_FREE).degree == expected


def test_witness_states_grow_strictly(g3):
    result = robustness_degree(g3, Semantics.CONFLICT_FREE)
    current = g3
    for attack in result.witness:
        expanded = current.add_attack(*attack)
        assert len(expanded.attacks) == len(current.attacks) + 1
        current = expanded


def test_replay_soundness_for_cf_searches():
    for af in _random_frameworks(60, seed=17):
        for strategy in ("exhaustive", "greedy"):
            result = robustness_degree(af, Semantics.CONFLICT_FREE, strategy=strategy)
            assert verify_witness(af, Semantics.CONFLICT_FREE, result.witness), (af, strategy)


def test_replay_soundness_for_paranoid_adm_searches():
    for af in _random_frameworks(40, seed=19):
        for strategy in ("exhaustive", "greedy"):
            result = robustness_degree(af, Semantics.ADMISSIBLE, strategy=strategy, paranoid=True)
            assert verify_witness(af, Semantics.ADMISSIBLE, result.witness), (af, strategy)


def test_plain_greedy_adm_can_emit_a_witness_replay_rejects():
    # characterisation of a known divergence: the rule scan admits steps the
    # recomputation refutes, so the greedy prefix ends at a different
    # extension set; the paranoid double-check closes the gap
    af = ArgumentationFramework(
        canonical_names(4),
        [
            ("a1", "a2"),
            ("a2", "a2"),
            ("a2", "a3"),
            ("a2", "a4"),
            ("a3", "a1"),
            ("a4", "a1"),
        ],
    )
    plain = robustness_degree(af, Semantics.ADMISSIBLE, strategy="greedy")
    assert not verify_witness(af, Semantics.ADMISSIBLE, plain.witness)
    paranoid = robustness_degree(af, Semantics.ADMISSIBLE, strategy="greedy", paranoid=True)
    assert verify_witness(af, Semantics.ADMISSIBLE, paranoid.witness)
