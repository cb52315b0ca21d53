import itertools
import json
import os
import random

import pytest

import oracles

from afrob import (
    ArgumentationFramework,
    RobustnessResult,
    Semantics,
    SizeLimit,
    UnknownArgument,
    UnsupportedSemantics,
    Verdict,
    classify_attack,
    invariant_attacks,
    robustness_degree,
)
from afrob.framework import Attack
from afrob.oracle import canonical_names, framework_from_mask
import afrob.semantics
from afrob import invariance, robustness
from afrob.robustness import _State
from afrob.semantics import _enumerate
from conftest import clear_caches
from oracles import candidate_attacks, oracle_invariant, verify_witness


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
    # refused before any work, even with no step to replay
    with pytest.raises(UnsupportedSemantics):
        verify_witness(g3, Semantics.COMPLETE, [])
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


@pytest.mark.parametrize("semantics", [Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE])
def test_max_steps_is_an_integer(g3, semantics):
    # the cap is compared exactly with a state's depth, so a float cap
    # would never bind; True is the integer 1, and the degree an int
    for refused in (2.5, "2"):
        with pytest.raises(TypeError):
            robustness_degree(g3, semantics, max_steps=refused)
    result = robustness_degree(g3, semantics, max_steps=True)
    assert result == robustness_degree(g3, semantics, max_steps=1)
    assert type(result.degree) is int


def test_verify_witness_examples(g3):
    assert verify_witness(g3, Semantics.CONFLICT_FREE, [("2", "1"), ("3", "2")])
    assert not verify_witness(g3, Semantics.ADMISSIBLE, [("1", "4")])
    assert verify_witness(g3, Semantics.CONFLICT_FREE, [])
    with pytest.raises(UnknownArgument):
        verify_witness(g3, Semantics.CONFLICT_FREE, [("1", "z")])


def test_verify_witness_rejects_steps_that_add_nothing(g3):
    # re-adding an attack classifies invariant but is no expansion
    assert not verify_witness(g3, Semantics.CONFLICT_FREE, [("2", "1"), ("2", "1")])
    assert not verify_witness(g3, Semantics.ADMISSIBLE, [("1", "2")] * 3)
    assert not verify_witness(g3, Semantics.CONFLICT_FREE, [("1", "2")])
    assert verify_witness(g3, Semantics.CONFLICT_FREE, [("2", "1")])


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


def _reference_exhaustive(af, semantics, max_steps, paranoid=False):
    memo = {}
    truncated = False

    def search(current):
        nonlocal truncated
        if current.attacks not in memo:
            candidates = _fresh_candidates(current, semantics, paranoid)
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


def test_greedy_is_the_greedy_loop_on_every_three_argument_framework():
    names = canonical_names(3)
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            for paranoid in (False, True):
                for max_steps in (None, 0, 1, 2):
                    expected = oracles.greedy_robustness(af, semantics, paranoid, max_steps)
                    found = robustness_degree(
                        af, semantics, strategy="greedy", max_steps=max_steps, paranoid=paranoid
                    )
                    assert found == expected, (mask, semantics, paranoid, max_steps)


def _self_attackers(count):
    names = [f"s{i:02d}" for i in range(1, count + 1)]
    return names, ArgumentationFramework(names, [(x, x) for x in names])


@pytest.mark.parametrize("paranoid", [False, True])
def test_greedy_adm_search_adds_every_absent_attack_among_self_attackers(paranoid):
    # every absent attack among self-attackers is invariant, so the greedy
    # path is all n(n - 1) of them in canonical order: 380 steps on 20
    names, af = _self_attackers(20)
    result = robustness_degree(af, Semantics.ADMISSIBLE, strategy="greedy", paranoid=paranoid)
    steps = tuple(Attack(x, y) for x in names for y in names if x != y)
    assert result == RobustnessResult(380, steps, 381, "greedy", False)
    assert result.witness[:2] == (Attack("s01", "s02"), Attack("s01", "s03"))
    assert result.witness[-1] == Attack("s20", "s19")


def test_a_search_path_deeper_than_the_recursion_limit(monkeypatch):
    # 40 self-attackers, past the enumeration limit, make a greedy path of
    # 1,560 steps: the search holds its path in a list, not in call frames
    monkeypatch.setattr(afrob.semantics, "MAX_ENUMERATION_ARGUMENTS", 40)
    _, af = _self_attackers(40)
    result = robustness_degree(af, Semantics.ADMISSIBLE, strategy="greedy")
    assert (result.degree, result.explored_states, result.truncated) == (1560, 1561, False)
    assert result.witness[-1] == Attack("s40", "s39")


def _chain():
    # a1 -> a2 on three arguments: its exhaustive adm search explores 8 states
    return ArgumentationFramework(canonical_names(3), [("a1", "a2")])


def test_exhaustive_search_builds_each_state_once(monkeypatch, g3):
    # a successor already in the memo is looked up, not derived again, and
    # a child's rows are built only by _State.child (its targets and its
    # attackers), never to key the memo, and its reach pair by one update;
    # cf is answered in closed form and derives no state at all
    built = []
    rows_built = []
    reach_built = []
    child = _State.child
    with_attack = invariance._with_attack
    reach_with = invariance._reach_with

    def counting_child(self, a, b):
        built.append((a, b))
        return child(self, a, b)

    def counting_with_attack(rows, a, b):
        rows_built.append((a, b))
        return with_attack(rows, a, b)

    def counting_reach_with(odd, even, a, b):
        reach_built.append((a, b))
        return reach_with(odd, even, a, b)

    monkeypatch.setattr(_State, "child", counting_child)
    monkeypatch.setattr(invariance, "_with_attack", counting_with_attack)
    monkeypatch.setattr(robustness, "_with_attack", counting_with_attack, raising=False)
    monkeypatch.setattr(invariance, "_reach_with", counting_reach_with)
    for af in [_chain(), g3] + _random_frameworks(20, seed=29):
        built.clear()
        rows_built.clear()
        reach_built.clear()
        result = robustness_degree(af, Semantics.ADMISSIBLE)
        assert len(built) == result.explored_states - 1, af
        assert len(rows_built) == 2 * len(built), af
        assert reach_built == built, af
    built.clear()
    assert robustness_degree(g3, Semantics.CONFLICT_FREE).explored_states == 4
    assert built == []


def test_paranoid_search_passes_over_the_admissible_sets_once_per_state(monkeypatch, g3):
    # the rule rows and Dung's delta share one pass over a state's
    # admissible sets, so a paranoid search reads each state's sets once;
    # the root state is the cached record's, so each search starts cold
    reads = []
    adm = _State.adm.fget

    def counting_adm(state):
        reads.append(state.targets)
        return adm(state)

    monkeypatch.setattr(_State, "adm", property(counting_adm))
    for af in [_chain(), g3] + _random_frameworks(20, seed=31):
        for strategy in ("greedy", "exhaustive"):
            clear_caches()
            reads.clear()
            result = robustness_degree(af, Semantics.ADMISSIBLE, strategy=strategy, paranoid=True)
            assert len(reads) == len(set(reads)) == result.explored_states, (af, strategy)


def test_exhaustive_search_builds_no_framework_through_init(monkeypatch, g3):
    # every state after the root comes from _State.child, which derives it
    # from its parent's bit rows instead of constructing a framework
    constructed = []
    init = ArgumentationFramework.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        init(self, *args, **kwargs)

    cases = [
        (af, semantics)
        for af in [g3] + _random_frameworks(20, seed=29)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE)
    ]
    monkeypatch.setattr(ArgumentationFramework, "__init__", counting_init)
    for af, semantics in cases:
        constructed.clear()
        result = robustness_degree(af, semantics)
        assert constructed == [], (af, semantics, result.explored_states)


def test_capped_exhaustive_search_matches_per_candidate_classification():
    # the reference classifies every state at the cap; the search stops
    # classifying them once one has a candidate and the flag is set (nine
    # steps never bind on three arguments).  Every three-argument relation
    # at caps 0 and 1, every eighth at 2 and 9, and seeded four-argument
    # adm searches at 1-3 keep the per-candidate reference quick.
    # Under paranoid the reference recomputes every candidate, where the
    # search masks the rule rows with Dung's delta.
    names = canonical_names(3)
    cases = [
        (framework_from_mask(names, mask), semantics, max_steps)
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE)
        for mask in range(1 << 9)
        for max_steps in ((0, 1, 2, 9) if mask % 8 == 0 else (0, 1))
    ]
    rng = random.Random(47)
    seeded = [framework_from_mask(canonical_names(4), rng.getrandbits(16)) for _ in range(20)]
    cases += [(af, Semantics.ADMISSIBLE, max_steps) for af in seeded for max_steps in (1, 2, 3)]
    for af, semantics, max_steps in cases:
        for paranoid in (False, True):
            expected = _reference_exhaustive(af, semantics, max_steps, paranoid)
            found = robustness_degree(af, semantics, max_steps=max_steps, paranoid=paranoid)
            assert found == expected, (af, semantics, paranoid, max_steps)


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
            expected = len(invariant_attacks(af, Semantics.CONFLICT_FREE))
            assert robustness_degree(af, Semantics.CONFLICT_FREE).degree == expected
    for af in _random_frameworks(30, seed=13, max_args=4):
        expected = len(invariant_attacks(af, Semantics.CONFLICT_FREE))
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


def _golden_cases():
    with open(os.path.join(os.path.dirname(__file__), "data", "robustness_golden.json")) as handle:
        return json.load(handle)


def _golden_search(case):
    """The recorded case's search, run again, and its recorded result."""
    af = ArgumentationFramework(case["arguments"], map(tuple, case["attacks"]))
    result = robustness_degree(
        af,
        case["semantics"],
        strategy=case["strategy"],
        max_steps=case["max_steps"],
        paranoid=case["paranoid"],
    )
    expected = RobustnessResult(
        case["degree"],
        tuple(Attack(*attack) for attack in case["witness"]),
        case["explored_states"],
        case["strategy"],
        case["truncated"],
    )
    return result, expected


def test_seeded_searches_match_the_recorded_goldens():
    # recorded before search states were derived from their parents: seeded
    # four- and five-argument frameworks under cf and adm, exhaustive and
    # greedy, with and without paranoid, uncapped and capped
    for case in _golden_cases():
        result, expected = _golden_search(case)
        assert result == expected, case


def test_capped_search_stops_classifying_at_the_cap_once_truncated(monkeypatch):
    # a state at the cap can only set the truncated flag, so once one state
    # there has a candidate, no further state at the cap is built or
    # classified; recorded as (kind, depth, whether it has a candidate)
    events = []
    classify, child = _State.invariant_rows, _State.child

    def depth(state):
        # each step adds one absent attack to the root's relation
        return sum(row.bit_count() for row in state.targets) - root_attacks

    def recording_rows(self, semantics):
        # the search's candidates: under paranoid, masked by Dung's delta
        rows = candidates = classify(self, semantics)
        if case["paranoid"]:
            changed_rows = self.changed_rows(semantics)
            candidates = [row & ~changed for row, changed in zip(rows, changed_rows)]
        events.append(("classified", depth(self), any(candidates)))
        return rows

    def recording_child(self, a, b):
        events.append(("built", depth(self) + 1, False))
        return child(self, a, b)

    monkeypatch.setattr(_State, "invariant_rows", recording_rows)
    monkeypatch.setattr(_State, "child", recording_child)
    cases = [
        case
        for case in _golden_cases()
        if case["semantics"] == "adm"
        and case["strategy"] == "exhaustive"
        and case["max_steps"] is not None
    ]
    assert len(cases) == 60
    for case in cases:
        events.clear()
        root_attacks = len(set(map(tuple, case["attacks"])))
        result, expected = _golden_search(case)
        assert result == expected, case
        cap = case["max_steps"]
        assert all(d <= cap for _, d, _ in events), case
        at_cap = [(kind, found) for kind, d, found in events if d == cap]
        setting = [i for i, (kind, found) in enumerate(at_cap) if kind == "classified" and found]
        assert setting == ([len(at_cap) - 1] if case["truncated"] else []), case


def _states_agree(derived, built):
    assert derived.targets == built.targets
    assert derived.attackers == built.attackers
    assert derived.cf == built.cf  # with each set's targets and attackers
    assert derived.adm == built.adm  # with each set's targets and attackers
    assert derived.adm_rows == built.adm_rows
    assert derived.reach == built.reach


def test_derived_states_equal_a_rebuild():
    # every relation on three arguments (self-attacks included) and seeded
    # ones on six: the child a state derives for each absent attack has the
    # tables a root built from the expanded framework has
    frameworks = [framework_from_mask(canonical_names(3), m) for m in range(1 << 9)]
    rng = random.Random(41)
    frameworks += [framework_from_mask(canonical_names(6), rng.getrandbits(36)) for _ in range(300)]
    for af in frameworks:
        root = _State(*af.bit_rows)
        enum = _enumerate(af)
        assert [m for m, _, _ in root.cf] == list(enum.cf)
        assert [m for m, _, _ in root.adm] == list(enum.adm)
        for attack in candidate_attacks(af):
            a, b = af._index(attack.source), af._index(attack.target)
            built = _State(*af.add_attack(*attack).bit_rows)
            _states_agree(root.child(a, b), built)


def test_derived_states_equal_a_rebuild_along_a_search_path():
    # a grandchild derives from tables that were derived themselves
    rng = random.Random(43)
    for _ in range(100):
        af = framework_from_mask(canonical_names(5), rng.getrandbits(25) & rng.getrandbits(25))
        state = _State(*af.bit_rows)
        for attack in rng.sample(candidate_attacks(af), 4):
            af = af.add_attack(*attack)
            state = state.child(af._index(attack.source), af._index(attack.target))
            _states_agree(state, _State(*af.bit_rows))


def test_a_search_builds_the_conflict_free_sets_and_reach_tables_once(monkeypatch):
    # every child is handed its cf and reach, so only the root enumerates the
    # conflict-free sets and runs the odd-walk fixpoint, however many states
    # the search builds
    calls = {"_conflict_free": 0, "_odd_closure": 0}
    for name in calls:
        original = getattr(invariance, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(invariance, name, counting)
    af = framework_from_mask(canonical_names(5), random.Random(7).getrandbits(25))
    # uncapped, every state after the root is a built child
    assert robustness_degree(af, Semantics.ADMISSIBLE).explored_states > 100
    assert calls == {"_conflict_free": 1, "_odd_closure": 1}


def test_search_state_budget(monkeypatch):
    # the chain's adm search explores eight states: a budget of eight
    # admits it, seven stops it with the size-limit error
    monkeypatch.setattr(robustness, "MAX_SEARCH_STATES", 8)
    assert robustness_degree(_chain(), Semantics.ADMISSIBLE).explored_states == 8
    monkeypatch.setattr(robustness, "MAX_SEARCH_STATES", 7)
    with pytest.raises(SizeLimit):
        robustness_degree(_chain(), Semantics.ADMISSIBLE)


def test_cf_closed_form_on_the_seven_argument_tournament(monkeypatch):
    # a_i -> a_j for i < j leaves the 21 reverse attacks cf-invariant; an
    # exhaustive search over their 2^21 subsets would exceed the budget
    names = canonical_names(7)
    tournament = ArgumentationFramework(names, itertools.combinations(names, 2))
    reverse = tuple(Attack(b, a) for b in names for a in names if a < b)
    expected = RobustnessResult(21, reverse, 2**21, "exhaustive", False)
    assert robustness_degree(tournament, Semantics.CONFLICT_FREE) == expected
    monkeypatch.setattr(robustness, "MAX_SEARCH_STATES", 1)
    assert robustness_degree(tournament, Semantics.CONFLICT_FREE, paranoid=True) == expected
    greedy = robustness_degree(tournament, Semantics.CONFLICT_FREE, strategy="greedy")
    assert greedy == RobustnessResult(21, reverse, 22, "greedy", False)
    capped = robustness_degree(tournament, Semantics.CONFLICT_FREE, max_steps=3)
    assert capped == RobustnessResult(3, reverse[:3], 1 + 21 + 210 + 1330, "exhaustive", True)


def test_cf_closed_form_matches_a_definitional_search_on_every_small_relation():
    # conflict-freeness recomputed before and after every step of every chain
    for n in (1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            for max_steps in (None, 0, 1, 2):
                expected = oracles.cf_robustness(af.arguments, af.attacks, max_steps)
                result = robustness_degree(af, Semantics.CONFLICT_FREE, max_steps=max_steps)
                found = (result.degree, result.witness, result.explored_states, result.truncated)
                assert found == expected, (mask, max_steps)
