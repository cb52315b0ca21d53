import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from afrob import ArgumentationFramework, Attack, UnknownArgument
from conftest import frameworks


def test_construction_validates_names():
    with pytest.raises(ValueError):
        ArgumentationFramework(["ok", "not ok"])
    with pytest.raises(ValueError):
        ArgumentationFramework([""])


def test_construction_validates_attack_endpoints():
    with pytest.raises(UnknownArgument):
        ArgumentationFramework(["a"], [("a", "b")])
    with pytest.raises(UnknownArgument):
        ArgumentationFramework(["b"], [("a", "b")])


def test_equality_is_insensitive_to_insertion_order():
    one = ArgumentationFramework(["a", "b", "c"], [("a", "b"), ("b", "c")])
    two = ArgumentationFramework(["c", "b", "a"], [("b", "c"), ("a", "b")])
    assert one == two
    assert hash(one) == hash(two)


def test_value_equality_distinguishes_attack_sets():
    one = ArgumentationFramework(["a", "b"], [("a", "b")])
    two = ArgumentationFramework(["a", "b"], [("b", "a")])
    assert one != two


def test_add_attack_unions(mutual):
    base = ArgumentationFramework(["a", "b"], [("a", "b")])
    assert base.add_attack("b", "a") == mutual


def test_add_attack_is_idempotent():
    base = ArgumentationFramework(["a", "b"], [("a", "b")])
    assert base.add_attack("a", "b") == base


def test_add_attack_leaves_original_unmodified(g3):
    expanded = g3.add_attack("1", "4")
    assert expanded.attacks == g3.attacks | {Attack("1", "4")}
    assert g3.attacks == frozenset({Attack("1", "2"), Attack("2", "3")})


def test_add_attack_rejects_unknown_endpoints(g3):
    with pytest.raises(UnknownArgument):
        g3.add_attack("1", "z")
    with pytest.raises(UnknownArgument):
        g3.add_attack("z", "1")


def test_attackers(g3):
    assert g3.attackers("3") == {"2"}
    assert g3.attackers("1") == frozenset()
    assert g3.attackers("2") == {"1"}
    with pytest.raises(UnknownArgument):
        g3.attackers("z")


def test_set_attacks(g3):
    assert g3.set_attacks({"1"}, "2")
    assert not g3.set_attacks(set(), "2")
    assert not g3.set_attacks({"4"}, "3")
    with pytest.raises(UnknownArgument):
        g3.set_attacks({"z"}, "2")


def test_defends(g3):
    assert g3.defends({"1"}, "3")
    assert g3.defends(set(), "1")  # unattacked, vacuous
    assert g3.defends(set(), "4")
    assert not g3.defends(set(), "3")


def test_odd_walk_examples(g3, mutual, self_loop):
    assert g3.odd_walk_exists("1", "2")  # direct attack
    assert not g3.odd_walk_exists("1", "3")  # the only walk has length 2
    assert not g3.odd_walk_exists("2", "2")  # not on any cycle
    assert self_loop.odd_walk_exists("a", "a")
    assert mutual.odd_walk_exists("a", "b")
    assert not mutual.odd_walk_exists("a", "a")  # all closed walks are even
    with pytest.raises(UnknownArgument):
        g3.odd_walk_exists("1", "z")


def test_odd_walk_memo_stays_with_its_instance(g3):
    assert not g3.odd_walk_exists("1", "3")
    assert g3.odd_walk_exists("1", "2")
    # a self-loop on 2 opens the walk 1 -> 2 -> 2 -> 3 of length three
    looped = g3.add_attack("2", "2")
    assert looped.odd_walk_exists("1", "3")
    assert not g3.odd_walk_exists("1", "3")
    assert not looped.odd_walk_exists("3", "1")


@given(frameworks())
def test_add_attack_is_monotone(af):
    for source in af.sorted_arguments:
        for target in af.sorted_arguments:
            expanded = af.add_attack(source, target)
            assert expanded.attacks >= af.attacks
            assert len(expanded.attacks) - len(af.attacks) in (0, 1)


@given(frameworks(min_args=1), st.data())
def test_defends_is_monotone_in_the_set(af, data):
    names = sorted(af.arguments)
    smaller = data.draw(st.sets(st.sampled_from(names)))
    larger = smaller | data.draw(st.sets(st.sampled_from(names)))
    target = data.draw(st.sampled_from(names))
    if af.defends(smaller, target):
        assert af.defends(larger, target)


def _all_pairs_agree_with_enumeration(af):
    attacks = {(a.source, a.target) for a in af.attacks}
    bound = 2 * len(af.arguments)
    for source in af.sorted_arguments:
        for target in af.sorted_arguments:
            expected = oracles.odd_walk(attacks, source, target, bound)
            assert af.odd_walk_exists(source, target) == expected


def test_odd_walk_matches_enumeration_exhaustively():
    # all attack relations over three arguments
    names = ("x", "y", "z")
    pairs = [(s, t) for s in names for t in names]
    for mask in range(1 << 9):
        attacks = [pairs[k] for k in range(9) if (mask >> k) & 1]
        _all_pairs_agree_with_enumeration(ArgumentationFramework(names, attacks))


@given(frameworks())
def test_odd_walk_matches_enumeration(af):
    _all_pairs_agree_with_enumeration(af)


def test_odd_walk_matches_enumeration_on_five_arguments():
    import random

    rng = random.Random(23)
    names = tuple(f"n{i}" for i in range(5))
    pairs = [(s, t) for s in names for t in names]
    for _ in range(60):
        attacks = [p for p in pairs if rng.random() < 0.5]
        _all_pairs_agree_with_enumeration(ArgumentationFramework(names, attacks))
