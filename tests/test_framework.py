import pytest
from hypothesis import given

import oracles
from afrob import ArgumentationFramework, Attack, Semantics, UnknownArgument, extension_masks
from afrob.framework import _bits
from afrob.invariance import _self_defense_row, _State
from afrob.semantics import _enumerate
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


@pytest.mark.parametrize("name", ["sorted_arguments", "target_rows", "added"])
def test_a_framework_refuses_assignment_and_deletion(name):
    af = ArgumentationFramework(["a", "b"], [("a", "b")])
    with pytest.raises(AttributeError):
        setattr(af, name, ())
    with pytest.raises(AttributeError):
        delattr(af, name)
    assert af == ArgumentationFramework(["a", "b"], [("a", "b")]) and not hasattr(af, "added")


def test_a_framework_is_a_value_but_not_a_tuple():
    af = ArgumentationFramework(["b", "a"], [("b", "a"), ("b", "b")])
    assert repr(af) == "ArgumentationFramework(sorted_arguments=('a', 'b'), target_rows=(0, 3))"
    pair = (af.sorted_arguments, af.target_rows)
    assert af != pair and pair != af
    # a framework built by adding attacks equals, and hashes as, the one
    # constructed whole, so either finds the other's dictionary entry
    built = ArgumentationFramework(["a", "b"]).add_attack("b", "b").add_attack("b", "a")
    assert built == af and hash(built) == hash(af)
    assert {af: 1}[built] == 1


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


def test_add_attack_agrees_with_construction_exhaustively():
    # _enumerate's cache is keyed on the framework, so a framework built by
    # add_attack must be equal, hash equal and answer alike to one built
    # from its names
    names = ("x", "y", "z")
    pairs = [(s, t) for s in names for t in names]
    for mask in range(1 << 9):
        af = ArgumentationFramework(names, [pairs[k] for k in range(9) if mask >> k & 1])
        for pair in pairs:
            expanded = af.add_attack(*pair)
            built = ArgumentationFramework(af.arguments, af.attacks | {pair})
            assert expanded == built and hash(expanded) == hash(built), (mask, pair)
            assert expanded.attacks == built.attacks
            assert expanded.bit_rows == built.bit_rows
            for semantics in Semantics:
                _enumerate.cache_clear()
                masks = extension_masks(expanded, semantics)
                _enumerate.cache_clear()
                assert masks == extension_masks(built, semantics), (mask, pair, semantics)


def test_add_attack_rejects_unknown_endpoints(g3):
    with pytest.raises(UnknownArgument):
        g3.add_attack("1", "z")
    with pytest.raises(UnknownArgument):
        g3.add_attack("z", "1")


def _odd_walk(state, af, source, target) -> bool:
    """Whether ``state``'s odd reach table has a walk of odd length from
    ``source`` to ``target`` of ``af``."""
    return state.reach[0][af._index(source)] >> af._index(target) & 1 == 1


def test_odd_walk_examples(g3, mutual, self_loop):
    g3_state = _State(*g3.bit_rows)
    assert _odd_walk(g3_state, g3, "1", "2")  # direct attack
    assert not _odd_walk(g3_state, g3, "1", "3")  # the only walk has length 2
    assert not _odd_walk(g3_state, g3, "2", "2")  # not on any cycle
    assert _odd_walk(_State(*self_loop.bit_rows), self_loop, "a", "a")
    mutual_state = _State(*mutual.bit_rows)
    assert _odd_walk(mutual_state, mutual, "a", "b")
    assert not _odd_walk(mutual_state, mutual, "a", "a")  # all closed walks are even


def test_odd_walk_memo_stays_with_its_instance(g3):
    state = _State(*g3.bit_rows)
    assert not _odd_walk(state, g3, "1", "3")
    assert _odd_walk(state, g3, "1", "2")
    # a self-loop on 2 opens the walk 1 -> 2 -> 2 -> 3 of length three; the
    # child derives its tables from its parent's and leaves them as they were
    looped = state.child(g3._index("2"), g3._index("2"))
    assert _odd_walk(looped, g3, "1", "3")
    assert not _odd_walk(state, g3, "1", "3")
    assert not _odd_walk(looped, g3, "3", "1")


@given(frameworks())
def test_add_attack_is_monotone(af):
    for source in af.sorted_arguments:
        for target in af.sorted_arguments:
            expanded = af.add_attack(source, target)
            assert expanded.attacks >= af.attacks
            assert len(expanded.attacks) - len(af.attacks) in (0, 1)


def _all_pairs_agree_with_enumeration(af):
    # the odd reach table, and NI-out-self-defense's walk conditions read
    # off its columns: the b with an odd walk to a such that every other c
    # with an odd walk to a has an odd walk back from a
    attacks = {(a.source, a.target) for a in af.attacks}
    bound = 2 * len(af.arguments)
    reaches = _State(*af.bit_rows).reach[0]
    n = len(af.arguments)
    walk = [
        [oracles.odd_walk(attacks, source, target, bound) for target in af.sorted_arguments]
        for source in af.sorted_arguments
    ]
    for i in range(n):
        for j in range(n):
            assert (reaches[i] >> j & 1 == 1) == walk[i][j]
    for a in range(n):
        into = [c for c in range(n) if walk[c][a]]
        expected = sum(1 << b for b in into if all(walk[a][c] for c in into if c != b))
        assert _self_defense_row(reaches, a) == expected, (af, a)


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


def test_bits_matches_the_bit_by_bit_reference():
    # every mask on both sides of the table's bound (4095 and 4096
    # included), then seeded masks of up to 70 bits
    import random

    rng = random.Random(7)
    masks = [*range(1 << 13), *(rng.randrange(1 << rng.randint(1, 70)) for _ in range(2000))]
    for m in masks:
        assert tuple(_bits(m)) == tuple(i for i in range(m.bit_length()) if m >> i & 1), m
