import pytest
from hypothesis import given, settings

import oracles
from afrob import (
    ArgumentationFramework,
    Semantics,
    SizeLimit,
    admissible_sets,
    complete_sets,
    conflict_free_sets,
    extension_masks,
    extensions,
    grounded_set,
    preferred_sets,
    semi_stable_sets,
    stable_sets,
)
from afrob.oracle import canonical_names, framework_from_mask
from afrob.semantics import _enumerate
from conftest import frameworks


def sets(*members):
    return frozenset(frozenset(m) for m in members)


def test_conflict_free_examples(g3, mutual, empty_af):
    assert conflict_free_sets(mutual) == sets("", "a", "b")
    assert conflict_free_sets(empty_af) == sets("")
    # all 10 subsets of g3 without an attacked pair, derived by brute force
    assert conflict_free_sets(g3) == sets(
        "", "1", "2", "3", "4", "13", "14", "24", "34", "134"
    )


def test_admissible_examples(g3, mutual):
    assert admissible_sets(g3) == sets("", "4", "1", "14", "13", "134")
    assert admissible_sets(ArgumentationFramework(["a"])) == sets("", "a")
    assert admissible_sets(mutual) == sets("", "a", "b")


def test_complete_examples(g3, mutual):
    # 1 and 4 are unattacked, so every complete set contains them, and the
    # only admissible superset of {1, 4} closed under defence is {1, 3, 4}
    assert complete_sets(g3) == sets("134")
    assert complete_sets(ArgumentationFramework(["a"])) == sets("a")
    assert complete_sets(mutual) == sets("", "a", "b")


def test_stable_examples(g3, mutual, self_loop):
    assert stable_sets(g3) == sets("134")
    assert stable_sets(self_loop) == frozenset()
    assert stable_sets(mutual) == sets("a", "b")


def test_preferred_examples(g3, mutual, empty_af):
    assert preferred_sets(g3) == sets("134")
    assert preferred_sets(empty_af) == sets("")
    assert preferred_sets(mutual) == sets("a", "b")


def test_grounded_examples(g3, mutual):
    assert grounded_set(g3) == sets("134")
    assert grounded_set(mutual) == sets("")
    assert grounded_set(ArgumentationFramework(["a"])) == sets("a")


def test_semi_stable_examples(g3, self_loop, empty_af):
    assert semi_stable_sets(g3) == sets("134")
    assert semi_stable_sets(self_loop) == sets("")
    assert semi_stable_sets(empty_af) == sets("")


def test_extensions_dispatch(g3, empty_af):
    assert extensions(g3, Semantics.ADMISSIBLE) == admissible_sets(g3)
    assert extensions(empty_af, Semantics.CONFLICT_FREE) == sets("")
    assert extensions(g3, Semantics.STABLE) == sets("134")
    assert extensions(g3, "stb") == sets("134")


def _decoded(af, masks):
    order = af.sorted_arguments
    return {frozenset(name for i, name in enumerate(order) if (m >> i) & 1) for m in masks}


def _assert_ascending_and_decodes_to(af, masks, expected):
    assert all(one < two for one, two in zip(masks, masks[1:])), (masks, af)
    assert _decoded(af, masks) == expected, af


def _assert_matches_oracle(af):
    args = set(af.arguments)
    attacks = {(a.source, a.target) for a in af.attacks}
    for semantics in Semantics:
        expected = frozenset(oracles.extensions(args, attacks, semantics.value))
        assert extensions(af, semantics) == expected, (semantics, af)
        _assert_ascending_and_decodes_to(af, extension_masks(af, semantics), expected)
    enum = _enumerate(af)
    for masks, semantics in ((enum.cf, "cf"), (enum.adm, "adm"), (enum.com, "com")):
        _assert_ascending_and_decodes_to(af, masks, oracles.extensions(args, attacks, semantics))


def test_all_semantics_match_oracle_exhaustively():
    for n in (0, 1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            _assert_matches_oracle(framework_from_mask(names, mask))


@settings(deadline=None)
@given(frameworks())
def test_all_semantics_match_oracle(af):
    _assert_matches_oracle(af)


@settings(deadline=None)
@given(frameworks())
def test_ordering_chain(af):
    stb = stable_sets(af)
    sst = semi_stable_sets(af)
    prf = preferred_sets(af)
    com = complete_sets(af)
    adm = admissible_sets(af)
    cf = conflict_free_sets(af)
    assert stb <= sst <= prf <= com <= adm <= cf
    assert grounded_set(af) <= com


@given(frameworks())
def test_empty_set_is_always_conflict_free_and_admissible(af):
    assert frozenset() in conflict_free_sets(af)
    assert frozenset() in admissible_sets(af)


@given(frameworks())
def test_preferred_sets_are_pairwise_incomparable(af):
    prf = preferred_sets(af)
    for one in prf:
        for two in prf:
            if one != two:
                assert not one < two and not two < one


@given(frameworks())
def test_grounded_is_unique(af):
    assert len(grounded_set(af)) == 1


def test_maximality_filters_compare_only_with_the_extremal_sets():
    # 2^16 admissible sets and one preferred one: a pairwise filter would
    # make billions of comparisons here
    names = [f"x{i}" for i in range(16)]
    af = ArgumentationFramework(names)
    everything = sets(names)
    assert len(_enumerate(af).adm) == 1 << 16
    assert preferred_sets(af) == everything
    assert semi_stable_sets(af) == everything
    assert grounded_set(af) == everything


def test_size_limit():
    big = ArgumentationFramework([f"x{i}" for i in range(25)])
    with pytest.raises(SizeLimit):
        conflict_free_sets(big)


def test_size_limit_follows_measured_memory():
    # 21 unattacked arguments would take about 176 MB before any result
    big = ArgumentationFramework([f"x{i}" for i in range(21)])
    for semantics in Semantics:
        with pytest.raises(SizeLimit):
            extensions(big, semantics)
