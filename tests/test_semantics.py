import random

import pytest
from hypothesis import given, settings

import afrob.semantics
import oracles
from afrob import (
    ArgumentationFramework,
    ArgumentSetMismatch,
    Semantics,
    SizeLimit,
    extension_difference,
    extension_masks,
    extensions,
    invariant_attacks,
)
from afrob.oracle import canonical_names, framework_from_mask
from afrob.semantics import _enumerate
from conftest import frameworks, mutual_pairs
from oracles import extension_sort_key

# the families derived on the grounded core
DERIVED = (Semantics.COMPLETE, Semantics.STABLE, Semantics.PREFERRED, Semantics.SEMI_STABLE)


def sets(*members):
    return frozenset(frozenset(m) for m in members)


def test_conflict_free_examples(g3, mutual, empty_af):
    assert extensions(mutual, Semantics.CONFLICT_FREE) == sets("", "a", "b")
    assert extensions(empty_af, Semantics.CONFLICT_FREE) == sets("")
    # all 10 subsets of g3 without an attacked pair, derived by brute force
    assert extensions(g3, Semantics.CONFLICT_FREE) == sets(
        "", "1", "2", "3", "4", "13", "14", "24", "34", "134"
    )


def test_admissible_examples(g3, mutual):
    assert extensions(g3, Semantics.ADMISSIBLE) == sets("", "4", "1", "14", "13", "134")
    assert extensions(ArgumentationFramework(["a"]), Semantics.ADMISSIBLE) == sets("", "a")
    assert extensions(mutual, Semantics.ADMISSIBLE) == sets("", "a", "b")


def test_complete_examples(g3, mutual):
    # 1 and 4 are unattacked, so every complete set contains them, and the
    # only admissible superset of {1, 4} closed under defence is {1, 3, 4}
    assert extensions(g3, Semantics.COMPLETE) == sets("134")
    assert extensions(ArgumentationFramework(["a"]), Semantics.COMPLETE) == sets("a")
    assert extensions(mutual, Semantics.COMPLETE) == sets("", "a", "b")


def test_stable_examples(g3, mutual, self_loop):
    assert extensions(g3, Semantics.STABLE) == sets("134")
    assert extensions(self_loop, Semantics.STABLE) == frozenset()
    assert extensions(mutual, Semantics.STABLE) == sets("a", "b")


def test_preferred_examples(g3, mutual, empty_af):
    assert extensions(g3, Semantics.PREFERRED) == sets("134")
    assert extensions(empty_af, Semantics.PREFERRED) == sets("")
    assert extensions(mutual, Semantics.PREFERRED) == sets("a", "b")


def test_grounded_examples(g3, mutual):
    assert extensions(g3, Semantics.GROUNDED) == sets("134")
    assert extensions(mutual, Semantics.GROUNDED) == sets("")
    assert extensions(ArgumentationFramework(["a"]), Semantics.GROUNDED) == sets("a")


def test_semi_stable_examples(g3, self_loop, empty_af):
    assert extensions(g3, Semantics.SEMI_STABLE) == sets("134")
    assert extensions(self_loop, Semantics.SEMI_STABLE) == sets("")
    assert extensions(empty_af, Semantics.SEMI_STABLE) == sets("")


def test_extensions_dispatch(g3, empty_af):
    assert extensions(g3, Semantics.ADMISSIBLE) == sets("", "4", "1", "14", "13", "134")
    assert extensions(empty_af, Semantics.CONFLICT_FREE) == sets("")
    assert extensions(g3, Semantics.STABLE) == sets("134")
    assert extensions(g3, "stb") == sets("134")


def _decoded(af, masks):
    order = af.sorted_arguments
    return {frozenset(name for i, name in enumerate(order) if (m >> i) & 1) for m in masks}


def _assert_canonical_and_decodes_to(af, masks, expected):
    # canonical (size, then names) order: strictly increasing keys
    keys = [extension_sort_key(af._names(m)) for m in masks]
    assert all(one < two for one, two in zip(keys, keys[1:])), (masks, af)
    assert _decoded(af, masks) == expected, af


def _assert_matches_oracle(af):
    args = set(af.arguments)
    attacks = {(a.source, a.target) for a in af.attacks}
    for semantics in Semantics:
        expected = frozenset(oracles.extensions(args, attacks, semantics.value))
        assert extensions(af, semantics) == expected, (semantics, af)
        _assert_canonical_and_decodes_to(af, extension_masks(af, semantics), expected)
    enum = _enumerate(af)
    for masks, semantics in ((enum.cf, "cf"), (enum.adm, "adm"), (enum.com, "com")):
        _assert_canonical_and_decodes_to(af, masks, oracles.extensions(args, attacks, semantics))


def test_derived_families_match_the_definitions_on_sparse_frameworks():
    # com, stb, prf and sst are the grounded set plus the core's complete
    # sets; every relation on up to three arguments is checked below, and
    # here seeded sparse ones on 4 to 12, about half of which have both a
    # non-empty grounded set and a non-empty core
    rng = random.Random(24)
    split = 0
    for n in range(4, 13):
        for _ in range(12 if n <= 8 else 3):
            # each pair attacks with probability 1/8
            mask = rng.getrandbits(n * n) & rng.getrandbits(n * n) & rng.getrandbits(n * n)
            af = framework_from_mask(canonical_names(n), mask)
            args = set(af.arguments)
            attacks = {(a.source, a.target) for a in af.attacks}
            for semantics in DERIVED:
                expected = oracles.extensions(args, attacks, semantics.value)
                _assert_canonical_and_decodes_to(af, extension_masks(af, semantics), expected)
            grounded, core, _, _ = _enumerate(af)._core
            split += bool(grounded) and bool(core)
    assert split >= 30


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
    stb = extensions(af, Semantics.STABLE)
    sst = extensions(af, Semantics.SEMI_STABLE)
    prf = extensions(af, Semantics.PREFERRED)
    com = extensions(af, Semantics.COMPLETE)
    adm = extensions(af, Semantics.ADMISSIBLE)
    cf = extensions(af, Semantics.CONFLICT_FREE)
    assert stb <= sst <= prf <= com <= adm <= cf
    assert extensions(af, Semantics.GROUNDED) <= com


@given(frameworks())
def test_empty_set_is_always_conflict_free_and_admissible(af):
    assert frozenset() in extensions(af, Semantics.CONFLICT_FREE)
    assert frozenset() in extensions(af, Semantics.ADMISSIBLE)


@given(frameworks())
def test_preferred_sets_are_pairwise_incomparable(af):
    prf = extensions(af, Semantics.PREFERRED)
    for one in prf:
        for two in prf:
            if one != two:
                assert not one < two and not two < one


@given(frameworks())
def test_grounded_is_unique(af):
    assert len(extensions(af, Semantics.GROUNDED)) == 1


def test_maximality_filters_compare_only_with_the_extremal_sets():
    # 2^16 admissible sets and one preferred one: a pairwise filter would
    # make billions of comparisons here
    names = [f"x{i}" for i in range(16)]
    af = ArgumentationFramework(names)
    everything = sets(names)
    assert len(_enumerate(af).adm) == 1 << 16
    assert extensions(af, Semantics.PREFERRED) == everything
    assert extensions(af, Semantics.SEMI_STABLE) == everything
    assert extensions(af, Semantics.GROUNDED) == everything


def test_size_limit():
    big = ArgumentationFramework([f"x{i}" for i in range(25)])
    with pytest.raises(SizeLimit):
        extensions(big, Semantics.CONFLICT_FREE)


def test_size_limit_follows_measured_memory():
    # cf and adm enumerate all n arguments: 21 unattacked ones would take
    # about 176 MB before any result.  The derived families enumerate only
    # the core, empty here since every argument is grounded, and the
    # grounded fixpoint enumerates nothing
    names = [f"x{i}" for i in range(21)]
    free = ArgumentationFramework(names)
    for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        with pytest.raises(SizeLimit, match="21 arguments"):
            extensions(free, semantics)
    for semantics in (*DERIVED, Semantics.GROUNDED):
        assert extensions(free, semantics) == sets(names), semantics
    # nothing is grounded among 11 mutually attacking pairs, so the core
    # is all 22 arguments
    pairs = mutual_pairs(11)
    assert extension_masks(pairs, Semantics.GROUNDED) == (0,)
    for semantics in set(Semantics) - {Semantics.GROUNDED}:
        with pytest.raises(SizeLimit, match="22 arguments"):
            extensions(pairs, semantics)


def test_conflict_free_sets_come_in_extension_sort_key_order():
    # with no attacks every subset of up to ten arguments is conflict-free,
    # so the pass enumerates each in the order every family inherits
    for n in range(11):
        names = [f"a{i}" for i in range(1, n + 1)]
        af = ArgumentationFramework(names)
        family = sorted(map(af._names, range(1 << n)), key=extension_sort_key)
        assert list(map(af._names, _enumerate(af).cf)) == family


def test_every_enumerated_semantics_is_a_field_of_the_record(g3):
    enum = _enumerate(g3)
    for semantics in Semantics:
        assert getattr(enum, semantics.value) is extension_masks(g3, semantics)


def test_cf_and_adm_callers_derive_no_other_family():
    af = ArgumentationFramework("abcd", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])
    invariant_attacks(af, "adm")
    extension_masks(af, "cf")
    derived = {"_core", "com", "stb", "prf", "gde", "sst"} & set(vars(_enumerate(af)))
    assert not derived
    # the grounded set is a fixpoint read off the relation, without the
    # conflict-free pass or any family derived from it
    _enumerate.cache_clear()
    assert extension_masks(af, "gde") == (0,)
    assert set(vars(_enumerate(af))) == {"af", "gde"}


def test_reading_the_grounded_set_runs_no_conflict_free_pass(monkeypatch):
    # neither 11 mutual pairs (a core of 22 arguments, past the limit) nor
    # 30 unattacked arguments (past the limit, all grounded) are enumerated
    passes = []
    monkeypatch.setattr(afrob.semantics, "_conflict_free", lambda *rows: passes.append(rows))
    names = [f"x{i}" for i in range(30)]
    assert extension_masks(mutual_pairs(11), "gde") == (0,)
    assert extension_masks(ArgumentationFramework(names), "gde") == ((1 << 30) - 1,)
    assert passes == []


def test_the_derived_families_and_gde_share_one_grounded_fixpoint():
    # the core reads the record's grounded set, so a later gde request
    # returns that cached tuple and the fixpoint runs once per framework
    af = ArgumentationFramework("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "c")])
    extension_masks(af, "com")
    cached = vars(_enumerate(af))["gde"]
    assert cached == (0b1,)
    assert extension_masks(af, "gde") is cached


def test_each_conflict_free_pass_runs_only_for_the_families_that_read_it(monkeypatch):
    # the derived families read one pass over the core and never the whole
    # framework's, which cf and adm read, building no core
    passes = []
    conflict_free = afrob.semantics._conflict_free

    def counted(targets, attackers, among=None):
        passes.append(among)
        return conflict_free(targets, attackers, among)

    monkeypatch.setattr(afrob.semantics, "_conflict_free", counted)
    # grounded {a}, its target b, and the core {c, d, e, f}
    attacks = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "c"), ("e", "f"), ("f", "e")]
    af = ArgumentationFramework("abcdef", attacks)
    for semantics in DERIVED:
        _enumerate.cache_clear()
        passes.clear()
        extension_masks(af, semantics)
        assert passes == [0b111100], semantics
    for semantics in DERIVED:
        extension_masks(af, semantics)
    assert passes == [0b111100]
    extension_masks(af, "cf")
    extension_masks(af, "adm")
    assert passes == [0b111100, None]
    _enumerate.cache_clear()
    passes.clear()
    extension_masks(af, "adm")
    extension_masks(af, "cf")
    assert passes == [None]
    assert "_core" not in vars(_enumerate(af))


def test_extension_difference_requires_same_arguments():
    af = ArgumentationFramework("abc", [("a", "b")])
    renamed = ArgumentationFramework("xyz", [("z", "x")])
    with pytest.raises(ArgumentSetMismatch):
        extension_difference(af, renamed, Semantics.ADMISSIBLE)
    with pytest.raises(ArgumentSetMismatch):
        extension_difference(ArgumentationFramework("ab"), af, Semantics.ADMISSIBLE)
