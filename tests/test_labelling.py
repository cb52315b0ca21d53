import pytest
from hypothesis import given, settings

import oracles

from afrob import (
    ArgumentationFramework,
    Label,
    Labelling,
    NotAdmissible,
    Semantics,
    SizeLimit,
    UnknownArgument,
    UnsupportedSemantics,
    credulous_sets,
    extensions,
    labelling_from_set,
    labelling_of_extension,
    labellings_for,
)
from afrob.oracle import canonical_names, framework_from_mask
from conftest import frameworks, mutual_pairs


def lab(in_set, out_set, undec_set):
    return Labelling(in_set, out_set, undec_set)


def test_labelling_partition_is_validated():
    with pytest.raises(ValueError):
        Labelling({"a"}, {"a"}, set())


def test_label_of():
    labelling = lab({"a"}, {"b"}, {"c"})
    assert labelling.label_of("a") is Label.IN
    assert labelling.label_of("b") is Label.OUT
    assert labelling.label_of("c") is Label.UNDEC
    with pytest.raises(KeyError):
        labelling.label_of("z")


def test_labelling_of_extension_examples(g3):
    assert labelling_of_extension(g3, {"1", "3", "4"}) == lab({"1", "3", "4"}, {"2"}, set())
    assert labelling_of_extension(g3, set()) == lab(set(), set(), {"1", "2", "3", "4"})
    assert labelling_of_extension(g3, {"1"}) == lab({"1"}, {"2"}, {"3", "4"})


def test_labelling_of_extension_requires_admissibility(g3):
    with pytest.raises(NotAdmissible):
        labelling_of_extension(g3, {"2"})
    with pytest.raises(UnknownArgument):
        labelling_of_extension(g3, {"z"})


def test_labelling_from_set_allows_conflicting_sets(g3):
    # relaxed constructor: in is the set itself even when not admissible
    relaxed = labelling_from_set(g3, {"1", "2"})
    assert relaxed.in_set == {"1", "2"}
    assert relaxed.out_set == {"3"}
    assert relaxed.undec_set == {"4"}


def reinstatement_labellings(af):
    return oracles.reinstatement_labellings(af.arguments, {tuple(a) for a in af.attacks})


def test_reinstatement_labellings_single_argument():
    af = ArgumentationFramework(["a"])
    assert reinstatement_labellings(af) == [
        (set(), set(), {"a"}),
        ({"a"}, set(), set()),
    ]


def test_reinstatement_labellings_mutual(mutual):
    assert reinstatement_labellings(mutual) == [
        (set(), set(), {"a", "b"}),
        ({"a"}, {"b"}, set()),
        ({"b"}, {"a"}, set()),
    ]


def test_reinstatement_labellings_g3(g3):
    # brute force over the 81 assignments: the out-class of an in-argument's
    # attackers is forced, the rest of the attacked region is free, giving
    # eight labellings rather than one per admissible set
    expected = [
        (set(), set(), {"1", "2", "3", "4"}),
        ({"1"}, set(), {"2", "3", "4"}),
        ({"1"}, {"2"}, {"3", "4"}),
        ({"1", "3"}, {"2"}, {"4"}),
        ({"1", "3", "4"}, {"2"}, set()),
        ({"1", "4"}, set(), {"2", "3"}),
        ({"1", "4"}, {"2"}, {"3"}),
        ({"4"}, set(), {"1", "2", "3"}),
    ]
    assert reinstatement_labellings(g3) == expected


def _in_sets(labellings):
    return frozenset(l.in_set for l in labellings)


def _oracle_in_sets(triples):
    return frozenset(in_set for in_set, _, _ in triples)


def test_reinstatement_in_sets_are_admissible_exhaustively():
    for n in (0, 1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            admissible = extensions(af, Semantics.ADMISSIBLE)
            assert _oracle_in_sets(reinstatement_labellings(af)) == admissible, af


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_reinstatement_in_sets_are_admissible(af):
    admissible = extensions(af, Semantics.ADMISSIBLE)
    assert _oracle_in_sets(reinstatement_labellings(af)) == admissible
    # extension labellings are a right inverse on in-sets
    for extension in admissible:
        built = labelling_of_extension(af, extension)
        assert built.in_set == extension
        assert (built.in_set, built.out_set, built.undec_set) in reinstatement_labellings(af)


def test_complete_labellings_examples(g3, mutual, self_loop):
    assert labellings_for(g3, Semantics.COMPLETE) == [lab({"1", "3", "4"}, {"2"}, set())]
    unattacked = ArgumentationFramework(["a"])
    assert labellings_for(unattacked, Semantics.COMPLETE) == [lab({"a"}, set(), set())]
    assert labellings_for(self_loop, Semantics.COMPLETE) == [lab(set(), set(), {"a"})]
    assert len(labellings_for(mutual, Semantics.COMPLETE)) == 3


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_complete_labelling_in_sets_match_complete_sets(af):
    assert _in_sets(labellings_for(af, Semantics.COMPLETE)) == extensions(af, Semantics.COMPLETE)


def test_labellings_for_examples(g3, self_loop):
    assert [l.in_set for l in labellings_for(g3, Semantics.PREFERRED)] == [{"1", "3", "4"}]
    # the single complete labelling is also the grounded one
    assert labellings_for(g3, Semantics.GROUNDED) == [lab({"1", "3", "4"}, {"2"}, set())]
    assert labellings_for(self_loop, Semantics.STABLE) == []
    with pytest.raises(UnsupportedSemantics):
        labellings_for(g3, Semantics.CONFLICT_FREE)
    with pytest.raises(UnsupportedSemantics):
        labellings_for(g3, Semantics.ADMISSIBLE)


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_labelling_filters_match_extension_enumerators(af):
    for semantics in (Semantics.STABLE, Semantics.PREFERRED, Semantics.SEMI_STABLE):
        assert _in_sets(labellings_for(af, semantics)) == extensions(af, semantics)
    grounded = labellings_for(af, Semantics.GROUNDED)
    assert len(grounded) == 1
    assert _in_sets(grounded) == extensions(af, Semantics.GROUNDED)


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_preferred_filter_agrees_between_in_and_out_maximality(af):
    complete = labellings_for(af, Semantics.COMPLETE)
    by_out = [l for l in complete if not any(o.out_set > l.out_set for o in complete)]
    assert _in_sets(by_out) == _in_sets(labellings_for(af, Semantics.PREFERRED))


def test_credulous_sets_examples(g3, empty_af):
    adm = credulous_sets(g3, Semantics.ADMISSIBLE)
    assert adm.in_set == {"1", "3", "4"}
    assert adm.out_set == {"2"}
    assert adm.undec_set == {"1", "2", "3", "4"}
    assert credulous_sets(g3, Semantics.CONFLICT_FREE).in_set == {"1", "2", "3", "4"}
    assert credulous_sets(empty_af, Semantics.ADMISSIBLE) == (
        frozenset(), frozenset(), frozenset()
    )


def test_conflict_free_credulous_sets_are_the_union_over_conflict_free_labellings():
    # the closed form against its definition on all 531 frameworks with n <= 3
    for n in (0, 1, 2, 3):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            af = framework_from_mask(names, mask)
            cf = extensions(af, Semantics.CONFLICT_FREE)
            labellings = [labelling_from_set(af, ext) for ext in cf]
            assert credulous_sets(af, Semantics.CONFLICT_FREE) == (
                frozenset().union(*(l.in_set for l in labellings)),
                frozenset().union(*(l.out_set for l in labellings)),
                frozenset().union(*(l.undec_set for l in labellings)),
            ), af


def test_labelling_size_limit():
    # labellings come from the extension enumeration and share its limit,
    # which reads the core: 21 unattacked arguments are all grounded and
    # leave it empty, 11 mutually attacking pairs leave all 22 in it
    names = [f"x{i}" for i in range(21)]
    free = ArgumentationFramework(names)
    pairs = mutual_pairs(11)
    derived = (Semantics.COMPLETE, Semantics.STABLE, Semantics.PREFERRED, Semantics.SEMI_STABLE)
    for semantics in derived:
        assert labellings_for(free, semantics) == [lab(names, set(), set())]
        with pytest.raises(SizeLimit, match="22 arguments"):
            labellings_for(pairs, semantics)
