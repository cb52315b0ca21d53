import pytest
from hypothesis import given, settings

import oracles

from afrob import (
    ArgumentationFramework,
    Semantics,
    SizeLimit,
    UnsupportedSemantics,
    extensions,
    labellings_for,
)
from afrob.oracle import canonical_names, framework_from_mask
from conftest import frameworks, mutual_pairs


def lab(in_set, out_set, undec_set):
    return frozenset(in_set), frozenset(out_set), frozenset(undec_set)


def labellings(af, semantics):
    # the (in, out, undec) masks of labellings_for, decoded into names
    return oracles.labelling_names(af, labellings_for(af, semantics))


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


def _in_sets(found):
    return frozenset(in_set for in_set, _, _ in found)


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
    # the labellings built from the complete sets are reinstatement labellings
    for built in labellings(af, Semantics.COMPLETE):
        assert built in reinstatement_labellings(af)


def test_complete_labellings_examples(g3, mutual, self_loop):
    assert labellings(g3, Semantics.COMPLETE) == [lab({"1", "3", "4"}, {"2"}, set())]
    unattacked = ArgumentationFramework(["a"])
    assert labellings(unattacked, Semantics.COMPLETE) == [lab({"a"}, set(), set())]
    assert labellings(self_loop, Semantics.COMPLETE) == [lab(set(), set(), {"a"})]
    assert labellings(mutual, Semantics.COMPLETE) == [
        lab(set(), set(), {"a", "b"}),
        lab({"a"}, {"b"}, set()),
        lab({"b"}, {"a"}, set()),
    ]


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_complete_labelling_in_sets_match_complete_sets(af):
    found = labellings_for(af, Semantics.COMPLETE)
    # the three label classes partition the arguments
    full = (1 << len(af.sorted_arguments)) - 1
    for in_set, out, undec in found:
        assert not in_set & out and not in_set & undec and not out & undec
        assert in_set | out | undec == full
    assert _in_sets(oracles.labelling_names(af, found)) == extensions(af, Semantics.COMPLETE)


def test_labellings_for_examples(g3, self_loop):
    # masks over the sorted arguments 1, 2, 3, 4: in {1,3,4}, out {2}
    assert labellings_for(g3, Semantics.PREFERRED) == [(0b1101, 0b0010, 0)]
    # the single complete labelling is also the grounded one
    assert labellings(g3, Semantics.GROUNDED) == [lab({"1", "3", "4"}, {"2"}, set())]
    assert labellings_for(self_loop, Semantics.STABLE) == []
    with pytest.raises(UnsupportedSemantics):
        labellings_for(g3, Semantics.CONFLICT_FREE)
    with pytest.raises(UnsupportedSemantics):
        labellings_for(g3, Semantics.ADMISSIBLE)


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_labelling_filters_match_extension_enumerators(af):
    for semantics in (Semantics.STABLE, Semantics.PREFERRED, Semantics.SEMI_STABLE):
        assert _in_sets(labellings(af, semantics)) == extensions(af, semantics)
    grounded = labellings(af, Semantics.GROUNDED)
    assert len(grounded) == 1
    assert _in_sets(grounded) == extensions(af, Semantics.GROUNDED)


@settings(deadline=None, max_examples=40)
@given(frameworks())
def test_preferred_filter_agrees_between_in_and_out_maximality(af):
    complete = labellings(af, Semantics.COMPLETE)
    by_out = [l for l in complete if not any(o[1] > l[1] for o in complete)]
    assert _in_sets(by_out) == _in_sets(labellings(af, Semantics.PREFERRED))


def test_labelling_size_limit():
    # labellings come from the extension enumeration and share its limit,
    # which reads the core: 21 unattacked arguments are all grounded and
    # leave it empty, 11 mutually attacking pairs leave all 22 in it
    names = [f"x{i}" for i in range(21)]
    free = ArgumentationFramework(names)
    pairs = mutual_pairs(11)
    derived = (Semantics.COMPLETE, Semantics.STABLE, Semantics.PREFERRED, Semantics.SEMI_STABLE)
    for semantics in derived:
        assert labellings(free, semantics) == [lab(names, set(), set())]
        with pytest.raises(SizeLimit, match="22 arguments"):
            labellings_for(pairs, semantics)
