import pytest
from hypothesis import strategies as st

import afrob.apx
import afrob.cli
import afrob.semantics
from afrob import ArgumentationFramework

NAMES = ("a", "b", "c", "d")


def clear_caches():
    """Forget every parsed document, extension record (with its
    relation's invariance state) and quoted argument order the process has
    cached."""
    afrob.apx.parse_apx.cache_clear()
    afrob.semantics._enumerate.cache_clear()
    afrob.cli._quoted.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    # every test starts cold, so none sees what an earlier test built
    clear_caches()


@st.composite
def frameworks(draw, max_args=4, min_args=0):
    names = sorted(draw(st.sets(st.sampled_from(NAMES), min_size=min_args, max_size=max_args)))
    pairs = [(s, t) for s in names for t in names]
    if pairs:
        attacks = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        attacks = set()
    return ArgumentationFramework(names, attacks)


def mutual_pairs(k):
    """2k arguments in k mutually attacking pairs: nothing is grounded, so
    the core is every argument."""
    names = [f"p{i}" for i in range(2 * k)]
    attacks = [(names[i], names[i ^ 1]) for i in range(2 * k)]
    return ArgumentationFramework(names, attacks)


@pytest.fixture
def g3():
    return ArgumentationFramework(["1", "2", "3", "4"], [("1", "2"), ("2", "3")])


@pytest.fixture
def mutual():
    return ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])


@pytest.fixture
def self_loop():
    return ArgumentationFramework(["a"], [("a", "a")])


@pytest.fixture
def empty_af():
    return ArgumentationFramework()
