"""Extension enumeration for the classical acceptance semantics.

Extensions are bitmasks over the canonical argument order: bit i stands for
the i-th argument of ``af.sorted_arguments``.  A conflict-free pass builds
the conflict-free sets among some arguments, smallest first: a set grows by
one argument above its highest member, and only when that argument attacks
no member and is attacked by none, so each conflict-free set is reached
exactly once and no other subset is visited.  The pass yields one
(set, targets, attackers) triple per set, the last two the unions of its
members' bit rows, and every reader takes the triples as they are: the
admissibility test (:func:`_admissible`) is then one bit operation, and
the invariance state of a relation is built on the same list.  One
record per framework (the last two are cached, as are the last two
documents parsed) holds one field per semantics and the framework's
invariance state, each built the first time it is read: the grounded
set, and the others on one of two passes.  ``cf`` and ``adm`` read the
pass over all the arguments.  The complete, stable, preferred and
semi-stable families read the pass over the core: the arguments neither in
the grounded set G nor attacked by it.  Every complete extension is G
plus a complete set of the core (Baumann, Brewka and Ulbricht 2020), so
those four enumerate only what G leaves open, and a caller asking for
them never runs the whole pass, nor one asking for cf or adm the core's.
The grounded set reads no conflict-free set: it is the least fixpoint of
Dung's characteristic function, iterated from the empty set in polynomial
time, so no size limit applies to it.  Every family is a tuple of masks in
canonical order (by size, then by the ascending tuple of member names), as
enumerated, which every filter, and adding G, keeps.  Two frameworks over
one argument set share it, so the sets one has and the other lacks are
filters of their tuples, in that order too, and masks are decoded into
sets of names only for output.  A pass over more arguments than the
guardrail is rejected instead of silently hanging.  By Caminada's
correspondence (2006) the complete labellings, and their restrictions per
semantics, are the labellings of the extensions: the set in, its targets out
and the rest undec, so labellings are built from these families too.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import ArgumentSetMismatch, SizeLimit, UnsupportedSemantics
from .framework import ArgumentationFramework, _bits

# The most arguments one conflict-free pass enumerates over: all n for cf
# and adm, the core (the arguments neither grounded nor attacked by the
# grounded set) for com, stb, prf and sst, and none for gde.  With no
# attacks among them every subset is conflict-free, the worst case.  In a
# fresh process on such a framework (Python 3.11, bytecode cached, 2-vCPU
# VM), the cf pass alone peaks at 49 MB of RSS in 0.1 s at n=18 and at
# 145 MB in 0.4 s at n=20, doubling with each further argument.  The whole
# `extensions --semantics cf --format json` command, which prints 38 MB at
# n=18 and 169 MB at n=20, takes 0.4 s and 122 MB at n=18 and 1.2 s and
# 462 MB at n=20; with the default text format, 0.3 s and 65 MB, and 0.8 s
# and 214 MB.
MAX_ENUMERATION_ARGUMENTS = 20


class Semantics(str, Enum):
    """The supported acceptance semantics."""

    CONFLICT_FREE = "cf"
    ADMISSIBLE = "adm"
    COMPLETE = "com"
    STABLE = "stb"
    PREFERRED = "prf"
    GROUNDED = "gde"
    SEMI_STABLE = "sst"


class _Enumeration:
    """The extension families of ``af``, one field per :class:`Semantics`
    value, and ``state``, the invariance state of its relation, each built
    the first time it is read.  ``gde`` reads no pass; the whole
    framework's gives ``cf`` and ``adm``, the core's (:attr:`_core`) the
    other four."""

    def __init__(self, af: ArgumentationFramework):
        self.af = af

    @cached_property
    def state(self) -> "_State":
        from .invariance import _State  # invariance imports this module

        return _State(*self.af.bit_rows)

    @cached_property
    def _whole(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # A pass of its own, not the state's triples, which reading cf and
        # adm off would keep alive: that read semantics p90 0.613 against
        # 0.565 ms (8 of 8 pairs) and held 32.6 against 12.2 MB after cf on
        # 18 unattacked arguments.  Here the unions go once adm is read.
        sets = _conflict_free(*self.af.bit_rows)
        return tuple([m for m, _, _ in sets]), tuple([m for m, _, _ in _admissible(sets)])

    @property
    def cf(self) -> tuple[int, ...]:
        return self._whole[0]

    @property
    def adm(self) -> tuple[int, ...]:
        return self._whole[1]

    @cached_property
    def gde(self) -> tuple[int]:
        """The grounded set: the least fixpoint of Dung's characteristic
        function.  From the empty set, take the arguments whose every
        attacker the set attacks, until the set stops changing."""
        af = self.af
        attackers = af.bit_rows[1]
        grounded, previous = 0, -1
        while grounded != previous:
            previous, attacked = grounded, af.attacked_by(grounded)
            grounded = sum(1 << a for a, row in enumerate(attackers) if not row & ~attacked)
        return (grounded,)

    @cached_property
    def _core(self) -> tuple[int, int, list[int], list[int]]:
        """The grounded set G, the core (the arguments neither in G nor
        attacked by it), the complete sets of the core in canonical order,
        and per set the core arguments it holds or attacks.

        Every complete extension is G plus a complete set of the core, and
        each such union is complete (Baumann, Brewka and Ulbricht 2020).  G
        attacks every attacker of a core argument from outside the core, as
        none is in G, so a core set need answer only those inside it.  Two
        sets of one size are ordered by the smallest member of their
        symmetric difference, which the disjoint G leaves alone, so the
        unions keep the canonical order."""
        af = self.af
        targets, attackers = af.bit_rows
        (grounded,) = self.gde
        core = (1 << len(targets)) - 1 & ~(grounded | af.attacked_by(grounded))
        sets, decided = [], []
        for m, attacked, attacking in _conflict_free(targets, attackers, core):
            unanswered = core & ~attacked
            # admissible, and each core argument left out has an attacker
            # the set does not attack (one the set attacks has one in it)
            if not attacking & unanswered and all(
                attackers[j] & unanswered for j in _bits(unanswered & ~m)
            ):
                sets.append(m)
                decided.append(m | attacked & core)
        return grounded, core, sets, decided

    @cached_property
    def com(self) -> tuple[int, ...]:
        grounded, _, sets, _ = self._core
        return tuple(grounded | m for m in sets)

    @cached_property
    def stb(self) -> tuple[int, ...]:
        # every stable set is complete (Dung 1995), and G and its targets
        # are every argument outside the core
        grounded, core, sets, decided = self._core
        return tuple(grounded | m for m, d in zip(sets, decided) if d == core)

    @cached_property
    def prf(self) -> tuple[int, ...]:
        # the maximal complete sets; a set is maximal exactly when its
        # complement in the core is minimal
        grounded, core, sets, _ = self._core
        return tuple(grounded | m for m in _minimal(sets, [core ^ m for m in sets]))

    @cached_property
    def sst(self) -> tuple[int, ...]:
        # the complete sets whose undecided arguments, all in the core, are
        # minimal
        grounded, core, sets, decided = self._core
        return tuple(grounded | m for m in _minimal(sets, [core ^ d for d in decided]))


def _conflict_free(
    targets: tuple[int, ...], attackers: tuple[int, ...], among: int | None = None
) -> list[tuple[int, int, int]]:
    """The conflict-free sets of the relation with these target and attacker
    rows, in canonical (size, then names) order, as enumerated, each as the
    triple of the set, the union of its members' targets and the union of
    their attackers (over all arguments).  With ``among``, only the subsets
    of that mask; the size limit applies to its arguments."""
    n = len(targets)
    among = (1 << n) - 1 if among is None else among
    size = among.bit_count()
    if size > MAX_ENUMERATION_ARGUMENTS:
        raise SizeLimit(
            f"{size} arguments exceed the enumeration limit of {MAX_ENUMERATION_ARGUMENTS}"
        )
    # offers[j]: per argument k >= j in among that does not attack itself,
    # ascending, its bit, the arguments it conflicts with, its targets and
    # attackers
    offers: list[tuple[tuple[int, int, int, int], ...]] = [()] * (n + 1)
    for k in reversed(range(n)):
        t, a = targets[k], attackers[k]
        acceptable = among >> k & 1 and not t >> k & 1
        offers[k] = ((1 << k, t | a, t, a), *offers[k + 1]) if acceptable else offers[k + 1]
    # Each set, in list order, grows by each argument above its highest
    # member, ascending.  So each set is built once, from its prefix (itself
    # minus its highest member), after every smaller set and, among those of
    # its size, in the order of its prefix, then of its highest member.
    sets = [(0, 0, 0)]
    for m, hit, threat in sets:
        for bit, clash, t, a in offers[m.bit_length()]:
            if not m & clash:
                sets.append((m | bit, hit | t, threat | a))
    return sets


def _admissible(sets: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The triples of :func:`_conflict_free` whose set is admissible, in
    their order: it attacks each of its attackers (Dung 1995)."""
    return [triple for triple in sets if not triple[2] & ~triple[1]]


# a framework and the one it is compared with (extension_difference)
@lru_cache(maxsize=2)
def _enumerate(af: ArgumentationFramework) -> _Enumeration:
    return _Enumeration(af)


def _minimal(masks: Sequence[int], keys: Sequence[int]) -> tuple[int, ...]:
    """The masks whose key (``keys[i]`` for ``masks[i]``) is
    inclusion-minimal among all the keys, in the order of ``masks``
    (canonical for a family, as enumerated).  Keys are visited by ascending
    popcount, so every strict subset of a key is visited before it, and each
    key is compared only with the minimal keys found so far."""
    kept: list[int] = []
    found: set[int] = set()
    for k, mask in sorted(zip(keys, masks), key=lambda pair: pair[0].bit_count()):
        if not any(u & k == u and u != k for u in kept):
            kept.append(k)
            found.add(mask)
    return tuple(m for m in masks if m in found)


def extension_masks(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Extension set of ``af`` as a tuple of bitmasks over
    ``af.sorted_arguments``, in canonical (size, then names) order, as
    enumerated.  Frameworks with one argument set share that order, so their
    extension sets are equal exactly when these tuples are.  Raises
    :class:`SizeLimit` when the arguments the semantics enumerates over
    (all of them for cf and adm, the core for com, stb, prf and sst)
    exceed :data:`MAX_ENUMERATION_ARGUMENTS`; gde has no limit."""
    return getattr(_enumerate(af), Semantics(semantics).value)


def extensions(af: ArgumentationFramework, semantics: Semantics) -> frozenset[frozenset[str]]:
    """Extension set of ``af`` under the given semantics."""
    return frozenset(map(af._names, extension_masks(af, semantics)))


def labellings_for(
    af: ArgumentationFramework, semantics: Semantics
) -> list[tuple[int, int, int]]:
    """The complete labellings restricted per the requested semantics, in
    canonical labelling order, each as its (in, out, undec) masks over
    ``af.sorted_arguments``.

    Each is the labelling of one extension of that semantics: stb has no
    undec, prf maximal in, gde minimal in and sst minimal undec among the
    complete labellings, exactly as the stable, preferred, grounded and
    semi-stable sets are among the complete sets.  An extension is
    conflict-free, so it attacks none of its members: out is its targets
    and undec the rest.
    """
    semantics = Semantics(semantics)
    if semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(f"no labelling restriction is defined for {semantics.value}")
    # canonical labelling order is by sorted in-set names, which are the
    # masks' ascending member indices
    masks = sorted(extension_masks(af, semantics), key=lambda m: tuple(_bits(m)))
    full = (1 << len(af.sorted_arguments)) - 1
    return [(m, out, full & ~(m | out)) for m, out in zip(masks, map(af.attacked_by, masks))]


def extension_difference(
    af: ArgumentationFramework, other: ArgumentationFramework, semantics: Semantics
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The extension masks of ``af`` that ``other`` lacks (lost) and those of
    ``other`` that ``af`` lacks (gained), in canonical order: filters of
    the :func:`extension_masks` tuples over the shared argument set."""
    if af.sorted_arguments != other.sorted_arguments:
        raise ArgumentSetMismatch("the two frameworks do not share an argument set")
    before, after = extension_masks(af, semantics), extension_masks(other, semantics)
    kept = set(before).intersection(after)
    return tuple(m for m in before if m not in kept), tuple(m for m in after if m not in kept)
