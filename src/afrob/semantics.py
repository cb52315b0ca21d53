"""Extension enumeration for the classical acceptance semantics.

Extensions are bitmasks over the canonical argument order: bit i stands for
the i-th argument of ``af.sorted_arguments``.  One pass builds the
conflict-free sets, smallest first: a set grows by one argument above its
highest member, and only when that argument attacks no member and is
attacked by none, so each conflict-free set is reached exactly once and no
other subset is visited.  Each set carries the union of its members' targets
and the union of their attackers (read off the relation's bit rows), which
makes the admissibility test one bit operation (the robustness search builds
its root state with the same pass).  The pass yields one record per framework
(cached on the framework) whose fields are the families built on it: the
complete, stable, preferred and semi-stable families are derived from the
admissible ones, each the first time it is read, so a caller asking only
for cf or adm never pays for them.  The grounded set reads no conflict-free
set: it is the least fixpoint of Dung's characteristic function, iterated
from the empty set in polynomial time, so no size limit applies to it.
Every family is a tuple of masks in canonical (size, then names) order, as
enumerated: the order of :func:`extension_sort_key`, which every filter
keeps.  It is a total order on masks, so two frameworks over one argument
set have equal extension sets exactly when their tuples are equal, and
masks are decoded into sets of names only for output.  Frameworks larger
than the guardrail are rejected by the conflict-free pass instead of
silently hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .errors import ArgumentSetMismatch, SizeLimit
from .framework import ArgumentationFramework, _bits

# With no attacks every subset is conflict-free and admissible, the worst
# case.  Peak RSS of a fresh process enumerating such a framework (Python
# 3.11): 21 MB at n=16, 36 MB at n=18, 96 MB in 1.1 s at n=20, 176 MB in
# 2.2 s at n=21, doubling with each further argument.
MAX_ENUMERATION_ARGUMENTS = 20

ExtensionSet = frozenset[frozenset[str]]


class Semantics(str, Enum):
    """The supported acceptance semantics."""

    CONFLICT_FREE = "cf"
    ADMISSIBLE = "adm"
    COMPLETE = "com"
    STABLE = "stb"
    PREFERRED = "prf"
    GROUNDED = "gde"
    SEMI_STABLE = "sst"


def extension_sort_key(extension: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    """Canonical ordering for extensions: by size, then lexicographically."""
    return (len(extension), tuple(sorted(extension)))


def _decode(af: ArgumentationFramework, masks: Iterable[int]) -> ExtensionSet:
    return frozenset(map(af._names, masks))


@dataclass(frozen=True)
class _Enumeration:
    """The extension families of ``af`` that the conflict-free pass builds,
    one field per :class:`Semantics` value but ``gde``.  ``cf`` and ``adm``
    come from :func:`_enumerate`'s pass; the other families are computed on
    first read."""

    af: ArgumentationFramework
    full: int  # the mask of all arguments
    cf: tuple[int, ...]
    adm: tuple[int, ...]

    @cached_property
    def com(self) -> tuple[int, ...]:
        # the admissible sets that leave out no argument they defend: each
        # argument outside has an attacker the set does not attack
        attackers = self.af.bit_rows[1]
        found = []
        for m in self.adm:
            unanswered = ~self.af.attacked_by(m)
            if all(attackers[j] & unanswered for j in _bits(self.full & ~m)):
                found.append(m)
        return tuple(found)

    @cached_property
    def stb(self) -> tuple[int, ...]:
        # every stable set is complete (Dung 1995)
        return tuple(m for m in self.com if m | self.af.attacked_by(m) == self.full)

    @cached_property
    def prf(self) -> tuple[int, ...]:
        # a set is maximal exactly when its complement is minimal
        return _minimal(self.adm, lambda m: self.full & ~m)

    @cached_property
    def sst(self) -> tuple[int, ...]:
        return _minimal(self.com, lambda m: self.full & ~(m | self.af.attacked_by(m)))


def _grounded(af: ArgumentationFramework) -> tuple[int]:
    """The grounded extension: the least fixpoint of Dung's characteristic
    function.  From the empty set, take the arguments whose every attacker
    the set attacks, until the set stops changing."""
    attackers = af.bit_rows[1]
    grounded, previous = 0, -1
    while grounded != previous:
        previous, attacked = grounded, af.attacked_by(grounded)
        grounded = sum(1 << a for a, row in enumerate(attackers) if not row & ~attacked)
    return (grounded,)


def _conflict_free(
    targets: tuple[int, ...], attackers: tuple[int, ...]
) -> tuple[list[int], list[int], list[int]]:
    """The conflict-free sets of the relation with these target and attacker
    rows, in canonical (size, then names) order, as enumerated, and per set
    the union of its members' targets and the union of their attackers."""
    n = len(targets)
    if n > MAX_ENUMERATION_ARGUMENTS:
        raise SizeLimit(f"{n} arguments exceed the enumeration limit of {MAX_ENUMERATION_ARGUMENTS}")
    # offers[j]: per argument k >= j that does not attack itself, ascending,
    # its bit, the arguments it conflicts with, its targets and attackers
    offers: list[tuple[tuple[int, int, int, int], ...]] = [()] * (n + 1)
    for k in reversed(range(n)):
        t, a = targets[k], attackers[k]
        offers[k] = offers[k + 1] if t >> k & 1 else ((1 << k, t | a, t, a), *offers[k + 1])
    # Each set, in list order, grows by each argument above its highest
    # member, ascending.  So each set is built once, from its prefix (itself
    # minus its highest member), after every smaller set and, among those of
    # its size, in the order of its prefix, then of its highest member.
    cf = [0]
    hit = [0]
    threat = [0]
    for i, m in enumerate(cf):
        h, th = hit[i], threat[i]
        for bit, clash, t, a in offers[m.bit_length()]:
            if not m & clash:
                cf.append(m | bit)
                hit.append(h | t)
                threat.append(th | a)
    return cf, hit, threat


@lru_cache(maxsize=32768)
def _enumerate(af: ArgumentationFramework) -> _Enumeration:
    cf, hit, threat = _conflict_free(*af.bit_rows)
    adm = tuple(m for m, attacked, attacking in zip(cf, hit, threat) if not attacking & ~attacked)
    return _Enumeration(af, (1 << len(af.sorted_arguments)) - 1, tuple(cf), adm)


def _minimal(masks: Sequence[int], key: Callable[[int], int]) -> tuple[int, ...]:
    """The masks whose key is inclusion-minimal among the keys of all the
    masks, in the order of ``masks`` (canonical for a family, as
    enumerated).  Keys are visited by ascending popcount, so every strict
    subset of a key is visited before it, and each key is compared only with
    the minimal keys found so far."""
    kept: list[int] = []
    found: set[int] = set()
    for k, mask in sorted(((key(m), m) for m in masks), key=lambda pair: pair[0].bit_count()):
        if not any(u & k == u and u != k for u in kept):
            kept.append(k)
            found.add(mask)
    return tuple(m for m in masks if m in found)


def extension_masks(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Extension set of ``af`` as a tuple of bitmasks over
    ``af.sorted_arguments``, in canonical (size, then names) order, as
    enumerated.  Frameworks with one argument set share that order, so their
    extension sets are equal exactly when these tuples are."""
    semantics = Semantics(semantics)
    if semantics is Semantics.GROUNDED:
        return _grounded(af)
    return getattr(_enumerate(af), semantics.value)


def extensions(af: ArgumentationFramework, semantics: Semantics) -> ExtensionSet:
    """Extension set of ``af`` under the given semantics."""
    return _decode(af, extension_masks(af, semantics))


def extension_difference(
    af: ArgumentationFramework, other: ArgumentationFramework, semantics: Semantics
) -> tuple[ExtensionSet, ExtensionSet]:
    """The extensions of ``af`` that ``other`` lacks (lost) and those of
    ``other`` that ``af`` lacks (gained).  Both frameworks must have the
    same argument set; only the differing extensions are decoded."""
    if af.sorted_arguments != other.sorted_arguments:
        raise ArgumentSetMismatch("the two frameworks do not share an argument set")
    before = set(extension_masks(af, semantics))
    after = set(extension_masks(other, semantics))
    return _decode(af, before - after), _decode(af, after - before)

