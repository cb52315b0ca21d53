"""Extension enumeration for the classical acceptance semantics.

Extensions are bitmasks over the canonical argument order: bit i stands for
the i-th argument of ``af.sorted_arguments``.  One pass builds the
conflict-free sets: a set grows by one argument above its highest member,
and only when that argument attacks no member and is attacked by none, so
each conflict-free set is reached exactly once and no other subset is
visited.  Each set carries the union of its members' targets and the union
of their attackers (read off the framework's ``bit_rows``), which makes the
admissibility test one bit operation.  That pass yields one record per
framework (cached on the framework) whose fields are the seven families;
the complete, stable, preferred, grounded and semi-stable families are
derived from the admissible ones the first time they are read, so a caller
asking only for cf or adm never pays for them.  Every family is an
ascending tuple of masks, so two frameworks over one argument set have
equal extension sets exactly when their tuples are equal, and masks are
decoded into sets of names only for output.  Frameworks larger than the
guardrail are rejected instead of silently hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .errors import ArgumentSetMismatch, InternalInvariantViolation, SizeLimit
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
    """Every extension family of ``af``, one field per :class:`Semantics`
    value.  ``cf`` and ``adm`` come from :func:`_enumerate`'s pass; the
    other families are derived from them on first read."""

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
    def gde(self) -> tuple[int, ...]:
        minimal = _minimal(self.com, lambda m: m)
        if len(minimal) != 1:
            raise InternalInvariantViolation(
                f"expected exactly one minimal complete set, found {len(minimal)}"
            )
        return minimal

    @cached_property
    def sst(self) -> tuple[int, ...]:
        return _minimal(self.com, lambda m: self.full & ~(m | self.af.attacked_by(m)))


@lru_cache(maxsize=32768)
def _enumerate(af: ArgumentationFramework) -> _Enumeration:
    n = len(af.sorted_arguments)
    if n > MAX_ENUMERATION_ARGUMENTS:
        raise SizeLimit(f"{n} arguments exceed the enumeration limit of {MAX_ENUMERATION_ARGUMENTS}")
    targets, attackers = af.bit_rows

    # Argument k is offered to every set found before it, each of which has
    # only members below k.  So every conflict-free set is built once, from
    # itself minus its highest member, and the list stays ascending.
    cf = [0]
    hit = [0]  # per set: the union of its members' targets
    threat = [0]  # per set: the union of its members' attackers
    for k in range(n):
        bit = 1 << k
        t, a = targets[k], attackers[k]
        if t & bit:
            continue  # a self-attacker is in no conflict-free set
        clash = t | a
        for i in range(len(cf)):
            if not cf[i] & clash:
                cf.append(cf[i] | bit)
                hit.append(hit[i] | t)
                threat.append(threat[i] | a)

    adm = tuple(m for m, attacked, attacking in zip(cf, hit, threat) if not attacking & ~attacked)
    return _Enumeration(af, (1 << n) - 1, tuple(cf), adm)


def _minimal(masks: Iterable[int], key: Callable[[int], int]) -> tuple[int, ...]:
    """The masks whose key is inclusion-minimal among the keys of all the
    masks, ascending.  Keys are visited by ascending popcount, so every
    strict subset of a key is visited before it, and each key is compared
    only with the minimal keys found so far."""
    kept: list[int] = []
    found: list[int] = []
    for k, mask in sorted(((key(m), m) for m in masks), key=lambda pair: pair[0].bit_count()):
        if not any(u & k == u and u != k for u in kept):
            kept.append(k)
            found.append(mask)
    return tuple(sorted(found))


def extension_masks(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Extension set of ``af`` as an ascending tuple of bitmasks over
    ``af.sorted_arguments``.  Frameworks with one argument set share that
    order, so their extension sets are equal exactly when these tuples are."""
    return getattr(_enumerate(af), Semantics(semantics).value)


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


def conflict_free_sets(af: ArgumentationFramework) -> ExtensionSet:
    """All subsets containing no internal attack.  Always contains the
    empty set."""
    return extensions(af, Semantics.CONFLICT_FREE)


def admissible_sets(af: ArgumentationFramework) -> ExtensionSet:
    """Conflict-free sets that defend each of their members."""
    return extensions(af, Semantics.ADMISSIBLE)


def complete_sets(af: ArgumentationFramework) -> ExtensionSet:
    """Admissible sets containing every argument they defend."""
    return extensions(af, Semantics.COMPLETE)


def stable_sets(af: ArgumentationFramework) -> ExtensionSet:
    """Conflict-free sets attacking every outside argument.  May be empty."""
    return extensions(af, Semantics.STABLE)


def preferred_sets(af: ArgumentationFramework) -> ExtensionSet:
    """Inclusion-maximal admissible sets."""
    return extensions(af, Semantics.PREFERRED)


def grounded_set(af: ArgumentationFramework) -> ExtensionSet:
    """The unique inclusion-minimal complete set, as a one-element family."""
    return extensions(af, Semantics.GROUNDED)


def semi_stable_sets(af: ArgumentationFramework) -> ExtensionSet:
    """Complete sets whose undecided region (arguments neither in the set
    nor attacked by it) is inclusion-minimal."""
    return extensions(af, Semantics.SEMI_STABLE)
