"""Extension enumeration for the classical acceptance semantics.

Extensions are bitmasks over the canonical argument order: bit i stands for
the i-th argument of ``af.sorted_arguments``.  Only conflict-free sets are
ever built.  A set grows by one argument above its highest member, and only
when that argument attacks no member and is attacked by none, so each
conflict-free set is reached exactly once and no other subset is visited.
Each set carries the union of its members' targets and the union of their
attackers (read off the framework's ``bit_rows``), which makes the
admissibility test one bit operation; the completeness test runs once per
admissible set.  The other semantics filter these families, asking the
framework which arguments a set attacks.  Every family is an ascending
tuple of masks, so two frameworks over one argument set have equal
extension sets exactly when their tuples are equal, and masks are decoded
into sets of names only for output.  Frameworks larger than the guardrail
are rejected instead of silently hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .errors import InternalInvariantViolation, SizeLimit
from .framework import ArgumentationFramework

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
    full: int  # the mask of all arguments
    cf: tuple[int, ...]
    adm: tuple[int, ...]
    com: tuple[int, ...]

    @cached_property
    def preferred(self) -> tuple[int, ...]:
        # a set is maximal exactly when its complement is minimal
        return _minimal(self.adm, lambda m: self.full & ~m)


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

    adm: list[int] = []
    com: list[int] = []
    for mask, attacked, attacking in zip(cf, hit, threat):
        if attacking & ~attacked:
            continue
        adm.append(mask)
        # complete: the set already contains every argument it defends
        complete = True
        for j in range(n):
            if attackers[j] & ~attacked == 0 and not (mask >> j) & 1:
                complete = False
                break
        if complete:
            com.append(mask)
    return _Enumeration((1 << n) - 1, tuple(cf), tuple(adm), tuple(com))


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


def _conflict_free_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    return _enumerate(af).cf


def _admissible_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    return _enumerate(af).adm


def _complete_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    return _enumerate(af).com


def _stable_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    enum = _enumerate(af)
    return tuple(m for m in enum.cf if m | af.attacked_by(m) == enum.full)


def _preferred_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    return _enumerate(af).preferred


def _grounded_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    minimal = _minimal(_enumerate(af).com, lambda m: m)
    if len(minimal) != 1:
        raise InternalInvariantViolation(
            f"expected exactly one minimal complete set, found {len(minimal)}"
        )
    return minimal


def _semi_stable_masks(af: ArgumentationFramework) -> tuple[int, ...]:
    enum = _enumerate(af)
    return _minimal(enum.com, lambda m: enum.full & ~(m | af.attacked_by(m)))


_DISPATCH = {
    Semantics.CONFLICT_FREE: _conflict_free_masks,
    Semantics.ADMISSIBLE: _admissible_masks,
    Semantics.COMPLETE: _complete_masks,
    Semantics.STABLE: _stable_masks,
    Semantics.PREFERRED: _preferred_masks,
    Semantics.GROUNDED: _grounded_masks,
    Semantics.SEMI_STABLE: _semi_stable_masks,
}


def extension_masks(af: ArgumentationFramework, semantics: Semantics) -> tuple[int, ...]:
    """Extension set of ``af`` as an ascending tuple of bitmasks over
    ``af.sorted_arguments``.  Frameworks with one argument set share that
    order, so their extension sets are equal exactly when these tuples are."""
    return _DISPATCH[Semantics(semantics)](af)


def extensions(af: ArgumentationFramework, semantics: Semantics) -> ExtensionSet:
    """Extension set of ``af`` under the given semantics."""
    return _decode(af, extension_masks(af, semantics))


def extension_difference(
    af: ArgumentationFramework, other: ArgumentationFramework, semantics: Semantics
) -> tuple[ExtensionSet, ExtensionSet]:
    """The extensions of ``af`` that ``other`` lacks (lost) and those of
    ``other`` that ``af`` lacks (gained).  Both frameworks must have the
    same argument set; only the differing extensions are decoded."""
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
