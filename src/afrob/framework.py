"""Immutable argumentation frameworks and attack-relation queries.

A framework is a finite set of named arguments plus a set of directed
attacks between them, stored once: the arguments in canonical
(lexicographic) order and, per argument, the bitmask of its targets, where
bit i stands for the i-th argument of that order.  Every other view (the
attack set, the attacker rows, the name-level queries) is read off these
rows.  Everything here is value-semantic: operations never mutate, they
return fresh frameworks, so instances can be shared freely (across threads
included) and used as dictionary keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import UnknownArgument

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class Attack(NamedTuple):
    """A directed attack from ``source`` against ``target``."""

    source: str
    target: str


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _attacks_in(order: tuple[str, ...], rows: Iterable[int]) -> list[Attack]:
    """The attack (order[a], order[b]) for each bit b of ``rows[a]``, in
    canonical order."""
    return [Attack(order[a], order[b]) for a, row in enumerate(rows) for b in _bits(row)]


def _with_attack(rows: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """``rows`` with bit b of row a set."""
    return rows[:a] + (rows[a] | 1 << b,) + rows[a + 1 :]


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the reversed relation: bit a of row b is bit b of
    ``rows[a]``."""
    reversed_rows = [0] * len(rows)
    for a, row in enumerate(rows):
        for b in _bits(row):
            reversed_rows[b] |= 1 << a
    return tuple(reversed_rows)


def _odd_closure(successors: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex i, the bitmask of the vertices at the end of an odd walk
    from i, where ``successors[i]`` is the bitmask of i's successors.

    The least fixpoint of odd(i) = the union of even(j) and even(i) = {i}
    with the union of odd(j), over the successors j of i, iterated from
    below until a whole round leaves every row as it was.
    """
    successor_lists = [tuple(_bits(row)) for row in successors]
    even = [1 << i for i in range(len(successors))]
    odd = [0] * len(successors)
    changed = True
    while changed:
        changed = False
        for i, successors_of_i in enumerate(successor_lists):
            o, e = 0, 1 << i
            for j in successors_of_i:
                o |= even[j]
                e |= odd[j]
            if o != odd[i] or e != even[i]:
                odd[i], even[i] = o, e
                changed = True
    return tuple(odd)


@dataclass(frozen=True, init=False)
class ArgumentationFramework:
    """A finite argument set with a binary attack relation over it.

    Equality compares the argument set and the attack set; the order in
    which arguments and attacks were inserted is irrelevant.  Self-attacks
    are allowed.
    """

    sorted_arguments: tuple[str, ...]
    target_rows: tuple[int, ...]

    def __init__(self, arguments: Iterable[str] = (), attacks: Iterable[tuple[str, str]] = ()):
        order = tuple(sorted(set(arguments)))
        for name in order:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid argument name: {name!r}")
        position = {name: i for i, name in enumerate(order)}
        rows = [0] * len(order)
        for source, target in attacks:
            if source not in position:
                raise UnknownArgument(f"attack source {source!r} is not an argument")
            if target not in position:
                raise UnknownArgument(f"attack target {target!r} is not an argument")
            rows[position[source]] |= 1 << position[target]
        object.__setattr__(self, "sorted_arguments", order)
        object.__setattr__(self, "target_rows", tuple(rows))

    @cached_property
    def arguments(self) -> frozenset[str]:
        """The argument names, as a set."""
        return frozenset(self.sorted_arguments)

    @cached_property
    def attacks(self) -> frozenset[Attack]:
        """The attack relation, decoded from ``target_rows``."""
        return frozenset(_attacks_in(self.sorted_arguments, self.target_rows))

    @cached_property
    def bit_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per argument of ``sorted_arguments``, the bitmask of its targets
        (``target_rows``) and the bitmask of its attackers."""
        return self.target_rows, _transpose(self.target_rows)

    @cached_property
    def odd_walk_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per argument, the bitmask of the arguments an odd walk leads to
        from it ("reaches") and of those with an odd walk to it ("is
        reached from"), over the order of :attr:`bit_rows`.  The second
        table is the transpose of the first."""
        reaches = _odd_closure(self.target_rows)
        return reaches, _transpose(reaches)

    def _index(self, name: str) -> int:
        try:
            return self.sorted_arguments.index(name)
        except ValueError:
            raise UnknownArgument(f"unknown argument: {name!r}") from None

    def _mask(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._index(name)
        return mask

    def _names(self, mask: int) -> frozenset[str]:
        return frozenset(self.sorted_arguments[i] for i in _bits(mask))

    def attacked_by(self, mask: int) -> int:
        """The bitmask of the arguments that some member of the set
        ``mask`` attacks."""
        attacked = 0
        for i in _bits(mask):
            attacked |= self.target_rows[i]
        return attacked

    def add_attack(self, source: str, target: str) -> "ArgumentationFramework":
        """Return a copy with the attack added; adding an existing attack
        returns an equal framework.  The copy shares this framework's
        argument order, so nothing is validated again."""
        a, b = self._index(source), self._index(target)
        if self.target_rows[a] >> b & 1:
            return self
        expanded = object.__new__(ArgumentationFramework)
        object.__setattr__(expanded, "sorted_arguments", self.sorted_arguments)
        object.__setattr__(expanded, "target_rows", _with_attack(self.target_rows, a, b))
        return expanded

    def attackers(self, argument: str) -> frozenset[str]:
        """All arguments attacking ``argument``."""
        return self._names(self.bit_rows[1][self._index(argument)])

    def targets(self, argument: str) -> frozenset[str]:
        """All arguments attacked by ``argument``."""
        return self._names(self.target_rows[self._index(argument)])

    def set_attacks(self, members: Iterable[str], target: str) -> bool:
        """True if some member of the set attacks ``target``."""
        mask = self._mask(members)
        return bool(self.attacked_by(mask) >> self._index(target) & 1)

    def defends(self, members: Iterable[str], argument: str) -> bool:
        """True if the set counterattacks every attacker of ``argument``.

        Vacuously true for unattacked arguments.
        """
        mask = self._mask(members)
        return not self.bit_rows[1][self._index(argument)] & ~self.attacked_by(mask)

    def odd_walk_exists(self, source: str, target: str) -> bool:
        """True if a directed walk with an odd number of attacks leads from
        ``source`` to ``target``.  Walks may repeat vertices and attacks."""
        a, b = self._index(source), self._index(target)
        reaches, _ = self.odd_walk_rows
        return bool(reaches[a] >> b & 1)
