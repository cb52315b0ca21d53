"""Immutable argumentation frameworks and attack-relation queries.

A framework is a finite set of named arguments plus a set of directed
attacks between them, stored once: the arguments in canonical
(lexicographic) order and, per argument, the bitmask of its targets, where
bit i stands for the i-th argument of that order.  Every other view (the
attack set, the attacker rows) is read off these rows.  Everything here is
value-semantic: operations never mutate, they return fresh frameworks, so
instances can be shared freely (across threads included) and used as
dictionary keys.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import UnknownArgument

_NAME = re.compile(r"[A-Za-z0-9_]+")


class Attack(NamedTuple):
    """A directed attack from ``source`` against ``target``."""

    source: str
    target: str


# _BIT_TABLE[m] holds the ascending set-bit positions of each m < _SMALL as
# bytes (iterating bytes yields ints); built by doubling, so entry m + 2^i
# is entry m followed by i.  About 190 KB, none of it tracked by the GC.
_SMALL = 1 << 12
_BIT_TABLE = [b""]
for _i in range(12):
    _tail = bytes((_i,))
    _BIT_TABLE += [b + _tail for b in _BIT_TABLE]
del _i, _tail


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    if mask < _SMALL:
        return _BIT_TABLE[mask]
    return _bits_above(mask)


def _bits_above(mask: int):
    """:func:`_bits` for masks of ``_SMALL`` and above."""
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


class ArgumentationFramework:
    """A finite argument set with a binary attack relation over it.

    Equality compares the argument set and the attack set; the order in
    which arguments and attacks were inserted is irrelevant.  Self-attacks
    are allowed.  Instances are immutable and hashable.
    """

    sorted_arguments: tuple[str, ...]
    target_rows: tuple[int, ...]

    def __init__(self, arguments: Iterable[str] = (), attacks: Iterable[tuple[str, str]] = ()):
        order = tuple(sorted(set(arguments)))
        for name in order:
            if not _NAME.fullmatch(name):
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

    @classmethod
    def _from_rows(cls, order: tuple[str, ...], rows: tuple[int, ...]) -> "ArgumentationFramework":
        """The framework over ``order``, distinct valid names already in
        canonical order, with the target rows ``rows``; neither is checked."""
        af = object.__new__(cls)
        object.__setattr__(af, "sorted_arguments", order)
        object.__setattr__(af, "target_rows", rows)
        return af

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = (other.sorted_arguments, other.target_rows)
        return (self.sorted_arguments, self.target_rows) == key

    def __hash__(self):
        return hash((self.sorted_arguments, self.target_rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = f"sorted_arguments={self.sorted_arguments!r}, target_rows={self.target_rows!r}"
        return f"{type(self).__qualname__}({fields})"

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

    def _index(self, name: str) -> int:
        try:
            return self.sorted_arguments.index(name)
        except ValueError:
            raise UnknownArgument(f"unknown argument: {name!r}") from None

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
        return self._from_rows(self.sorted_arguments, _with_attack(self.target_rows, a, b))
