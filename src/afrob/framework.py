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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import UnknownArgument

_NAME = re.compile(r"[A-Za-z0-9_]+")


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
