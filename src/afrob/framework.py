"""Immutable argumentation frameworks and attack-relation queries.

A framework is a finite set of named arguments plus a set of directed
attacks between them.  Everything here is value-semantic: operations never
mutate, they return fresh frameworks, so instances can be shared freely
(across threads included) and used as dictionary keys.
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
    which attacks were inserted is irrelevant.  Self-attacks are allowed.
    """

    arguments: frozenset[str]
    attacks: frozenset[Attack]

    def __init__(self, arguments: Iterable[str] = (), attacks: Iterable[tuple[str, str]] = ()):
        object.__setattr__(self, "arguments", frozenset(arguments))
        object.__setattr__(self, "attacks", frozenset(Attack(s, t) for s, t in attacks))
        for name in self.arguments:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid argument name: {name!r}")
        for attack in self.attacks:
            if attack.source not in self.arguments:
                raise UnknownArgument(f"attack source {attack.source!r} is not an argument")
            if attack.target not in self.arguments:
                raise UnknownArgument(f"attack target {attack.target!r} is not an argument")

    @cached_property
    def sorted_arguments(self) -> tuple[str, ...]:
        """Arguments in the canonical (lexicographic) order."""
        return tuple(sorted(self.arguments))

    @cached_property
    def bit_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per argument of ``sorted_arguments``, the bitmask of its targets
        and the bitmask of its attackers; bit i stands for the i-th
        argument of that order."""
        position = {name: i for i, name in enumerate(self.sorted_arguments)}
        targets = [0] * len(position)
        attackers = [0] * len(position)
        for source, target in self.attacks:
            targets[position[source]] |= 1 << position[target]
            attackers[position[target]] |= 1 << position[source]
        return tuple(targets), tuple(attackers)

    @cached_property
    def odd_walk_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per argument, the bitmask of the arguments an odd walk leads to
        from it ("reaches") and of those with an odd walk to it ("is
        reached from"), over the order of :attr:`bit_rows`."""
        targets, attackers = self.bit_rows
        return _odd_closure(targets), _odd_closure(attackers)

    @cached_property
    def _attackers_of(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {name: set() for name in self.arguments}
        for source, target in self.attacks:
            table[target].add(source)
        return {name: frozenset(sources) for name, sources in table.items()}

    @cached_property
    def _targets_of(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {name: set() for name in self.arguments}
        for source, target in self.attacks:
            table[source].add(target)
        return {name: frozenset(targets) for name, targets in table.items()}

    def _require(self, name: str) -> None:
        if name not in self.arguments:
            raise UnknownArgument(f"unknown argument: {name!r}")

    def add_attack(self, source: str, target: str) -> "ArgumentationFramework":
        """Return a copy with the attack added; adding an existing attack
        returns an equal framework."""
        self._require(source)
        self._require(target)
        attack = Attack(source, target)
        if attack in self.attacks:
            return self
        return ArgumentationFramework(self.arguments, self.attacks | {attack})

    def attackers(self, argument: str) -> frozenset[str]:
        """All arguments attacking ``argument``."""
        self._require(argument)
        return self._attackers_of[argument]

    def targets(self, argument: str) -> frozenset[str]:
        """All arguments attacked by ``argument``."""
        self._require(argument)
        return self._targets_of[argument]

    def set_attacks(self, members: Iterable[str], target: str) -> bool:
        """True if some member of the set attacks ``target``."""
        members = frozenset(members)
        for name in members:
            self._require(name)
        self._require(target)
        return not members.isdisjoint(self._attackers_of[target])

    def defends(self, members: Iterable[str], argument: str) -> bool:
        """True if the set counterattacks every attacker of ``argument``.

        Vacuously true for unattacked arguments.
        """
        members = frozenset(members)
        for name in members:
            self._require(name)
        self._require(argument)
        return all(self.set_attacks(members, attacker) for attacker in self._attackers_of[argument])

    def odd_walk_exists(self, source: str, target: str) -> bool:
        """True if a directed walk with an odd number of attacks leads from
        ``source`` to ``target``.  Walks may repeat vertices and attacks."""
        self._require(source)
        self._require(target)
        order = self.sorted_arguments
        reaches, _ = self.odd_walk_rows
        return bool(reaches[order.index(source)] >> order.index(target) & 1)
