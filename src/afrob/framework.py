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

    @cached_property
    def _odd_reach(self) -> dict[str, frozenset[str]]:
        # filled per source by odd_walk_exists; a fresh instance (say from
        # add_attack) starts empty, so an entry never outlives its relation.
        # Two threads racing on one source store the same set.
        return {}

    def odd_walk_exists(self, source: str, target: str) -> bool:
        """True if a directed walk with an odd number of attacks leads from
        ``source`` to ``target``.

        Walks may repeat vertices and attacks, so this is decided by a
        breadth-first search over (argument, parity) states.  The arguments
        reached at odd parity are memoised per source on this instance, so
        each source is searched at most once per framework.
        """
        self._require(source)
        self._require(target)
        reach = self._odd_reach.get(source)
        if reach is None:
            seen = {(source, 0)}
            frontier = [(source, 0)]
            while frontier:
                next_frontier = []
                for node, parity in frontier:
                    for successor in self._targets_of[node]:
                        state = (successor, parity ^ 1)
                        if state not in seen:
                            seen.add(state)
                            next_frontier.append(state)
                frontier = next_frontier
            reach = frozenset(node for node, parity in seen if parity)
            self._odd_reach[source] = reach
        return target in reach
