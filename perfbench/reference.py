"""Definitional reference for checking afrob's outputs.

Imports nothing from ``afrob``.  Frameworks are a list of names and a set
of ``(attacker, target)`` pairs; sets of arguments are plain frozensets.
Each semantics is written from its textbook definition (Dung 1995;
Caminada 2006 for semi-stable and for labellings), deliberately by other
routes than the package takes where a choice exists: grounded is the least
fixpoint of the characteristic function, not the minimal complete set, and
semi-stable maximises the range S ∪ S⁺, not minimises the undecided part.
"""

from __future__ import annotations


class Framework:
    def __init__(self, args, attacks):
        self.args = frozenset(args)
        self.attacks = frozenset(attacks)
        self.attackers = {a: frozenset(s for s, t in self.attacks if t == a) for a in self.args}
        self.targets = {a: frozenset(t for s, t in self.attacks if s == a) for a in self.args}

    def plus(self, extra) -> "Framework":
        return Framework(self.args, self.attacks | set(extra))

    def attacked_by(self, members) -> frozenset:
        return frozenset(t for m in members for t in self.targets[m])

    def defended(self, members) -> frozenset:
        """Every argument all of whose attackers ``members`` attack."""
        hit = self.attacked_by(members)
        return frozenset(a for a in self.args if self.attackers[a] <= hit)


def conflict_free(af: Framework) -> list[frozenset]:
    """Every subset with no attack inside it.  Conflict-freeness is closed
    under subsets, so the sets are grown one argument at a time from
    conflict-free sets only."""
    found = [frozenset()]
    frontier = [frozenset()]
    order = sorted(af.args)
    rank = {a: i for i, a in enumerate(order)}
    while frontier:
        grown = []
        for members in frontier:
            start = max((rank[m] for m in members), default=-1) + 1
            for a in order[start:]:
                if (a, a) in af.attacks:
                    continue
                if any((a, m) in af.attacks or (m, a) in af.attacks for m in members):
                    continue
                grown.append(members | {a})
        found += grown
        frontier = grown
    return found


def admissible(af: Framework, cf=None) -> list[frozenset]:
    cf = conflict_free(af) if cf is None else cf
    return [s for s in cf if s <= af.defended(s)]


def complete(af: Framework, adm=None) -> list[frozenset]:
    adm = admissible(af) if adm is None else adm
    return [s for s in adm if af.defended(s) <= s]


def stable(af: Framework, cf=None) -> list[frozenset]:
    cf = conflict_free(af) if cf is None else cf
    return [s for s in cf if s | af.attacked_by(s) == af.args]


def _maximal(family, key=lambda s: s) -> list[frozenset]:
    keyed = [(key(s), s) for s in family]
    return [s for k, s in keyed if not any(k < other for other, _ in keyed)]


def preferred(af: Framework, adm=None) -> list[frozenset]:
    return _maximal(admissible(af) if adm is None else adm)


def grounded(af: Framework) -> list[frozenset]:
    """Least fixpoint of F(S) = {a | S defends a}, iterated from ∅."""
    current: frozenset = frozenset()
    while True:
        nxt = af.defended(current)
        if nxt == current:
            return [current]
        current = nxt


def semi_stable(af: Framework, com=None) -> list[frozenset]:
    """Complete sets whose range S ∪ S⁺ is inclusion-maximal."""
    com = complete(af) if com is None else com
    return _maximal(com, key=lambda s: s | af.attacked_by(s))


def all_extensions(af: Framework) -> dict[str, frozenset]:
    cf = conflict_free(af)
    adm = admissible(af, cf)
    com = complete(af, adm)
    found = {
        "cf": cf,
        "adm": adm,
        "com": com,
        "stb": stable(af, cf),
        "prf": preferred(af, adm),
        "gde": grounded(af),
        "sst": semi_stable(af, com),
    }
    return {sem: frozenset(family) for sem, family in found.items()}


def extensions(af: Framework, semantics: str) -> frozenset:
    if semantics == "cf":
        return frozenset(conflict_free(af))
    if semantics == "adm":
        return frozenset(admissible(af))
    return all_extensions(af)[semantics]


def labelling(af: Framework, members) -> tuple[frozenset, frozenset, frozenset]:
    """Caminada's Ext2Lab: members in, what they attack out, the rest undec."""
    members = frozenset(members)
    out = af.attacked_by(members)
    return members, out, af.args - members - out

