"""Three-valued labellings and their correspondence with the semantics.

A labelling assigns each argument one of ``in``, ``out`` or ``undec``.  The
reinstatement conditions are: every in-argument has all attackers out, and
every out-argument has at least one in attacker.  Complete labellings also
satisfy the converse directions.  Enumeration walks all 3^n assignments, so
it is guarded by a size limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import NotAdmissible, SizeLimit, UnsupportedSemantics
from .framework import ArgumentationFramework
from .semantics import (
    ExtensionSet,
    Semantics,
    admissible_sets,
    extension_sort_key,
)

MAX_LABELLING_ARGUMENTS = 16


class Label(str, Enum):
    IN = "in"
    OUT = "out"
    UNDEC = "undec"


@dataclass(frozen=True, init=False)
class Labelling:
    """A total assignment of labels, stored as the three label classes.

    The three sets must be pairwise disjoint; together they are the
    labelled arguments.
    """

    in_set: frozenset[str]
    out_set: frozenset[str]
    undec_set: frozenset[str]

    def __init__(self, in_set: Iterable[str], out_set: Iterable[str], undec_set: Iterable[str]):
        object.__setattr__(self, "in_set", frozenset(in_set))
        object.__setattr__(self, "out_set", frozenset(out_set))
        object.__setattr__(self, "undec_set", frozenset(undec_set))
        total = len(self.in_set) + len(self.out_set) + len(self.undec_set)
        if total != len(self.in_set | self.out_set | self.undec_set):
            raise ValueError("label classes must be pairwise disjoint")

    @property
    def arguments(self) -> frozenset[str]:
        return self.in_set | self.out_set | self.undec_set

    def label_of(self, name: str) -> Label:
        if name in self.in_set:
            return Label.IN
        if name in self.out_set:
            return Label.OUT
        if name in self.undec_set:
            return Label.UNDEC
        raise KeyError(name)


class CredulousSets(NamedTuple):
    """Arguments labelled in/out/undec in at least one labelling."""

    in_set: frozenset[str]
    out_set: frozenset[str]
    undec_set: frozenset[str]


def _sort_key(labelling: Labelling) -> tuple:
    return (tuple(sorted(labelling.in_set)), tuple(sorted(labelling.out_set)))


def labelling_from_set(af: ArgumentationFramework, members: Iterable[str]) -> Labelling:
    """The labelling induced by a set: members in, their targets out,
    everything else undec.  No admissibility requirement."""
    members = frozenset(members)
    for name in members:
        af._require(name)
    attacked = frozenset(t for m in members for t in af.targets(m))
    return Labelling(members, attacked - members, af.arguments - members - attacked)


def extension_labellings(af: ArgumentationFramework, family: ExtensionSet) -> list[Labelling]:
    """The labellings induced by the members of an extension family, in
    canonical extension order."""
    return [labelling_from_set(af, ext) for ext in sorted(family, key=extension_sort_key)]


def labelling_of_extension(af: ArgumentationFramework, extension: Iterable[str]) -> Labelling:
    """As :func:`labelling_from_set`, but the set must be admissible."""
    extension = frozenset(extension)
    for name in extension:
        af._require(name)
    if extension not in admissible_sets(af):
        raise NotAdmissible(f"{sorted(extension)} is not admissible")
    return labelling_from_set(af, extension)


def _check_size(af: ArgumentationFramework) -> None:
    if len(af.arguments) > MAX_LABELLING_ARGUMENTS:
        raise SizeLimit(
            f"{len(af.arguments)} arguments exceed the labelling limit of {MAX_LABELLING_ARGUMENTS}"
        )


def _satisfies_reinstatement(af: ArgumentationFramework, labels: dict[str, Label]) -> bool:
    for name, label in labels.items():
        attackers = af.attackers(name)
        if label is Label.IN:
            if any(labels[b] is not Label.OUT for b in attackers):
                return False
        elif label is Label.OUT:
            if not any(labels[b] is Label.IN for b in attackers):
                return False
    return True


def _satisfies_converse(af: ArgumentationFramework, labelling: Labelling) -> bool:
    for name in labelling.arguments:
        attackers = af.attackers(name)
        if all(b in labelling.out_set for b in attackers) and name not in labelling.in_set:
            return False
        if any(b in labelling.in_set for b in attackers) and name not in labelling.out_set:
            return False
    return True


def reinstatement_labellings(af: ArgumentationFramework) -> list[Labelling]:
    """All labellings satisfying the two reinstatement conditions, in
    canonical order."""
    _check_size(af)
    order = af.sorted_arguments
    found = []
    for assignment in itertools.product(tuple(Label), repeat=len(order)):
        labels = dict(zip(order, assignment))
        if _satisfies_reinstatement(af, labels):
            found.append(
                Labelling(
                    (a for a in order if labels[a] is Label.IN),
                    (a for a in order if labels[a] is Label.OUT),
                    (a for a in order if labels[a] is Label.UNDEC),
                )
            )
    found.sort(key=_sort_key)
    return found


def complete_labellings(af: ArgumentationFramework) -> list[Labelling]:
    """Reinstatement labellings that also satisfy the converse directions:
    arguments with all attackers out are in, arguments with an in attacker
    are out."""
    return [lab for lab in reinstatement_labellings(af) if _satisfies_converse(af, lab)]


def labellings_for(af: ArgumentationFramework, semantics: Semantics) -> list[Labelling]:
    """Complete labellings restricted per the requested semantics."""
    semantics = Semantics(semantics)
    if semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(f"no labelling restriction is defined for {semantics.value}")
    complete = complete_labellings(af)
    if semantics is Semantics.COMPLETE:
        return complete
    if semantics is Semantics.STABLE:
        return [lab for lab in complete if not lab.undec_set]
    if semantics is Semantics.PREFERRED:
        return [
            lab
            for lab in complete
            if not any(other.in_set > lab.in_set for other in complete)
        ]
    if semantics is Semantics.GROUNDED:
        return [
            lab
            for lab in complete
            if not any(other.in_set < lab.in_set for other in complete)
        ]
    if semantics is Semantics.SEMI_STABLE:
        return [
            lab
            for lab in complete
            if not any(other.undec_set < lab.undec_set for other in complete)
        ]
    raise UnsupportedSemantics(semantics.value)


def credulous_sets(af: ArgumentationFramework, semantics: Semantics) -> CredulousSets:
    """Union of the in/out/undec classes over the labellings associated
    with the semantics.

    For conflict-free and admissible semantics the labellings are the ones
    induced by the extensions themselves; for the rest they come from
    :func:`labellings_for`.  The in-component is exactly the credulously
    accepted arguments.

    The conflict-free union has a closed form: every argument that does not
    attack itself is in its own conflict-free singleton, whose labelling
    puts that argument's targets out, and the empty set leaves every
    argument undec.
    """
    semantics = Semantics(semantics)
    if semantics is Semantics.CONFLICT_FREE:
        acceptable = [name for name in af.arguments if name not in af.targets(name)]
        return CredulousSets(
            frozenset(acceptable),
            frozenset(target for name in acceptable for target in af.targets(name)),
            af.arguments,
        )
    if semantics is Semantics.ADMISSIBLE:
        labellings = extension_labellings(af, admissible_sets(af))
    else:
        labellings = labellings_for(af, semantics)
    in_set: frozenset[str] = frozenset()
    out_set: frozenset[str] = frozenset()
    undec_set: frozenset[str] = frozenset()
    for lab in labellings:
        in_set |= lab.in_set
        out_set |= lab.out_set
        undec_set |= lab.undec_set
    return CredulousSets(in_set, out_set, undec_set)
