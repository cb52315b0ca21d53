"""Three-valued labellings and their correspondence with the semantics.

A labelling assigns each argument one of ``in``, ``out`` or ``undec``.  A
complete labelling has every in-argument's attackers out, every
out-argument attacked by an in-argument, and the converse directions.  By
Caminada's correspondence the complete labellings are exactly the labellings
of the complete extensions (the set in, its targets out, the rest undec),
and the restrictions per semantics are the labellings of that semantics'
extensions.  So labellings are built from the extension enumeration and
share its size limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, _bits
from .semantics import Semantics, extension_masks


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


def _labelling_of_mask(af: ArgumentationFramework, mask: int) -> Labelling:
    """The labelling induced by the set ``mask``: its members in, their
    targets out, everything else undec."""
    out = af.attacked_by(mask) & ~mask
    undec = (1 << len(af.sorted_arguments)) - 1 & ~(mask | out)
    return Labelling(af._names(mask), af._names(out), af._names(undec))


def labellings_for(af: ArgumentationFramework, semantics: Semantics) -> list[Labelling]:
    """The complete labellings restricted per the requested semantics, in
    canonical labelling order.

    Each is the labelling of one extension of that semantics: stb has no
    undec, prf maximal in, gde minimal in and sst minimal undec among the
    complete labellings, exactly as the stable, preferred, grounded and
    semi-stable sets are among the complete sets.
    """
    semantics = Semantics(semantics)
    if semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(f"no labelling restriction is defined for {semantics.value}")
    # canonical labelling order is by sorted in-set names, which are the
    # masks' ascending member indices
    masks = sorted(extension_masks(af, semantics), key=lambda m: tuple(_bits(m)))
    return [_labelling_of_mask(af, m) for m in masks]
