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

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, _bits
from .semantics import Semantics, extension_masks


def labellings_for(
    af: ArgumentationFramework, semantics: Semantics
) -> list[tuple[int, int, int]]:
    """The complete labellings restricted per the requested semantics, in
    canonical labelling order, each as its (in, out, undec) masks over
    ``af.sorted_arguments``.

    Each is the labelling of one extension of that semantics: stb has no
    undec, prf maximal in, gde minimal in and sst minimal undec among the
    complete labellings, exactly as the stable, preferred, grounded and
    semi-stable sets are among the complete sets.  An extension is
    conflict-free, so it attacks none of its members: out is its targets
    and undec the rest.
    """
    semantics = Semantics(semantics)
    if semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(f"no labelling restriction is defined for {semantics.value}")
    # canonical labelling order is by sorted in-set names, which are the
    # masks' ascending member indices
    masks = sorted(extension_masks(af, semantics), key=lambda m: tuple(_bits(m)))
    full = (1 << len(af.sorted_arguments)) - 1
    return [(m, out, full & ~(m | out)) for m, out in zip(masks, map(af.attacked_by, masks))]
