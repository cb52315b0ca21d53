"""Attack classification: does adding one attack preserve the extension set?

For conflict-free semantics a closed form decides invariance exactly.  For
admissible semantics the decision is made by labelling-based rules over the
admissible sets: the "ND" rules detect additions that can delete an
extension, the "NI" rules detect additions that can create one.  An
addition is classified invariant when no rule fires for any labelling.  By
Caminada's correspondence the labelling of a set S is fixed by S (S in, its
targets out, the rest undec), so the rules are read directly off the
extension bitmasks of :mod:`afrob.semantics`.

The rule scan is a fast structural predicate, not a recomputation; the
:mod:`afrob.oracle` module cross-validates it against the definitional
ground truth and reports every divergence instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import ArgumentSetMismatch, UnsupportedSemantics
from . import semantics as _semantics
from .framework import ArgumentationFramework, Attack, _attacks_in, _bits
from .semantics import ExtensionSet, Semantics, _Enumeration, extension_masks


class Verdict(str, Enum):
    INVARIANT = "invariant"
    BREAKS_NON_DECREASING = "breaks_non_decreasing"
    BREAKS_NON_INCREASING = "breaks_non_increasing"
    BREAKS_BOTH = "breaks_both"


class Rule(str, Enum):
    """Identifiers of the preservation rules an attack can violate."""

    CF_NEVER_IN = "CF-never-in"
    ND_IN_IN = "ND-in-in"
    ND_OUT_IN_UNDEFENDED = "ND-out-in-undefended"
    ND_UNDEC_IN = "ND-undec-in"
    NI_IN_IN_DEFENDS = "NI-in-in-defends"
    NI_IN_OUT_REINSTATES = "NI-in-out-reinstates"
    NI_IN_UNDEC_DEFENDS_UNDEC = "NI-in-undec-defends-undec"
    NI_OUT_SELF_DEFENSE = "NI-out-self-defense"


_DELETION_RULES = frozenset({Rule.ND_IN_IN, Rule.ND_OUT_IN_UNDEFENDED, Rule.ND_UNDEC_IN})


class Witness(NamedTuple):
    """A labelling (by its in-set) and the rule it violates."""

    in_set: frozenset[str]
    rule: Rule


@dataclass(frozen=True)
class AttackClassification:
    attack: Attack
    semantics: Semantics
    verdict: Verdict
    witnesses: tuple[Witness, ...]


def extension_set_included(candidate: ExtensionSet, reference: ExtensionSet) -> bool:
    """Weak inclusion between extension families: every member of
    ``candidate`` is contained in some member of ``reference``."""
    return all(any(ext <= other for other in reference) for ext in candidate)


def sigma_equivalent(
    af: ArgumentationFramework, other: ArgumentationFramework, semantics: Semantics
) -> bool:
    """True when both frameworks have identical extension sets.

    The shared argument set gives both one argument order, so their
    ascending mask families are compared directly.
    """
    if af.sorted_arguments != other.sorted_arguments:
        raise ArgumentSetMismatch("the two frameworks do not share an argument set")
    return extension_masks(af, semantics) == extension_masks(other, semantics)


def _having(rows: tuple[int, ...], among: int, hits: int) -> int:
    """The arguments i in ``among`` whose ``rows[i]`` meets ``hits``."""
    return sum(1 << i for i in _bits(among) if rows[i] & hits)


def _self_defense_row(af: ArgumentationFramework, a: int) -> int:
    """The targets b that meet the walk conditions of NI-out-self-defense
    for source a: an odd walk leads from b to a, and no c other than b has
    an odd walk to a without a matching odd walk from a back to c."""
    reaches, reached_from = af.odd_walk_rows
    blocking = reached_from[a] & ~reaches[a]
    if blocking & (blocking - 1):
        return 0  # two blockers: every b leaves one that is not b
    return blocking or reached_from[a]


def _rule_rows(
    af: ArgumentationFramework, enum: _Enumeration, s: int, sources: int
) -> Iterator[tuple[int, tuple[tuple[Rule, int], ...]]]:
    """The rules that fire on the labelling of the admissible set ``s``,
    for each source a in ``sources``: yields a with a (rule, row) pair per
    rule that can fire, the row holding the targets b it fires on.

    With IN = s, OUT its targets and UNDEC the rest, for attack (a, b):

    * ND-in-in: a and b are both in.
    * ND-out-in-undefended: a is out, b is in, b does not already attack a,
      and no out-argument attacks b.
    * ND-undec-in: a is undec and b is in.
    * NI-in-in-defends: a and b are in and some out-argument c is attacked
      by b but not by a.
    * NI-in-out-reinstates: a is in, b is out, and b attacks some
      in-argument.
    * NI-in-undec-defends-undec: a is in, b is undec, and b attacks some
      non-self-attacking undec argument.
    * NI-out-self-defense: a is out and b meets the walk conditions of
      :func:`_self_defense_row`.

    The ND rules are exact over all admissible sets: by Dung's definition
    an admissible S is lost exactly when b is in S and either a is in S or
    S does not attack a (ND-in-in, ND-undec-in), and ND-out-in-undefended
    fires only for an unattacked b, whose {b} is lost.  The NI rules are
    not: a gain can occur with no rule firing, and a rule can fire when
    nothing is gained.  :mod:`afrob.oracle` audits them against
    recomputation.  a's label selects the rules, so at most one ND and one
    NI rule fire per labelling and candidate.
    """
    targets, attackers = af.bit_rows
    out = af.attacked_by(s)
    undec = enum.full & ~(s | out)
    # the rows shared by all sources with one label, built only if needed
    if s & sources:
        reinstating = _having(targets, out, s)
        acceptable = sum(1 << c for c in _bits(undec) if not targets[c] >> c & 1)
        defending_undec = _having(targets, undec, acceptable)
    if out & sources:
        unguarded = s & ~_having(attackers, s, out)
    for a in _bits(sources):
        if s >> a & 1:
            yield a, (
                (Rule.ND_IN_IN, s),
                (Rule.NI_IN_IN_DEFENDS, _having(targets, s, out & ~targets[a])),
                (Rule.NI_IN_OUT_REINSTATES, reinstating),
                (Rule.NI_IN_UNDEC_DEFENDS_UNDEC, defending_undec),
            )
        elif out >> a & 1:
            yield a, (
                (Rule.ND_OUT_IN_UNDEFENDED, unguarded & ~attackers[a]),
                (Rule.NI_OUT_SELF_DEFENSE, _self_defense_row(af, a)),
            )
        else:
            yield a, ((Rule.ND_UNDEC_IN, s),)


def _conflict_kept(af: ArgumentationFramework) -> list[int]:
    """Per argument a, the targets b for which adding (a, b) leaves every
    conflict-free set conflict-free: a and b already conflict, or one of
    them attacks itself (and so is in no conflict-free set)."""
    targets, attackers = af.bit_rows
    loops = sum(1 << a for a, row in enumerate(targets) if row >> a & 1)
    full = (1 << len(targets)) - 1
    return [
        full if loops >> a & 1 else targets[a] | attackers[a] | loops
        for a in range(len(targets))
    ]


def classify_conflict_free_attack(
    af: ArgumentationFramework, attack: tuple[str, str]
) -> AttackClassification:
    """Classify an attack addition for the conflict-free semantics.

    Invariant exactly when the endpoints are already in conflict or one of
    them attacks itself.  A non-invariant addition always shrinks the
    family (expansions can never enlarge it), so the verdict is then
    ``breaks_non_decreasing``, witnessed by the two-element set that gets
    lost.
    """
    attack = Attack(*attack)
    a, b = af._index(attack.source), af._index(attack.target)
    if _conflict_kept(af)[a] >> b & 1:
        return AttackClassification(attack, Semantics.CONFLICT_FREE, Verdict.INVARIANT, ())
    witness = Witness(frozenset(attack), Rule.CF_NEVER_IN)
    return AttackClassification(
        attack, Semantics.CONFLICT_FREE, Verdict.BREAKS_NON_DECREASING, (witness,)
    )


def classify_admissible_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    preferred_only: bool = False,
) -> AttackClassification:
    """Classify an attack addition for the admissible semantics by scanning
    the rules of :func:`_rule_rows` over the labellings of the admissible
    sets (or only the preferred ones when ``preferred_only`` is set), in
    canonical extension order.  The witnesses list every ND match, then
    every NI match.

    Re-adding an existing attack is trivially invariant.
    """
    attack = Attack(*attack)
    a, b = af._index(attack.source), af._index(attack.target)
    if af.target_rows[a] >> b & 1:
        return AttackClassification(attack, Semantics.ADMISSIBLE, Verdict.INVARIANT, ())
    # through the module, so a patched _enumerate (a tracer) sees this call
    enum = _semantics._enumerate(af)
    family = enum.prf if preferred_only else enum.adm
    losses: list[Witness] = []
    gains: list[Witness] = []
    # extension_sort_key's order: by size, then by names
    for s in sorted(family, key=lambda m: (m.bit_count(), tuple(_bits(m)))):
        for _, rows in _rule_rows(af, enum, s, 1 << a):
            for rule, row in rows:
                if row >> b & 1:
                    witness = Witness(af._names(s), rule)
                    (losses if rule in _DELETION_RULES else gains).append(witness)
    if losses and gains:
        verdict = Verdict.BREAKS_BOTH
    elif losses:
        verdict = Verdict.BREAKS_NON_DECREASING
    elif gains:
        verdict = Verdict.BREAKS_NON_INCREASING
    else:
        verdict = Verdict.INVARIANT
    return AttackClassification(attack, Semantics.ADMISSIBLE, verdict, tuple(losses + gains))


def classify_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    semantics: Semantics,
    preferred_only: bool = False,
) -> AttackClassification:
    """Dispatch to the conflict-free or admissible classifier."""
    semantics = Semantics(semantics)
    if semantics is Semantics.CONFLICT_FREE:
        return classify_conflict_free_attack(af, attack)
    if semantics is Semantics.ADMISSIBLE:
        return classify_admissible_attack(af, attack, preferred_only=preferred_only)
    raise UnsupportedSemantics(f"attack classification supports cf and adm, not {semantics.value}")


def candidate_attacks(af: ArgumentationFramework) -> list[Attack]:
    """All attacks not yet present, in canonical order."""
    full = (1 << len(af.target_rows)) - 1
    return _attacks_in(af.sorted_arguments, [full & ~row for row in af.target_rows])


def invariant_attacks(af: ArgumentationFramework, semantics: Semantics) -> list[Attack]:
    """The candidate attacks classified invariant, in canonical order:
    exactly those :func:`classify_attack` classifies invariant.

    For adm the rule rows of every admissible set are ORed once per
    framework, and a candidate is invariant when no rule fires on it.
    """
    semantics = Semantics(semantics)
    targets = af.target_rows
    if semantics is Semantics.CONFLICT_FREE:
        kept = _conflict_kept(af)
        return _attacks_in(af.sorted_arguments, [k & ~t for k, t in zip(kept, targets)])
    if semantics is not Semantics.ADMISSIBLE:
        raise UnsupportedSemantics(
            f"attack classification supports cf and adm, not {semantics.value}"
        )
    enum = _semantics._enumerate(af)
    fired = list(targets)  # existing attacks are no candidates
    for s in enum.adm:
        for a, rows in _rule_rows(af, enum, s, enum.full):
            for _, row in rows:
                fired[a] |= row
    return _attacks_in(af.sorted_arguments, [enum.full & ~row for row in fired])


def enumerate_invariant_attacks(
    af: ArgumentationFramework, semantics: Semantics
) -> frozenset[Attack]:
    """All attacks not yet present whose addition is classified invariant."""
    return frozenset(invariant_attacks(af, semantics))
