"""Attack classification: does adding one attack preserve the extension set?

For conflict-free semantics a single credulous-acceptance test decides
invariance exactly.  For admissible semantics the decision is made by
scanning labelling-based rules over the labellings of the admissible
extensions: the "ND" rules detect additions that can delete an extension,
the "NI" rules detect additions that can create one.  An addition is
classified invariant when no rule fires for any labelling.

The rule scan is a fast structural predicate, not a recomputation; the
:mod:`afrob.oracle` module cross-validates it against the definitional
ground truth and reports every divergence instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ArgumentSetMismatch, UnsupportedSemantics
from .framework import ArgumentationFramework, Attack
from .labelling import Labelling, credulous_sets, labelling_from_set
from .semantics import (
    ExtensionSet,
    Semantics,
    admissible_sets,
    extension_sort_key,
    extensions,
    preferred_sets,
)


class Verdict(str, Enum):
    INVARIANT = "invariant"
    BREAKS_NON_DECREASING = "breaks_non_decreasing"
    BREAKS_NON_INCREASING = "breaks_non_increasing"
    BREAKS_BOTH = "breaks_both"


class Rule(str, Enum):
    """Identifiers of the preservation rules an attack can violate."""

    CF_EXISTING_CONFLICT = "CF-existing-conflict"
    CF_NEVER_IN = "CF-never-in"
    ND_IN_IN = "ND-in-in"
    ND_OUT_IN_UNDEFENDED = "ND-out-in-undefended"
    ND_UNDEC_IN = "ND-undec-in"
    NI_IN_IN_DEFENDS = "NI-in-in-defends"
    NI_IN_OUT_REINSTATES = "NI-in-out-reinstates"
    NI_IN_UNDEC_DEFENDS_UNDEC = "NI-in-undec-defends-undec"
    NI_OUT_SELF_DEFENSE = "NI-out-self-defense"


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
    """True when both frameworks have identical extension sets."""
    if af.arguments != other.arguments:
        raise ArgumentSetMismatch("frameworks do not share an argument set")
    return extensions(af, semantics) == extensions(other, semantics)


def non_decreasing_violations(
    af: ArgumentationFramework, attack: Attack, labellings: Iterable[Labelling]
) -> list[Witness]:
    """Rules under which adding the attack can delete an admissible set.

    For attack (a, b) and a labelling L:

    * ND-in-in: a and b are both in.
    * ND-out-in-undefended: a is out, b is in, b does not already attack a,
      and no out-argument attacks b.
    * ND-undec-in: a is undec and b is in.

    Over the labellings of all admissible sets, the addition is
    non-decreasing exactly when no labelling matches any rule: by Dung's
    definition an admissible S is lost exactly when b is in S and either a
    is in S or S does not attack a (ND-in-in, ND-undec-in), and
    ND-out-in-undefended fires only for an unattacked b, whose {b} is lost.
    """
    a, b = attack
    found = []
    attackers_of_b = af.attackers(b)
    b_attacks_a = Attack(b, a) in af.attacks
    for lab in labellings:
        if a in lab.in_set and b in lab.in_set:
            found.append(Witness(lab.in_set, Rule.ND_IN_IN))
        if (
            a in lab.out_set
            and b in lab.in_set
            and not b_attacks_a
            and attackers_of_b.isdisjoint(lab.out_set)
        ):
            found.append(Witness(lab.in_set, Rule.ND_OUT_IN_UNDEFENDED))
        if a in lab.undec_set and b in lab.in_set:
            found.append(Witness(lab.in_set, Rule.ND_UNDEC_IN))
    return found


def non_increasing_violations(
    af: ArgumentationFramework, attack: Attack, labellings: Iterable[Labelling]
) -> list[Witness]:
    """Rules under which adding the attack can create an admissible set.

    For attack (a, b) and a labelling L:

    * NI-in-in-defends: a and b are in and some out-argument c is attacked
      by b but not by a.
    * NI-in-out-reinstates: a is in, b is out, and b attacks some
      in-argument.
    * NI-in-undec-defends-undec: a is in, b is undec, and b attacks some
      non-self-attacking undec argument.
    * NI-out-self-defense: a is out, an odd-length attack walk leads from b
      to a, and no c other than b has an odd walk to a without a matching
      odd walk from a back to c.

    These rules are not exact: a gain can occur with no rule matching any
    labelling, and a rule can fire when nothing is gained.
    :mod:`afrob.oracle` audits them against recomputation.
    """
    a, b = attack
    found = []
    # the walk conditions of NI-out-self-defense do not depend on the labelling
    self_defense_core = af.odd_walk_exists(b, a) and not any(
        c != b and af.odd_walk_exists(c, a) and not af.odd_walk_exists(a, c)
        for c in af.sorted_arguments
    )
    for lab in labellings:
        if (
            a in lab.in_set
            and b in lab.in_set
            and any(
                Attack(a, c) not in af.attacks and Attack(b, c) in af.attacks
                for c in lab.out_set
            )
        ):
            found.append(Witness(lab.in_set, Rule.NI_IN_IN_DEFENDS))
        if (
            a in lab.in_set
            and b in lab.out_set
            and any(Attack(b, c) in af.attacks for c in lab.in_set)
        ):
            found.append(Witness(lab.in_set, Rule.NI_IN_OUT_REINSTATES))
        if (
            a in lab.in_set
            and b in lab.undec_set
            and any(
                Attack(c, c) not in af.attacks and Attack(b, c) in af.attacks
                for c in lab.undec_set
            )
        ):
            found.append(Witness(lab.in_set, Rule.NI_IN_UNDEC_DEFENDS_UNDEC))
        if a in lab.out_set and self_defense_core:
            found.append(Witness(lab.in_set, Rule.NI_OUT_SELF_DEFENSE))
    return found


def _extension_labellings(
    af: ArgumentationFramework, extension_family: ExtensionSet
) -> list[Labelling]:
    return [
        labelling_from_set(af, ext)
        for ext in sorted(extension_family, key=extension_sort_key)
    ]


def classify_conflict_free_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    credulous_in: frozenset[str] | None = None,
) -> AttackClassification:
    """Classify an attack addition for the conflict-free semantics.

    Invariant exactly when the endpoints are already in conflict or one of
    them occurs in no conflict-free set.  A non-invariant addition always
    shrinks the family (expansions can never enlarge it), so the verdict is
    then ``breaks_non_decreasing``, witnessed by the two-element set that
    gets lost.
    """
    attack = Attack(*attack)
    af._require(attack.source)
    af._require(attack.target)
    a, b = attack
    if attack in af.attacks or Attack(b, a) in af.attacks:
        return AttackClassification(attack, Semantics.CONFLICT_FREE, Verdict.INVARIANT, ())
    if credulous_in is None:
        credulous_in = credulous_sets(af, Semantics.CONFLICT_FREE).in_set
    if a not in credulous_in or b not in credulous_in:
        return AttackClassification(attack, Semantics.CONFLICT_FREE, Verdict.INVARIANT, ())
    witness = Witness(frozenset({a, b}), Rule.CF_NEVER_IN)
    return AttackClassification(
        attack, Semantics.CONFLICT_FREE, Verdict.BREAKS_NON_DECREASING, (witness,)
    )


def classify_admissible_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    preferred_only: bool = False,
    labellings: list[Labelling] | None = None,
) -> AttackClassification:
    """Classify an attack addition for the admissible semantics by running
    both rule scans over the labellings of the admissible extensions (or
    only the preferred ones when ``preferred_only`` is set).

    Re-adding an existing attack is trivially invariant.
    """
    attack = Attack(*attack)
    af._require(attack.source)
    af._require(attack.target)
    if attack in af.attacks:
        return AttackClassification(attack, Semantics.ADMISSIBLE, Verdict.INVARIANT, ())
    if labellings is None:
        family = preferred_sets(af) if preferred_only else admissible_sets(af)
        labellings = _extension_labellings(af, family)
    losses = non_decreasing_violations(af, attack, labellings)
    gains = non_increasing_violations(af, attack, labellings)
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
    return [
        Attack(source, target)
        for source in af.sorted_arguments
        for target in af.sorted_arguments
        if Attack(source, target) not in af.attacks
    ]


def framework_classifier(
    af: ArgumentationFramework, semantics: Semantics
) -> Callable[[tuple[str, str]], AttackClassification]:
    """A classifier for attacks added to ``af``, equivalent to
    :func:`classify_attack` with the same arguments.

    The per-framework state (the conflict-free credulous in-set, or the
    labellings of the admissible sets) is built once, here,
    and shared by every call, so classifying all n^2 candidates of a
    framework costs one enumeration instead of one per candidate.
    """
    semantics = Semantics(semantics)
    if semantics is Semantics.CONFLICT_FREE:
        credulous_in = credulous_sets(af, Semantics.CONFLICT_FREE).in_set
        return lambda attack: classify_conflict_free_attack(af, attack, credulous_in)
    if semantics is Semantics.ADMISSIBLE:
        labellings = _extension_labellings(af, admissible_sets(af))
        return lambda attack: classify_admissible_attack(af, attack, labellings=labellings)
    raise UnsupportedSemantics(f"attack classification supports cf and adm, not {semantics.value}")


def invariant_attacks(af: ArgumentationFramework, semantics: Semantics) -> Iterator[Attack]:
    """The candidate attacks classified invariant, lazily in canonical
    order, all classified by one :func:`framework_classifier`."""
    classify = framework_classifier(af, semantics)
    return (
        attack
        for attack in candidate_attacks(af)
        if classify(attack).verdict is Verdict.INVARIANT
    )


def enumerate_invariant_attacks(
    af: ArgumentationFramework, semantics: Semantics
) -> frozenset[Attack]:
    """All attacks not yet present whose addition is classified invariant."""
    return frozenset(invariant_attacks(af, semantics))
