"""Brute-force ground truth and audits of the rule-based classifier.

Invariance is, by definition, equality of the extension sets before and
after the addition.  The functions here decide it by recomputing both
sides, never consulting labellings, which makes them an independent check
of the whole classification pipeline.  ``cross_validate`` compares the
classifier against this ground truth attack by attack; ``exhaustive_audit``
sweeps entire framework populations and aggregates every divergence into a
report instead of smoothing it over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from multiprocessing import Pool

from .framework import ArgumentationFramework, Attack
from .invariance import (
    Rule,
    Verdict,
    candidate_attacks,
    classify_attack,
    invariant_attacks,
)
from .semantics import ExtensionSet, Semantics, extension_difference, extension_masks

# aggregation key for divergences where no rule fired at all
NO_RULE_FIRED = "no-rule-fired"


@dataclass(frozen=True)
class DiscrepancyReport:
    """A single disagreement between the classifier and the ground truth."""

    framework: ArgumentationFramework
    attack: Attack
    semantics: Semantics
    predicate_verdict: Verdict
    oracle_verdict: bool
    rules: tuple[Rule, ...]
    lost: ExtensionSet
    gained: ExtensionSet


@dataclass
class AuditReport:
    """Aggregate outcome of a cross-validation sweep."""

    semantics: Semantics
    argument_count: int
    exhaustive: bool
    seed: int | None
    frameworks_checked: int
    candidates_checked: int
    discrepancies: tuple[DiscrepancyReport, ...]

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.discrepancies:
            keys = [rule.value for rule in report.rules] or [NO_RULE_FIRED]
            for key in sorted(set(keys)):
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def oracle_invariant(
    af: ArgumentationFramework, attack: tuple[str, str], semantics: Semantics
) -> bool:
    """Ground truth: does adding the attack leave the extension set equal?

    Both frameworks share one argument order, so their ascending mask
    families are compared directly, without decoding them into sets.
    """
    expanded = af.add_attack(*attack)
    return extension_masks(af, semantics) == extension_masks(expanded, semantics)


def extension_changes(
    af: ArgumentationFramework, attack: tuple[str, str], semantics: Semantics
) -> tuple[ExtensionSet, ExtensionSet]:
    """Extensions lost and gained by adding the attack."""
    return extension_difference(af, af.add_attack(*attack), semantics)


def cross_validate(af: ArgumentationFramework, semantics: Semantics) -> list[DiscrepancyReport]:
    """Compare the classifier with the ground truth on every candidate
    attack; return all disagreements.  Only the disagreeing candidates are
    classified one by one, for their verdicts and rules."""
    semantics = Semantics(semantics)
    invariant = set(invariant_attacks(af, semantics))
    found = []
    for attack in candidate_attacks(af):
        truth = oracle_invariant(af, attack, semantics)
        if (attack in invariant) != truth:
            classification = classify_attack(af, attack, semantics)
            lost, gained = extension_changes(af, attack, semantics)
            found.append(
                DiscrepancyReport(
                    framework=af,
                    attack=attack,
                    semantics=semantics,
                    predicate_verdict=classification.verdict,
                    oracle_verdict=truth,
                    rules=tuple(dict.fromkeys(w.rule for w in classification.witnesses)),
                    lost=lost,
                    gained=gained,
                )
            )
    return found


def canonical_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, n + 1))


def framework_from_mask(names: tuple[str, ...], mask: int) -> ArgumentationFramework:
    """Decode an attack relation from a bitmask over the n*n ordered pairs,
    row-major in the given name order."""
    n = len(names)
    attacks = [
        (names[k // n], names[k % n]) for k in range(n * n) if (mask >> k) & 1
    ]
    return ArgumentationFramework(names, attacks)


def _audit_chunk(args: tuple[int, str, tuple[int, ...]]) -> tuple[int, list[DiscrepancyReport]]:
    n, semantics_value, masks = args
    names = canonical_names(n)
    semantics = Semantics(semantics_value)
    candidates = 0
    found: list[DiscrepancyReport] = []
    for mask in masks:
        af = framework_from_mask(names, mask)
        candidates += n * n - sum(row.bit_count() for row in af.target_rows)
        found.extend(cross_validate(af, semantics))
    return candidates, found


def exhaustive_audit(
    n: int,
    semantics: Semantics,
    seed: int = 0,
    samples: int = 1000,
    jobs: int = 1,
) -> AuditReport:
    """Cross-validate over a population of frameworks on n canonical
    arguments.

    Up to n = 3 the 2^(n*n) possible attack relations are enumerated in
    full; for larger n, ``samples`` relations are drawn uniformly (every
    pair independently with probability one half) from a generator seeded
    with ``seed``, so identical parameters always produce identical
    reports.
    """
    semantics = Semantics(semantics)
    if n < 0 or samples < 0:
        raise ValueError(f"negative argument or sample count: n={n}, samples={samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, not {jobs}")
    exhaustive = n <= 3
    if exhaustive:
        masks: list[int] = list(range(1 << (n * n)))
        used_seed = None
    else:
        rng = random.Random(seed)
        masks = [rng.getrandbits(n * n) for _ in range(samples)]
        used_seed = seed

    if jobs > 1 and len(masks) > 1:
        chunk_size = (len(masks) + jobs - 1) // jobs
        chunks = [
            (n, semantics.value, tuple(masks[i : i + chunk_size]))
            for i in range(0, len(masks), chunk_size)
        ]
        with Pool(jobs) as pool:
            results = pool.map(_audit_chunk, chunks)
    else:
        results = [_audit_chunk((n, semantics.value, tuple(masks)))]

    candidates = sum(count for count, _ in results)
    discrepancies = tuple(report for _, found in results for report in found)
    return AuditReport(
        semantics=semantics,
        argument_count=n,
        exhaustive=exhaustive,
        seed=used_seed,
        frameworks_checked=len(masks),
        candidates_checked=candidates,
        discrepancies=discrepancies,
    )


__all__ = [
    "NO_RULE_FIRED",
    "AuditReport",
    "DiscrepancyReport",
    "canonical_names",
    "cross_validate",
    "exhaustive_audit",
    "extension_changes",
    "framework_from_mask",
    "oracle_invariant",
]
