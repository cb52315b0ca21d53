"""Ground truth and audits of the rule-based classifier.

Invariance is, by definition, equality of the extension sets before and
after the addition.  Dung's delta decides it for cf and adm without
consulting labellings or recomputing either set.  For adm it is an
independent check of the rule scan.  For cf the rule and the delta read
one closed form, so an audit only shows that they agree with each other;
cf exactness rests on the tests that compare the delta with recomputation
(the references in ``tests/oracles.py``) and on acceptance criterion 3.
The delta is read from one state of the relation
(:class:`afrob.invariance._State`), which also holds the rule scan: one
pass over the conflict-free sets finds, per set, the additions that lose
or gain it (``_State.changed_rows``), and the same sets give one
candidate's lost and gained extensions (``_State.changes``).
``cross_validate`` compares the classifier against the delta and reads
every disagreement's rules and changes (as masks) off that state on
argument indices, recomputing, classifying and decoding nothing;
``exhaustive_audit`` sweeps entire framework populations and aggregates
every divergence into a report instead of smoothing it over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import SizeLimit
from .framework import ArgumentationFramework, Attack, _bits
from .invariance import Rule, Verdict, _cf_or_adm, _State, _verdict
from .semantics import MAX_ENUMERATION_ARGUMENTS, Semantics

# aggregation key for divergences where no rule fired at all
NO_RULE_FIRED = "no-rule-fired"


@dataclass(frozen=True)
class DiscrepancyReport:
    """A single disagreement between the classifier and the ground truth;
    ``lost`` and ``gained`` are masks over the framework's argument order."""

    framework: ArgumentationFramework
    attack: Attack
    semantics: Semantics
    predicate_verdict: Verdict
    oracle_verdict: bool
    rules: tuple[Rule, ...]
    lost: tuple[int, ...]
    gained: tuple[int, ...]


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


def cross_validate(af: ArgumentationFramework, semantics: Semantics) -> list[DiscrepancyReport]:
    """Compare the classifier with the ground truth on every candidate
    attack; return all disagreements.  One state of the relation answers
    everything: the rule scan's rows and the ground truth's, Dung's delta,
    and for each disagreeing candidate the rules that fire on it and the
    extensions it loses and gains, all on argument indices."""
    semantics = _cf_or_adm(semantics)
    state = _State(*af.bit_rows)
    invariant = state.invariant_rows(semantics)
    changed = state.changed_rows(semantics)
    names = af.sorted_arguments
    full = (1 << len(names)) - 1
    found = []
    for a, (rule_row, changed_row, present) in enumerate(zip(invariant, changed, af.target_rows)):
        # the candidates the rules call invariant, XOR those that are
        for b in _bits(rule_row ^ (full & ~(changed_row | present))):
            rules = tuple(dict.fromkeys(rule for _, rule in state.witnesses(a, b, semantics)))
            lost, gained = state.changes(a, b, semantics)
            found.append(
                DiscrepancyReport(
                    framework=af,
                    attack=Attack(names[a], names[b]),
                    semantics=semantics,
                    predicate_verdict=_verdict(rules),
                    oracle_verdict=not changed_row >> b & 1,
                    rules=rules,
                    lost=lost,
                    gained=gained,
                )
            )
    return found


def canonical_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, n + 1))


@lru_cache(maxsize=64)
def _placement(names: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[int, ...] | None]:
    """The canonical order of ``names``, checked once per name tuple, and
    each name's position in it, or None when every name is already in place."""
    order = ArgumentationFramework(names).sorted_arguments
    position = tuple(order.index(name) for name in names)
    return order, None if position == tuple(range(len(names))) else position


def framework_from_mask(names: tuple[str, ...], mask: int) -> ArgumentationFramework:
    """Decode an attack relation from a bitmask over the n*n ordered pairs,
    row-major in the given name order: bit a*n + b is the attack
    (names[a], names[b]), so the targets of names[a] are the n-bit slice
    ``mask >> a*n``."""
    n = len(names)
    width = (1 << n) - 1
    rows = [mask >> a * n & width for a in range(n)]
    order, position = _placement(tuple(names))
    if position is not None:
        # canonical order is not name order (from a10 on, a10 sorts before
        # a2), so every row and every bit moves to its name's position
        placed = [0] * len(order)
        for a, row in enumerate(rows):
            placed[position[a]] |= sum(1 << position[b] for b in _bits(row))
        rows = placed
    return ArgumentationFramework._from_rows(order, tuple(rows))


def exhaustive_audit(
    n: int,
    semantics: Semantics,
    seed: int = 0,
    samples: int = 1000,
) -> AuditReport:
    """Cross-validate over a population of frameworks on n canonical
    arguments.

    Up to n = 3 the 2^(n*n) possible attack relations are enumerated in
    full; for larger n, ``samples`` relations are drawn uniformly (every
    pair independently with probability one half) from a generator seeded
    with ``seed``, so identical parameters always produce identical
    reports.
    """
    semantics = _cf_or_adm(semantics)
    if n < 0 or samples < 0:
        raise ValueError(f"negative argument or sample count: n={n}, samples={samples}")
    # past the limit every adm framework is refused by the enumerator, and
    # each sample draws and decodes n² random bits (a cf audit reads only the
    # closed form, where the rules and the delta agree by construction): so
    # refuse before drawing any sample
    if n > MAX_ENUMERATION_ARGUMENTS:
        raise SizeLimit(f"{n} arguments exceed the enumeration limit of {MAX_ENUMERATION_ARGUMENTS}")
    exhaustive = n <= 3
    population = range(1 << n * n if exhaustive else samples)
    # each sample is drawn as it is checked: memory does not grow with samples
    rng = random.Random(seed)
    masks = population if exhaustive else (rng.getrandbits(n * n) for _ in population)
    names = canonical_names(n)
    candidates = 0
    discrepancies: list[DiscrepancyReport] = []
    for mask in masks:
        af = framework_from_mask(names, mask)
        candidates += n * n - sum(row.bit_count() for row in af.target_rows)
        discrepancies.extend(cross_validate(af, semantics))
    return AuditReport(
        semantics=semantics,
        argument_count=n,
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
        frameworks_checked=len(population),
        candidates_checked=candidates,
        discrepancies=tuple(discrepancies),
    )
