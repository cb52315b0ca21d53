"""Ground truth and audits of the rule-based classifier.

Invariance is, by definition, equality of the extension sets before and
after the addition.  Dung's delta decides it for cf and adm without
consulting labellings or recomputing either set.  For adm it is an
independent check of the rule scan.  For cf the rule and the delta read
one closed form, so a cf audit compares nothing: it counts its relations
and candidates and reports no disagreement.  cf exactness rests on the
tests that compare the delta with recomputation (the references in
``tests/oracles.py``) and on acceptance criterion 3.
The delta is read from one state of the relation
(:class:`afrob.invariance._State`), which also holds the rule scan: one
pass over the conflict-free sets finds, per set, the additions that lose
or gain it (``_State.changed_rows``), and the same sets give one
candidate's lost and gained extensions (``_State.changes``).
One loop (``_disagreements``) compares the classifier against the delta
and reads the side that disagrees (the rules of a false alarm, the
changes, as masks, of a missed gain) off that state on argument indices,
recomputing nothing, and ``_reports`` decodes
only the disagreeing attacks into their names.  ``cross_validate`` runs
both on one framework.  ``exhaustive_audit`` sweeps entire relation
populations: a sampled adm relation stays bit rows, its state built from
its rows and their transpose, and a relation with a disagreement keeps its
rows and disagreements as they were found, becoming a framework and
reports only when its report's ``discrepancies`` are read
(:class:`_Discrepancies`); every divergence is aggregated into a report
instead of smoothed over.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple

from .errors import SizeLimit
from .framework import ArgumentationFramework, Attack, _bits, _transpose
from .invariance import Rule, Verdict, _cf_or_adm, _State, _verdict
from .semantics import MAX_ENUMERATION_ARGUMENTS, Semantics

# aggregation key for divergences where no rule fired at all
NO_RULE_FIRED = "no-rule-fired"


class DiscrepancyReport(NamedTuple):
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


class _Discrepancies(Sequence):
    """An audit's disagreements, read-only.  They are kept as the audit
    found them: per disagreeing relation, its canonical order, its target
    rows and its :func:`_disagreements` (argument indices and masks).  The
    first read of an item decodes them all into reports, one framework per
    relation, and keeps them.  The sequence equals, hashes and prints as
    the tuple of its reports, and slices into it; its length and
    :meth:`rules` read the index tuples, and ``afrob audit`` writes from
    them, decoding nothing."""

    __slots__ = ("semantics", "relations", "_count", "_reports")

    def __init__(self, semantics: Semantics, relations: Sequence[tuple]):
        self.semantics = semantics
        self.relations = tuple(relations)
        self._count = sum(len(found) for _, _, found in self.relations)
        self._reports: tuple[DiscrepancyReport, ...] | None = None

    def _decoded(self) -> tuple[DiscrepancyReport, ...]:
        if self._reports is None:
            self._reports = tuple([
                report
                for order, rows, found in self.relations
                for report in _reports(
                    ArgumentationFramework._from_rows(order, rows), self.semantics, found
                )
            ])
        return self._reports

    def rules(self):
        """Each disagreement's rules, in order, read off the index tuples."""
        return (rules for _, _, found in self.relations for _, _, rules, *_ in found)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        return self._decoded()[index]

    def __eq__(self, other):
        if isinstance(other, _Discrepancies):
            other = other._decoded()
        return self._decoded() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._decoded())

    def __repr__(self) -> str:
        return repr(self._decoded())


class AuditReport(NamedTuple):
    """Aggregate outcome of a cross-validation sweep.  An audit's
    ``discrepancies`` are a read-only sequence (:class:`_Discrepancies`)
    equal to the tuple of its reports."""

    semantics: Semantics
    argument_count: int
    exhaustive: bool
    seed: int | None
    frameworks_checked: int
    candidates_checked: int
    discrepancies: Sequence[DiscrepancyReport]

    def by_rule(self) -> dict[str, int]:
        """Per rule, the disagreements it fires on; those where none fires
        under ``no-rule-fired``.  Counted once per distinct rule tuple."""
        found = self.discrepancies
        tally = Counter(
            found.rules() if isinstance(found, _Discrepancies) else [d.rules for d in found]
        )
        counts: dict[str, int] = {}
        for rules, count in tally.items():
            for key in {rule.value for rule in rules} or {NO_RULE_FIRED}:
                counts[key] = counts.get(key, 0) + count
        return dict(sorted(counts.items()))


def _disagreements(state: _State, semantics: Semantics) -> list[tuple]:
    """The candidates of ``state``'s relation on which the rule scan and
    Dung's delta disagree, in canonical order, each as the tuple (a, b,
    the rules that fire on it, the delta's verdict, the extensions it
    loses, those it gains): argument indices and masks, nothing decoded.

    Each disagreement is read from the side that disagrees, as the other
    side is known to be empty.  Where the delta changes nothing (a false
    alarm) the rules are read off ``witnesses`` and nothing is lost or
    gained, as ``changes`` filters the conditions ``changed_rows`` reads.
    Where it changes the set (a missed gain) the lost and gained sets are
    read off ``changes`` and no rule fires, as ``invariant_rows`` holds
    exactly the candidates ``witnesses`` finds no rule for."""
    invariant = state.invariant_rows(semantics)
    changed = state.changed_rows(semantics)
    full = (1 << len(state.targets)) - 1
    found = []
    for a, (rule_row, changed_row, present) in enumerate(zip(invariant, changed, state.targets)):
        # the candidates the rules call invariant, XOR those that are
        for b in _bits(rule_row ^ (full & ~(changed_row | present))):
            if changed_row >> b & 1:
                found.append((a, b, (), False, *state.changes(a, b, semantics)))
            else:
                rules = tuple(dict.fromkeys(rule for _, rule in state.witnesses(a, b, semantics)))
                found.append((a, b, rules, True, (), ()))
    return found


def _reports(
    af: ArgumentationFramework, semantics: Semantics, found: list[tuple]
) -> list[DiscrepancyReport]:
    """The disagreements ``found`` on ``af`` (:func:`_disagreements`) as
    reports; only the disagreeing attacks are decoded, into their names."""
    names = af.sorted_arguments
    return [
        DiscrepancyReport(
            framework=af,
            attack=Attack(names[a], names[b]),
            semantics=semantics,
            predicate_verdict=_verdict(rules),
            oracle_verdict=invariant,
            rules=rules,
            lost=lost,
            gained=gained,
        )
        for a, b, rules, invariant, lost, gained in found
    ]


def cross_validate(af: ArgumentationFramework, semantics: Semantics) -> list[DiscrepancyReport]:
    """Compare the classifier with the ground truth on every candidate
    attack; return all disagreements.  One state of the relation answers
    everything: the rule scan's rows and the ground truth's, Dung's delta,
    and for each disagreeing candidate the rules that fire on it and the
    extensions it loses and gains, as masks on argument indices.  Only the
    disagreeing attack is decoded, into its names.  The audit reads its
    disagreements through the same two steps."""
    semantics = _cf_or_adm(semantics)
    return _reports(af, semantics, _disagreements(_State(*af.bit_rows), semantics))


def canonical_names(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, n + 1))


@lru_cache(maxsize=64)
def _placement(names: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[int, ...] | None]:
    """The canonical order of ``names``, checked once per name tuple, and
    each name's position in it, or None when every name is already in place."""
    order = ArgumentationFramework(names).sorted_arguments
    if len(order) != len(names):
        raise ValueError(f"duplicate argument names: {names}")
    position = tuple(order.index(name) for name in names)
    return order, None if position == tuple(range(len(names))) else position


def _placed_rows(names: tuple[str, ...], mask: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The canonical order of ``names`` and the target rows, in that order,
    of the relation ``mask`` over ``names`` (as :func:`framework_from_mask`
    reads it, unchecked)."""
    n = len(names)
    width = (1 << n) - 1
    rows = [mask >> a * n & width for a in range(n)]
    order, position = _placement(names)
    if position is not None:
        # canonical order is not name order (from a10 on, a10 sorts before
        # a2), so every row and every bit moves to its name's position
        placed = [0] * len(order)
        for a, row in enumerate(rows):
            placed[position[a]] |= sum(1 << position[b] for b in _bits(row))
        rows = placed
    return order, tuple(rows)


def framework_from_mask(names: tuple[str, ...], mask: int) -> ArgumentationFramework:
    """Decode an attack relation from a bitmask over the n*n ordered pairs,
    row-major in the given name order: bit a*n + b is the attack
    (names[a], names[b]), so the targets of names[a] are the n-bit slice
    ``mask >> a*n``.  A mask outside [0, 2^(n*n)) is refused."""
    n = len(names)
    if not 0 <= mask < 1 << n * n:
        raise ValueError(f"mask {mask} is not a relation on {n} arguments")
    return ArgumentationFramework._from_rows(*_placed_rows(tuple(names), mask))


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
    with ``seed``, a non-negative int, so identical parameters always
    produce identical reports.  Each relation's absent pairs are counted
    as candidates.  Under adm it is decoded to canonical target rows and
    checked on a state of those rows, as :func:`cross_validate` checks a
    framework; under cf, whose rules and delta read one closed form, it is
    only counted.  A relation with a disagreement is kept as its rows and its
    disagreements' index tuples, and becomes the framework its reports
    share only when the ``discrepancies`` are read, so counting them, or
    :meth:`AuditReport.by_rule`, builds no framework.
    """
    # an unseeded generator or a float count is refused here, before any work
    n, samples, seed = operator.index(n), operator.index(samples), operator.index(seed)
    semantics = _cf_or_adm(semantics)
    # Random(-k) draws what Random(k) draws, so a negative seed is refused
    if n < 0 or samples < 0 or seed < 0:
        raise ValueError(
            f"negative argument count, sample count or seed: n={n}, samples={samples}, seed={seed}"
        )
    # past the limit every adm framework is refused by the enumerator, and
    # each sample draws n² random bits (a cf audit, which builds no state,
    # too): so refuse before drawing any sample
    if n > MAX_ENUMERATION_ARGUMENTS:
        raise SizeLimit(f"{n} arguments exceed the enumeration limit of {MAX_ENUMERATION_ARGUMENTS}")
    exhaustive = n <= 3
    population = range(1 << n * n if exhaustive else samples)
    # each sample is drawn as it is checked: memory does not grow with samples
    rng = random.Random(seed)
    masks = population if exhaustive else (rng.getrandbits(n * n) for _ in population)
    names = canonical_names(n)
    candidates = 0
    relations = []
    for mask in masks:
        # the absent attacks: placing the names in canonical order only moves bits
        candidates += n * n - mask.bit_count()
        if semantics == Semantics.CONFLICT_FREE:
            continue  # the rules and the delta read one closed form: nothing to compare
        order, rows = _placed_rows(names, mask)
        # a sample stays bit rows, and its disagreements index tuples, until read
        found = _disagreements(_State(rows, _transpose(rows)), semantics)
        if found:
            relations.append((order, rows, found))
    return AuditReport(
        semantics=semantics,
        argument_count=n,
        exhaustive=exhaustive,
        seed=None if exhaustive else seed,
        frameworks_checked=len(population),
        candidates_checked=candidates,
        discrepancies=_Discrepancies(semantics, relations),
    )
