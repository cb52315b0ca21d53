"""Robustness under repeated invariant attack additions.

The robustness degree of a framework is the longest sequence of
single-attack additions, each classified invariant for the framework it is
applied to, after which no further invariant addition exists.  The
exhaustive strategy explores the reachable attack-relation sets
depth-first with memoization (the reached relation set fully determines
further search, whatever order produced it); the greedy strategy gives a
cheap lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, Attack
from .invariance import Verdict, classify_attack, invariant_attacks, sigma_equivalent
from .oracle import oracle_invariant
from .semantics import Semantics


@dataclass(frozen=True)
class RobustnessResult:
    degree: int
    witness: tuple[Attack, ...]
    explored_states: int
    strategy: str
    truncated: bool = False


def _steps(af: ArgumentationFramework, semantics: Semantics, paranoid: bool) -> Iterator[Attack]:
    # invariant candidates in canonical order, classified lazily; under
    # paranoid each one is confirmed by recomputation only when reached
    steps = invariant_attacks(af, semantics)
    if paranoid:
        return (attack for attack in steps if oracle_invariant(af, attack, semantics))
    return steps


def robustness_degree(
    af: ArgumentationFramework,
    semantics: Semantics,
    strategy: str = "exhaustive",
    max_steps: int | None = None,
    paranoid: bool = False,
) -> RobustnessResult:
    """Measure how many invariant single-attack additions can be chained.

    ``strategy="exhaustive"`` returns the exact maximum, ``"greedy"`` a
    lower bound obtained by always taking the first candidate in canonical
    order.  ``max_steps`` caps the search depth; a result cut short by the
    cap is flagged ``truncated`` and is then only a lower bound.  With
    ``paranoid`` every accepted step is double-checked by full
    recomputation, so steps the rule scan wrongly admits are skipped.
    """
    semantics = Semantics(semantics)
    if semantics not in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(
            f"robustness supports cf and adm, not {semantics.value}"
        )
    if strategy == "greedy":
        return _greedy(af, semantics, max_steps, paranoid)
    if strategy == "exhaustive":
        return _exhaustive(af, semantics, max_steps, paranoid)
    raise ValueError(f"unknown strategy: {strategy!r}")


def _greedy(af, semantics, max_steps, paranoid) -> RobustnessResult:
    current = af
    witness: list[Attack] = []
    truncated = False
    while True:
        step = next(_steps(current, semantics, paranoid), None)
        if step is None:
            break
        if max_steps is not None and len(witness) >= max_steps:
            truncated = True
            break
        current = current.add_attack(*step)
        witness.append(step)
    return RobustnessResult(
        degree=len(witness),
        witness=tuple(witness),
        explored_states=len(witness) + 1,
        strategy="greedy",
        truncated=truncated,
    )


def _exhaustive(af, semantics, max_steps, paranoid) -> RobustnessResult:
    memo: dict[frozenset[Attack], tuple[int, tuple[Attack, ...]]] = {}
    truncated = False

    def search(current: ArgumentationFramework) -> tuple[int, tuple[Attack, ...]]:
        nonlocal truncated
        key = current.attacks
        if key in memo:
            return memo[key]
        steps = _steps(current, semantics, paranoid)
        # depth so far is determined by the relation size, so memoising on
        # the relation set alone stays sound even under a depth cap
        depth = len(current.attacks) - len(af.attacks)
        if max_steps is not None and depth >= max_steps:
            if next(steps, None) is not None:
                truncated = True
            memo[key] = (0, ())
            return memo[key]
        best: tuple[int, tuple[Attack, ...]] = (0, ())
        # classified in full before recursing, so the labellings are freed
        for attack in list(steps):
            sub_degree, sub_witness = search(current.add_attack(*attack))
            if 1 + sub_degree > best[0]:
                best = (1 + sub_degree, (attack,) + sub_witness)
        memo[key] = best
        return best

    degree, witness = search(af)
    return RobustnessResult(
        degree=degree,
        witness=witness,
        explored_states=len(memo),
        strategy="exhaustive",
        truncated=truncated,
    )


def verify_witness(
    af: ArgumentationFramework, semantics: Semantics, witness: list[tuple[str, str]]
) -> bool:
    """Replay a witness sequence: every step must classify invariant for the
    framework it is applied to, and the final framework must have exactly
    the original extension set (checked by full recomputation)."""
    semantics = Semantics(semantics)
    current = af
    for source, target in witness:
        classification = classify_attack(current, (source, target), semantics)
        if classification.verdict is not Verdict.INVARIANT:
            return False
        current = current.add_attack(source, target)
    return sigma_equivalent(af, current, semantics)
