"""Robustness under repeated invariant attack additions.

The robustness degree of a framework is the longest sequence of
single-attack additions, each classified invariant for the framework it is
applied to, after which no further invariant addition exists.  One
depth-first search with memoization serves both strategies (the reached
relation set fully determines further search, whatever order produced
it).  The exhaustive strategy follows every candidate of a state; the
greedy strategy follows only the first in canonical order, so its memo is
its path and it gives a cheap lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, Attack, _with_attack
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
    # invariant candidates in canonical order, all classified at once; under
    # paranoid each one is confirmed by recomputation only when reached
    steps = invariant_attacks(af, semantics)
    if paranoid:
        return (attack for attack in steps if oracle_invariant(af, attack, semantics))
    return iter(steps)


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
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    if strategy not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    # keyed on the relation alone: each step adds one attack, so a state's
    # depth is fixed by its relation and the memo stays sound under a cap
    memo: dict[tuple[int, ...], tuple[int, tuple[Attack, ...]]] = {}
    truncated = False
    order = af.sorted_arguments

    def search(current: ArgumentationFramework, depth: int) -> tuple[int, tuple[Attack, ...]]:
        nonlocal truncated
        key = current.target_rows
        steps = _steps(current, semantics, paranoid)
        if max_steps is not None and depth >= max_steps:
            if next(steps, None) is not None:
                truncated = True
            memo[key] = (0, ())
            return memo[key]
        if strategy == "greedy":
            steps = islice(steps, 1)
        best: tuple[int, tuple[Attack, ...]] = (0, ())
        # under paranoid, the steps to follow are confirmed before recursing,
        # while this framework's enumeration is still in _enumerate's cache
        for attack in list(steps):
            # a state is never its own descendant, so a memoised successor
            # needs neither a framework nor a search
            a, b = order.index(attack.source), order.index(attack.target)
            found = memo.get(_with_attack(key, a, b))
            if found is None:
                found = search(current.add_attack(*attack), depth + 1)
            sub_degree, sub_witness = found
            if 1 + sub_degree > best[0]:
                best = (1 + sub_degree, (attack,) + sub_witness)
        memo[key] = best
        return best

    degree, witness = search(af, 0)
    return RobustnessResult(
        degree=degree,
        witness=witness,
        explored_states=len(memo),
        strategy=strategy,
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
