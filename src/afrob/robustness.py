"""Robustness under repeated invariant attack additions.

The robustness degree of a framework is the longest sequence of
single-attack additions, each classified invariant for the framework it is
applied to, after which no further invariant addition exists.  For cf it
has a closed form (:func:`robustness_degree`); for adm one depth-first
loop serves both strategies, keeping only the keys of the states it has
seen and the path it is on.  A state's key is the attacks added since the
root: they fix its relation, and so all search below it, and their count
is its depth, so the degree is the depth of the deepest state reached.  A
state is first reached by its least path in canonical order, so the
witness, the first path to that depth, is the least longest chain.  Greedy
follows only a state's first step, a cheap lower bound.  Under a depth cap
a state at the cap can only set the truncated flag, so once one has a
candidate every further state there is counted unbuilt and unclassified.

A search state differs from its parent by one attack, so it derives its
conflict-free sets and reach tables from the parent's instead of
rebuilding them: each costs one pass over the parent's, where a rebuild
would enumerate the conflict-free sets and run the odd-walk fixpoint
again (see :meth:`afrob.invariance._State.child`).  The search works on
argument indices: its steps are index pairs, it builds no framework after
the root, and it builds an :class:`Attack` only for each step of the
returned witness.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterator, NamedTuple

from .errors import SizeLimit
from .framework import ArgumentationFramework, Attack, _bits
from .invariance import _cf_or_adm, _State, invariant_attacks
from .semantics import Semantics, _enumerate

# An adm search exploring more states than this raises SizeLimit.  The cap
# bounds states, not time, as a state's cost grows with its admissible
# sets (2 vCPUs, Python 3.11): one on six arguments stops after 2.5-2.8 s,
# one on 6 mutual pairs plus 2 self-attackers (14 arguments, up to 729
# admissible sets a state) after 192 s.  The search keeps one int per state
# it has reached, so both peak at 31-38 MB of RSS.
MAX_SEARCH_STATES = 200_000


def _subsets_up_to(k: int, d: int) -> int:
    """Σ_{i≤d} C(k, i), the subsets of a k-set with at most d members;
    each C(k, i) follows from the last, so a large k costs d small steps."""
    if d >= k:
        return 1 << k
    total = term = 1
    for i in range(1, d + 1):
        term = term * (k - i + 1) // i
        total += term
    return total


class RobustnessResult(NamedTuple):
    degree: int
    witness: tuple[Attack, ...]
    explored_states: int
    strategy: str
    truncated: bool = False


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
    cap is flagged ``truncated`` and is then only a lower bound.  States at
    the cap are classified only until one has a candidate; later ones are
    reached unclassified, and ``explored_states`` counts both.  With
    ``paranoid`` a step is accepted only if it also leaves the extension
    family unchanged by Dung's delta, so steps the rule scan wrongly admits
    are skipped; the delta is read off the state, so no child is built only
    to be compared.  An adm search exploring more than
    :data:`MAX_SEARCH_STATES` states raises :class:`SizeLimit`.

    For cf no search runs: an invariant attack keeps every conflict-free
    set, so with k invariant candidates and d = min(k, ``max_steps``) the
    degree is d, the witness the first d candidates in canonical order,
    ``paranoid`` changes nothing, and ``explored_states`` counts the states
    a search would visit, not work done: Σ_{i≤d} C(k, i) (2^k uncapped) for
    exhaustive, d + 1 for greedy.
    """
    semantics = _cf_or_adm(semantics)
    if max_steps is not None:
        # a float or a str is refused here, not compared at every state
        max_steps = operator.index(max_steps)
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, not {max_steps}")
    if strategy not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    order = af.sorted_arguments
    if semantics == Semantics.CONFLICT_FREE:
        candidates = invariant_attacks(af, semantics)
        k = len(candidates)
        d = k if max_steps is None else min(k, max_steps)
        explored = d + 1 if strategy == "greedy" else _subsets_up_to(k, d)
        return RobustnessResult(d, tuple(candidates[:d]), explored, strategy, d < k)
    # a state's key is the absent attacks added since the root, bit a*n + b
    # for (a, b): they fix its relation, and their count is its depth
    seen = {0}
    truncated = False
    n = len(order)

    def steps(state: _State, depth: int) -> Iterator[tuple[int, int]]:
        """``state``'s steps in canonical order: none at the cap, one for greedy."""
        nonlocal truncated
        rows = state.invariant_rows(semantics)
        if paranoid:
            # rules ∩ delta: the steps that also leave the family unchanged
            rows = [row & ~changed for row, changed in zip(rows, state.changed_rows(semantics))]
        if depth == max_steps:
            truncated = truncated or any(rows)
            return iter(())
        found = ((a, b) for a, row in enumerate(rows) for b in _bits(row))
        return islice(found, 1) if strategy == "greedy" else found

    # one frame per state on the current path: the state, its key, its
    # pending steps, and the steps to it as nested (path, step) pairs
    root = _enumerate(af).state
    path = [(root, 0, steps(root, 0), ())]
    degree, deepest = 0, ()
    while path:
        state, key, pending, to = path[-1]
        for a, b in pending:
            child = key | 1 << a * n + b
            if child in seen:
                continue
            seen.add(child)
            if len(seen) > MAX_SEARCH_STATES:
                raise SizeLimit(f"robustness search exceeds {MAX_SEARCH_STATES} states")
            depth, reached = len(path), (to, (a, b))
            if depth > degree:
                degree, deepest = depth, reached
            # once the flag is set, a state at the cap can add nothing
            if truncated and depth == max_steps:
                continue
            grown = state.child(a, b)
            path.append((grown, child, steps(grown, depth), reached))
            break
        else:
            path.pop()
    witness = []
    while deepest:
        deepest, (a, b) = deepest
        witness.append(Attack(order[a], order[b]))
    return RobustnessResult(degree, tuple(reversed(witness)), len(seen), strategy, truncated)
