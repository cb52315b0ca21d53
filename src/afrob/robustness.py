"""Robustness under repeated invariant attack additions.

The robustness degree of a framework is the longest sequence of
single-attack additions, each classified invariant for the framework it is
applied to, after which no further invariant addition exists.  For cf it
has a closed form (:func:`robustness_degree`); for adm one depth-first
search with memoization serves both strategies, keyed by the attacks added
since the root: they fix the reached relation, and with it all further
search whatever order added them, and their count is a state's depth.  The
exhaustive strategy follows every candidate of a state; the greedy
strategy follows only the first in canonical order, so its memo is its
path and it gives a cheap lower bound.  Under a depth cap a state at the
cap can only set the truncated flag, so once one has a candidate every
further state at the cap is recorded without being built or classified.

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

from typing import NamedTuple

from .errors import SizeLimit
from .framework import ArgumentationFramework, Attack, _bits
from .invariance import _cf_or_adm, _State, invariant_attacks
from .semantics import Semantics, _enumerate

# An adm search exploring more states than this raises SizeLimit.  The cap
# bounds states, not time, as a state's cost grows with its admissible
# sets.  On five arguments a search explores 22,000-34,000 states per
# second (2 vCPUs, Python 3.11), so it stops after about 6 s at a peak RSS
# of 91 MB; on six 22,000-30,000, on nine 3,100-21,000.  On 6 mutual pairs
# plus 2 self-attackers (14 arguments, up to 729 admissible sets a state)
# it explores 550-690 per second over its first 2,000-40,000 states and
# stops only after 252 s (794 per second overall) at 75 MB.  These rates
# are for classified states; a state at the depth cap recorded after the
# search is known to be truncated costs only its memo entry.
MAX_SEARCH_STATES = 200_000

# a search's degree and witness, as argument indices
_Best = tuple[int, tuple[tuple[int, int], ...]]


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
    recorded unclassified, and ``explored_states`` counts both.  With
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
    if max_steps is not None and max_steps < 0:
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
    memo: dict[int, _Best] = {}
    truncated = False
    n = len(order)

    def record(key: int, best: _Best) -> _Best:
        memo[key] = best
        if len(memo) > MAX_SEARCH_STATES:
            raise SizeLimit(f"robustness search exceeds {MAX_SEARCH_STATES} states")
        return best

    def search(state: _State, key: int) -> _Best:
        nonlocal truncated
        best: _Best = (0, ())
        rows = state.invariant_rows(semantics)
        if paranoid:
            # rules ∩ delta: the steps that also leave the family unchanged
            rows = [row & ~changed for row, changed in zip(rows, state.changed_rows(semantics))]
        if max_steps is not None and key.bit_count() >= max_steps:
            truncated = truncated or any(rows)
            return record(key, best)
        children_capped = max_steps is not None and key.bit_count() + 1 >= max_steps
        for a, b in ((a, b) for a, row in enumerate(rows) for b in _bits(row)):
            # a state is never its own descendant, so a memoised successor
            # needs no state and no search
            child = key | 1 << a * n + b
            found = memo.get(child)
            if found is None:
                # a state at the cap can only set the flag; once it is set,
                # the state is recorded unbuilt and unclassified
                if truncated and children_capped:
                    found = record(child, (0, ()))
                else:
                    found = search(state.child(a, b), child)
            if 1 + found[0] > best[0]:
                best = (1 + found[0], ((a, b),) + found[1])
            if strategy == "greedy":
                break
        return record(key, best)

    degree, steps = search(_enumerate(af).state, 0)
    witness = tuple(Attack(order[a], order[b]) for a, b in steps)
    return RobustnessResult(degree, witness, len(memo), strategy, truncated)

