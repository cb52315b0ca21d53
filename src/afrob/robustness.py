"""Robustness under repeated invariant attack additions.

The robustness degree of a framework is the longest sequence of
single-attack additions, each classified invariant for the framework it is
applied to, after which no further invariant addition exists.  One
depth-first search with memoization serves both strategies (the reached
relation set fully determines further search, whatever order produced
it).  The exhaustive strategy follows every candidate of a state; the
greedy strategy follows only the first in canonical order, so its memo is
its path and it gives a cheap lower bound.

A search state differs from its parent by one attack, so it derives the
tables that classify its candidates from the parent's instead of
rebuilding them: each table costs one pass over the parent's, where a
rebuild would enumerate the conflict-free sets and run the odd-walk
fixpoint again (see :class:`_State`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimit, UnsupportedSemantics
from .framework import ArgumentationFramework, Attack, _bits, _odd_closure, _with_attack
from .invariance import (
    Verdict,
    _admissible_invariant_rows,
    _conflict_kept,
    classify_attack,
    sigma_equivalent,
)
from .semantics import Semantics, _conflict_free

# A search exploring more states than this raises SizeLimit.  Exhaustive
# adm searches on five arguments explore 22,000-28,000 states per second (2
# vCPUs, Python 3.11), so one at the budget stops after 7-9 s, at a peak RSS
# of 86 MB.  A state's cost grows with its conflict-free sets: 3,000-8,000
# states per second on six arguments, 300-1,500 on nine; cf searches
# 37,000-54,000.  The largest search in the test suite explores 4,016
# states, the largest in perfbench's robustness workload 1,024.
MAX_SEARCH_STATES = 200_000


@dataclass(frozen=True)
class RobustnessResult:
    degree: int
    witness: tuple[Attack, ...]
    explored_states: int
    strategy: str
    truncated: bool = False


def _reach_with(
    odd: tuple[int, ...], even: tuple[int, ...], a: int, b: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The odd and even reach tables of :func:`_odd_closure` after the edge
    a -> b is added.

    A new walk runs x ~> a -> b ~> a -> b ... ~> y with only old edges
    between the uses of a -> b.  If b has an even walk to a, the loop
    b ~> a -> b is odd, so such a walk takes either parity and x gains all
    of b's reach in both rows.  Otherwise every loop is even and the parity
    is that of x ~> a, plus one, plus that of b ~> y.
    """
    bit, gain_odd, gain_even = 1 << a, odd[b], even[b]
    if gain_even & bit:
        gain_odd = gain_even = gain_odd | gain_even
    new_odd, new_even = [], []
    for o, e in zip(odd, even):
        new_odd.append(o | (gain_even if e & bit else 0) | (gain_odd if o & bit else 0))
        new_even.append(e | (gain_odd if e & bit else 0) | (gain_even if o & bit else 0))
    return tuple(new_odd), tuple(new_even)


class _State:
    """One relation of the search and the tables that classify its
    candidate attacks.  The root builds each table from scratch; any other
    state derives it from its parent's, which lacks exactly the attack
    ``step``, the first time it is read, so a cf search never builds the
    tables only adm reads.

    * ``targets`` and ``attackers``: the relation's bit rows.
    * ``reach``: the odd and even reach tables of the relation, then those
      of its reverse (:func:`_odd_closure`).
    * ``cf``: per conflict-free set, ascending, the set, its targets and
      its attackers.
    * ``adm``: per admissible set, the set and its targets.
    """

    __slots__ = ("targets", "attackers", "parent", "step", "_reach", "_cf", "_adm")

    def __init__(
        self,
        targets: tuple[int, ...],
        attackers: tuple[int, ...],
        parent: "_State | None" = None,
        step: tuple[int, int] | None = None,
    ):
        self.targets = targets
        self.attackers = attackers
        self.parent = parent
        self.step = step
        self._reach = self._cf = self._adm = None

    def child(self, a: int, b: int) -> "_State":
        """The state with the attack (a, b) added."""
        return _State(
            _with_attack(self.targets, a, b), _with_attack(self.attackers, b, a), self, (a, b)
        )

    @property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        if self._reach is None:
            if self.parent is None:
                self._reach = (*_odd_closure(self.targets), *_odd_closure(self.attackers))
            else:
                a, b = self.step
                odd, even, reverse_odd, reverse_even = self.parent.reach
                self._reach = (
                    *_reach_with(odd, even, a, b),
                    *_reach_with(reverse_odd, reverse_even, b, a),
                )
        return self._reach

    @property
    def cf(self) -> list[tuple[int, int, int]]:
        if self._cf is None:
            if self.parent is None:
                self._cf = list(zip(*_conflict_free(self.targets, self.attackers)))
            else:
                # the sets holding a and b are lost; a kept set holding a
                # now also attacks b, and one holding b is now also
                # attacked by a
                a, b = self.step
                bit_a, bit_b = 1 << a, 1 << b
                both = bit_a | bit_b
                self._cf = [
                    (m, h | bit_b if m & bit_a else h, t | bit_a if m & bit_b else t)
                    for m, h, t in self.parent.cf
                    if m & both != both
                ]
        return self._cf

    @property
    def adm(self) -> list[tuple[int, int]]:
        if self._adm is None:
            self._adm = [(m, h) for m, h, t in self.cf if not t & ~h]
        return self._adm

    def family(self, semantics: Semantics) -> list[int]:
        """The masks of the cf or adm extension family, ascending."""
        if semantics is Semantics.CONFLICT_FREE:
            return [m for m, _, _ in self.cf]
        return [m for m, _ in self.adm]

    def steps(self, semantics: Semantics) -> list[tuple[int, int]]:
        """The candidate attacks classified invariant, as index pairs in
        canonical order: those :func:`invariant_attacks` lists."""
        if semantics is Semantics.CONFLICT_FREE:
            kept = _conflict_kept(self.targets, self.attackers)
            rows = [k & ~t for k, t in zip(kept, self.targets)]
        else:
            odd, _, reverse_odd, _ = self.reach
            full = (1 << len(self.targets)) - 1
            rows = _admissible_invariant_rows(
                self.targets, self.attackers, lambda: (odd, reverse_odd), full, self.adm
            )
        return [(a, b) for a, row in enumerate(rows) for b in _bits(row)]


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
    ``paranoid`` a step is accepted only if it leaves the extension family
    unchanged, so steps the rule scan wrongly admits are skipped.  A search
    exploring more than :data:`MAX_SEARCH_STATES` states raises
    :class:`SizeLimit`.
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
    memo: dict[tuple[int, ...], tuple[int, tuple[tuple[int, int], ...]]] = {}
    truncated = False

    def search(state: _State, depth: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        nonlocal truncated
        key = state.targets
        capped = max_steps is not None and depth >= max_steps
        best: tuple[int, tuple[tuple[int, int], ...]] = (0, ())
        family = state.family(semantics) if paranoid else None
        for a, b in state.steps(semantics):
            # a state is never its own descendant, so a memoised successor
            # needs no state and no search.  Under paranoid every memoised
            # state kept the root's family, so its step is accepted too.
            found = memo.get(_with_attack(key, a, b))
            # at the cap a step is only counted, and only paranoid needs
            # the child for that
            if found is None and (paranoid or not capped):
                child = state.child(a, b)
                if paranoid and child.family(semantics) != family:
                    continue
            if capped:
                truncated = True
                break
            if found is None:
                found = search(child, depth + 1)
            if 1 + found[0] > best[0]:
                best = (1 + found[0], ((a, b),) + found[1])
            if strategy == "greedy":
                break
        memo[key] = best
        if len(memo) > MAX_SEARCH_STATES:
            raise SizeLimit(f"robustness search exceeds {MAX_SEARCH_STATES} states")
        return best

    degree, witness = search(_State(*af.bit_rows), 0)
    order = af.sorted_arguments
    return RobustnessResult(
        degree=degree,
        witness=tuple(Attack(order[a], order[b]) for a, b in witness),
        explored_states=len(memo),
        strategy=strategy,
        truncated=truncated,
    )


def verify_witness(
    af: ArgumentationFramework, semantics: Semantics, witness: list[tuple[str, str]]
) -> bool:
    """Replay a witness sequence: every step must add an attack not yet
    present and classify invariant for the framework it is applied to, and
    the final framework must have exactly the original extension set
    (checked by full recomputation)."""
    semantics = Semantics(semantics)
    current = af
    for source, target in witness:
        if current.target_rows[current._index(source)] >> current._index(target) & 1:
            return False  # re-adding an attack adds nothing
        classification = classify_attack(current, (source, target), semantics)
        if classification.verdict is not Verdict.INVARIANT:
            return False
        current = current.add_attack(source, target)
    return sigma_equivalent(af, current, semantics)
