"""Attack classification: does adding one attack preserve the extension set?

For conflict-free semantics a closed form decides invariance exactly.  For
admissible semantics the decision is made by labelling-based rules over the
admissible sets: the "ND" rules detect additions that can delete an
extension, the "NI" rules detect additions that can create one.  An
addition is classified invariant when no rule fires for any labelling.  By
Caminada's correspondence the labelling of a set S is fixed by S (S in, its
targets out, the rest undec), so the rules are read directly off the
extension bitmasks of :mod:`afrob.semantics`.

The rule scan is a fast structural predicate, not a recomputation.  One
state of a relation (:class:`_State`) answers every question about adding
attacks to it, by the rules and by Dung's delta, the definitional ground
truth: for all candidates at once, or for one with its witnesses and the
extensions it loses and gains.  :mod:`afrob.oracle` cross-validates the
rules against the delta and reports every divergence instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, NamedTuple

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, Attack, _attacks_in, _bits, _transpose, _with_attack
from .semantics import Semantics, _admissible, _conflict_free, extension_masks


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


_DELETION_RULES = frozenset(
    {Rule.CF_NEVER_IN, Rule.ND_IN_IN, Rule.ND_OUT_IN_UNDEFENDED, Rule.ND_UNDEC_IN}
)


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


def _cf_or_adm(semantics: Semantics) -> Semantics:
    """``semantics``, refused unless it is cf or adm, the two the rules and
    the delta decide."""
    semantics = Semantics(semantics)
    if semantics not in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        raise UnsupportedSemantics(f"only cf and adm are supported, not {semantics.value}")
    return semantics


def _having(rows: tuple[int, ...], among: int, hits: int) -> int:
    """The arguments i in ``among`` whose ``rows[i]`` meets ``hits``."""
    return sum(1 << i for i in _bits(among) if rows[i] & hits)


def _self_defense_row(odd: tuple[int, ...], reverse_odd: tuple[int, ...], a: int) -> int:
    """The targets b that meet the walk conditions of NI-out-self-defense
    for source a: an odd walk leads from b to a, and no c other than b has
    an odd walk to a without a matching odd walk from a back to c.  ``odd``
    and ``reverse_odd`` are the odd reach tables of the relation and of its
    reverse (:attr:`_State.reach`)."""
    blocking = reverse_odd[a] & ~odd[a]
    if blocking & (blocking - 1):
        return 0  # two blockers: every b leaves one that is not b
    return blocking or reverse_odd[a]


def _defending_undec(targets: tuple[int, ...], attackers: tuple[int, ...], undec: int) -> int:
    """The row of NI-in-undec-defends-undec on a labelling with UNDEC =
    ``undec``: the undec b that attack an undec non-self-attacker."""
    row = 0
    for c in _bits(undec):
        if not targets[c] >> c & 1:
            row |= attackers[c]
    return row & undec


def _rule_rows(
    state: "_State", s: int, out: int, threat: int, a: int
) -> tuple[tuple[Rule, int], ...]:
    """The rules that can fire on the labelling of the admissible set ``s``
    of ``state``'s relation for source a, each with its row: the targets b
    it fires on.

    ``out`` and ``threat`` are the targets and the attackers of ``s``.
    With IN = s, OUT = out and UNDEC the rest, for attack (a, b):

    * ND-in-in: a and b are both in.
    * ND-out-in-undefended: a is out, b is in, b does not already attack a,
      and no out-argument attacks b.
    * ND-undec-in: a is undec and b is in.
    * NI-in-in-defends: a and b are in and some out-argument c is attacked
      by b but not by a.
    * NI-in-out-reinstates: a is in, b is out, and b attacks some
      in-argument.  An admissible set attacks each of its attackers, so
      every attacker is out and the row is ``threat``.
    * NI-in-undec-defends-undec: a is in, b is undec, and b attacks some
      non-self-attacking undec argument.
    * NI-out-self-defense: a is out and b meets the walk conditions of
      :func:`_self_defense_row`.

    The ND rules are exact: an admissible S is lost exactly when b is in S
    and S does not attack a, that is when a is in S (ND-in-in) or undec
    (ND-undec-in), and ND-out-in-undefended fires only for an unattacked b,
    whose {b} is lost; so their rows over all admissible sets make up the
    loss of :attr:`_State.adm_rows`.  The NI rules are not exact: a gain can
    occur with no rule firing, and a rule can fire when nothing is gained.
    :mod:`afrob.oracle` audits them against Dung's delta.  a's label selects
    the rules, so at most one ND and one NI rule fire per labelling and
    candidate.
    """
    targets, attackers = state.targets, state.attackers
    if s >> a & 1:
        undec = ((1 << len(targets)) - 1) & ~(s | out)
        return (
            (Rule.ND_IN_IN, s),
            (Rule.NI_IN_IN_DEFENDS, _having(targets, s, out & ~targets[a])),
            (Rule.NI_IN_OUT_REINSTATES, threat),
            (Rule.NI_IN_UNDEC_DEFENDS_UNDEC, _defending_undec(targets, attackers, undec)),
        )
    if out >> a & 1:
        odd, _, reverse_odd, _ = state.reach
        return (
            (Rule.ND_OUT_IN_UNDEFENDED, s & ~_having(attackers, s, out) & ~attackers[a]),
            (Rule.NI_OUT_SELF_DEFENSE, _self_defense_row(odd, reverse_odd, a)),
        )
    return ((Rule.ND_UNDEC_IN, s),)


def _conflict_kept(targets: tuple[int, ...], attackers: tuple[int, ...]) -> list[int]:
    """Per argument a, the targets b for which adding (a, b) leaves every
    conflict-free set conflict-free: a and b already conflict, or one of
    them attacks itself (and so is in no conflict-free set)."""
    loops = sum(1 << a for a, row in enumerate(targets) if row >> a & 1)
    full = (1 << len(targets)) - 1
    return [
        full if loops >> a & 1 else targets[a] | attackers[a] | loops
        for a in range(len(targets))
    ]


def _odd_closure(successors: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex i, the bitmask of the vertices at the end of an odd walk
    from i and that of the vertices at the end of an even walk from i (the
    empty walk included), where ``successors[i]`` is the bitmask of i's
    successors.  Walks may repeat vertices and edges.

    The least fixpoint of odd(i) = the union of even(j) and even(i) = {i}
    with the union of odd(j), over the successors j of i, iterated from
    below until a whole round leaves every row as it was.
    """
    successor_lists = [tuple(_bits(row)) for row in successors]
    even = [1 << i for i in range(len(successors))]
    odd = [0] * len(successors)
    changed = True
    while changed:
        changed = False
        for i, successors_of_i in enumerate(successor_lists):
            o, e = 0, 1 << i
            for j in successors_of_i:
                o |= even[j]
                e |= odd[j]
            if o != odd[i] or e != even[i]:
                odd[i], even[i] = o, e
                changed = True
    return tuple(odd), tuple(even)


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
    """One attack relation and the tables that decide whether adding an
    attack keeps the cf or adm extension set: by the paper's rules, for
    every candidate at once (:meth:`invariant_rows`) or for one with its
    witnesses (:meth:`witnesses`), and by Dung's delta, likewise
    (:meth:`changed_rows`, :meth:`changes`).  A root state is built from a
    framework's :attr:`~ArgumentationFramework.bit_rows` and builds each
    table from scratch; a robustness search state derives it from its
    parent's, which lacks exactly the attack ``step``.  Either reads a table
    the first time it is needed, so a cf question never builds the tables
    only adm reads.

    * ``targets`` and ``attackers``: the relation's bit rows.
    * ``reach``: the odd and even reach tables of the relation
      (:func:`_odd_closure`), then those of its reverse (their transposes).
      A derived state updates both pairs by :func:`_reach_with`, the
      reverse with the step reversed.
    * ``cf``: per conflict-free set, in canonical (size, then names) order
      as enumerated, the set, its targets and its attackers.  A root
      state's is the list :func:`~afrob.semantics._conflict_free` returns;
      a derived state filters its parent's, so it keeps that order.
    * ``adm``: the admissible triples of ``cf``, in the same order
      (:func:`~afrob.semantics._admissible`).
    * ``adm_rows``, from one pass over ``adm``: per argument a, the loss,
      the union of the admissible sets that do not attack a (the targets b
      for which adding (a, b) loses one, those the ND rules fire on), and
      the rows of the in-source NI rules for source a; and the union of the
      sets' targets, the sources NI-out-self-defense can fire for.
    * ``kept``: per argument a, the targets b for which adding (a, b) keeps
      every conflict-free set (:func:`_conflict_kept`).
    """

    __slots__ = ("targets", "attackers", "parent", "step", "_reach", "_cf", "_adm", "_rows", "_kept")

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
        self._reach = self._cf = self._adm = self._rows = self._kept = None

    def child(self, a: int, b: int) -> "_State":
        """The state with the attack (a, b) added."""
        return _State(
            _with_attack(self.targets, a, b), _with_attack(self.attackers, b, a), self, (a, b)
        )

    @property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        if self._reach is None:
            if self.parent is None:
                # a walk of the reverse relation is a walk of this one, backwards
                odd, even = _odd_closure(self.targets)
                self._reach = (odd, even, _transpose(odd), _transpose(even))
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
                self._cf = _conflict_free(self.targets, self.attackers)
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
    def adm(self) -> list[tuple[int, int, int]]:
        if self._adm is None:
            self._adm = _admissible(self.cf)
        return self._adm

    @property
    def adm_rows(self) -> tuple[list[int], list[int], int]:
        if self._rows is None:
            targets, full = self.targets, (1 << len(self.targets)) - 1
            loss, gains, outs = [0] * len(targets), [0] * len(targets), 0
            for s, out, threat in self.adm:
                if s:
                    outs |= out
                    row = threat | _defending_undec(targets, self.attackers, full & ~(s | out))
                    for a in _bits(s):
                        gains[a] |= row
                    for a in _bits(full & ~out):
                        loss[a] |= s
            self._rows = loss, gains, outs
        return self._rows

    @property
    def kept(self) -> list[int]:
        if self._kept is None:
            self._kept = _conflict_kept(self.targets, self.attackers)
        return self._kept

    def invariant_rows(self, semantics: Semantics) -> list[int]:
        """Per source a, the absent targets b for which (a, b) is classified
        invariant: exactly those :meth:`witnesses` finds no rule for.

        For cf this is the closed form of :func:`_conflict_kept`.  For adm
        the ND rows are the loss; NI-in-in-defends fires only inside it, the
        other in-source NI rows hold for every source in a set, and
        NI-out-self-defense reads its source only through "out in some
        admissible set": all three come from :attr:`adm_rows`.
        """
        targets = self.targets
        if semantics == Semantics.CONFLICT_FREE:
            return [k & ~t for k, t in zip(self.kept, targets)]
        loss, gains, outs = self.adm_rows
        # existing attacks are no candidates
        fired = [t | lost | gained for t, lost, gained in zip(targets, loss, gains)]
        if outs:
            odd, _, reverse_odd, _ = self.reach
            for a in _bits(outs):
                fired[a] |= _self_defense_row(odd, reverse_odd, a)
        full = (1 << len(targets)) - 1
        return [full & ~row for row in fired]

    def witnesses(
        self, a: int, b: int, semantics: Semantics, family: Collection[int] | None = None
    ) -> list[tuple[int, Rule]]:
        """The (in-set, rule) pairs that classify adding the absent attack
        (a, b).  For cf the one lost set {a, b}, unless
        :func:`_conflict_kept` keeps it.  For adm the rules of
        :func:`_rule_rows` over the labellings of the admissible sets, or of
        those in ``family`` only (the preferred sets, say), in canonical
        extension order, every ND match before every NI match."""
        if semantics == Semantics.CONFLICT_FREE:
            return [] if self.kept[a] >> b & 1 else [(1 << a | 1 << b, Rule.CF_NEVER_IN)]
        losses, gains = [], []
        for s, out, threat in self.adm:
            if family is None or s in family:
                for rule, row in _rule_rows(self, s, out, threat, a):
                    if row >> b & 1:
                        (losses if rule in _DELETION_RULES else gains).append((s, rule))
        return losses + gains

    def changed_rows(self, semantics: Semantics) -> list[int]:
        """Per argument a, the targets b for which adding (a, b) changes the
        cf or adm extension set: Dung's delta, read off the conflict-free
        sets.

        By Dung's definitions, for a conflict-free S with targets ``hit``,
        attackers ``threat`` and unanswered attackers U = threat & ~hit:

        * cf: S is lost iff a, b ∈ S, and an addition never makes a set
          conflict-free, so (a, b) changes cf exactly when {a, b} is
          conflict-free: the candidates :func:`_conflict_kept` excludes.
        * adm, loss: an admissible S (U empty) is lost iff b ∈ S and a ∉ hit:
          S then has the new attacker a and does not attack it (a ∈ S is
          covered, since S does not attack its own members).
        * adm, gain: a non-admissible S becomes admissible iff a ∈ S and
          U = {b}: S gains a target only if a ∈ S, and then b ∉ S (or S
          would not stay conflict-free), so S gains no attacker and its one
          new target b answers U exactly when U = {b}.

        An existing attack never gets a bit: a and b do not share a
        conflict-free set, an admissible S holding b attacks its attacker a,
        and a set holding a attacks b already, so b is not unanswered.

        The adm loss is :attr:`adm_rows`'s, which :meth:`invariant_rows`
        reads too, so a state asked for both (a paranoid search state) makes
        one pass over its admissible sets.
        """
        full = (1 << len(self.targets)) - 1
        if semantics == Semantics.CONFLICT_FREE:
            return [full & ~k for k in self.kept]
        changed = list(self.adm_rows[0])  # the loss, shared with invariant_rows
        for s, attacked, attacking in self.cf:
            unanswered = attacking & ~attacked
            if unanswered and not unanswered & (unanswered - 1):
                for a in _bits(s):
                    changed[a] |= unanswered
        return changed

    def changes(self, a: int, b: int, semantics: Semantics) -> tuple[tuple[int, ...], ...]:
        """The cf or adm extensions lost and gained by adding (a, b), by the
        conditions of :meth:`changed_rows`, in canonical order (filters of
        :attr:`cf` and :attr:`adm`): both empty for an attack present."""
        bit_a, bit_b = 1 << a, 1 << b
        if semantics == Semantics.CONFLICT_FREE:
            both = bit_a | bit_b
            return tuple(s for s, _, _ in self.cf if s & both == both), ()
        lost = tuple(s for s, attacked, _ in self.adm if s & bit_b and not attacked & bit_a)
        gained = tuple(s for s, hit, threat in self.cf if s & bit_a and threat & ~hit == bit_b)
        return lost, gained


def _verdict(rules: Iterable[Rule]) -> Verdict:
    """The verdict of a candidate the rules ``rules`` fire on: the ND rules
    break non-decrease, the others non-increase."""
    rules = set(rules)
    loses, gains = bool(rules & _DELETION_RULES), bool(rules - _DELETION_RULES)
    if loses and gains:
        return Verdict.BREAKS_BOTH
    if loses or gains:
        return Verdict.BREAKS_NON_DECREASING if loses else Verdict.BREAKS_NON_INCREASING
    return Verdict.INVARIANT


def _classify(
    af: ArgumentationFramework,
    state: _State,
    a: int,
    b: int,
    semantics: Semantics,
    preferred_only: bool = False,
) -> tuple[Verdict, list[tuple[int, Rule]]]:
    """Classify adding (a, b), argument indices of ``af``, from ``state``,
    the state of ``af``'s relation: the verdict and the (in-set mask, rule)
    witnesses of :meth:`_State.witnesses` over the admissible sets, or the
    preferred ones of ``af``'s record."""
    semantics = _cf_or_adm(semantics)
    if preferred_only and semantics == Semantics.CONFLICT_FREE:
        raise UnsupportedSemantics("preferred-only classification supports adm, not cf")
    if state.targets[a] >> b & 1:
        return Verdict.INVARIANT, []  # re-adding an attack changes nothing
    family = None
    if preferred_only:
        # the preferred sets read only the core: reading every admissible
        # set first refuses an oversized framework by its n
        state.adm
        family = frozenset(extension_masks(af, Semantics.PREFERRED))
    found = state.witnesses(a, b, semantics, family)
    return _verdict(rule for _, rule in found), found


def classify_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    semantics: Semantics,
    preferred_only: bool = False,
) -> AttackClassification:
    """Classify an attack addition for cf or adm, from a fresh state of
    ``af``'s relation.  Re-adding an existing attack is invariant.

    For cf the closed form is exact: the addition is invariant exactly when
    the endpoints already conflict or one of them attacks itself.
    Otherwise it can only shrink the family (an expansion never makes a set
    conflict-free), so the verdict is ``breaks_non_decreasing``, witnessed
    by the lost pair {a, b}.

    For adm the rules of :func:`_rule_rows` are scanned over the labellings
    of the admissible sets, or of the preferred ones only under
    ``preferred_only``, in canonical extension order; the witnesses list
    every ND match, then every NI match.  cf has no labellings to restrict,
    so ``preferred_only`` is refused there.  This is the one entry that
    builds a classification and decodes witnesses into names; the CLI and
    the audit read the masks."""
    a, b = map(af._index, attack)
    verdict, found = _classify(af, _State(*af.bit_rows), a, b, semantics, preferred_only)
    witnesses = tuple(Witness(af._names(s), rule) for s, rule in found)
    return AttackClassification(Attack(*attack), Semantics(semantics), verdict, witnesses)


def invariant_attacks(af: ArgumentationFramework, semantics: Semantics) -> list[Attack]:
    """The candidate attacks classified invariant, in canonical order:
    exactly those :func:`classify_attack` classifies invariant."""
    rows = _State(*af.bit_rows).invariant_rows(_cf_or_adm(semantics))
    return _attacks_in(af.sorted_arguments, rows)
