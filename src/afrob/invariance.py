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

from enum import Enum
from typing import Collection, Iterable, NamedTuple

from .errors import UnsupportedSemantics
from .framework import ArgumentationFramework, Attack, _attacks_in, _bits, _with_attack
from .semantics import Semantics, _admissible, _conflict_free, _enumerate, _Enumeration


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


class AttackClassification(NamedTuple):
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


def _self_defense_row(odd: tuple[int, ...], a: int) -> int:
    """The targets b that meet the walk conditions of NI-out-self-defense
    for source a: an odd walk leads from b to a, and no c other than b has
    an odd walk to a without a matching odd walk from a back to c.  ``odd``
    is the relation's odd reach table (:attr:`_State.reach`), whose column
    a holds the arguments with an odd walk to a."""
    bit, into = 1 << a, 0
    for c, row in enumerate(odd):
        if row & bit:
            into |= 1 << c
    blocking = into & ~odd[a]
    if blocking & (blocking - 1):
        return 0  # two blockers: every b leaves one that is not b
    return blocking or into


def _defending_undec(targets: tuple[int, ...], attackers: tuple[int, ...], undec: int) -> int:
    """The row of NI-in-undec-defends-undec on a labelling with UNDEC =
    ``undec``: the undec b that attack an undec non-self-attacker."""
    row = 0
    for c in _bits(undec):
        if not targets[c] >> c & 1:
            row |= attackers[c]
    return row & undec


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
    table from scratch the first time it is read, so a cf question never
    builds the tables only adm reads.  A robustness search state is built
    by :meth:`child`, which hands it ``cf`` and ``reach`` derived from its
    parent's; it builds the other tables as a root does.  A framework's
    root state is the ``state`` field of its extension record
    (:func:`~afrob.semantics._enumerate`), so repeated questions about one
    framework build each table once.

    * ``targets`` and ``attackers``: the relation's bit rows.
    * ``reach``: the odd and even reach tables of the relation
      (:func:`_odd_closure`); NI-out-self-defense reads the walks into its
      source off the odd one (:func:`_self_defense_row`).
    * ``cf``: per conflict-free set, in canonical (size, then names) order
      as enumerated, the set, its targets and its attackers, as
      :func:`~afrob.semantics._conflict_free` returns them.
    * ``adm``: the admissible triples of ``cf``, in the same order
      (:func:`~afrob.semantics._admissible`).
    * ``adm_rows``, from one pass over ``adm``: per argument a, the loss,
      the union of the admissible sets that do not attack a (the targets b
      for which adding (a, b) loses one, those the ND rules fire on), and
      the rows of the in-source NI rules for source a; and the union of the
      sets' targets, the sources NI-out-self-defense can fire for.

    The four tables are adm's (``cf`` also gives a cf :meth:`changes` its
    lost sets).  The cf closed form is no table: :meth:`invariant_rows`,
    :meth:`witnesses` and :meth:`changed_rows` each read
    :func:`_conflict_kept` off the bit rows, once per call.
    """

    # the four lazy adm tables in slots, not cached_property, which cost the
    # robustness workload 13% of its throughput (8 of 8 alternating pairs)
    __slots__ = ("targets", "attackers", "_reach", "_cf", "_adm", "_rows")

    def __init__(self, targets: tuple[int, ...], attackers: tuple[int, ...]):
        self.targets = targets
        self.attackers = attackers
        self._reach = self._cf = self._adm = self._rows = None

    def child(self, a: int, b: int) -> "_State":
        """The state with the attack (a, b) added, handed ``cf`` and ``reach``
        derived from this state's: the sets holding a and b are lost, a kept
        set holding a now also attacks b and one holding b is now also
        attacked by a, in the same order; the reach pair follows
        :func:`_reach_with`."""
        child = _State(_with_attack(self.targets, a, b), _with_attack(self.attackers, b, a))
        bit_a, bit_b = 1 << a, 1 << b
        both = bit_a | bit_b
        child._cf = [
            (m, h | bit_b if m & bit_a else h, t | bit_a if m & bit_b else t)
            for m, h, t in self.cf
            if m & both != both
        ]
        child._reach = _reach_with(*self.reach, a, b)
        return child

    @property
    def reach(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self._reach is None:
            self._reach = _odd_closure(self.targets)
        return self._reach

    @property
    def cf(self) -> list[tuple[int, int, int]]:
        if self._cf is None:
            self._cf = _conflict_free(self.targets, self.attackers)
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
            return [k & ~t for k, t in zip(_conflict_kept(targets, self.attackers), targets)]
        loss, gains, outs = self.adm_rows
        # existing attacks are no candidates
        fired = [t | lost | gained for t, lost, gained in zip(targets, loss, gains)]
        if outs:
            odd = self.reach[0]
            for a in _bits(outs):
                fired[a] |= _self_defense_row(odd, a)
        full = (1 << len(targets)) - 1
        return [full & ~row for row in fired]

    def witnesses(
        self, a: int, b: int, semantics: Semantics, family: Collection[int] | None = None
    ) -> list[tuple[int, Rule]]:
        """The (in-set, rule) pairs that classify adding the absent attack
        (a, b).  For cf the one lost set {a, b}, unless
        :func:`_conflict_kept` keeps it.  For adm the rules that fire on the
        labellings of the admissible sets, or of those in ``family`` only
        (the preferred sets, say), in canonical extension order, every ND
        match before every NI match.

        With IN = S, OUT = S's targets and UNDEC the rest, a's label selects
        the rules, so at most one ND and one NI rule fire per labelling, and
        each is a test of b against S's tables:

        * a in: ND-in-in if b is in; then NI-in-in-defends if b attacks an
          out-argument that a does not attack.  NI-in-out-reinstates if b
          attacks S (an admissible S attacks each of its attackers, so b is
          out).  NI-in-undec-defends-undec if b is undec and attacks an
          undec argument that does not attack itself.
        * a out: ND-out-in-undefended if b is in, does not attack a, and no
          out-argument attacks b.  NI-out-self-defense if b meets the walk
          conditions of :func:`_self_defense_row` for a, alike for every S.
        * a undec: ND-undec-in if b is in.

        The ND rules are exact: an admissible S is lost exactly when b is in S
        and S does not attack a, that is when a is in S (ND-in-in) or undec
        (ND-undec-in), and ND-out-in-undefended fires only for an unattacked b,
        whose {b} is lost; so their rows over all admissible sets make up the
        loss of :attr:`adm_rows`.  The NI rules are not exact: a gain can
        occur with no rule firing, and a rule can fire when nothing is gained.
        :mod:`afrob.oracle` audits them against Dung's delta."""
        if semantics == Semantics.CONFLICT_FREE:
            kept = _conflict_kept(self.targets, self.attackers)[a] >> b & 1
            return [] if kept else [(1 << a | 1 << b, Rule.CF_NEVER_IN)]
        targets, bit = self.targets, 1 << b
        hits, hit_by, attacks_a = targets[b], self.attackers[b], targets[b] >> a & 1
        spares = hits & ~targets[a]  # b's targets that a does not attack
        unlooped = sum(1 << c for c in _bits(hits) if not targets[c] >> c & 1)
        losses, gains, defense = [], [], None
        for s, out, threat in self.adm:
            if family is not None and s not in family:
                continue
            if s >> a & 1:
                if s & bit:
                    losses.append((s, Rule.ND_IN_IN))
                    if spares & out:
                        gains.append((s, Rule.NI_IN_IN_DEFENDS))
                elif threat & bit:
                    gains.append((s, Rule.NI_IN_OUT_REINSTATES))
                elif unlooped & ~(s | out) and not out & bit:
                    gains.append((s, Rule.NI_IN_UNDEC_DEFENDS_UNDEC))
            elif out >> a & 1:
                if s & bit and not (hit_by & out or attacks_a):
                    losses.append((s, Rule.ND_OUT_IN_UNDEFENDED))
                if defense is None:
                    defense = _self_defense_row(self.reach[0], a)  # alike for every set
                if defense & bit:
                    gains.append((s, Rule.NI_OUT_SELF_DEFENSE))
            elif s & bit:
                losses.append((s, Rule.ND_UNDEC_IN))
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
            return [full & ~k for k in _conflict_kept(self.targets, self.attackers)]
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
            return tuple([s for s, _, _ in self.cf if s & both == both]), ()
        lost = [s for s, attacked, _ in self.adm if s & bit_b and not attacked & bit_a]
        gained = [s for s, hit, threat in self.cf if s & bit_a and threat & ~hit == bit_b]
        return tuple(lost), tuple(gained)


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
    record: _Enumeration, a: int, b: int, semantics: Semantics, preferred_only: bool = False
) -> tuple[Verdict, list[tuple[int, Rule]]]:
    """Classify adding (a, b), argument indices of the framework of
    ``record``, from its ``state``: the verdict and the (in-set mask, rule)
    witnesses of :meth:`_State.witnesses` over the admissible sets, or the
    record's preferred ones."""
    semantics = _cf_or_adm(semantics)
    if preferred_only and semantics == Semantics.CONFLICT_FREE:
        raise UnsupportedSemantics("preferred-only classification supports adm, not cf")
    state = record.state
    if state.targets[a] >> b & 1:
        return Verdict.INVARIANT, []  # re-adding an attack changes nothing
    family = None
    if preferred_only:
        # the preferred sets read only the core: reading every admissible
        # set first refuses an oversized framework by its n
        state.adm
        family = frozenset(record.prf)
    found = state.witnesses(a, b, semantics, family)
    return _verdict(rule for _, rule in found), found


def classify_attack(
    af: ArgumentationFramework,
    attack: tuple[str, str],
    semantics: Semantics,
    preferred_only: bool = False,
) -> AttackClassification:
    """Classify an attack addition for cf or adm, from the root state of
    ``af``'s relation, the ``state`` of its extension record.  Re-adding an
    existing attack is invariant.

    For cf the closed form is exact: the addition is invariant exactly when
    the endpoints already conflict or one of them attacks itself.
    Otherwise it can only shrink the family (an expansion never makes a set
    conflict-free), so the verdict is ``breaks_non_decreasing``, witnessed
    by the lost pair {a, b}.

    For adm the rules of :meth:`_State.witnesses` are scanned over the labellings
    of the admissible sets, or of the preferred ones only under
    ``preferred_only``, in canonical extension order; the witnesses list
    every ND match, then every NI match.  cf has no labellings to restrict,
    so ``preferred_only`` is refused there.  This is the one entry that
    builds a classification and decodes witnesses into names; the CLI and
    the audit read the masks."""
    a, b = map(af._index, attack)
    verdict, found = _classify(_enumerate(af), a, b, semantics, preferred_only)
    witnesses = tuple(Witness(af._names(s), rule) for s, rule in found)
    return AttackClassification(Attack(*attack), Semantics(semantics), verdict, witnesses)


def invariant_attacks(af: ArgumentationFramework, semantics: Semantics) -> list[Attack]:
    """The candidate attacks classified invariant, in canonical order:
    exactly those :func:`classify_attack` classifies invariant."""
    rows = _enumerate(af).state.invariant_rows(_cf_or_adm(semantics))
    return _attacks_in(af.sorted_arguments, rows)
