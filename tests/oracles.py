"""Definitional re-implementations used as an independent route in tests.

Most functions here work on plain sets of names and tuples of names with
itertools, deliberately sharing no code (and no bitmask tricks) with the
package under test; :func:`parse_apx_by_line` shares only the framework
and error types.  The rest take frameworks and use only the package's
public API: :func:`candidate_attacks`, :func:`emit_apx` and
:func:`labelling_names`; :func:`sigma_equivalent`,
:func:`oracle_invariant` and :func:`extension_changes`, which recompute
both extension sets; and :func:`verify_witness` and
:func:`greedy_robustness`, which replay a search one framework per step;
and :func:`audit_result` and :func:`audit_lines`, the ``afrob audit``
output as plain dicts and lists, the reference its writer is pinned to,
as :func:`check_attack_result` and :func:`check_attack_lines` are for
``afrob check-attack`` and :func:`labellings_result` and
:func:`labellings_lines` for ``afrob labellings``.
Two read a relation's state (``afrob.invariance._State``):
:func:`rule_row_witnesses`, the rules' row form, which the package ran
before it tested one candidate's bit, and which ``_State.witnesses`` is
pinned to; and :func:`two_sided_disagreements`, the audit's loop as it
read every disagreement from both sides, which ``_disagreements`` is
pinned to.
"""

import re
from itertools import combinations, product

from afrob import (
    ArgumentationFramework,
    Attack,
    ParseError,
    RobustnessResult,
    UndeclaredArgument,
    classify_attack,
    extension_difference,
    invariant_attacks,
    labellings_for,
)
from afrob.framework import _bits
from afrob.invariance import _DELETION_RULES, Rule, _defending_undec, _self_defense_row


def subsets(args):
    args = sorted(args)
    return [frozenset(c) for r in range(len(args) + 1) for c in combinations(args, r)]


def is_conflict_free(attacks, ext):
    return not any((a, b) in attacks for a in ext for b in ext)


def set_attacks(attacks, ext, target):
    return any((member, target) in attacks for member in ext)


def defends(args, attacks, ext, argument):
    return all(set_attacks(attacks, ext, b) for b in args if (b, argument) in attacks)


def conflict_free(args, attacks):
    return {e for e in subsets(args) if is_conflict_free(attacks, e)}


def admissible(args, attacks):
    return {
        e
        for e in conflict_free(args, attacks)
        if all(defends(args, attacks, e, a) for a in e)
    }


def complete(args, attacks):
    return {
        e
        for e in admissible(args, attacks)
        if all(a in e for a in args if defends(args, attacks, e, a))
    }


def stable(args, attacks):
    return {
        e
        for e in conflict_free(args, attacks)
        if all(set_attacks(attacks, e, a) for a in set(args) - e)
    }


def preferred(args, attacks):
    adm = admissible(args, attacks)
    return {e for e in adm if not any(e < other for other in adm)}


def grounded(args, attacks):
    com = complete(args, attacks)
    minimal = {e for e in com if not any(other < e for other in com)}
    assert len(minimal) == 1, "grounded extension must be unique"
    return minimal


def _undecided(args, attacks, ext):
    attacked = {t for (s, t) in attacks if s in ext}
    return frozenset(args) - ext - attacked


def semi_stable(args, attacks):
    com = complete(args, attacks)
    regions = {e: _undecided(args, attacks, e) for e in com}
    return {e for e in com if not any(u < regions[e] for u in regions.values())}


_BY_NAME = {
    "cf": conflict_free,
    "adm": admissible,
    "com": complete,
    "stb": stable,
    "prf": preferred,
    "gde": grounded,
    "sst": semi_stable,
}


def extensions(args, attacks, semantics):
    return _BY_NAME[semantics](args, attacks)


def extension_sort_key(extension):
    """Canonical order of extensions: by size, then by the ascending tuple
    of member names."""
    return (len(extension), tuple(sorted(extension)))


def extension_set_included(candidate, reference):
    """Weak inclusion between extension families: every member of
    ``candidate`` is contained in some member of ``reference``."""
    return all(any(ext <= other for other in reference) for ext in candidate)


def reinstatement_labellings(args, attacks):
    """All (in, out, undec) triples of frozensets, tried over every one of
    the 3^n assignments, in which every in-argument has all its attackers
    out and every out-argument has an in attacker.  Sorted by in, then out,
    each as a sorted tuple."""
    order = sorted(args)
    labels = ("in", "out", "undec")
    attackers = {x: [b for b in order if (b, x) in attacks] for x in order}
    found = []
    for assignment in product(labels, repeat=len(order)):
        label = dict(zip(order, assignment))
        if all(
            (label[x] != "in" or all(label[b] == "out" for b in attackers[x]))
            and (label[x] != "out" or any(label[b] == "in" for b in attackers[x]))
            for x in order
        ):
            found.append(
                tuple(frozenset(x for x in order if label[x] == value) for value in labels)
            )
    return sorted(found, key=lambda lab: (tuple(sorted(lab[0])), tuple(sorted(lab[1]))))


def complete_labellings(args, attacks):
    """Reinstatement labellings that also satisfy the converse directions:
    an argument whose attackers are all out is in, and an argument with an
    in attacker is out."""
    attackers = {x: {b for b in args if (b, x) in attacks} for x in args}

    def converse(lab):
        in_set, out_set, _ = lab
        for x in args:
            if attackers[x] <= out_set and x not in in_set:
                return False
            if attackers[x] & in_set and x not in out_set:
                return False
        return True

    return [lab for lab in reinstatement_labellings(args, attacks) if converse(lab)]


def restrict_labellings(complete, semantics):
    """The complete labellings kept by each semantics, in the given order:
    stb has no undec, prf maximal in, gde minimal in, sst minimal undec."""
    if semantics == "com":
        return list(complete)
    if semantics == "stb":
        return [lab for lab in complete if not lab[2]]
    if semantics == "prf":
        return [lab for lab in complete if not any(o[0] > lab[0] for o in complete)]
    if semantics == "gde":
        return [lab for lab in complete if not any(o[0] < lab[0] for o in complete)]
    if semantics == "sst":
        return [lab for lab in complete if not any(o[2] < lab[2] for o in complete)]
    raise ValueError(semantics)


def labelling_names(af, labellings):
    """The (in, out, undec) mask triples of ``labellings``, over
    ``af.sorted_arguments``, decoded bit by bit into triples of name
    frozensets, in the given order."""
    order = af.sorted_arguments
    return [
        tuple(frozenset(name for i, name in enumerate(order) if mask >> i & 1) for mask in triple)
        for triple in labellings
    ]


def odd_walk(attacks, source, target, max_len):
    """Walk enumeration by exact length: True if some walk of odd length
    (between 1 and max_len) leads from source to target."""
    current = {source}
    for length in range(1, max_len + 1):
        current = {t for (s, t) in attacks if s in current}
        if length % 2 == 1 and target in current:
            return True
        if not current:
            return False
    return False


def rule_scan(args, attacks, family, attack):
    """The name-level labelling-rule scan of one candidate attack (a, b)
    over the labellings of an extension family: (verdict, witnesses), each
    witness an (in-set, rule name) pair.  The labellings are visited by
    size, then names; every ND (deletion) match comes before every NI
    (gain) match.  An existing attack is invariant."""
    if attack in attacks:
        return "invariant", ()
    a, b = attack
    args = frozenset(args)
    order = sorted(args)

    def attacks_pair(s, t):
        return (s, t) in attacks

    def odd(s, t):
        return odd_walk(attacks, s, t, 2 * len(args))

    self_defense_core = odd(b, a) and not any(
        c != b and odd(c, a) and not odd(a, c) for c in order
    )
    losses, gains = [], []
    for in_set in sorted(family, key=lambda e: (len(e), tuple(sorted(e)))):
        out_set = frozenset(t for (s, t) in attacks if s in in_set) - in_set
        undec_set = args - in_set - out_set
        if a in in_set and b in in_set:
            losses.append((in_set, "ND-in-in"))
        if (
            a in out_set
            and b in in_set
            and not attacks_pair(b, a)
            and not any(attacks_pair(c, b) for c in out_set)
        ):
            losses.append((in_set, "ND-out-in-undefended"))
        if a in undec_set and b in in_set:
            losses.append((in_set, "ND-undec-in"))
        if (
            a in in_set
            and b in in_set
            and any(not attacks_pair(a, c) and attacks_pair(b, c) for c in out_set)
        ):
            gains.append((in_set, "NI-in-in-defends"))
        if a in in_set and b in out_set and any(attacks_pair(b, c) for c in in_set):
            gains.append((in_set, "NI-in-out-reinstates"))
        if (
            a in in_set
            and b in undec_set
            and any(not attacks_pair(c, c) and attacks_pair(b, c) for c in undec_set)
        ):
            gains.append((in_set, "NI-in-undec-defends-undec"))
        if a in out_set and self_defense_core:
            gains.append((in_set, "NI-out-self-defense"))
    if losses and gains:
        verdict = "breaks_both"
    elif losses:
        verdict = "breaks_non_decreasing"
    elif gains:
        verdict = "breaks_non_increasing"
    else:
        verdict = "invariant"
    return verdict, tuple(losses + gains)


def _having(rows, among, hits):
    """The arguments i in ``among`` whose ``rows[i]`` meets ``hits``."""
    return sum(1 << i for i in _bits(among) if rows[i] & hits)


def _rule_rows(state, s, out, threat, a, defense):
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
    * NI-out-self-defense: a is out and b is in ``defense``, the walk
      conditions of ``_self_defense_row`` for a, alike for every set.

    The ND rules are exact: an admissible S is lost exactly when b is in S
    and S does not attack a, that is when a is in S (ND-in-in) or undec
    (ND-undec-in), and ND-out-in-undefended fires only for an unattacked b,
    whose {b} is lost; so their rows over all admissible sets make up the
    loss of ``_State.adm_rows``.  The NI rules are not exact: a gain can
    occur with no rule firing, and a rule can fire when nothing is gained.
    ``afrob.oracle`` audits them against Dung's delta.  a's label selects
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
        return (
            (Rule.ND_OUT_IN_UNDEFENDED, s & ~_having(attackers, s, out) & ~attackers[a]),
            (Rule.NI_OUT_SELF_DEFENSE, defense),
        )
    return ((Rule.ND_UNDEC_IN, s),)


def rule_row_witnesses(state, a, b, family=None):
    """The adm (in-set mask, rule) witnesses of adding the absent attack
    (a, b) to ``state``'s relation, read off each labelling's whole rule
    rows (:func:`_rule_rows`) over the admissible sets, or those in
    ``family``, in canonical order, every ND match before every NI match."""
    losses, gains, defense = [], [], None
    for s, out, threat in state.adm:
        if family is None or s in family:
            if defense is None and out >> a & 1:
                defense = _self_defense_row(state.reach[0], a)
            for rule, row in _rule_rows(state, s, out, threat, a, defense):
                if row >> b & 1:
                    (losses if rule in _DELETION_RULES else gains).append((s, rule))
    return losses + gains


def two_sided_disagreements(state, semantics):
    """The disagreements of ``afrob.oracle._disagreements``, each read from
    both sides: the rules ``witnesses`` finds and the sets ``changes`` finds,
    for every candidate on which the rule scan and Dung's delta disagree."""
    invariant = state.invariant_rows(semantics)
    changed = state.changed_rows(semantics)
    full = (1 << len(state.targets)) - 1
    found = []
    for a, (rule_row, changed_row, present) in enumerate(zip(invariant, changed, state.targets)):
        for b in _bits(rule_row ^ (full & ~(changed_row | present))):
            rules = tuple(dict.fromkeys(rule for _, rule in state.witnesses(a, b, semantics)))
            found.append((a, b, rules, not changed_row >> b & 1, *state.changes(a, b, semantics)))
    return found


def candidate_attacks(af):
    """All attacks not yet present, in canonical order."""
    order = af.sorted_arguments
    return [Attack(a, b) for a in order for b in order if (a, b) not in af.attacks]


def emit_apx(af):
    """Render a framework as a canonical apx document (sorted, deduplicated)."""
    lines = [f"arg({name})." for name in af.sorted_arguments]
    lines += [f"att({source},{target})." for source, target in sorted(af.attacks)]
    return "\n".join(lines) + ("\n" if lines else "")


def sigma_equivalent(af, other, semantics):
    """True when both frameworks have identical extension sets: no
    extension is lost or gained (``extension_difference``, which refuses
    two different argument sets)."""
    return extension_difference(af, other, semantics) == ((), ())


def oracle_invariant(af, attack, semantics):
    """Ground truth: does adding the attack leave the extension set equal?"""
    return sigma_equivalent(af, af.add_attack(*attack), semantics)


def verify_witness(af, semantics, witness):
    """Replay a witness sequence on frameworks: every step must add an
    attack not yet present and classify invariant for the framework it is
    applied to, and the final framework must have exactly the original
    extension set (checked by full recomputation).  Semantics other than
    cf and adm are refused even for an empty witness, and a step naming an
    unknown argument raises ``UnknownArgument``."""
    current, invariant = af, invariant_attacks(af, semantics)
    for step in witness:
        following = current.add_attack(*step)
        # an attack already present is no candidate
        if step not in invariant:
            return False
        current, invariant = following, invariant_attacks(following, semantics)
    return sigma_equivalent(af, current, semantics)


def extension_changes(af, attack, semantics):
    """The extensions of ``af`` lost and gained by adding ``attack``, from
    both extension sets recomputed, as sets of name sets: the reference for
    the delta's changes."""
    lost, gained = extension_difference(af, af.add_attack(*attack), semantics)
    return frozenset(map(af._names, lost)), frozenset(map(af._names, gained))


def greedy_robustness(af, semantics, paranoid=False, max_steps=None):
    """The greedy robustness search as a plain loop on the public API: take
    the first invariant candidate in canonical order (under ``paranoid`` the
    first one recomputation confirms) until none is left, or until
    ``max_steps`` steps are taken while a candidate remains (truncated)."""
    current, witness, truncated = af, [], False
    while True:
        step = next(
            (
                attack
                for attack in invariant_attacks(current, semantics)
                if not paranoid or oracle_invariant(current, attack, semantics)
            ),
            None,
        )
        if step is None:
            break
        if max_steps is not None and len(witness) >= max_steps:
            truncated = True
            break
        current = current.add_attack(*step)
        witness.append(step)
    return RobustnessResult(len(witness), tuple(witness), len(witness) + 1, "greedy", truncated)


def cf_robustness(args, attacks, max_steps=None):
    """The exhaustive cf robustness search, definitionally: from each
    relation, the absent attacks in sorted order after which the
    conflict-free sets, recomputed, are the same are the steps, and a chain
    stops after ``max_steps`` of them.  Returns (degree, first longest
    chain, relations visited, whether the cap cut a chain short)."""
    order = sorted(args)
    memo = {}
    truncated = False

    def search(current):
        nonlocal truncated
        if current not in memo:
            before = conflict_free(args, current)
            steps = [
                (a, b)
                for a in order
                for b in order
                if (a, b) not in current and conflict_free(args, current | {(a, b)}) == before
            ]
            best = (0, ())
            if steps and max_steps is not None and len(current) - len(attacks) >= max_steps:
                truncated = True
            else:
                for step in steps:
                    degree, witness = search(current | {step})
                    if 1 + degree > best[0]:
                        best = (1 + degree, (step,) + witness)
            memo[current] = best
        return memo[current]

    degree, witness = search(frozenset(attacks))
    return degree, witness, len(memo), truncated


def audit_result(report):
    """The ``afrob/1`` result of ``afrob audit`` for the ``AuditReport``
    ``report``, as the dicts, lists, strings, ints, bools and None that
    ``json.dumps`` writes: one dict per disagreement, holding its whole
    relation in sorted order."""

    def sets(af, masks):
        names = af.sorted_arguments
        return [[names[i] for i in range(len(names)) if m >> i & 1] for m in masks]

    return {
        "semantics": report.semantics.value,
        "arguments": report.argument_count,
        "exhaustive": report.exhaustive,
        "seed": report.seed,
        "frameworks_checked": report.frameworks_checked,
        "candidates_checked": report.candidates_checked,
        "disagreements": len(report.discrepancies),
        "by_rule": report.by_rule(),
        "discrepancies": [
            {
                "attacks": [{"source": s, "target": t} for s, t in sorted(d.framework.attacks)],
                "attack": {"source": d.attack.source, "target": d.attack.target},
                "predicate_verdict": d.predicate_verdict.value,
                "oracle_invariant": d.oracle_verdict,
                "rules": [rule.value for rule in d.rules],
                "lost": sets(d.framework, d.lost),
                "gained": sets(d.framework, d.gained),
            }
            for d in report.discrepancies
        ],
    }


def audit_lines(result):
    """The text lines of ``afrob audit``, rendered from :func:`audit_result`."""

    def family(sets):
        return ",".join("{" + ",".join(s) + "}" for s in sets) or "-"

    mode = "exhaustive" if result["exhaustive"] else f"sampled (seed={result['seed']})"
    lines = [
        f"semantics: {result['semantics']}",
        f"arguments: {result['arguments']}",
        f"mode: {mode}",
        f"frameworks: {result['frameworks_checked']}",
        f"candidates: {result['candidates_checked']}",
        f"disagreements: {result['disagreements']}",
    ]
    lines += [f"by rule: {rule}={count}" for rule, count in result["by_rule"].items()]
    for d in result["discrepancies"]:
        relation = ",".join(f"({a['source']},{a['target']})" for a in d["attacks"])
        attack = d["attack"]
        lines.append(
            f"disagreement: R={{{relation}}} add=({attack['source']},{attack['target']})"
            f" predicate={d['predicate_verdict']}"
            f" oracle={'invariant' if d['oracle_invariant'] else 'changed'}"
            f" lost={family(d['lost'])} gained={family(d['gained'])}"
        )
    return lines


def _set_text(names):
    return "{" + ",".join(names) + "}"


def check_attack_result(af, attack, semantics, preferred_only=False, oracle=False):
    """The ``afrob/1`` result of ``afrob check-attack`` adding ``attack``,
    as the dicts, lists, strings and bools that ``json.dumps`` writes: one
    dict per witness of ``classify_attack``, in its order, with the in-set's
    names sorted, and under ``oracle`` the sets :func:`extension_changes`
    finds lost and gained, sorted by :func:`extension_sort_key`."""
    found = classify_attack(af, attack, semantics, preferred_only)
    result = {
        "attack": {"source": attack[0], "target": attack[1]},
        "semantics": semantics,
        "verdict": found.verdict.value,
        "witnesses": [{"in_set": sorted(w.in_set), "rule": w.rule.value} for w in found.witnesses],
    }
    if oracle:
        lost, gained = extension_changes(af, attack, semantics)
        result["oracle"] = {
            "invariant": not lost and not gained,
            "lost": [sorted(e) for e in sorted(lost, key=extension_sort_key)],
            "gained": [sorted(e) for e in sorted(gained, key=extension_sort_key)],
        }
    return result


def check_attack_lines(result):
    """The text lines of ``afrob check-attack``, rendered from
    :func:`check_attack_result`."""
    attack = result["attack"]
    lines = [
        f"attack: {attack['source']} -> {attack['target']}",
        f"semantics: {result['semantics']}",
        f"verdict: {result['verdict']}",
    ]
    lines += [f"witness: in={_set_text(w['in_set'])} rule={w['rule']}" for w in result["witnesses"]]
    if "oracle" in result:
        oracle = result["oracle"]
        lost = ",".join(map(_set_text, oracle["lost"])) or "-"
        gained = ",".join(map(_set_text, oracle["gained"])) or "-"
        verdict = "invariant" if oracle["invariant"] else "changed"
        lines.append(f"oracle: {verdict} lost={lost} gained={gained}")
    return lines


def labellings_result(af, semantics):
    """The ``afrob/1`` result of ``afrob labellings``: one dict per
    labelling of ``labellings_for``, in its order, decoded by
    :func:`labelling_names`, each set's names sorted."""
    labellings = labelling_names(af, labellings_for(af, semantics))
    return {
        "semantics": semantics,
        "labellings": [
            {"in": sorted(i), "out": sorted(o), "undec": sorted(u)} for i, o, u in labellings
        ],
    }


def labellings_lines(result):
    """The text lines of ``afrob labellings``, rendered from
    :func:`labellings_result`."""
    return [
        f"in={_set_text(l['in'])} out={_set_text(l['out'])} undec={_set_text(l['undec'])}"
        for l in result["labellings"]
    ]


_SPACE = re.compile(r"\s*")
_NAME = re.compile(r"[A-Za-z0-9_]+")
# the separator that follows each name a declaration expects
_SEPARATORS = {"arg(": (").",), "att(": (",", ").")}


def parse_apx_by_line(text):
    """The apx reader as a line-by-line walk of step checks: the reference
    for ``afrob.parse_apx``'s one-pattern pass, its errors included."""
    arguments = set()
    attacks = []
    # not splitlines(), which also breaks at \v, \f, \x1c-\x1e, \x85, \u2028, \u2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        pos = _SPACE.match(line).end()
        if pos == len(line) or line[pos] == "%":
            continue
        separators = _SEPARATORS.get(line[pos : pos + 4])
        if separators is None:
            raise ParseError(lineno, pos + 1, "expected 'arg(NAME).' or 'att(NAME,NAME).'")
        pos += 4
        names = []
        for separator in separators:
            name = _NAME.match(line, pos)
            if name is None:
                raise ParseError(lineno, pos + 1, "expected an argument name ([A-Za-z0-9_]+)")
            pos = name.end()
            if not line.startswith(separator, pos):
                raise ParseError(lineno, pos + 1, f"expected {separator!r}")
            pos += len(separator)
            names.append(name.group())
        pos = _SPACE.match(line, pos).end()
        if pos != len(line):
            raise ParseError(lineno, pos + 1, "unexpected trailing characters")
        if len(names) == 1:
            arguments.add(names[0])
        else:
            attacks.append((lineno, *names))
    for lineno, source, target in attacks:
        if source not in arguments:
            raise UndeclaredArgument(source, lineno)
        if target not in arguments:
            raise UndeclaredArgument(target, lineno)
    return ArgumentationFramework(arguments, [(s, t) for _, s, t in attacks])
