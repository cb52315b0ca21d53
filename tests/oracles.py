"""Definitional re-implementations used as an independent route in tests.

Everything here except :func:`extension_changes` and
:func:`greedy_robustness` works on plain sets of names and tuples of names
with itertools, deliberately sharing no code (and no bitmask tricks) with
the package under test.
"""

from itertools import combinations, product

from afrob import RobustnessResult, extension_difference, invariant_attacks, oracle_invariant


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


def extension_changes(af, attack, semantics):
    """The extensions of ``af`` lost and gained by adding ``attack``, from
    both extension sets recomputed: the reference for the delta's changes."""
    return extension_difference(af, af.add_attack(*attack), semantics)


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
