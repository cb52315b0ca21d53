"""End-to-end acceptance criteria, one test per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion.  Sweeps use fixed seeds so every run checks the same population;
expected values are classical ground truths, frozen brute-force results, or
live recomputation through the definitional route.

Criteria 4 and 7 check what the admissible rule scan promises, over
populations that never change (SEED, the exhaustive three-argument sweep,
500 seeded relations on four and on five arguments, and
``correspondence_suite``).  The scan is not exact: its gain (NI) rules miss
some gains and raise some false alarms, and tests/test_oracle.py and
tests/test_invariance.py pin minimal cases.  So criterion 4 asserts, against
the definitional recomputation in tests/oracles.py, that the deletion (ND)
rules are exact, that the audit lists exactly the candidates where verdict
and recomputation disagree, with the recomputed changes, and that every such
disagreement is a missed gain or a gain-rule false alarm.  Criterion 7
asserts that the preferred-only scan is the full scan restricted to the
labellings of preferred sets, so it never flags a break the full scan does
not.  Both print their disagreement counts (324 and 2209; 369 verdict
divergences) so the ledger stays visible.
"""

import json
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import product

import oracles

from afrob import (
    ArgumentationFramework,
    Rule,
    Semantics,
    Verdict,
    classify_attack,
    exhaustive_audit,
    extensions,
    labellings_for,
    oracle_invariant,
    robustness_degree,
    verify_witness,
)
from afrob.cli import format_audit_text, run_cli
from afrob.invariance import candidate_attacks
from afrob.oracle import (
    NO_RULE_FIRED,
    canonical_names,
    framework_from_mask,
)

SEED = 7

DELETION_VERDICTS = frozenset({Verdict.BREAKS_NON_DECREASING, Verdict.BREAKS_BOTH})
GAIN_RULES = frozenset(
    {
        Rule.NI_IN_IN_DEFENDS,
        Rule.NI_IN_OUT_REINSTATES,
        Rule.NI_IN_UNDEC_DEFENDS_UNDEC,
        Rule.NI_OUT_SELF_DEFENSE,
    }
)

G3 = ArgumentationFramework(["1", "2", "3", "4"], [("1", "2"), ("2", "3")])
MUTUAL = ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])

G3_ADMISSIBLE = frozenset(
    frozenset(e) for e in ["", "4", "1", "14", "13", "134"]
)


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def clipped(lines, limit=12):
    if len(lines) <= limit:
        return "\n".join(lines)
    return "\n".join(lines[:limit]) + f"\n... ({len(lines) - limit} more lines)"


@lru_cache(maxsize=1)
def correspondence_suite():
    """All frameworks on up to three arguments plus a fixed-seed
    10,000-relation sample on four arguments."""
    suite = []
    for n in (0, 1, 2, 3):
        names = canonical_names(n)
        suite.extend(framework_from_mask(names, mask) for mask in range(1 << (n * n)))
    rng = random.Random(SEED)
    names = canonical_names(4)
    suite.extend(framework_from_mask(names, mask) for mask in rng.sample(range(1 << 16), 10000))
    return suite


def random_frameworks(count, seed, max_args=4):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(1, max_args)
        cases.append(framework_from_mask(canonical_names(n), rng.getrandbits(n * n)))
    return cases


def test_criterion_1_admissible_sets_and_preferred_labelling(tmp_path, capsys):
    started = time.perf_counter()
    path = tmp_path / "g3.apx"
    path.write_text("arg(1).\narg(2).\narg(3).\narg(4).\natt(1,2).\natt(2,3).\n")
    code = run_cli(
        ["extensions", "--semantics", "adm", "--input", str(path), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    listed = frozenset(frozenset(e) for e in payload["result"]["extensions"])
    preferred = labellings_for(G3, Semantics.PREFERRED)
    elapsed = time.perf_counter() - started
    ok = (
        code == 0
        and listed == G3_ADMISSIBLE
        and len(preferred) == 1
        and preferred[0].in_set == {"1", "3", "4"}
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "four-argument-chain reproduction", ok, f"{elapsed:.2f}s")
    assert code == 0
    assert listed == G3_ADMISSIBLE
    assert preferred[0].in_set == {"1", "3", "4"}
    assert elapsed < 1.0


def test_criterion_2_worked_example_classification(capsys):
    started = time.perf_counter()
    expected = {
        ("1", "4"): (Verdict.BREAKS_NON_DECREASING, "ND-in-in"),
        ("4", "2"): (Verdict.BREAKS_NON_INCREASING, "NI-in-out-reinstates"),
        ("2", "4"): (Verdict.BREAKS_NON_DECREASING, "ND-out-in-undefended"),
        ("2", "1"): (Verdict.BREAKS_NON_INCREASING, "NI-out-self-defense"),
    }
    failures = []
    for attack, (verdict, rule) in expected.items():
        classification = classify_attack(G3, attack, Semantics.ADMISSIBLE)
        rules = {w.rule.value for w in classification.witnesses}
        if classification.verdict is not verdict or rule not in rules:
            failures.append((attack, classification.verdict.value, sorted(rules)))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    with capsys.disabled():
        report(2, "worked-example attack classification", ok, f"{elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_3_conflict_free_audit(capsys):
    started = time.perf_counter()
    audit = exhaustive_audit(3, Semantics.CONFLICT_FREE)
    elapsed = time.perf_counter() - started
    failures = adjudicate_conflict_free_audit(audit, audit_population(3))
    ok = not audit.discrepancies and not failures and elapsed < 10.0
    with capsys.disabled():
        report(
            3,
            "conflict-free classifier vs recomputation (512 frameworks)",
            ok,
            f"{len(audit.discrepancies)} disagreements, {len(failures)} broken promises, "
            f"{elapsed:.1f}s",
        )
    assert (audit.frameworks_checked, audit.candidates_checked) == (512, 2304)
    assert not audit.discrepancies, clipped(format_audit_text(audit))
    assert not failures, (
        f"{len(failures)} broken promises of the conflict-free audit against the "
        "definitional recomputation\n" + clipped(failures)
    )
    assert elapsed < 10.0


def audit_population(n, seed=0, samples=1000):
    """The frameworks ``exhaustive_audit`` sweeps, rebuilt as its docstring
    describes them: every relation on up to three arguments, otherwise
    ``samples`` relations whose n*n pairs are drawn independently with
    probability one half from a generator seeded with ``seed``."""
    names = canonical_names(n)
    if n <= 3:
        masks = range(1 << (n * n))
    else:
        rng = random.Random(seed)
        masks = [rng.getrandbits(n * n) for _ in range(samples)]
    return [framework_from_mask(names, mask) for mask in masks]


def describe(af, attack):
    relation = ",".join(f"({a.source},{a.target})" for a in sorted(af.attacks))
    return f"R={{{relation}}} add=({attack[0]},{attack[1]})"


def count_failures(audit, population, candidates):
    """One line per count of ``audit`` that differs from the population's."""
    failures = []
    if audit.frameworks_checked != len(population):
        failures.append(
            f"{audit.frameworks_checked} frameworks checked, expected {len(population)}"
        )
    if audit.candidates_checked != candidates:
        failures.append(f"{audit.candidates_checked} candidates checked, expected {candidates}")
    return failures


def adjudicate_conflict_free_audit(audit, population):
    """Check a conflict-free audit against the definitional recomputation in
    tests/oracles.py; return one line per broken promise.

    The audit's two routes, the cf rule and Dung's delta, read one closed
    form, so they cannot disagree with each other.  So every candidate
    verdict is checked against conflict-freeness recomputed before and
    after the addition: an addition never makes a set conflict-free, so the
    verdict is a deletion exactly when a set is lost, and invariant
    otherwise.
    """
    failures = []
    candidates = 0
    for af in population:
        attacks = {tuple(attack) for attack in af.attacks}
        before = oracles.conflict_free(af.arguments, attacks)
        for attack in product(af.sorted_arguments, repeat=2):
            if attack in attacks:
                continue
            candidates += 1
            lost = before - oracles.conflict_free(af.arguments, attacks | {attack})
            verdict = classify_attack(af, attack, Semantics.CONFLICT_FREE).verdict
            if verdict is not (Verdict.BREAKS_NON_DECREASING if lost else Verdict.INVARIANT):
                failures.append(
                    f"{describe(af, attack)}: verdict {verdict.value} but "
                    f"{len(lost)} conflict-free set(s) lost"
                )
    return failures + count_failures(audit, population, candidates)


def adjudicate_admissible_audit(audit, population):
    """Check an admissible audit against the definitional recomputation in
    tests/oracles.py; return one line per broken promise.

    The deletion rules are exact: the verdict reports a deletion exactly
    when an admissible set is lost.  The gain rules are not, so the audit
    must list precisely the candidates where the verdict and the
    recomputation disagree, with the recomputed changes, and every such
    disagreement must be on the gain side: a missed gain (no rule fired,
    a set is gained) or a gain-rule false alarm (only NI rules fired,
    nothing changed).
    """
    failures = []
    truth = {}
    disagreeing = Counter()
    candidates = 0
    for af in population:
        attacks = {tuple(attack) for attack in af.attacks}
        before = oracles.admissible(af.arguments, attacks)
        for attack in product(af.sorted_arguments, repeat=2):
            if attack in attacks:
                continue
            candidates += 1
            after = oracles.admissible(af.arguments, attacks | {attack})
            lost, gained = frozenset(before - after), frozenset(after - before)
            verdict = classify_attack(af, attack, Semantics.ADMISSIBLE).verdict
            if (verdict in DELETION_VERDICTS) != bool(lost):
                failures.append(
                    f"{describe(af, attack)}: verdict {verdict.value} but "
                    f"{len(lost)} admissible set(s) lost"
                )
            if (verdict is Verdict.INVARIANT) != (not lost and not gained):
                truth[af, attack] = (verdict, lost, gained)
                disagreeing[af, attack] += 1
    failures.extend(count_failures(audit, population, candidates))
    reported = Counter((report.framework, report.attack) for report in audit.discrepancies)
    for (af, attack), count in (disagreeing - reported).items():
        failures.append(f"{describe(af, attack)}: disagreement missing from the audit ({count}x)")
    for (af, attack), count in (reported - disagreeing).items():
        failures.append(f"{describe(af, attack)}: audit lists an agreement ({count}x)")
    for report in audit.discrepancies:
        key = (report.framework, report.attack)
        if key not in truth:
            continue
        verdict, lost, gained = truth[key]
        listed = (report.predicate_verdict, report.lost, report.gained, report.oracle_verdict)
        if listed != (verdict, lost, gained, not lost and not gained):
            failures.append(f"{describe(*key)}: audit entry disagrees with the recomputation")
        missed_gain = verdict is Verdict.INVARIANT and not report.rules and gained
        false_alarm = (
            verdict is Verdict.BREAKS_NON_INCREASING
            and report.rules
            and GAIN_RULES.issuperset(report.rules)
            and not gained
        )
        if lost or not (missed_gain or false_alarm):
            rules = ",".join(rule.value for rule in report.rules) or NO_RULE_FIRED
            failures.append(
                f"{describe(*key)}: {verdict.value} ({rules}) with {len(lost)} lost and "
                f"{len(gained)} gained is neither a missed gain nor a gain-rule false alarm"
            )
    return failures


def test_criterion_4_admissible_audit(capsys):
    started = time.perf_counter()
    exhaustive = exhaustive_audit(3, Semantics.ADMISSIBLE)
    exhaustive_elapsed = time.perf_counter() - started

    started_random = time.perf_counter()
    random_audits = [
        exhaustive_audit(4, Semantics.ADMISSIBLE, seed=SEED, samples=500),
        exhaustive_audit(5, Semantics.ADMISSIBLE, seed=SEED, samples=500),
    ]
    random_elapsed = time.perf_counter() - started_random

    failures = adjudicate_admissible_audit(exhaustive, audit_population(3))
    for audit in random_audits:
        population = audit_population(audit.argument_count, seed=SEED, samples=500)
        failures.extend(adjudicate_admissible_audit(audit, population))

    ok = not failures and exhaustive_elapsed < 60.0 and random_elapsed < 300.0
    with capsys.disabled():
        report(
            4,
            "admissible classifier vs recomputation",
            ok,
            f"{len(exhaustive.discrepancies)} disagreements on 512 frameworks, "
            f"{sum(len(a.discrepancies) for a in random_audits)} on 1000 random 4-5 argument "
            f"frameworks, {exhaustive_elapsed + random_elapsed:.1f}s",
        )
    assert not failures, (
        f"{len(failures)} broken promises of the admissible audit against the "
        "definitional recomputation\n" + clipped(failures)
    )
    assert exhaustive_elapsed < 60.0
    assert random_elapsed < 300.0


def test_criterion_5_expansions_never_enlarge_conflict_free_sets(capsys):
    started = time.perf_counter()
    names = canonical_names(3)
    checked = 0
    violations = []
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        before = extensions(af, Semantics.CONFLICT_FREE)
        for attack in candidate_attacks(af):
            checked += 1
            after = extensions(af.add_attack(*attack), Semantics.CONFLICT_FREE)
            if not oracles.extension_set_included(after, before):
                violations.append((af, attack))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 10.0
    with capsys.disabled():
        report(5, "weak inclusion after every expansion", ok, f"{checked} checks, {elapsed:.1f}s")
    assert not violations
    assert elapsed < 10.0


LABELLING_SEMANTICS = (
    Semantics.COMPLETE,
    Semantics.STABLE,
    Semantics.PREFERRED,
    Semantics.GROUNDED,
    Semantics.SEMI_STABLE,
)


def test_criterion_6_labelling_correspondence(capsys):
    started = time.perf_counter()
    failures = []
    for af in correspondence_suite():
        complete = labellings_for(af, Semantics.COMPLETE)
        if frozenset(l.in_set for l in complete) != extensions(af, Semantics.COMPLETE):
            failures.append(("com", af))
        pairs = [
            (Semantics.STABLE, extensions(af, Semantics.STABLE)),
            (Semantics.PREFERRED, extensions(af, Semantics.PREFERRED)),
            (Semantics.SEMI_STABLE, extensions(af, Semantics.SEMI_STABLE)),
        ]
        for semantics, expected in pairs:
            if frozenset(l.in_set for l in labellings_for(af, semantics)) != expected:
                failures.append((semantics.value, af))
        grounded = labellings_for(af, Semantics.GROUNDED)
        grounded_in = frozenset(l.in_set for l in grounded)
        if len(grounded) != 1 or grounded_in != extensions(af, Semantics.GROUNDED):
            failures.append(("gde", af))
        # the library derives labellings from extensions, so the in-set
        # checks above cannot see a wrong extension family; the 3^n walk can
        oracle_complete = oracles.complete_labellings(af.arguments, {tuple(a) for a in af.attacks})
        for semantics in LABELLING_SEMANTICS:
            found = [(l.in_set, l.out_set, l.undec_set) for l in labellings_for(af, semantics)]
            if found != oracles.restrict_labellings(oracle_complete, semantics.value):
                failures.append((f"{semantics.value} vs 3^n oracle", af))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    with capsys.disabled():
        report(
            6,
            "labellings match extension enumerators and the 3^n labelling oracle",
            ok,
            f"{len(correspondence_suite())} frameworks, {elapsed:.1f}s",
        )
    assert not failures, failures[:10]
    assert elapsed < 120.0


def test_criterion_7_preferred_only_shortcut(capsys):
    started = time.perf_counter()
    checked = 0
    divergences = 0
    mismatches = []
    for af in correspondence_suite():
        preferred = oracles.preferred(af.arguments, {tuple(attack) for attack in af.attacks})
        for attack in candidate_attacks(af):
            checked += 1
            full = classify_attack(af, attack, Semantics.ADMISSIBLE)
            pruned = classify_attack(af, attack, Semantics.ADMISSIBLE, preferred_only=True)
            restricted = tuple(w for w in full.witnesses if w.in_set in preferred)
            if pruned.witnesses != restricted:
                mismatches.append((af, attack, restricted, pruned.witnesses))
            if full.verdict != pruned.verdict:
                divergences += 1
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 120.0
    with capsys.disabled():
        report(
            7,
            "preferred-only scan is the full scan restricted to preferred labellings",
            ok,
            f"{divergences} divergences over {checked} candidates, {elapsed:.1f}s",
        )

    def witnesses(found):
        return " ".join(f"{{{','.join(sorted(w.in_set))}}}:{w.rule.value}" for w in found) or "-"

    lines = [
        f"{describe(af, attack)} expected={witnesses(restricted)}"
        f" preferred_only={witnesses(pruned)}"
        for af, attack, restricted, pruned in mismatches
    ]
    assert not mismatches, (
        f"{len(mismatches)} candidates where the preferred-only witnesses are not the "
        "full scan's witnesses on preferred labellings; report follows\n" + clipped(lines)
    )
    assert elapsed < 120.0


def _oracle_dfs_degree(af, semantics):
    """Independent robustness route: depth-first search that accepts a step
    only when recomputation shows equal extension sets."""
    memo = {}

    def explore(current):
        key = current.attacks
        if key in memo:
            return memo[key]
        best = 0
        for attack in candidate_attacks(current):
            if oracle_invariant(current, attack, semantics):
                best = max(best, 1 + explore(current.add_attack(*attack)))
        memo[key] = best
        return best

    return explore(af)


def test_criterion_8_robustness_golden_values(capsys):
    started = time.perf_counter()
    cases = [
        (G3, Semantics.CONFLICT_FREE, 2),
        (MUTUAL, Semantics.CONFLICT_FREE, 0),
        (MUTUAL, Semantics.ADMISSIBLE, 0),
    ]
    failures = []
    results = []
    for af, semantics, expected in cases:
        predicate = robustness_degree(af, semantics)
        oracle = _oracle_dfs_degree(af, semantics)
        results.append((af, semantics, predicate))
        if predicate.degree != expected or oracle != expected:
            failures.append((semantics.value, expected, predicate.degree, oracle))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 5.0
    with capsys.disabled():
        report(8, "robustness golden degrees via two routes", ok, f"{elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_9_replay_soundness(capsys):
    started = time.perf_counter()
    failures = []
    emitted = 0

    golden = [
        (G3, Semantics.CONFLICT_FREE),
        (MUTUAL, Semantics.CONFLICT_FREE),
        (MUTUAL, Semantics.ADMISSIBLE),
    ]
    for af, semantics in golden:
        result = robustness_degree(af, semantics)
        emitted += 1
        if not verify_witness(af, semantics, result.witness):
            failures.append((af, semantics.value, "exhaustive", result.witness))

    cases = random_frameworks(200, seed=SEED)
    for af in cases:
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            result = robustness_degree(af, semantics)
            emitted += 1
            if not verify_witness(af, semantics, result.witness):
                failures.append((af, semantics.value, "exhaustive", result.witness))
        greedy = robustness_degree(af, Semantics.CONFLICT_FREE, strategy="greedy")
        emitted += 1
        if not verify_witness(af, Semantics.CONFLICT_FREE, greedy.witness):
            failures.append((af, "cf", "greedy", greedy.witness))

    # diagnostic only: plain greedy admissible searches inherit the
    # classifier divergences measured by criterion 4
    greedy_adm_divergent = 0
    for af in cases:
        result = robustness_degree(af, Semantics.ADMISSIBLE, strategy="greedy")
        if not verify_witness(af, Semantics.ADMISSIBLE, result.witness):
            greedy_adm_divergent += 1

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    with capsys.disabled():
        report(
            9,
            "replay soundness of emitted searches",
            ok,
            f"{emitted} results replayed, {elapsed:.1f}s; diagnostic: plain greedy adm "
            f"diverges on {greedy_adm_divergent}/200 frameworks",
        )
    assert not failures, failures[:5]
    assert elapsed < 60.0
