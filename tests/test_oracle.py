import random
import tracemalloc
from collections import Counter

import pytest

import afrob.cli
import afrob.invariance
import afrob.oracle
import afrob.semantics
from afrob import (
    ArgumentationFramework,
    AuditReport,
    SizeLimit,
    Semantics,
    Verdict,
    classify_attack,
    cross_validate,
    exhaustive_audit,
    extension_difference,
    extension_masks,
    extensions,
    robustness_degree,
)
from afrob.framework import Attack
from afrob.invariance import _State
from afrob.oracle import NO_RULE_FIRED, _disagreements, canonical_names, framework_from_mask
from oracles import (
    candidate_attacks,
    extension_changes,
    oracle_invariant,
    sigma_equivalent,
    two_sided_disagreements,
)


def test_oracle_invariant_examples(g3):
    assert oracle_invariant(g3, ("2", "2"), Semantics.ADMISSIBLE)
    assert not oracle_invariant(g3, ("4", "2"), Semantics.ADMISSIBLE)
    assert oracle_invariant(g3, ("1", "2"), Semantics.ADMISSIBLE)  # already present
    assert oracle_invariant(g3, ("1", "2"), Semantics.CONFLICT_FREE)


def test_extension_changes(g3):
    lost, gained = extension_changes(g3, ("4", "2"), Semantics.ADMISSIBLE)
    assert frozenset({"3", "4"}) in gained
    assert lost == frozenset()
    lost, gained = extension_changes(g3, ("1", "4"), Semantics.CONFLICT_FREE)
    assert lost == frozenset({frozenset({"1", "4"}), frozenset({"1", "3", "4"})})
    assert gained == frozenset()


def test_mask_level_checks_match_name_level_extension_sets():
    # oracle_invariant and sigma_equivalent compare mask tuples; here they
    # must agree with equality of the decoded extension sets, and the
    # lost/gained sets with their set differences, for every semantics on
    # every candidate of every three-argument framework
    names = canonical_names(3)
    for mask in range(1 << 9):
        af = framework_from_mask(names, mask)
        for attack in candidate_attacks(af):
            expanded = af.add_attack(*attack)
            for semantics in Semantics:
                before = extensions(af, semantics)
                after = extensions(expanded, semantics)
                assert oracle_invariant(af, attack, semantics) == (before == after)
                assert sigma_equivalent(af, expanded, semantics) == (before == after)
                assert extension_changes(af, attack, semantics) == (before - after, after - before)
                # the masks themselves: filters of the enumerated tuples, in
                # canonical order
                masks = extension_masks(af, semantics)
                expanded_masks = extension_masks(expanded, semantics)
                assert extension_difference(af, expanded, semantics) == (
                    tuple(m for m in masks if m not in expanded_masks),
                    tuple(m for m in expanded_masks if m not in masks),
                )


def _assert_delta_is_recomputation(af):
    # every ordered pair, present attacks and self-attacks included: the
    # candidates the delta marks changed, and per candidate the extensions
    # it loses and gains, read off one state
    names = af.sorted_arguments
    state = _State(*af.bit_rows)
    for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
        changed = state.changed_rows(semantics)
        assert len(changed) == len(names)
        for a, source in enumerate(names):
            for b, target in enumerate(names):
                invariant = oracle_invariant(af, (source, target), semantics)
                assert invariant == (not changed[a] >> b & 1), (af, source, target, semantics)
                lost, gained = state.changes(a, b, semantics)
                decoded = frozenset(map(af._names, lost)), frozenset(map(af._names, gained))
                expected = extension_changes(af, (source, target), semantics)
                assert decoded == expected, (af, source, target, semantics)


def test_delta_matches_recomputation_on_every_small_relation():
    for n in range(4):
        names = canonical_names(n)
        for mask in range(1 << (n * n)):
            _assert_delta_is_recomputation(framework_from_mask(names, mask))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_delta_matches_recomputation_on_seeded_relations(n):
    rng = random.Random(n)
    names = canonical_names(n)
    for p in (0.1, 0.25, 0.5):
        for _ in range(50):
            attacks = [(s, t) for s in names for t in names if rng.random() < p]
            _assert_delta_is_recomputation(ArgumentationFramework(names, attacks))


def test_delta_rejects_other_semantics(g3):
    with pytest.raises(afrob.UnsupportedSemantics):
        cross_validate(g3, Semantics.COMPLETE)
    # refused before any work, even with no framework to audit
    with pytest.raises(afrob.UnsupportedSemantics):
        exhaustive_audit(4, Semantics.COMPLETE, samples=0)


def test_audit_adds_and_enumerates_nothing(monkeypatch):
    # one state per framework decides every candidate by the rules and by
    # the delta, and gives each of the 324 disagreements of the n=3 adm
    # ledger its rules and changed extensions on argument indices: no
    # framework is expanded or enumerated, no candidate classified, and no
    # name looked up or extension decoded
    calls = {"add_attack": 0, "_enumerate": 0, "_classify": 0, "_index": 0, "_names": 0}
    # the cache itself, which modules that import _enumerate by name call
    records = afrob.semantics._enumerate

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner, name in [
        (ArgumentationFramework, "add_attack"),
        (ArgumentationFramework, "_index"),
        (ArgumentationFramework, "_names"),
        (afrob.semantics, "_enumerate"),
        (afrob.invariance, "_classify"),
    ]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    # a binding of its own in the oracle module would be counted too
    monkeypatch.setattr(afrob.oracle, "_classify", afrob.invariance._classify, raising=False)
    cf = exhaustive_audit(3, Semantics.CONFLICT_FREE)
    assert (cf.candidates_checked, len(cf.discrepancies)) == (2304, 0)
    adm = exhaustive_audit(3, Semantics.ADMISSIBLE)
    assert (adm.candidates_checked, len(adm.discrepancies)) == (2304, 324)
    assert calls == {"add_attack": 0, "_enumerate": 0, "_classify": 0, "_index": 0, "_names": 0}
    assert records.cache_info().misses == 0


def _disagreement_population():
    """The relations on up to three arguments, then 100 seeded ones on each
    of four to six, as frameworks."""
    for n in range(4):
        names = canonical_names(n)
        for mask in range(1 << n * n):
            yield framework_from_mask(names, mask)
    rng = random.Random(54)
    for n in (4, 5, 6):
        names = canonical_names(n)
        for _ in range(100):
            yield framework_from_mask(names, rng.getrandbits(n * n))


@pytest.mark.parametrize("semantics", [Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE])
def test_disagreements_read_the_side_that_disagrees(semantics):
    # reading only the side that disagrees gives what reading both gives: a
    # false alarm loses and gains nothing, and no rule fires on a missed gain
    counted = Counter()
    for af in _disagreement_population():
        found = _disagreements(_State(*af.bit_rows), semantics)
        assert found == two_sided_disagreements(_State(*af.bit_rows), semantics), af
        counted.update(invariant for _, _, _, invariant, _, _ in found)
    if semantics == Semantics.ADMISSIBLE:
        assert counted[True] > 1000 and counted[False] > 250
    else:
        assert not counted  # the rules and the delta read one closed form


def test_audit_reads_each_disagreement_from_one_side(monkeypatch):
    # of the 324 disagreements of the n=3 adm audit, each of the 180 false
    # alarms runs one witness scan and each of the 144 missed gains one scan
    # of its lost and gained sets, in order; nothing else runs either
    calls = []

    def counted(name):
        fn = getattr(_State, name)

        def wrapper(self, a, b, semantics, *rest):
            calls.append((name, a, b))
            return fn(self, a, b, semantics, *rest)

        return wrapper

    for name in ("witnesses", "changes"):
        monkeypatch.setattr(_State, name, counted(name))
    report = exhaustive_audit(3, Semantics.ADMISSIBLE)
    expected = [
        ("witnesses" if invariant else "changes", a, b)
        for _, _, found in report.discrepancies.relations
        for a, b, _, invariant, _, _ in found
    ]
    assert len(expected) == 324
    assert calls == expected
    assert Counter(name for name, _, _ in calls) == {"witnesses": 180, "changes": 144}
    assert exhaustive_audit(3, Semantics.CONFLICT_FREE).discrepancies == ()
    assert len(calls) == 324


def test_a_cf_audit_builds_no_state(monkeypatch):
    # the cf rules and delta read one closed form, so a cf audit only counts:
    # it places no rows, transposes none and builds no state, and its counts
    # are the frameworks and absent pairs of the masks it draws, as adm's
    built = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            built[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(afrob.invariance._State, "__init__")
    counted(afrob.oracle, "_placed_rows")
    counted(afrob.oracle, "_transpose")
    # every mask up to three arguments; seeded draws from four on, and at
    # eleven, where a10 sorts before a2, placing the rows moves bits
    cases = [(n, 0, 1000) for n in range(4)] + [(4, 0, 200), (5, 5, 100), (11, 11, 30)]
    counts = {}
    for n, seed, samples in cases:
        rng = random.Random(seed)
        masks = range(1 << n * n) if n <= 3 else [rng.getrandbits(n * n) for _ in range(samples)]
        expected = (len(masks), sum(n * n - bin(mask).count("1") for mask in masks))
        report = exhaustive_audit(n, Semantics.CONFLICT_FREE, seed=seed, samples=samples)
        counts[n] = (report.frameworks_checked, report.candidates_checked)
        assert counts[n] == expected, n
        assert report.discrepancies == ()
    assert built == Counter()
    for n, seed, samples in cases:
        adm = exhaustive_audit(n, Semantics.ADMISSIBLE, seed=seed, samples=samples)
        assert (adm.frameworks_checked, adm.candidates_checked) == counts[n], n
    assert built["__init__"] == sum(counts[n][0] for n in counts)


def test_oracle_invariant_enumerates_the_framework_once(monkeypatch):
    # the record cache holds a framework and the one it is compared with,
    # so comparing every expansion with one framework runs its pass once
    af = framework_from_mask(canonical_names(4), 0x1234)
    passes = []
    conflict_free = afrob.semantics._conflict_free

    def counted(targets, *rest):
        passes.append(targets)
        return conflict_free(targets, *rest)

    monkeypatch.setattr(afrob.semantics, "_conflict_free", counted)
    candidates = candidate_attacks(af)
    for attack in candidates:
        oracle_invariant(af, attack, Semantics.ADMISSIBLE)
    assert passes.count(af.target_rows) == 1
    assert len(passes) == len(candidates) + 1


def test_sampled_audit_memory_does_not_grow_with_the_sample_count():
    # each sample is drawn as it is checked; a cf audit builds no state, so
    # this is the audit's own bookkeeping, which drawing every mask first
    # grows to megabytes
    tracemalloc.start()
    try:
        report = exhaustive_audit(4, "cf", samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.frameworks_checked == 100_000
    assert peak < 1_000_000


@pytest.mark.parametrize("semantics", ["cf", "adm"])
def test_audit_builds_a_framework_only_for_a_sample_that_disagrees(monkeypatch, semantics):
    # a sample stays bit rows, and its disagreements index tuples, until its
    # report is read: the audit builds no framework, and the first read one
    # per framework the report holds (none for cf, whose rules and delta read
    # one closed form)
    built = []
    from_rows = ArgumentationFramework._from_rows

    def counted(order, rows):
        built.append(rows)
        return from_rows(order, rows)

    monkeypatch.setattr(ArgumentationFramework, "_from_rows", staticmethod(counted))
    report = exhaustive_audit(4, semantics, seed=11, samples=200)
    assert built == []
    frameworks = {id(d.framework) for d in report.discrepancies}
    assert len(built) == len(frameworks)
    assert (len(built) > 0) == (semantics == "adm")


def _cross_validated(n, semantics, seed, samples):
    # the reports of cross_validate on each relation the audit checks, in
    # its order, and how many relations have one
    names = canonical_names(n)
    rng = random.Random(seed)
    masks = range(1 << n * n) if n <= 3 else [rng.getrandbits(n * n) for _ in range(samples)]
    found = [cross_validate(framework_from_mask(names, mask), semantics) for mask in masks]
    return tuple(report for reports in found for report in reports), sum(map(bool, found))


@pytest.mark.parametrize("semantics", ["cf", "adm"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_audit_decodes_its_discrepancies_on_first_read(capsys, monkeypatch, n, semantics):
    # counting, by_rule and afrob audit, JSON and text, read the index tuples
    # and build no framework and no report; the first read of an item builds
    # one framework per disagreeing relation and a second read none, and the
    # sequence is the tuple of its reports: equal, hash, repr and slices
    expected, relations = _cross_validated(n, semantics, 11, 200)
    built, decoded = [], []
    from_rows, reports = ArgumentationFramework._from_rows, afrob.oracle._reports

    def counted_rows(order, rows):
        built.append(rows)
        return from_rows(order, rows)

    def counted_reports(af, *rest):
        decoded.append(af)
        return reports(af, *rest)

    monkeypatch.setattr(ArgumentationFramework, "_from_rows", staticmethod(counted_rows))
    monkeypatch.setattr(afrob.oracle, "_reports", counted_reports)
    report = exhaustive_audit(n, semantics, seed=11, samples=200)
    found = report.discrepancies
    assert len(found) == len(expected)
    by_rule = Counter(
        key for d in expected for key in sorted({r.value for r in d.rules}) or [NO_RULE_FIRED]
    )
    assert report.by_rule() == dict(sorted(by_rule.items()))
    # a report over a plain tuple counts its rules too
    assert report._replace(discrepancies=expected).by_rule() == report.by_rule()
    for fmt in ("json", "text"):
        argv = ["audit", "--args", str(n), "--semantics", semantics, "--seed", "11"]
        assert afrob.cli.run_cli([*argv, "--samples", "200", "--format", fmt]) == 0
        lines = capsys.readouterr().out.replace('"', "").splitlines()
        assert f"disagreements: {len(expected)}" in [line.strip(" ,") for line in lines]
    assert (built, decoded) == ([], [])
    assert list(found) == list(expected)
    assert (len(built), len(decoded)) == (relations, relations)
    assert found[-1:] == expected[-1:] and found[::-1] == expected[::-1]
    assert type(found[1:3]) is tuple and found[1:3] == expected[1:3]
    assert (len(built), len(decoded)) == (relations, relations)
    assert found == expected and expected == found and not found != expected
    assert (found == ()) == (not expected) == (() == found)
    assert hash(found) == hash(expected) and repr(found) == repr(expected)
    assert (relations > 0) == (semantics == "adm" and n > 1)


def test_a_hand_built_audit_report_counts_its_rules():
    # by_rule reads any sequence of reports, a plain tuple included
    found = exhaustive_audit(2, Semantics.ADMISSIBLE).discrepancies
    report = AuditReport(Semantics.ADMISSIBLE, 2, True, None, 16, 32, tuple(found) * 2)
    assert report.by_rule() == {"NI-out-self-defense": 4, NO_RULE_FIRED: 4}
    assert AuditReport(Semantics.ADMISSIBLE, 2, True, None, 16, 32, ()).by_rule() == {}


@pytest.mark.parametrize("semantics", [Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE])
def test_audit_reports_what_cross_validate_reports_per_relation(semantics):
    # the audit and cross_validate read disagreements through one loop: over
    # every relation on up to three arguments, the audit's reports are those
    # of cross_validate on each relation's framework, in mask order
    for n in range(4):
        names = canonical_names(n)
        expected = [
            report
            for mask in range(1 << n * n)
            for report in cross_validate(framework_from_mask(names, mask), semantics)
        ]
        found = exhaustive_audit(n, semantics).discrepancies
        assert [d._asdict() for d in found] == [d._asdict() for d in expected]


@pytest.mark.parametrize("semantics", [Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE])
@pytest.mark.parametrize("n", [21, 2000])
def test_audit_checks_the_enumeration_limit_first(n, semantics):
    # a cf audit builds no state, yet is refused past the limit as adm is
    with pytest.raises(SizeLimit, match="enumeration limit of 20"):
        exhaustive_audit(n, semantics)


def test_candidate_attacks_excludes_existing(g3):
    candidates = candidate_attacks(g3)
    assert len(candidates) == 14
    assert Attack("1", "2") not in candidates
    assert Attack("2", "3") not in candidates
    assert candidates == sorted(candidates)


def test_cross_validate_g3_is_clean(g3):
    assert cross_validate(g3, Semantics.ADMISSIBLE) == []
    assert cross_validate(g3, Semantics.CONFLICT_FREE) == []


def test_cross_validate_empty_framework(empty_af):
    assert cross_validate(empty_af, Semantics.ADMISSIBLE) == []


def test_audit_one_argument_cf():
    report = exhaustive_audit(1, Semantics.CONFLICT_FREE)
    assert report.exhaustive
    assert report.frameworks_checked == 2
    assert report.candidates_checked == 1
    assert report.discrepancies == ()


def test_audit_two_arguments_adm_characterisation():
    # adjudication record: over the sixteen two-argument relations the rule
    # scan and the recomputation disagree on exactly four candidates, two
    # self-defense false alarms and two missed self-defense gains
    report = exhaustive_audit(2, Semantics.ADMISSIBLE)
    assert len(report.discrepancies) == 4
    assert report.by_rule() == {"NI-out-self-defense": 2, NO_RULE_FIRED: 2}
    for discrepancy in report.discrepancies:
        lost, gained = extension_changes(
            discrepancy.framework, discrepancy.attack, discrepancy.semantics
        )
        decode = discrepancy.framework._names
        assert (lost, gained) == (
            frozenset(map(decode, discrepancy.lost)), frozenset(map(decode, discrepancy.gained))
        )
        assert discrepancy.oracle_verdict == (not lost and not gained)
        assert (discrepancy.predicate_verdict is Verdict.INVARIANT) != discrepancy.oracle_verdict


def test_audit_three_arguments_ledger():
    # the exhaustive n=3 ledger pins the gain-side (NI) rules: a rule that
    # fires more or less often than today moves these counts
    adm = exhaustive_audit(3, Semantics.ADMISSIBLE)
    assert (adm.frameworks_checked, adm.candidates_checked) == (512, 2304)
    assert len(adm.discrepancies) == 324
    assert adm.by_rule() == {
        "NI-in-out-reinstates": 6,
        "NI-in-undec-defends-undec": 6,
        "NI-out-self-defense": 174,
        NO_RULE_FIRED: 144,
    }
    # each disagreement carries the rules (distinct, in witness order) and
    # the verdict of classifying its candidate on its own
    for report in adm.discrepancies:
        classification = classify_attack(report.framework, report.attack, Semantics.ADMISSIBLE)
        rules = tuple(dict.fromkeys(w.rule for w in classification.witnesses))
        assert (report.rules, report.predicate_verdict) == (rules, classification.verdict)
    cf = exhaustive_audit(3, Semantics.CONFLICT_FREE)
    assert (cf.frameworks_checked, cf.candidates_checked) == (512, 2304)
    assert cf.discrepancies == ()


def test_missed_gain_discrepancy_is_a_real_gain():
    # one of the two-argument misses: a1 attacks itself and a2, and the rule
    # scan cannot see that a2 could start defending itself
    af = ArgumentationFramework(["a1", "a2"], [("a1", "a1"), ("a1", "a2")])
    assert not oracle_invariant(af, ("a2", "a1"), Semantics.ADMISSIBLE)
    lost, gained = extension_changes(af, ("a2", "a1"), Semantics.ADMISSIBLE)
    assert gained == frozenset({frozenset({"a2"})})
    assert lost == frozenset()


def test_oracle_is_stable_under_renaming(g3):
    renamed = ArgumentationFramework(["p", "q", "r", "s"], [("p", "q"), ("q", "r")])
    mapping = {"1": "p", "2": "q", "3": "r", "4": "s"}
    for attack in candidate_attacks(g3):
        image = (mapping[attack.source], mapping[attack.target])
        for semantics in (Semantics.CONFLICT_FREE, Semantics.ADMISSIBLE):
            assert oracle_invariant(g3, attack, semantics) == oracle_invariant(
                renamed, image, semantics
            )


def test_audit_is_deterministic_for_a_seed():
    one = exhaustive_audit(4, Semantics.ADMISSIBLE, seed=3, samples=30)
    two = exhaustive_audit(4, Semantics.ADMISSIBLE, seed=3, samples=30)
    assert one == two
    assert not one.exhaustive
    assert one.seed == 3
    assert one.frameworks_checked == 30


@pytest.mark.parametrize(
    "parameter, field",
    [("n", "argument_count"), ("samples", "frameworks_checked"), ("seed", "seed")],
)
def test_audit_counts_and_seed_are_integers(parameter, field):
    # an unseeded audit would not be reproducible from its report, and a
    # float count would be shifted; True is the integer 1
    given = {"n": 4, "semantics": Semantics.ADMISSIBLE, "samples": 3, "seed": 0}
    for refused in (None, 2.5, "4"):
        with pytest.raises(TypeError):
            exhaustive_audit(**{**given, parameter: refused})
    report = exhaustive_audit(**{**given, parameter: True})
    assert report == exhaustive_audit(**{**given, parameter: 1})
    assert type(getattr(report, field)) is int


def test_framework_from_mask_round_trip():
    names = canonical_names(3)
    af = framework_from_mask(names, 0b101)
    assert af.arguments == frozenset(names)
    assert af.attacks == frozenset({Attack("a1", "a1"), Attack("a1", "a3")})


def test_framework_from_mask_equals_the_name_level_decoder():
    # from n = 10 on the canonical order is not the index order (a10 sorts
    # before a2), so the row slices must be permuted
    rng = random.Random(0)
    for n in range(13):
        names = canonical_names(n)
        for _ in range(50):
            mask = rng.getrandbits(n * n)
            attacks = [(names[k // n], names[k % n]) for k in range(n * n) if mask >> k & 1]
            assert framework_from_mask(names, mask) == ArgumentationFramework(names, attacks)
    # bit a*n + b is (names[a], names[b]) in the order given, not the sorted one
    mask = 1 << 0 * 3 + 1 | 1 << 1 * 3 + 0 | 1 << 2 * 3 + 0
    assert framework_from_mask(["b", "c", "a"], mask).attacks == {
        ("b", "c"),
        ("c", "b"),
        ("a", "b"),
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda g3: exhaustive_audit(-1, Semantics.ADMISSIBLE),
        lambda g3: exhaustive_audit(4, Semantics.ADMISSIBLE, samples=-1),
        # Random(-1) draws what Random(1) draws: the report would name a seed
        # whose population it does not hold
        lambda g3: exhaustive_audit(5, Semantics.ADMISSIBLE, samples=3, seed=-1),
        lambda g3: robustness_degree(g3, Semantics.CONFLICT_FREE, max_steps=-1),
    ],
    ids=["audit-arguments", "audit-samples", "audit-seed", "robustness-max-steps"],
)
def test_negative_counts_are_rejected(g3, call):
    with pytest.raises(ValueError):
        call(g3)


@pytest.mark.parametrize(
    "names, mask",
    [(("a", "a"), 0b1111), (("a", "b"), -1), (("a", "b"), 1 << 2 * 2)],
    ids=["duplicate-names", "negative-mask", "mask-past-n-squared-bits"],
)
def test_framework_from_mask_rejects_what_is_no_relation_on_the_names(names, mask):
    with pytest.raises(ValueError):
        framework_from_mask(names, mask)
