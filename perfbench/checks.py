"""Checks of afrob's ``afrob/1`` JSON against the definitional reference.

``check(request, text)`` returns a list of problems, empty when the output
is right.  What has no independent reference (rule-scan verdicts and
witnesses, robustness degrees, audit ledgers) is not judged here; it is
pinned by the digests in ``digests.json`` instead.
"""

from __future__ import annotations

import json
from functools import lru_cache

import reference as ref


def _family(lists) -> frozenset:
    return frozenset(frozenset(ext) for ext in lists)


def _pairs(items) -> list[tuple[str, str]]:
    return [(item["source"], item["target"]) for item in items]


def _framework(request) -> ref.Framework:
    fw = request.framework
    return ref.Framework(fw.args, fw.attacks)


@lru_cache(maxsize=8)
def _all_extensions(fw) -> dict:
    """Every semantics at once; the requests on one framework come in a row."""
    return ref.all_extensions(ref.Framework(fw.args, fw.attacks))


def _check_extensions(request, result, found, divergent):
    expected = _all_extensions(request.framework)[result["semantics"]]
    if _family(result["extensions"]) != expected:
        found.append(f"{result['semantics']} extensions differ from the reference")


def _check_labellings(request, result, found, divergent):
    af = _framework(request)
    expected = {ref.labelling(af, ext) for ext in _all_extensions(request.framework)[result["semantics"]]}
    got = {
        (frozenset(lab["in"]), frozenset(lab["out"]), frozenset(lab["undec"]))
        for lab in result["labellings"]
    }
    if got != expected or len(got) != len(result["labellings"]):
        found.append(f"{result['semantics']} labellings differ from the reference")


def _changes(af, attack, semantics):
    before = ref.extensions(af, semantics)
    after = ref.extensions(af.plus([attack]), semantics)
    return before - after, after - before


def _check_attack(request, result, found, divergent):
    af = _framework(request)
    attack = (result["attack"]["source"], result["attack"]["target"])
    lost, gained = _changes(af, attack, result["semantics"])
    oracle = result["oracle"]
    if oracle["invariant"] != (not lost and not gained):
        found.append(f"oracle verdict for {attack} differs from the reference")
    if _family(oracle["lost"]) != lost or _family(oracle["gained"]) != gained:
        found.append(f"oracle lost/gained for {attack} differ from the reference")


def _check_invariant_attacks(request, result, found, divergent):
    af = _framework(request)
    semantics = result["semantics"]
    listed = set(_pairs(result["attacks"]))
    absent = {(s, t) for s in af.args for t in af.args if (s, t) not in af.attacks}
    # the conflict-free classifier is exact, so every absent attack is judged;
    # the admissible rule scan is not, so only the listed ones are
    judged = absent if semantics == "cf" else listed
    before = ref.extensions(af, semantics)
    changed = {a for a in judged if ref.extensions(af.plus([a]), semantics) != before}
    if set(_pairs(result["oracle_disagreements"])) != changed & listed:
        found.append(f"{semantics} oracle disagreements differ from the reference")
    if semantics == "cf" and listed != absent - changed:
        found.append("cf invariant attacks differ from the reference")


def _check_robustness(request, result, found, divergent):
    af = _framework(request)
    semantics = result["semantics"]
    witness = _pairs(result["witness"])
    if result["degree"] != len(witness):
        found.append("robustness degree differs from the witness length")
    if len(set(witness)) != len(witness) or any(a in af.attacks for a in witness):
        found.append("robustness witness repeats or re-adds an attack")
    elif ref.extensions(af.plus(witness), semantics) != ref.extensions(af, semantics):
        # replay soundness is promised for cf and for --paranoid adm; a plain
        # adm search inherits the rule scan's known divergences from the
        # recomputation, which are counted, not failed
        if semantics == "adm" and "--paranoid" not in request.argv:
            divergent.append(request.index)
        else:
            found.append("robustness witness ends in a framework that is not equivalent")


def _check_audit(request, result, found, divergent):
    if result["frameworks_checked"] != int(request.argv[request.argv.index("--samples") + 1]):
        found.append("audit checked a different number of frameworks")
    if result["disagreements"] != len(result["discrepancies"]):
        found.append("audit disagreement count differs from its ledger")
    names = [f"a{i}" for i in range(1, result["arguments"] + 1)]
    for entry in result["discrepancies"]:
        af = ref.Framework(names, _pairs(entry["attacks"]))
        attack = (entry["attack"]["source"], entry["attack"]["target"])
        lost, gained = _changes(af, attack, result["semantics"])
        invariant = not lost and not gained
        if entry["oracle_invariant"] != invariant:
            found.append(f"audit oracle verdict for {attack} differs from the reference")
        if (entry["predicate_verdict"] == "invariant") == invariant:
            found.append(f"audit lists {attack} although rule scan and reference agree")
        if _family(entry["lost"]) != lost or _family(entry["gained"]) != gained:
            found.append(f"audit lost/gained for {attack} differ from the reference")


_CHECKS = {
    "extensions": _check_extensions,
    "labellings": _check_labellings,
    "check-attack": _check_attack,
    "invariant-attacks": _check_invariant_attacks,
    "robustness": _check_robustness,
    "audit": _check_audit,
}


def check(request, text: str, divergent: list[int]) -> list[str]:
    """Problems with one output; plain adm robustness witnesses that the
    recomputation rejects are appended to ``divergent`` instead."""
    try:
        document = json.loads(text)
        result = document["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc}"]
    if document.get("schema") != "afrob/1" or document.get("command") != request.kind:
        return ["output has the wrong schema or command"]
    found: list[str] = []
    try:
        _CHECKS[request.kind](request, result, found, divergent)
    except (KeyError, TypeError, ValueError) as exc:
        found.append(f"output lacks an expected field: {exc!r}")
    return found


def check_pinned_ledger(text: str) -> list[str]:
    """ROADMAP's pinned ledger: exhaustive n=3 adm audit, 324 disagreements
    over 512 frameworks."""
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable n=3 audit output: {exc}"]
    if (result.get("frameworks_checked"), result.get("disagreements")) != (512, 324):
        return [
            "n=3 adm audit ledger moved: "
            f"{result.get('disagreements')} disagreements over {result.get('frameworks_checked')} frameworks"
        ]
    return []
