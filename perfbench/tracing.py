"""Outside-in tracing of afrob's layers.

The tracer replaces functions by module attribute (a module global, a
class method or an entry of a dispatch dict) with wrappers that record a
span per call: name, start, end and parent span.  Nothing under ``src/``
changes, and ``restore`` puts every original back.  Spans stay in memory in
flat arrays and are written out once, after the traced run.

A span's self time is its duration minus the time its direct children
cover.  Every wrap point below names the span it records; a function called
through two module bindings is wrapped at both.  When a later version of
the program no longer has a wrap point, the metrics that depend only on
missing wrap points are reported as absent rather than crashing the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module:attribute path, span name, hook)
WRAP_POINTS = [
    ("afrob.cli:parse_apx", "apx.parse", None),
    ("afrob.framework:ArgumentationFramework.add_attack", "framework.add_attack", None),
    ("afrob.framework:ArgumentationFramework.odd_walk_exists", "framework.odd_walk", "calls"),
    ("afrob.semantics:_enumerate", "semantics.enumerate", "enumerate"),
    # cf/adm/com only decode the enumeration's masks into sets
    ("afrob.semantics:_DISPATCH[cf]", "semantics.enumerate", None),
    ("afrob.semantics:_DISPATCH[adm]", "semantics.enumerate", None),
    ("afrob.semantics:_DISPATCH[com]", "semantics.enumerate", None),
    ("afrob.invariance:admissible_sets", "semantics.enumerate", None),
    ("afrob.labelling:admissible_sets", "semantics.enumerate", None),
    ("afrob.labelling:conflict_free_sets", "semantics.enumerate", None),
    # the maximality filters
    ("afrob.semantics:_DISPATCH[stb]", "semantics.filter", None),
    ("afrob.semantics:_DISPATCH[prf]", "semantics.filter", None),
    ("afrob.semantics:_DISPATCH[gde]", "semantics.filter", None),
    ("afrob.semantics:_DISPATCH[sst]", "semantics.filter", None),
    ("afrob.invariance:preferred_sets", "semantics.filter", None),
    ("afrob.labelling:reinstatement_labellings", "labelling.enumerate", "assignments"),
    ("afrob.labelling:complete_labellings", "labelling.enumerate", None),
    ("afrob.cli:labellings_for", "labelling.restrict", None),
    ("afrob.labelling:labellings_for", "labelling.restrict", None),
    ("afrob.labelling:labelling_from_set", "labelling.from_set", "calls"),
    ("afrob.invariance:labelling_from_set", "labelling.from_set", "calls"),
    ("afrob.invariance:classify_conflict_free_attack", "invariance.classify", "classify"),
    ("afrob.invariance:classify_admissible_attack", "invariance.classify", "classify"),
    # the candidate loops around the classifiers
    ("afrob.cli:enumerate_invariant_attacks", "invariance.classify", None),
    ("afrob.robustness:_invariant_candidates", "invariance.classify", None),
    ("afrob.invariance:non_decreasing_violations", "invariance.rule_scan", None),
    ("afrob.invariance:non_increasing_violations", "invariance.rule_scan", None),
    ("afrob.oracle:oracle_invariant", "oracle.recompute", "calls"),
    ("afrob.oracle:extension_changes", "oracle.recompute", "calls"),
    ("afrob.cli:oracle_invariant", "oracle.recompute", "calls"),
    ("afrob.cli:extension_changes", "oracle.recompute", "calls"),
    ("afrob.robustness:oracle_invariant", "oracle.recompute", "calls"),
    ("afrob.cli:exhaustive_audit", "oracle.audit", "audit"),
    ("afrob.oracle:cross_validate", "oracle.audit", None),
    ("afrob.cli:robustness_degree", "robustness.search", "search"),
]

ROOT_SPAN = "cli"

# self-time metrics: span name -> metric; the self time of oracle.audit and
# robustness.search (the audit and search loops themselves) is left to trace.uncovered_s
SELF_TIME_METRICS = {
    "apx.parse": "apx.parse_s",
    ROOT_SPAN: "cli.self_s",
    "framework.add_attack": "framework.add_attack_s",
    "framework.odd_walk": "framework.odd_walk_s",
    "semantics.enumerate": "semantics.enumerate_s",
    "semantics.filter": "semantics.filter_s",
    "labelling.enumerate": "labelling.enumerate_s",
    "labelling.restrict": "labelling.restrict_s",
    "labelling.from_set": "labelling.from_set_s",
    "invariance.classify": "invariance.classify_s",
    "invariance.rule_scan": "invariance.rule_scan_s",
    "oracle.recompute": "oracle.recompute_s",
}

# every per-layer metric: its unit and the spans it needs (all of them)
METRICS = {
    **{metric: ("s", (span,)) for span, metric in SELF_TIME_METRICS.items()},
    "framework.odd_walk_calls": ("count", ("framework.odd_walk",)),
    "semantics.enumerate_misses": ("count", ("semantics.enumerate.cache",)),
    "semantics.enumerate_hits": ("count", ("semantics.enumerate.cache",)),
    "semantics.subset_space": ("count", ("semantics.enumerate.cache",)),
    "semantics.subsets_per_s": ("1/s", ("semantics.enumerate.cache", "semantics.enumerate")),
    "labelling.assignment_space": ("count", ("labelling.assignments",)),
    "labelling.from_set_calls": ("count", ("labelling.from_set",)),
    "invariance.classify_calls": ("count", ("invariance.classify.calls",)),
    "invariance.invariant_ratio": ("ratio", ("invariance.classify.calls",)),
    "oracle.recompute_calls": ("count", ("oracle.recompute",)),
    "oracle.audit_candidates": ("count", ("oracle.audit.calls",)),
    "oracle.audit_candidates_per_s": ("1/s", ("oracle.audit.calls",)),
    "oracle.disagreements": ("count", ("oracle.audit.calls",)),
    "robustness.states": ("count", ("robustness.search.calls",)),
    "robustness.search_s": ("s", ("robustness.search.calls",)),
    "robustness.states_per_s": ("1/s", ("robustness.search.calls",)),
    "robustness.classify_per_state": ("calls/state", ("robustness.search.calls", "invariance.classify.calls")),
    "trace.overhead_ratio": ("ratio", ()),
    "trace.uncovered_s": ("s", ()),
}


def _resolve(spec: str):
    """Return (container, slot, original) for ``module:attr.path[key]``."""
    module_name, path = spec.split(":")
    key = None
    if path.endswith("]"):
        path, key = path[:-1].split("[")
    container = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        container = getattr(container, part)
    slot = parts[-1]
    original = getattr(container, slot)
    if key is None:
        return container, slot, original
    for candidate in original:
        if candidate == key or getattr(candidate, "value", None) == key:
            return original, candidate, original[candidate]
    raise KeyError(key)


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        self.absent_points: list[str] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, before=None, after=None):
        """A wrapper recording one span per call of ``fn``."""
        span_id = self._name_id(span)
        self.present.add(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            ends.append(0.0)
            token = before(args) if before else None
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = finish = clock()
                stack.pop()
            if after:
                after(token, args, result, finish - starts[sid])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for spec, span, hook in WRAP_POINTS:
            try:
                container, slot, original = _resolve(spec)
            except (ImportError, AttributeError, KeyError, ValueError):
                self.absent_points.append(spec)
                continue
            before, after = self._hooks(hook, span, original)
            wrapper = self.wrap(original, span, before, after)
            if isinstance(container, dict):
                container[slot] = wrapper
            else:
                setattr(container, slot, wrapper)
            self._restore.append((spec, container, slot, original))

    def restore(self) -> list[str]:
        """Put every original back; return the wrap points that still do
        not resolve to their original."""
        done = []
        while self._restore:
            spec, container, slot, original = self._restore.pop()
            if isinstance(container, dict):
                container[slot] = original
            else:
                setattr(container, slot, original)
            done.append((spec, original))
        return [spec for spec, original in done if _resolve(spec)[2] is not original]

    def _hooks(self, hook, span, original):
        counts = self.counts
        if hook == "calls":
            self.present.add(f"{span}.calls")

            def after(token, args, result, duration):
                counts[f"{span}.calls"] += 1

            return None, after
        if hook == "enumerate":
            if not hasattr(original, "cache_info"):
                return None, None
            self.present.add("semantics.enumerate.cache")

            def before(args):
                return original.cache_info().misses

            def after(token, args, result, duration):
                if original.cache_info().misses > token:
                    counts["semantics.enumerate_misses"] += 1
                    counts["semantics.subset_space"] += 2 ** len(args[0].arguments)
                else:
                    counts["semantics.enumerate_hits"] += 1

            return before, after
        if hook == "assignments":
            self.present.add("labelling.assignments")

            def after(token, args, result, duration):
                counts["labelling.assignment_space"] += 3 ** len(args[0].arguments)

            return None, after
        if hook == "classify":
            self.present.add("invariance.classify.calls")

            def after(token, args, result, duration):
                counts["invariance.classify_calls"] += 1
                if result.verdict.value == "invariant":
                    counts["invariance.invariant"] += 1

            return None, after
        if hook == "audit":
            self.present.add("oracle.audit.calls")

            def after(token, args, result, duration):
                counts["oracle.audit_candidates"] += result.candidates_checked
                counts["oracle.disagreements"] += len(result.discrepancies)
                counts["oracle.audit_s"] += duration

            return None, after
        if hook == "search":
            self.present.add("robustness.search.calls")

            def before(args):
                return counts["invariance.classify_calls"]

            def after(token, args, result, duration):
                counts["robustness.states"] += result.explored_states
                counts["robustness.search_s"] += duration
                counts["robustness.classify"] += counts["invariance.classify_calls"] - token

            return before, after
        return None, None

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.name)
        totals: dict[str, float] = defaultdict(float)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        # a child's id is larger than its parent's, so walking ids downwards
        # adds every child's duration to its parent before the parent is read
        for sid in range(len(names) - 1, -1, -1):
            duration = ends[sid] - starts[sid]
            totals[self.span_names[names[sid]]] += duration - covered[sid]
            if parents[sid] >= 0:
                covered[parents[sid]] += duration
        return totals

    def metrics(self, traced_wall_s: float, overhead_ratio: float) -> tuple[dict, list[str]]:
        """Per-layer metrics and the names reported as absent.
        ``overhead_ratio`` is measured by the caller, against an untraced
        run of the same requests."""
        self_s = self.self_times()
        c = self.counts
        values = {metric: self_s.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
        values.update(
            {
                "framework.odd_walk_calls": c["framework.odd_walk.calls"],
                "semantics.enumerate_misses": c["semantics.enumerate_misses"],
                "semantics.enumerate_hits": c["semantics.enumerate_hits"],
                "semantics.subset_space": c["semantics.subset_space"],
                "semantics.subsets_per_s": _ratio(c["semantics.subset_space"], values["semantics.enumerate_s"]),
                "labelling.assignment_space": c["labelling.assignment_space"],
                "labelling.from_set_calls": c["labelling.from_set.calls"],
                "invariance.classify_calls": c["invariance.classify_calls"],
                "invariance.invariant_ratio": _ratio(c["invariance.invariant"], c["invariance.classify_calls"]),
                "oracle.recompute_calls": c["oracle.recompute.calls"],
                "oracle.audit_candidates": c["oracle.audit_candidates"],
                "oracle.audit_candidates_per_s": _ratio(c["oracle.audit_candidates"], c["oracle.audit_s"]),
                "oracle.disagreements": c["oracle.disagreements"],
                "robustness.states": c["robustness.states"],
                "robustness.search_s": c["robustness.search_s"],
                "robustness.states_per_s": _ratio(c["robustness.states"], c["robustness.search_s"]),
                "robustness.classify_per_state": _ratio(c["robustness.classify"], c["robustness.states"]),
                "trace.overhead_ratio": overhead_ratio,
                "trace.uncovered_s": traced_wall_s - sum(values[m] for m in SELF_TIME_METRICS.values()),
            }
        )
        absent = sorted(
            metric
            for metric, (_, spans) in METRICS.items()
            if any(span not in self.present for span in spans)
        )
        return values, absent

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: id, name, parent id (-1 for a
        request's root), start and end in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self.start) else 0.0
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id,name,parent,start_us,end_us\n")
            for first in range(0, len(self.name), 65536):
                out.write(
                    "".join(
                        f"{sid},{names[self.name[sid]]},{self.parent[sid]},"
                        f"{round((self.start[sid] - origin) * 1e6)},{round((self.end[sid] - origin) * 1e6)}\n"
                        for sid in range(first, min(first + 65536, len(self.name)))
                    )
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
