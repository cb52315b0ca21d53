"""Argumentation-framework semantics, attack-invariance classification and
robustness measurement, with brute-force cross-validation built in."""

from .apx import emit_apx, parse_apx
from .dot import emit_dot
from .errors import (
    AfrobError,
    ArgumentSetMismatch,
    InternalInvariantViolation,
    LabellingMismatch,
    NotAdmissible,
    ParseError,
    SizeLimit,
    UndeclaredArgument,
    UnknownArgument,
    UnsupportedSemantics,
)
from .framework import ArgumentationFramework, Attack
from .invariance import (
    AttackClassification,
    Rule,
    Verdict,
    Witness,
    classify_admissible_attack,
    classify_attack,
    classify_conflict_free_attack,
    enumerate_invariant_attacks,
    extension_set_included,
    framework_classifier,
    invariant_attacks,
    non_decreasing_violations,
    non_increasing_violations,
    sigma_equivalent,
)
from .labelling import (
    CredulousSets,
    Label,
    Labelling,
    complete_labellings,
    credulous_sets,
    labelling_from_set,
    labelling_of_extension,
    labellings_for,
    reinstatement_labellings,
)
from .oracle import (
    AuditReport,
    DiscrepancyReport,
    candidate_attacks,
    canonical_names,
    cross_validate,
    exhaustive_audit,
    extension_changes,
    framework_from_mask,
    oracle_invariant,
)
from .robustness import RobustnessResult, robustness_degree, verify_witness
from .semantics import (
    Semantics,
    admissible_sets,
    complete_sets,
    conflict_free_sets,
    extension_sort_key,
    extensions,
    grounded_set,
    preferred_sets,
    semi_stable_sets,
    stable_sets,
)

__version__ = "0.1.0"
