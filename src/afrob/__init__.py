"""Argumentation-framework semantics, attack-invariance classification and
robustness measurement, with brute-force cross-validation built in."""

from .apx import emit_apx, parse_apx
from .dot import emit_dot
from .errors import (
    AfrobError,
    ArgumentSetMismatch,
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
    candidate_attacks,
    classify_attack,
    extension_set_included,
    invariant_attacks,
    sigma_equivalent,
)
from .labelling import (
    CredulousSets,
    Label,
    Labelling,
    credulous_sets,
    labelling_from_set,
    labelling_of_extension,
    labellings_for,
)
from .oracle import (
    AuditReport,
    DiscrepancyReport,
    canonical_names,
    changed_rows,
    cross_validate,
    exhaustive_audit,
    extension_changes,
    framework_from_mask,
    oracle_invariant,
)
from .robustness import RobustnessResult, robustness_degree, verify_witness
from .semantics import (
    Semantics,
    extension_difference,
    extension_masks,
    extension_sort_key,
    extensions,
)

__version__ = "0.1.0"
