"""Argumentation-framework semantics, attack-invariance classification and
robustness measurement, with brute-force cross-validation built in."""

from .apx import emit_apx, parse_apx
from .errors import (
    AfrobError,
    ArgumentSetMismatch,
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
    invariant_attacks,
    sigma_equivalent,
)
from .labelling import Labelling, labellings_for
from .oracle import (
    AuditReport,
    DiscrepancyReport,
    canonical_names,
    cross_validate,
    exhaustive_audit,
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
