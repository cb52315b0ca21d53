"""Argumentation-framework semantics, attack-invariance classification and
robustness measurement, with the rule scan audited against Dung's delta,
its ground truth."""

from .apx import parse_apx
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
    classify_attack,
    invariant_attacks,
)
from .oracle import (
    AuditReport,
    DiscrepancyReport,
    canonical_names,
    cross_validate,
    exhaustive_audit,
    framework_from_mask,
)
from .robustness import RobustnessResult, robustness_degree
from .semantics import (
    Semantics,
    extension_difference,
    extension_masks,
    extensions,
    labellings_for,
)

__version__ = "0.1.0"
