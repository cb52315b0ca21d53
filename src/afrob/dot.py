"""Deterministic DOT rendering of frameworks and labellings."""

from __future__ import annotations

from .errors import LabellingMismatch
from .framework import ArgumentationFramework, _attacks_in
from .labelling import Labelling

_FILL = {"in": "palegreen", "out": "lightcoral", "undec": "lightgrey"}


def emit_dot(af: ArgumentationFramework, labelling: Labelling | None = None) -> str:
    """Render the framework as a DOT digraph, nodes and edges in canonical
    order.  With a labelling, each node carries its label class and a fill
    colour so the three classes render in three colours."""
    if labelling is not None and labelling.arguments != af.arguments:
        raise LabellingMismatch("labelling does not cover exactly the framework's arguments")
    lines = ["digraph af {"]
    for name in af.sorted_arguments:
        if labelling is None:
            lines.append(f'  "{name}";')
        else:
            label = labelling.label_of(name).value
            lines.append(
                f'  "{name}" [class="{label}", style=filled, fillcolor="{_FILL[label]}"];'
            )
    for attack in _attacks_in(af.sorted_arguments, af.target_rows):
        lines.append(f'  "{attack.source}" -> "{attack.target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
