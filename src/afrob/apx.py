"""Reading and writing the line-based apx interchange format.

A document is a sequence of lines, each ended by ``\n``, ``\r\n`` or
``\r``.  Blank lines and lines whose first non-space character is ``%``
are ignored; every other line must be exactly ``arg(NAME).`` or
``att(NAME,NAME).`` with optional surrounding whitespace, where NAME is a
nonempty token over [A-Za-z0-9_].  Attacks may reference arguments
declared later in the file; endpoints never declared at all are an error.
Duplicate declarations are tolerated.
"""

from __future__ import annotations

import re

from .errors import ParseError, UndeclaredArgument
from .framework import _NAME, ArgumentationFramework, _attacks_in

_SPACE = re.compile(r"\s*")
# the separator that follows each name a declaration expects
_SEPARATORS = {"arg(": (").",), "att(": (",", ").")}


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse an apx document into a framework."""
    arguments: set[str] = set()
    attacks: list[tuple[int, str, str]] = []
    # not splitlines(), which also breaks at \v, \f, \x1c-\x1e, \x85, \u2028, \u2029
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        pos = _SPACE.match(line).end()
        if pos == len(line) or line[pos] == "%":
            continue
        separators = _SEPARATORS.get(line[pos : pos + 4])
        if separators is None:
            raise ParseError(lineno, pos + 1, "expected 'arg(NAME).' or 'att(NAME,NAME).'")
        pos += 4
        names = []
        for separator in separators:
            name = _NAME.match(line, pos)
            if name is None:
                raise ParseError(lineno, pos + 1, "expected an argument name ([A-Za-z0-9_]+)")
            pos = name.end()
            if not line.startswith(separator, pos):
                raise ParseError(lineno, pos + 1, f"expected {separator!r}")
            pos += len(separator)
            names.append(name.group())
        pos = _SPACE.match(line, pos).end()
        if pos != len(line):
            raise ParseError(lineno, pos + 1, "unexpected trailing characters")
        if len(names) == 1:
            arguments.add(names[0])
        else:
            attacks.append((lineno, *names))
    for lineno, source, target in attacks:
        if source not in arguments:
            raise UndeclaredArgument(source, lineno)
        if target not in arguments:
            raise UndeclaredArgument(target, lineno)
    return ArgumentationFramework(arguments, [(s, t) for _, s, t in attacks])


def emit_apx(af: ArgumentationFramework) -> str:
    """Render a framework as a canonical apx document (sorted, deduplicated)."""
    lines = [f"arg({name})." for name in af.sorted_arguments]
    attacks = _attacks_in(af.sorted_arguments, af.target_rows)
    lines += [f"att({a.source},{a.target})." for a in attacks]
    return "\n".join(lines) + ("\n" if lines else "")
