"""Reading and writing the line-based apx interchange format.

A document is a sequence of lines.  Blank lines and lines whose first
non-space character is ``%`` are ignored; every other line must be exactly
``arg(NAME).`` or ``att(NAME,NAME).`` with optional surrounding whitespace,
where NAME is a nonempty token over [A-Za-z0-9_].  Attacks may reference
arguments declared later in the file; endpoints never declared at all are
an error.  Duplicate declarations are tolerated.
"""

from __future__ import annotations

from .errors import ParseError, UndeclaredArgument
from .framework import ArgumentationFramework, _attacks_in

_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


class _LineScanner:
    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def fail(self, reason: str):
        raise ParseError(self.lineno, self.pos + 1, reason)

    def skip_spaces(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def literal(self, expected: str) -> None:
        if not self.text.startswith(expected, self.pos):
            self.fail(f"expected {expected!r}")
        self.pos += len(expected)

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            self.fail("expected an argument name ([A-Za-z0-9_]+)")
        return self.text[start : self.pos]

    def end_of_line(self) -> None:
        self.skip_spaces()
        if self.pos != len(self.text):
            self.fail("unexpected trailing characters")


def _parse_line(text: str, lineno: int):
    scanner = _LineScanner(text, lineno)
    scanner.skip_spaces()
    if scanner.pos == len(text):
        return None
    if text[scanner.pos] == "%":
        return None
    if text.startswith("arg(", scanner.pos):
        scanner.pos += 4
        name = scanner.name()
        scanner.literal(").")
        scanner.end_of_line()
        return ("arg", name)
    if text.startswith("att(", scanner.pos):
        scanner.pos += 4
        source = scanner.name()
        scanner.literal(",")
        target = scanner.name()
        scanner.literal(").")
        scanner.end_of_line()
        return ("att", (source, target))
    scanner.fail("expected 'arg(NAME).' or 'att(NAME,NAME).'")


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse an apx document into a framework."""
    arguments: set[str] = set()
    attacks: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        declaration = _parse_line(line, lineno)
        if declaration is None:
            continue
        kind, payload = declaration
        if kind == "arg":
            arguments.add(payload)
        else:
            attacks.append((lineno, *payload))
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
