"""Reading and writing the line-based apx interchange format.

A document is a sequence of lines, each ended by ``\n``, ``\r\n`` or
``\r``.  Blank lines and lines whose first non-space character is ``%``
are ignored; every other line must be exactly ``arg(NAME).`` or
``att(NAME,NAME).`` with optional surrounding whitespace, where NAME is a
nonempty token over [A-Za-z0-9_].  Attacks may reference arguments
declared later in the file; endpoints never declared at all are an error.
Duplicate declarations are tolerated.

Once every line end is a newline, one pattern (``_LINE``) reads the whole
text in one ``findall``: it matches each valid line and captures the names
the line declares, so the document is valid exactly when every line
matched.  Only a rejected document is read again, line by line, to the
first line the pattern rejects, where step-by-step checks find the column
and the reason.  Undeclared endpoints are reported only for a document
whose every line is valid: the first attack line naming one, its source
checked before its target.  The last two documents read are cached, as
the frameworks they give are immutable values: requests that ask about
one framework, or compare it with another, read its text once.  A
rejected document is read again each time, and raises again.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ParseError, UndeclaredArgument
from .framework import _NAME, ArgumentationFramework

_SPACE = re.compile(r"\s*")
# [^\S\n] is any str.isspace() character but the line end
_LINE = re.compile(
    rf"^[^\S\n]*(?:%[^\n]*|(?:arg\(({_NAME.pattern})\)"
    rf"|att\(({_NAME.pattern}),({_NAME.pattern})\))\.[^\S\n]*)?$",
    re.M,
)
# the separator that follows each name a declaration expects
_SEPARATORS = {"arg(": (").",), "att(": (",", ").")}


# a framework and the one it is compared with, as semantics._enumerate
@lru_cache(maxsize=2)
def parse_apx(text: str) -> ArgumentationFramework:
    """Parse an apx document into a framework."""
    # not splitlines(), which also breaks at \v, \f, \x1c-\x1e, \x85, \u2028, \u2029
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    # one (argument, source, target) per valid line, '' where not declared
    found = _LINE.findall(text)
    if len(found) != text.count("\n") + 1:
        _reject(text.split("\n"))
    order = tuple(sorted({argument for argument, _, _ in found} - {""}))
    position = dict(zip(order, range(len(order))))
    rows = [0] * len(order)
    for lineno, (_, source, target) in enumerate(found, start=1):
        if source:
            for name in (source, target):
                if name not in position:
                    raise UndeclaredArgument(name, lineno)
            rows[position[source]] |= 1 << position[target]
    return ArgumentationFramework._from_rows(order, tuple(rows))


def _reject(lines: list[str]) -> None:
    """Raise the :class:`ParseError` of the first of ``lines`` that
    ``_LINE`` rejects: its first failing step, read left to right."""
    lineno, line = next((i, line) for i, line in enumerate(lines, 1) if not _LINE.fullmatch(line))
    pos = _SPACE.match(line).end()
    separators = _SEPARATORS.get(line[pos : pos + 4])
    if separators is None:
        raise ParseError(lineno, pos + 1, "expected 'arg(NAME).' or 'att(NAME,NAME).'")
    pos += 4
    for separator in separators:
        name = _NAME.match(line, pos)
        if name is None:
            raise ParseError(lineno, pos + 1, f"expected an argument name ({_NAME.pattern})")
        pos = name.end()
        if not line.startswith(separator, pos):
            raise ParseError(lineno, pos + 1, f"expected {separator!r}")
        pos += len(separator)
    # every earlier step passed, so only trailing characters are left
    raise ParseError(lineno, _SPACE.match(line, pos).end() + 1, "unexpected trailing characters")

