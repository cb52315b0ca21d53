import random
import sys
from collections import Counter

import pytest
from hypothesis import given

from afrob import ArgumentationFramework, ParseError, UndeclaredArgument, parse_apx
from afrob.apx import _LINE, _SPACE
from afrob.framework import Attack
from conftest import frameworks
from oracles import emit_apx, parse_apx_by_line


def test_parse_mutual_attack():
    text = "arg(a).\narg(b).\natt(a,b).\natt(b,a)."
    assert parse_apx(text) == ArgumentationFramework(["a", "b"], [("a", "b"), ("b", "a")])


def test_parse_empty_document():
    assert parse_apx("") == ArgumentationFramework()
    assert parse_apx("\n\n") == ArgumentationFramework()


def test_parse_comments_and_blank_lines():
    text = "% corpus note\n\narg(x).\n   % indented comment\natt(x,x).\n"
    assert parse_apx(text) == ArgumentationFramework(["x"], [("x", "x")])


def test_parse_tolerates_surrounding_whitespace():
    text = "  arg(a).  \n\tatt(a,a).\t\n"
    assert parse_apx(text) == ArgumentationFramework(["a"], [("a", "a")])


def test_parse_allows_forward_references():
    text = "att(a,b).\narg(a).\narg(b)."
    assert parse_apx(text).attacks == frozenset({Attack("a", "b")})


def test_parse_deduplicates():
    text = "arg(a).\narg(a).\natt(a,a).\natt(a,a)."
    af = parse_apx(text)
    assert af.arguments == frozenset({"a"})
    assert len(af.attacks) == 1


def test_undeclared_argument_reports_name_and_line():
    with pytest.raises(UndeclaredArgument) as excinfo:
        parse_apx("arg(x).\natt(x,y).")
    assert excinfo.value.name == "y"
    assert excinfo.value.line == 2


NAME_EXPECTED = "expected an argument name ([A-Za-z0-9_]+)"
DECLARATION_EXPECTED = "expected 'arg(NAME).' or 'att(NAME,NAME).'"
TRAILING = "unexpected trailing characters"


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        pytest.param("arg(a).\nfoo(a).", 2, 1, DECLARATION_EXPECTED, id="unknown-declaration"),
        pytest.param("\xa0foo", 1, 2, DECLARATION_EXPECTED, id="unknown-after-nbsp"),
        pytest.param("arg().", 1, 5, NAME_EXPECTED, id="missing-name"),
        pytest.param("att(a,)", 1, 7, NAME_EXPECTED, id="missing-second-name"),
        pytest.param("att(a b).", 1, 6, "expected ','", id="missing-comma"),
        pytest.param("arg(a)", 1, 6, "expected ').'", id="missing-close"),
        pytest.param("att(a,b)", 1, 8, "expected ').'", id="missing-attack-close"),
        pytest.param("\u3000arg(a)", 1, 7, "expected ').'", id="ideographic-space"),
        pytest.param("arg(a). trailing", 1, 9, TRAILING, id="trailing-text"),
        pytest.param("arg(a).%x", 1, 8, TRAILING, id="trailing-comment"),
        pytest.param("% x\x85y\narg(a)\n", 2, 6, "expected ').'", id="next-line-in-comment"),
        pytest.param("arg(a).\r\n\rarg(b", 3, 6, "expected ').'", id="carriage-returns"),
    ],
)
def test_parse_error_reports_position(text, line, column, reason):
    with pytest.raises(ParseError) as excinfo:
        parse_apx(text)
    error = excinfo.value
    assert (error.line, error.column, error.reason) == (line, column, reason)


def test_parse_comment_after_unicode_space():
    assert parse_apx("\u3000% note\narg(a).") == ArgumentationFramework(["a"])


def test_only_newline_and_carriage_return_end_a_line():
    # str.splitlines also ends a line at each of these, which would end the
    # comment and parse its tail as a declaration
    for space in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        text = f"% note{space}more\narg(a).{space}\r\natt(a,a)."
        assert parse_apx(text) == ArgumentationFramework(["a"], [("a", "a")]), repr(space)


def test_parser_whitespace_is_str_isspace():
    mismatches = [
        code
        for code in range(sys.maxunicode + 1)
        if (_SPACE.match(chr(code)).end() == 1) != chr(code).isspace()
    ]
    assert mismatches == []
    # the line pattern's space: any of those but the line ends
    mismatches = [
        code
        for code in range(sys.maxunicode + 1)
        if chr(code) not in "\n\r%"  # % starts a comment
        and bool(_LINE.fullmatch(chr(code) + "arg(a)." + chr(code))) != chr(code).isspace()
    ]
    assert mismatches == []


def test_emit_is_canonical(g3):
    assert emit_apx(g3) == (
        "arg(1).\narg(2).\narg(3).\narg(4).\natt(1,2).\natt(2,3).\n"
    )
    assert emit_apx(ArgumentationFramework()) == ""


@given(frameworks())
def test_round_trip(af):
    assert parse_apx(emit_apx(af)) == af


# line ends; spaces, among them \x0b and \x85, which str.splitlines takes
# for line ends, and \xa0 and \u3000, which [ \t] misses; names, with an
# empty one and a non-ASCII one, each declared only by chance
_ENDS = ("\n", "\n", "\r", "\r\n")
_SPACES = ("", "", " ", "\t", "\x0b", "\x85", "\xa0", "\u3000")
_TOKENS = ("a", "b", "c", "a", "b", "x_1", "9", "é", "")


def _apx_line(rng: random.Random) -> str:
    """A line that is valid or one edit away from valid: a declaration, a
    comment or a blank, cut short, with one character dropped, replaced or
    inserted, or followed by trailing text, inside random spaces."""
    kind = rng.randrange(4)
    if kind == 0:
        line = f"arg({rng.choice(_TOKENS)})."
    elif kind == 1:
        line = f"att({rng.choice(_TOKENS)},{rng.choice(_TOKENS)})."
    else:
        line = rng.choice(("", "%", "% note", "%arg(a)."))
    edit = rng.randrange(10)
    if line and edit == 0:
        line = line[: rng.randrange(len(line))]
    elif line and edit == 1:
        cut = rng.randrange(len(line))
        line = line[:cut] + rng.choice(("", " ", "(", ",", ".", "%", "a")) + line[cut + 1 :]
    elif edit == 2:
        cut = rng.randrange(len(line) + 1)
        line = line[:cut] + rng.choice(_SPACES + ("x", ")", "%x")) + line[cut:]
    elif edit == 3:
        line += rng.choice(_SPACES) + rng.choice(("x", "%x", ".", "arg(a)."))
    return rng.choice(_SPACES) + line + rng.choice(_SPACES)


def _outcome(parse, text):
    """("framework", the framework ``parse`` reads from ``text``), or the
    error it raises as (type, line, column, reason) or (type, name, line)."""
    try:
        return ("framework", parse(text))
    except ParseError as error:
        return ("ParseError", error.line, error.column, error.reason)
    except UndeclaredArgument as error:
        return ("UndeclaredArgument", error.name, error.line)


def test_parse_matches_the_line_by_line_reference():
    # seeded documents of one to six lines: the one-pattern pass and the
    # line-by-line reader must read the same framework or report the same
    # first error
    rng = random.Random(0)
    kinds = Counter()
    mismatches = []
    for _ in range(30_000):
        lines = [_apx_line(rng) for _ in range(rng.randint(1, 6))]
        text = "".join(line + rng.choice(_ENDS) for line in lines[:-1]) + lines[-1]
        expected = _outcome(parse_apx_by_line, text)
        kinds[expected[-1] if expected[0] == "ParseError" else expected[0]] += 1
        if _outcome(parse_apx, text) != expected:
            mismatches.append(text)
    assert mismatches == []
    # frameworks, undeclared endpoints and each of the five reasons, every
    # one in at least 1% of the documents
    assert len(kinds) == 7 and min(kinds.values()) >= 300, kinds
