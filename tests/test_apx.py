import sys

import pytest
from hypothesis import given

from afrob import ArgumentationFramework, ParseError, UndeclaredArgument, emit_apx, parse_apx
from afrob.apx import _SPACE
from afrob.framework import Attack
from conftest import frameworks


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


def test_emit_is_canonical(g3):
    assert emit_apx(g3) == (
        "arg(1).\narg(2).\narg(3).\narg(4).\natt(1,2).\natt(2,3).\n"
    )
    assert emit_apx(ArgumentationFramework()) == ""


@given(frameworks())
def test_round_trip(af):
    assert parse_apx(emit_apx(af)) == af
