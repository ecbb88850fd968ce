"""Tests for the TDL reader."""

import pytest

from repro.tdl import Keyword, Symbol, TdlSyntaxError, read, read_all, to_source


def test_read_atoms():
    assert read("42") == 42
    assert read("-17") == -17
    assert read("3.5") == 3.5
    assert read("t") is True
    assert read("nil") is None
    assert read('"hello"') == "hello"
    assert read("foo") == Symbol("foo")
    assert isinstance(read("foo"), Symbol)
    assert read(":type") == Keyword("type")
    assert isinstance(read(":type"), Keyword)


def test_float_spellings_without_digits_are_symbols():
    for name in ("inf", "nan", "infinity", "-inf"):
        assert read(name) == Symbol(name)
    assert read("1e3") == 1000.0


def test_read_list():
    form = read("(+ 1 (a b) 2)")
    assert form == [Symbol("+"), 1, [Symbol("a"), Symbol("b")], 2]


def test_read_quote_sugar():
    assert read("'x") == [Symbol("quote"), Symbol("x")]
    assert read("'(1 2)") == [Symbol("quote"), [1, 2]]


def test_string_escapes():
    assert read(r'"a\"b\n\t\\"') == 'a"b\n\t\\'


def test_comments_skipped():
    forms = read_all("; leading comment\n(a) ; trailing\n(b)")
    assert forms == [[Symbol("a")], [Symbol("b")]]


def test_multiline_string_tracks_lines():
    assert read('"line1\nline2"') == "line1\nline2"


def test_read_all_multiple_forms():
    assert read_all("1 2 3") == [1, 2, 3]


def test_read_rejects_multiple_forms():
    with pytest.raises(TdlSyntaxError):
        read("1 2")


@pytest.mark.parametrize("bad", ["(", ")", "(a (b)", '"unterminated',
                                 "(a))" ])
def test_malformed_input(bad):
    with pytest.raises(TdlSyntaxError):
        read_all(bad)


def test_symbols_with_special_chars():
    assert read("slot-value") == Symbol("slot-value")
    assert read("string-upcase") == Symbol("string-upcase")
    assert read("/=") == Symbol("/=")
    assert read("&rest") == Symbol("&rest")


def test_colon_alone_is_a_symbol():
    assert isinstance(read(":"), Symbol)


def test_to_source_roundtrip():
    source = '(defclass story (object) ((headline :type string)) :doc "a\\nb")'
    form = read(source)
    assert read(to_source(form)) == form


def test_to_source_scalars():
    assert to_source(True) == "t"
    assert to_source(None) == "nil"
    assert to_source(Keyword("k")) == ":k"
    assert to_source([1, "two"]) == '(1 "two")'
