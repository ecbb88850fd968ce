"""The TDL reader: source text to s-expressions.

TDL is "a small, interpreted language based on CLOS" (Section 3), so its
surface syntax is s-expressions:

* lists: ``( ... )``
* integers, floats, double-quoted strings with ``\\"`` and ``\\n`` escapes
* symbols (``defclass``, ``slot-value``, ``+``) and keywords (``:type``)
* ``t`` / ``nil`` read as Python ``True`` / ``None``
* ``'x`` quotes, reading as ``(quote x)``
* ``;`` starts a comment running to end of line
"""

from __future__ import annotations

from typing import Any, List, Tuple

from .errors import TdlSyntaxError

__all__ = ["Symbol", "Keyword", "read", "read_all", "to_source"]


class Symbol(str):
    """An interned-ish identifier.  Subclassing str keeps dict keys cheap."""

    __slots__ = ()

    def __repr__(self) -> str:
        return str(self)


class Keyword(str):
    """A self-evaluating ``:name`` token (CLOS keyword arguments)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return ":" + str(self)


_DELIMITERS = "()'; \t\n\r"
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _tokenize(text: str) -> List[Tuple[str, Any, int]]:
    """Produce (kind, value, line) tokens. Kinds: ( ) ' atom string."""
    tokens: List[Tuple[str, Any, int]] = []
    pos, line = 0, 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
        elif ch in " \t\r":
            pos += 1
        elif ch == ";":
            while pos < n and text[pos] != "\n":
                pos += 1
        elif ch in "()'":
            tokens.append((ch, ch, line))
            pos += 1
        elif ch == '"':
            pos += 1
            chunks: List[str] = []
            start_line = line
            while True:
                if pos >= n:
                    raise TdlSyntaxError(
                        f"line {start_line}: unterminated string")
                ch = text[pos]
                if ch == '"':
                    pos += 1
                    break
                if ch == "\\":
                    if pos + 1 >= n:
                        raise TdlSyntaxError(
                            f"line {line}: dangling escape in string")
                    escape = text[pos + 1]
                    chunks.append(_ESCAPES.get(escape, escape))
                    pos += 2
                else:
                    if ch == "\n":
                        line += 1
                    chunks.append(ch)
                    pos += 1
            tokens.append(("string", "".join(chunks), start_line))
        else:
            start = pos
            while pos < n and text[pos] not in _DELIMITERS and text[pos] != '"':
                pos += 1
            tokens.append(("atom", text[start:pos], line))
    return tokens


def _parse_atom(token: str):
    if token == "t":
        return True
    if token == "nil":
        return None
    if token.startswith(":") and len(token) > 1:
        return Keyword(token[1:])
    try:
        return int(token)
    except ValueError:
        pass
    if any(c.isdigit() for c in token):   # ``inf``/``nan`` are symbols
        try:
            return float(token)
        except ValueError:
            pass
    return Symbol(token)


def _parse(tokens: List[Tuple[str, Any, int]], pos: int):
    if pos >= len(tokens):
        raise TdlSyntaxError("unexpected end of input")
    kind, value, line = tokens[pos]
    if kind == "(":
        items: List[Any] = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise TdlSyntaxError(f"line {line}: unclosed '('")
            if tokens[pos][0] == ")":
                return items, pos + 1
            item, pos = _parse(tokens, pos)
            items.append(item)
    if kind == ")":
        raise TdlSyntaxError(f"line {line}: unexpected ')'")
    if kind == "'":
        quoted, pos = _parse(tokens, pos + 1)
        return [Symbol("quote"), quoted], pos
    if kind == "string":
        return value, pos + 1
    return _parse_atom(value), pos + 1


def read_all(text: str) -> List[Any]:
    """Read every top-level form in ``text``."""
    tokens = _tokenize(text)
    forms: List[Any] = []
    pos = 0
    while pos < len(tokens):
        form, pos = _parse(tokens, pos)
        forms.append(form)
    return forms


def read(text: str) -> Any:
    """Read exactly one form; raise if there are zero or several."""
    forms = read_all(text)
    if len(forms) != 1:
        raise TdlSyntaxError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


def to_source(form: Any) -> str:
    """Render a form back to (canonical) source text."""
    if form is True:
        return "t"
    if form is None:
        return "nil"
    if isinstance(form, Keyword):
        return ":" + str(form)
    if isinstance(form, Symbol):
        return str(form)
    if isinstance(form, str):
        escaped = form.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    if isinstance(form, list):
        return "(" + " ".join(to_source(f) for f in form) + ")"
    return repr(form)
