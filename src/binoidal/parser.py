"""Parsers for the presentation DSL and the complex input formats.

Presentation grammar (whitespace insignificant, "inf" reserved):

    presentation := "free" "(" [ident ("," ident)*] ")"
                      ["/" "(" relation ("," relation)* ")"]
    relation     := term "=" term
    term         := "inf" | "0" | summand ("+" summand)*
    summand      := [integer] ident

Complexes are accepted either as ``complex{a,b,c; {a,b},{b,c}}`` or as JSON
``{"vertices": [...], "facets": [[...]]}``.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, PresentationError
from .presentation import Presentation, make_presentation
from .simplicial import SimplicialComplex, from_facets
from .words import IDENT_RE, Word, is_identifier

_TOKEN = re.compile(rf"{IDENT_RE}|\d+|[(),+=/{{}};]|\S")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int, int]] = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            m = _TOKEN.match(text, i)
            tok = m.group(0)
            self.items.append((tok, line, col))
            i += len(tok)
            col += len(tok)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.items):
            return self.items[self.pos][0]
        return None

    def where(self) -> tuple[int, int]:
        if self.pos < len(self.items):
            _, line, col = self.items[self.pos]
            return line, col
        if self.items:
            tok, line, col = self.items[-1]
            return line, col + len(tok)
        return 1, 1

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.where())
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        line, col = self.where()
        got = self.peek()
        if got != token:
            shown = "end of input" if got is None else repr(got)
            raise ParseError(f"expected {token!r}, found {shown}", line, col)
        self.pos += 1

    def done(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", *self.where())


_INT = re.compile(r"^\d+$")
# a vertex name is one token of the complex literal, so it prints back
_VERTEX = re.compile(rf"{IDENT_RE}|\d+")


def _parse_term(tokens: _Tokens, index: dict[str, int]) -> Word:
    tok = tokens.peek()
    if tok == "inf":
        tokens.next()
        return Word.inf()
    if tok == "0":
        tokens.next()
        return Word.zero()
    word = Word.zero()
    while True:
        line, col = tokens.where()
        tok = tokens.next()
        coefficient = 1
        if _INT.match(tok):
            try:
                coefficient = int(tok)
            except ValueError:  # past the interpreter's int-string limit
                message = f"coefficient of {len(tok)} digits is too long"
                raise ParseError(message, line, col) from None
            if coefficient < 1:
                raise ParseError("coefficients must be >= 1", line, col)
            line, col = tokens.where()
            tok = tokens.next()
        if not is_identifier(tok):
            raise ParseError(f"expected a generator name, found {tok!r}", line, col)
        if tok not in index:
            raise ParseError(f"undeclared generator {tok!r}", line, col)
        word = word + Word.generator(index[tok], coefficient)
        if tokens.peek() != "+":
            return word
        tokens.next()


def parse_term(text: str, p: Presentation) -> Word:
    """Parse a single word over the generators of an existing presentation."""
    tokens = _Tokens(text)
    index = {name: i for i, name in enumerate(p.generators)}
    w = _parse_term(tokens, index)
    tokens.done()
    return w


def parse_presentation(text: str) -> Presentation:
    tokens = _Tokens(text)
    line, col = tokens.where()
    if tokens.next() != "free":
        raise ParseError("a presentation starts with 'free'", line, col)
    tokens.expect("(")
    names: list[str] = []
    if tokens.peek() != ")":
        while True:
            line, col = tokens.where()
            tok = tokens.next()
            if not is_identifier(tok):
                raise ParseError(f"invalid generator name {tok!r}", line, col)
            names.append(tok)
            if tokens.peek() == ",":
                tokens.next()
                continue
            break
    tokens.expect(")")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate generator name", 1, 1)
    relations: list[tuple[Word, Word]] = []
    if tokens.peek() == "/":
        tokens.next()
        tokens.expect("(")
        while True:
            lhs = _parse_term(tokens, index)
            tokens.expect("=")
            rhs = _parse_term(tokens, index)
            relations.append((lhs, rhs))
            if tokens.peek() == ",":
                tokens.next()
                continue
            break
        tokens.expect(")")
    tokens.done()
    try:
        return make_presentation(names, relations)
    except PresentationError as exc:
        raise ParseError(str(exc), 1, 1) from exc


def _parse_complex_literal(text: str) -> SimplicialComplex:
    tokens = _Tokens(text)
    line, col = tokens.where()
    if tokens.next() != "complex":
        raise ParseError("a complex starts with 'complex'", line, col)
    tokens.expect("{")
    names: list[str] = []
    while tokens.peek() not in (";", "}"):
        line, col = tokens.where()
        name = tokens.next()
        if not _VERTEX.fullmatch(name):
            message = f"vertex name {name!r} cannot name a generator"
            raise ParseError(message, line, col)
        names.append(name)
        if tokens.peek() == ",":
            tokens.next()
    facets: list[list[str]] = []
    if tokens.peek() == ";":
        tokens.next()
        while tokens.peek() == "{":
            tokens.next()
            facet: list[str] = []
            while tokens.peek() != "}":
                facet.append(tokens.next())
                if tokens.peek() == ",":
                    tokens.next()
            tokens.expect("}")
            facets.append(facet)
            if tokens.peek() == ",":
                tokens.next()
    tokens.expect("}")
    tokens.done()
    try:
        return from_facets(names, facets)
    except PresentationError as exc:
        raise ParseError(str(exc), 1, 1) from exc


def parse_complex(text: str) -> SimplicialComplex:
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON complex: {exc.msg}", exc.lineno, exc.colno)
        if not isinstance(data, dict) or set(data) != {"vertices", "facets"}:
            raise ParseError("JSON complex needs 'vertices' and 'facets'", 1, 1)
        vertices, facets = data["vertices"], data["facets"]
        if not isinstance(vertices, list) or not (
            isinstance(facets, list) and all(isinstance(f, list) for f in facets)
        ):
            raise ParseError("JSON complex needs a vertex list and facet lists", 1, 1)
        names = [str(v) for v in vertices]
        bad = next((v for v in names if not _VERTEX.fullmatch(v)), None)
        if bad is not None:
            raise PresentationError(f"vertex name {bad!r} cannot name a generator")
        try:
            return from_facets(
                names,
                [[str(v) for v in f] for f in facets],
            )
        except PresentationError as exc:
            raise ParseError(str(exc), 1, 1) from exc
    return _parse_complex_literal(stripped)
