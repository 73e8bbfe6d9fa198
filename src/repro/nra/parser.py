"""A small surface syntax for NRA expressions.

The paper presents NRA as an abstract calculus; for examples, tests and
interactive exploration a concrete syntax is convenient.  The grammar accepted
here matches the output of :func:`repro.nra.pretty.pretty`::

    expr     ::= lambda | ifexpr | app
    lambda   ::= '\\' IDENT ':' type '.' expr
    ifexpr   ::= 'if' expr 'then' expr 'else' expr
    app      ::= atom ( '(' expr ')' )*
    atom     ::= 'true' | 'false' | '()' | NUMBER | IDENT
               | 'empty' '[' type ']'
               | 'union' '(' expr ',' expr ')'
               | 'pi1' '(' expr ')' | 'pi2' '(' expr ')'
               | 'eq' '(' expr ',' expr ')'
               | 'isempty' '(' expr ')'
               | 'ext' '(' expr ')'
               | '@' IDENT '(' expr ')'
               | 'dcr' '(' expr ';' expr ';' expr ')'
               | 'sru' '(' expr ';' expr ';' expr ')'
               | 'sri' '(' expr ';' expr ')' | 'esr' '(' expr ';' expr ')'
               | 'bdcr' '(' expr ';' expr ';' expr ';' expr ')'
               | 'bsri' '(' expr ';' expr ';' expr ')'
               | 'logloop' '[' type ']' '(' expr ')'
               | 'loop' '[' type ']' '(' expr ')'
               | 'blogloop' '[' type ']' '(' expr ';' expr ')'
               | 'bloop' '[' type ']' '(' expr ';' expr ')'
               | '{' expr ( ',' expr )* '}'
               | '(' expr ',' expr ')' | '(' expr ')'

Types inside ``[...]`` use the syntax of
:func:`repro.objects.types.parse_type`.  ``NUMBER`` literals denote base-type
constants.  Set literals ``{e1, ..., en}`` are sugar for unions of singletons.

``IDENT`` admits a leading ``$`` or ``%``: parameter slots of query templates
(see :func:`repro.api.query.param_var`) are free variables in the reserved
``$`` namespace, canonical binders (:func:`repro.api.prepare.canonical_template`)
are named ``%h``, and the network service ships templates as this concrete
syntax -- ``parse(pretty(template))`` must round-trip them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..objects.types import BASE, Type, parse_type
from ..objects.values import BaseVal
from . import ast
from .ast import Expr
from .errors import NRAParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<unit>\(\))
  | (?P<ident>[A-Za-z_$%][A-Za-z0-9_%'$]*)
  | (?P<symbol>[\\:.;,(){}\[\]@])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "true", "false", "if", "then", "else", "empty", "union", "pi1", "pi2",
    "eq", "isempty", "ext", "dcr", "sru", "sri", "esr", "bdcr", "bsri",
    "logloop", "loop", "blogloop", "bloop",
}


@dataclass
class _Token:
    kind: str  # 'number' | 'ident' | 'symbol' | 'unit'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise NRAParseError(f"unexpected character {source[pos]!r} at position {pos}")
        pos = m.end()
        kind = m.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_Token(kind, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0

    # -- token utilities ----------------------------------------------------------
    def peek(self) -> Optional[_Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise NRAParseError("unexpected end of input")
        self.index += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise NRAParseError(
                f"expected {text!r} but found {tok.text!r} at position {tok.pos}"
            )
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    # -- grammar ------------------------------------------------------------------
    def parse(self) -> Expr:
        e = self.parse_expr()
        if self.peek() is not None:
            tok = self.peek()
            raise NRAParseError(f"trailing input at position {tok.pos}: {tok.text!r}")
        return e

    def parse_expr(self) -> Expr:
        if self.at("\\"):
            return self.parse_lambda()
        if self.at("if"):
            return self.parse_if()
        return self.parse_app()

    def parse_lambda(self) -> Expr:
        self.expect("\\")
        var = self.next()
        if var.kind != "ident":
            raise NRAParseError(f"expected a variable name at position {var.pos}")
        self.expect(":")
        var_type = self.parse_bracketless_type()
        self.expect(".")
        body = self.parse_expr()
        return ast.Lambda(var.text, var_type, body)

    def parse_if(self) -> Expr:
        self.expect("if")
        cond = self.parse_expr()
        self.expect("then")
        then = self.parse_expr()
        self.expect("else")
        orelse = self.parse_expr()
        return ast.If(cond, then, orelse)

    def parse_app(self) -> Expr:
        e = self.parse_atom()
        while self.at("("):
            self.expect("(")
            arg = self.parse_expr()
            if self.at(","):
                self.expect(",")
                snd = self.parse_expr()
                arg = ast.Pair(arg, snd)
            self.expect(")")
            e = ast.Apply(e, arg)
        return e

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise NRAParseError("unexpected end of input")
        if tok.kind == "number":
            self.next()
            return ast.Const(BaseVal(int(tok.text)), BASE)
        if tok.kind == "unit":
            self.next()
            return ast.UnitConst()
        if tok.text == "true":
            self.next()
            return ast.BoolConst(True)
        if tok.text == "false":
            self.next()
            return ast.BoolConst(False)
        if tok.text == "empty":
            self.next()
            elem = self.parse_bracketed_type()
            return ast.EmptySet(elem)
        if tok.text == "union":
            args = self.parse_arguments("union", 2, ",")
            return ast.Union(args[0], args[1])
        if tok.text == "pi1":
            args = self.parse_arguments("pi1", 1)
            return ast.Proj1(args[0])
        if tok.text == "pi2":
            args = self.parse_arguments("pi2", 1)
            return ast.Proj2(args[0])
        if tok.text == "eq":
            args = self.parse_arguments("eq", 2, ",")
            return ast.Eq(args[0], args[1])
        if tok.text == "isempty":
            args = self.parse_arguments("isempty", 1)
            return ast.IsEmpty(args[0])
        if tok.text == "ext":
            args = self.parse_arguments("ext", 1)
            return ast.Ext(args[0])
        if tok.text == "@":
            self.next()
            name = self.next()
            if name.kind != "ident":
                raise NRAParseError(f"expected an external name at position {name.pos}")
            self.expect("(")
            arg = self.parse_expr()
            if self.at(","):
                self.expect(",")
                snd = self.parse_expr()
                arg = ast.Pair(arg, snd)
            self.expect(")")
            return ast.ExternalCall(name.text, arg)
        if tok.text in ("dcr", "sru"):
            args = self.parse_arguments(tok.text, 3, ";")
            cls = ast.Dcr if tok.text == "dcr" else ast.Sru
            return cls(args[0], args[1], args[2])
        if tok.text in ("sri", "esr"):
            args = self.parse_arguments(tok.text, 2, ";")
            cls = ast.Sri if tok.text == "sri" else ast.Esr
            return cls(args[0], args[1])
        if tok.text == "bdcr":
            args = self.parse_arguments("bdcr", 4, ";")
            return ast.Bdcr(args[0], args[1], args[2], args[3])
        if tok.text == "bsri":
            args = self.parse_arguments("bsri", 3, ";")
            return ast.Bsri(args[0], args[1], args[2])
        if tok.text in ("logloop", "loop"):
            self.next()
            elem = self.parse_bracketed_type()
            self.expect("(")
            step = self.parse_expr()
            self.expect(")")
            cls = ast.LogLoop if tok.text == "logloop" else ast.Loop
            return cls(step, elem)
        if tok.text in ("blogloop", "bloop"):
            self.next()
            elem = self.parse_bracketed_type()
            self.expect("(")
            step = self.parse_expr()
            self.expect(";")
            bound = self.parse_expr()
            self.expect(")")
            cls = ast.BlogLoop if tok.text == "blogloop" else ast.Bloop
            return cls(step, bound, elem)
        if tok.text == "{":
            return self.parse_set_literal()
        if tok.text == "(":
            self.next()
            first = self.parse_expr()
            if self.at(","):
                self.expect(",")
                second = self.parse_expr()
                self.expect(")")
                return ast.Pair(first, second)
            self.expect(")")
            return first
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.next()
            return ast.Var(tok.text)
        raise NRAParseError(f"unexpected token {tok.text!r} at position {tok.pos}")

    def parse_set_literal(self) -> Expr:
        start = self.expect("{")
        items = [self.parse_expr()]
        while self.at(","):
            self.expect(",")
            items.append(self.parse_expr())
        self.expect("}")
        expr: Expr = ast.Singleton(items[0])
        for item in items[1:]:
            expr = ast.Union(expr, ast.Singleton(item))
        del start
        return expr

    def parse_arguments(self, name: str, count: int, sep: str = ",") -> list[Expr]:
        self.expect(name)
        self.expect("(")
        args = [self.parse_expr()]
        while len(args) < count:
            self.expect(sep)
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_bracketed_type(self) -> Type:
        self.expect("[")
        return self._parse_type_until("]")

    def parse_bracketless_type(self) -> Type:
        """Parse a type terminated by a '.' (the body separator of a lambda)."""
        return self._parse_type_until(".", consume_terminator=False)

    def _parse_type_until(self, terminator: str, consume_terminator: bool = True) -> Type:
        pieces: list[str] = []
        nesting = 0
        while True:
            tok = self.peek()
            if tok is None:
                raise NRAParseError("unexpected end of input while reading a type")
            if tok.text == terminator and nesting == 0:
                if consume_terminator:
                    self.next()
                break
            if tok.text in "{([":
                nesting += 1
            elif tok.text in "})]":
                nesting -= 1
            pieces.append(self.next().text)
        text = " ".join(pieces)
        try:
            return parse_type(text)
        except ValueError as exc:
            raise NRAParseError(f"invalid type {text!r}: {exc}") from exc


def parse(source: str) -> Expr:
    """Parse an NRA expression from its concrete syntax."""
    return _Parser(source).parse()
