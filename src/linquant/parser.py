"""Text syntax for quantities.

The concrete grammar::

    quantity := { ("sup"|"inf") var ":" } body
    body     := gterm { "+" gterm }
    gterm    := "[" bool "]" "*" extlin
    bool     := atom | "!" bool | bool "&&" bool | bool "||" bool
              | bool "->" bool | "true" | "false" | "(" bool ")"
    atom     := extlin ("<" | "<=" | ">" | ">=") extlin
    extlin   := "oo" | "-oo" | linear arithmetic over rationals and variables

``->`` desugars to ``!lhs || rhs``; ``&&`` binds tighter than ``||`` binds
tighter than ``->``.  Linear expressions are normalized while parsing (like
terms combined, zero coefficients dropped); a product or quotient of two
variable-carrying expressions raises :class:`NonLinearError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonLinearError, ParseError
from .terms import (
    FALSE,
    OO,
    TRUE,
    Atom,
    BoolExpr,
    ExtLinExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Not,
    Or,
    Quant,
    Quantity,
    Rel,
    and_all,
    or_all,
)

_KEYWORDS = {"sup", "inf", "true", "false", "oo"}
_SYMBOLS = ["<=", ">=", "->", "&&", "||", "<", ">", "!", "[", "]", "(", ")", "*", "+", "-", "/", ":"]
_REL_TOKENS = {"<": Rel.LT, "<=": Rel.LE, ">": Rel.GT, ">=": Rel.GE}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num", "ident", "kw", "sym", "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind in ("sym", "kw") and tok.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind in ("sym", "kw") and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    # quantity ---------------------------------------------------------

    def quantity(self) -> Quantity:
        prefix: list[tuple[Quant, str]] = []
        seen: set[str] = set()
        while self.peek().kind == "kw" and self.peek().text in ("sup", "inf"):
            quant = Quant(self.advance().text)
            tok = self.peek()
            if tok.kind != "ident":
                raise self.error("expected a variable name after quantifier")
            if tok.text in seen:
                raise self.error(f"duplicate quantifier variable {tok.text!r}")
            seen.add(tok.text)
            self.advance()
            self.expect(":")
            prefix.append((quant, tok.text))
        body = [self.gterm()]
        while self.accept("+"):
            body.append(self.gterm())
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}")
        return Quantity(tuple(prefix), tuple(body))

    def gterm(self) -> GuardedTerm:
        self.expect("[")
        guard = self.bool_expr()
        self.expect("]")
        self.expect("*")
        value = self.extlin()
        return GuardedTerm(guard, value)

    # Boolean layer ----------------------------------------------------

    def bool_expr(self) -> BoolExpr:
        lhs = self.bool_or()
        if self.accept("->"):
            rhs = self.bool_expr()  # right-associative
            return Or(Not(lhs), rhs)
        return lhs

    def bool_or(self) -> BoolExpr:
        parts = [self.bool_and()]
        while self.accept("||"):
            parts.append(self.bool_and())
        return or_all(parts)

    def bool_and(self) -> BoolExpr:
        parts = [self.bool_not()]
        while self.accept("&&"):
            parts.append(self.bool_not())
        return and_all(parts)

    def bool_not(self) -> BoolExpr:
        if self.accept("!"):
            return Not(self.bool_not())
        return self.bool_atom()

    def bool_atom(self) -> BoolExpr:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "true":
            self.advance()
            return TRUE
        if tok.kind == "kw" and tok.text == "false":
            self.advance()
            return FALSE
        if tok.kind == "sym" and tok.text == "(":
            # Either a parenthesized Boolean or an atom whose left side is
            # a parenthesized linear expression; try the atom first.
            saved = self.i
            try:
                return self.atom()
            except ParseError:
                self.i = saved
            self.expect("(")
            inner = self.bool_expr()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Atom:
        lhs = self.extlin()
        tok = self.peek()
        if tok.kind == "sym" and tok.text in _REL_TOKENS:
            self.advance()
        else:
            raise self.error("expected a relation (<, <=, >, >=)")
        rhs = self.extlin()
        return Atom(lhs, _REL_TOKENS[tok.text], rhs)

    # Arithmetic layer -------------------------------------------------

    def extlin(self) -> ExtLinExpr:
        return self.additive()

    def additive(self) -> ExtLinExpr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind != "sym" or tok.text not in ("+", "-"):
                break
            # A "+" that introduces the next guarded term belongs to the body.
            if tok.text == "+" and self.peek(1).text == "[":
                break
            self.advance()
            rhs = self.term()
            if isinstance(node, InfExpr) or isinstance(rhs, InfExpr):
                raise self.error("infinite constant cannot appear inside arithmetic", tok)
            node = node + rhs if tok.text == "+" else node - rhs
        return node

    def term(self) -> ExtLinExpr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind != "sym" or tok.text not in ("*", "/"):
                break
            self.advance()
            rhs = self.factor()
            if isinstance(node, InfExpr) or isinstance(rhs, InfExpr):
                raise self.error("infinite constant cannot appear inside arithmetic", tok)
            if tok.text == "*":
                if node.is_constant:
                    node = rhs.scale(node.constant)
                elif rhs.is_constant:
                    node = node.scale(rhs.constant)
                else:
                    raise NonLinearError("product of two variable expressions", tok.line, tok.col)
            else:
                if not rhs.is_constant:
                    raise NonLinearError("division by a variable expression", tok.line, tok.col)
                if rhs.constant == 0:
                    raise self.error("division by zero", tok)
                node = node.scale(Fraction(1) / rhs.constant)
        return node

    def factor(self) -> ExtLinExpr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, InfExpr):
                return InfExpr(-inner.sign)
            return -inner
        if tok.kind == "sym" and tok.text == "+":
            self.advance()
            return self.factor()
        if tok.kind == "num":
            self.advance()
            return LinExpr.const(int(tok.text))
        if tok.kind == "kw" and tok.text == "oo":
            self.advance()
            return OO
        if tok.kind == "ident":
            self.advance()
            return LinExpr.var(tok.text)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.additive()
            self.expect(")")
            return inner
        raise self.error(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse_quantity(text: str) -> Quantity:
    """Parse a quantity from its textual form.

    Input nested deeper than the interpreter's recursion limit allows is a
    :class:`ParseError` ("nesting too deep"), not a ``RecursionError``.
    """
    parser = _Parser(text)
    try:
        return parser.quantity()
    except RecursionError:
        raise parser.error("nesting too deep") from None


def parse_body(text: str) -> tuple[GuardedTerm, ...]:
    """Parse a quantifier-free body (no sup/inf prefix allowed)."""
    q = parse_quantity(text)
    if q.prefix:
        raise ParseError("expected a quantifier-free body", 1, 1)
    return q.body
