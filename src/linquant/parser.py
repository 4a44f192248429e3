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

One regular expression splits the text into tokens: a number is a run of
decimal digits, a name starts with a letter or ``_`` and goes on with word
characters, the rest are the grammar's symbols, and any other character is
a :class:`ParseError`.  The same pass pairs each ``(`` with its matching
``)``: a ``(`` whose ``)`` is followed by ``<``, ``<=``, ``>``, ``>=``,
``+``, ``-``, ``*`` or ``/`` starts an atom, any other opens a Boolean
group.  So one token of lookahead decides every choice, nothing is parsed
twice, and parsing takes time linear in the text.
"""

from __future__ import annotations

import re
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
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[^\W\d]\w*)"
    r"|(?P<sym><=|>=|->|&&|\|\||[-<>!\[\]()*+/:])|(?P<bad>\S))"
)
_REL_TOKENS = {"<": Rel.LT, "<=": Rel.LE, ">": Rel.GT, ">=": Rel.GE}
_ATOM_FOLLOW = {*_REL_TOKENS, "+", "-", "*", "/"}


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; only ``\\n`` ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], dict[int, int]]:
    """Tokens ``(kind, text, offset)`` ending in ``eof``, and the index of
    each matched ``(`` token's ``)``.  A symbol or keyword is its own kind;
    the other kinds are ``num`` and ``name``."""
    tokens: list[tuple[str, str, int]] = []
    opens: list[int] = []
    closes: dict[int, int] = {}
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, offset = m[kind], m.start(kind)
        # \w also takes digits that are not decimal ("²"), which cannot start a name
        if kind == "bad" or kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", *_position(text, offset))
        if kind == "sym" or word in _KEYWORDS:
            kind = word
        if kind == "(":
            opens.append(len(tokens))
        elif kind == ")" and opens:
            closes[opens.pop()] = len(tokens)
        tokens.append((kind, word, offset))
    tokens.append(("eof", "", len(text)))
    return tokens, closes


def read_name(word) -> str:
    """``word``, if the tokenizer reads it as one variable name with nothing
    around it (so not a keyword); else a :class:`ParseError`."""
    tokens = _tokenize(word)[0] if isinstance(word, str) else ()
    if len(tokens) != 2 or tokens[0][:2] != ("name", word):
        raise ParseError(f"not a variable name: {word!r}", 1, 1)
    return word


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.closes = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str) -> bool:
        if self.peek()[0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str) -> None:
        if not self.accept(kind):
            raise self.error(f"expected {kind!r}, found {self.peek()[1] or 'end of input'!r}")

    def error(self, message: str, tok=None, cls: type[ParseError] = ParseError) -> ParseError:
        return cls(message, *_position(self.text, (tok or self.peek())[2]))

    # quantity ---------------------------------------------------------

    def quantity(self) -> Quantity:
        prefix: list[tuple[Quant, str]] = []
        seen: set[str] = set()
        while self.peek()[0] in ("sup", "inf"):
            quant = Quant(self.advance()[1])
            kind, name, _ = self.peek()
            if kind != "name":
                raise self.error("expected a variable name after quantifier")
            if name in seen:
                raise self.error(f"duplicate quantifier variable {name!r}")
            seen.add(name)
            self.advance()
            self.expect(":")
            prefix.append((quant, name))
        body = [self.gterm()]
        while self.accept("+"):
            body.append(self.gterm())
        kind, text, _ = self.peek()
        if kind != "eof":
            raise self.error(f"unexpected trailing input {text!r}")
        return Quantity(tuple(prefix), tuple(body))

    def gterm(self) -> GuardedTerm:
        self.expect("[")
        guard = self.bool_expr()
        self.expect("]")
        self.expect("*")
        return GuardedTerm(guard, self.additive())

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
        kind = self.peek()[0]
        if kind == "!":
            self.advance()
            return Not(self.bool_not())
        if kind in ("true", "false"):
            self.advance()
            return TRUE if kind == "true" else FALSE
        close = self.closes.get(self.i)
        if kind == "(" and (close is None or self.tokens[close + 1][0] not in _ATOM_FOLLOW):
            self.advance()
            inner = self.bool_expr()
            self.expect(")")
            return inner
        lhs = self.additive()
        rel = self.peek()[0]
        if rel not in _REL_TOKENS:
            raise self.error("expected a relation (<, <=, >, >=)")
        self.advance()
        return Atom(lhs, _REL_TOKENS[rel], self.additive())

    # Arithmetic layer -------------------------------------------------

    def additive(self) -> ExtLinExpr:
        node = self.term()
        # a "+" that introduces the next guarded term belongs to the body
        while (op := self.peek()[0]) == "-" or op == "+" and self.tokens[self.i + 1][0] != "[":
            tok = self.advance()
            rhs = self.term()
            if isinstance(node, InfExpr) or isinstance(rhs, InfExpr):
                raise self.error("infinite constant cannot appear inside arithmetic", tok)
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> ExtLinExpr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            tok = self.advance()
            rhs = self.factor()
            if isinstance(node, InfExpr) or isinstance(rhs, InfExpr):
                raise self.error("infinite constant cannot appear inside arithmetic", tok)
            if tok[0] == "*":
                if node.is_constant:
                    node = rhs.scale(node.constant)
                elif rhs.is_constant:
                    node = node.scale(rhs.constant)
                else:
                    raise self.error("product of two variable expressions", tok, NonLinearError)
            else:
                if not rhs.is_constant:
                    raise self.error("division by a variable expression", tok, NonLinearError)
                if rhs.constant == 0:
                    raise self.error("division by zero", tok)
                node = node.scale(Fraction(1) / rhs.constant)
        return node

    def factor(self) -> ExtLinExpr:
        kind, text, _ = tok = self.advance()
        if kind == "-":
            inner = self.factor()
            return InfExpr(-inner.sign) if isinstance(inner, InfExpr) else -inner
        if kind == "+":
            return self.factor()
        if kind == "num":
            try:
                return LinExpr.const(int(text))
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                raise self.error("number too long", tok) from None
        if kind == "oo":
            return OO
        if kind == "name":
            return LinExpr.var(text)
        if kind == "(":
            inner = self.additive()
            self.expect(")")
            return inner
        raise self.error(f"expected an expression, found {text or 'end of input'!r}", tok)


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
