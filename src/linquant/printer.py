"""Rendering quantities back to text and to/from a JSON AST.

``parse_quantity(print_quantity(q))`` reproduces ``q`` structurally.  The
JSON form tags every node with a ``kind`` discriminator; rationals are
``{"num": str, "den": str}`` and the infinite constants are the strings
``"oo"`` / ``"-oo"``.  The JSON form keeps binary ``and``/``or`` nodes with
``lhs``/``rhs``: an n-ary chain is written as a left-nested chain of them
and read back as one node.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LinquantError
from .parser import read_name
from .terms import (
    FALSE,
    NEG_OO,
    OO,
    TRUE,
    And,
    Atom,
    BoolExpr,
    ExtLinExpr,
    FalseExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Not,
    Or,
    Quant,
    Quantity,
    Rel,
    TrueExpr,
)

_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


def print_linexpr(e: LinExpr) -> str:
    parts: list[tuple[int, str]] = []
    for var in sorted(e.coeffs):
        q = e.coeffs[var]
        mag = abs(q)
        text = var if mag == 1 else f"{mag}*{var}"
        parts.append((1 if q > 0 else -1, text))
    if e.constant != 0 or not parts:
        parts.append((1 if e.constant >= 0 else -1, str(abs(e.constant))))
    out = []
    for k, (sign, text) in enumerate(parts):
        if k == 0:
            out.append(("-" if sign < 0 else "") + text)
        else:
            out.append((" - " if sign < 0 else " + ") + text)
    return "".join(out)


def print_extlin(e: ExtLinExpr) -> str:
    if isinstance(e, InfExpr):
        return str(e)
    return print_linexpr(e)


def _print_value(e: ExtLinExpr) -> str:
    text = print_extlin(e)
    if " " in text or text.startswith("-"):
        return f"({text})"
    return text


def print_bool(phi: BoolExpr, prec: int = 0) -> str:
    if isinstance(phi, TrueExpr):
        return "true"
    if isinstance(phi, FalseExpr):
        return "false"
    if isinstance(phi, Atom):
        return f"{print_extlin(phi.lhs)} {phi.rel.value} {print_extlin(phi.rhs)}"
    if isinstance(phi, Not):
        inner = phi.arg
        if isinstance(inner, (TrueExpr, FalseExpr)):
            return "!" + print_bool(inner)
        return "!(" + print_bool(inner) + ")"
    if isinstance(phi, (And, Or)):
        # a nested chain after the first argument keeps its parentheses
        op, own = (" && ", _PREC_AND) if isinstance(phi, And) else (" || ", _PREC_OR)
        first, *rest = phi.args
        text = op.join([print_bool(first, own), *(print_bool(arg, own + 1) for arg in rest)])
        return f"({text})" if prec > own else text
    raise TypeError(f"not a Boolean expression: {phi!r}")


def print_term(term: GuardedTerm) -> str:
    return f"[{print_bool(term.guard)}] * {_print_value(term.value)}"


def print_body(body) -> str:
    return " + ".join(print_term(t) for t in body)


def print_quantity(q: Quantity) -> str:
    prefix = "".join(f"{quant.value} {var} : " for quant, var in q.prefix)
    return prefix + print_body(q.body)


# JSON AST ---------------------------------------------------------------


def _rat_to_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _rat_from_json(d) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def _expr_to_json(e: ExtLinExpr):
    if isinstance(e, InfExpr):
        return str(e)
    return {
        "kind": "lin",
        "const": _rat_to_json(e.constant),
        "coeffs": {v: _rat_to_json(q) for v, q in sorted(e.coeffs.items())},
    }


def _expr_from_json(d) -> ExtLinExpr:
    if d == "oo":
        return OO
    if d == "-oo":
        return NEG_OO
    coeffs = {read_name(v): _rat_from_json(q) for v, q in d["coeffs"].items()}
    return LinExpr(_rat_from_json(d["const"]), coeffs)


def _bool_to_json(phi: BoolExpr):
    if isinstance(phi, TrueExpr):
        return {"kind": "true"}
    if isinstance(phi, FalseExpr):
        return {"kind": "false"}
    if isinstance(phi, Atom):
        return {
            "kind": "atom",
            "lhs": _expr_to_json(phi.lhs),
            "rel": phi.rel.value,
            "rhs": _expr_to_json(phi.rhs),
        }
    if isinstance(phi, Not):
        return {"kind": "not", "arg": _bool_to_json(phi.arg)}
    if isinstance(phi, (And, Or)):
        kind = "and" if isinstance(phi, And) else "or"
        node = _bool_to_json(phi.args[0])
        for arg in phi.args[1:]:
            node = {"kind": kind, "lhs": node, "rhs": _bool_to_json(arg)}
        return node
    raise TypeError(f"not a Boolean expression: {phi!r}")


def _bool_from_json(d) -> BoolExpr:
    kind = d["kind"]
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "atom":
        return Atom(_expr_from_json(d["lhs"]), Rel(d["rel"]), _expr_from_json(d["rhs"]))
    if kind == "not":
        return Not(_bool_from_json(d["arg"]))
    if kind in ("and", "or"):
        rights = []
        while d["kind"] == kind:  # down the left spine of the chain
            rights.append(d["rhs"])
            d = d["lhs"]
        args = [_bool_from_json(d), *(_bool_from_json(r) for r in reversed(rights))]
        return (And if kind == "and" else Or)(*args)
    raise LinquantError(f"unknown Boolean node kind {kind!r}")


def quantity_to_json(q: Quantity) -> dict:
    return {
        "kind": "quantity",
        "prefix": [[quant.value, var] for quant, var in q.prefix],
        "body": [
            {"kind": "term", "guard": _bool_to_json(t.guard), "value": _expr_to_json(t.value)}
            for t in q.body
        ],
    }


def quantity_from_json(d: dict) -> Quantity:
    if d.get("kind") != "quantity":
        raise LinquantError("expected a quantity node")
    prefix = tuple((Quant(quant), read_name(var)) for quant, var in d["prefix"])
    body = tuple(
        GuardedTerm(_bool_from_json(t["guard"]), _expr_from_json(t["value"])) for t in d["body"]
    )
    return Quantity(prefix, body)
