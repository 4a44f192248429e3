"""Command-line interface.

Commands: elim, eval, interpolate, entails, check, gnf.  Input is a UTF-8
file in the quantity grammar (or a JSON AST, detected by a leading "{");
``-`` or no file reads stdin.  Values print as rationals (``5/3``) or
``oo`` / ``-oo``.  Exit codes: 0 success, 1 parse error (also a malformed
JSON AST, too deep nesting, or input too deep for the engine), 2
well-formedness violation, 3 missing variable binding, 4 failed entailment,
5 input not readable, 6 usage error (bad command line).

While a command runs, ``main`` raises the recursion limit to
:data:`RECURSION_LIMIT`, because the engine's tree walks take several frames
per nesting level of a guard, and restores it afterwards; the library itself
sets no process state.  A guard too deep even for that limit exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    LinquantError,
    MissingVariable,
    NotEntailed,
    ParseError,
    WellFormednessViolation,
)
from .interpolate import entails, strongest_interpolant, weakest_interpolant
from .normalform import check_well_formed, to_gnf
from .oracle import eval_quantity
from .parser import parse_quantity
from .printer import print_quantity, quantity_from_json, quantity_to_json
from .qelim import eliminate
from .terms import Quantity, Valuation, free_vars

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ILL_FORMED = 2
EXIT_MISSING_VAR = 3
EXIT_NOT_ENTAILED = 4
EXIT_UNREADABLE = 5
EXIT_USAGE = 6

# Recursion limit while a command runs: room for the engine's tree walks.
RECURSION_LIMIT = 20_000


class InputUnreadable(Exception):
    """An input file could not be opened or decoded."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line in one line with its own exit code, so it
    cannot be read as a well-formedness violation (argparse's exit 2)."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"usage error: {self.prog}: {message}\n")


def _read_quantity(path: str | None) -> Quantity:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputUnreadable(str(exc)) from exc
    if text.lstrip().startswith("{"):
        return _quantity_from_json_text(text)
    return parse_quantity(text)


def _quantity_from_json_text(text: str) -> Quantity:
    """Decode a JSON AST; any malformed input is a one-line ParseError."""
    try:
        return quantity_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except KeyError as exc:
        raise ParseError(f"malformed JSON AST: missing key {exc}", 1, 1) from None
    except RecursionError:
        raise ParseError("nesting too deep", 1, 1) from None
    except (LinquantError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed JSON AST: {exc}", 1, 1) from None


def _emit(q: Quantity, as_json: bool) -> None:
    if as_json:
        print(json.dumps(quantity_to_json(q), sort_keys=True))
    else:
        print(print_quantity(q))


def _parse_sigma(spec: str) -> Valuation:
    bindings = {}
    if spec.strip():
        for piece in spec.split(","):
            name, _, value = piece.partition("=")
            if not value:
                raise ParseError(f"bad binding {piece!r}, expected var=value", 1, 1)
            try:
                bindings[name.strip()] = Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad value in binding {piece!r}", 1, 1) from None
    return Valuation(bindings)


def _require_well_formed(q: Quantity) -> None:
    violation = check_well_formed(q)
    if violation is not None:
        raise violation


def _cmd_elim(args) -> int:
    q = _read_quantity(args.file)
    _require_well_formed(q)
    result = eliminate(q, simplify=args.simplify)
    _emit(result, args.json)
    return EXIT_OK


def _cmd_eval(args) -> int:
    q = _read_quantity(args.file)
    _require_well_formed(q)
    sigma = _parse_sigma(args.sigma)
    if q.prefix:
        q = eliminate(q)
    missing = sorted(free_vars(q) - set(sigma))
    if missing:
        raise MissingVariable(missing[0])
    print(eval_quantity(sigma, q.body))
    return EXIT_OK


def _cmd_entails(args) -> int:
    f = _read_quantity(args.f)
    g = _read_quantity(args.g)
    _require_well_formed(f)
    _require_well_formed(g)
    witness = entails(f, g)
    if witness is None:
        print("yes")
        return EXIT_OK
    print(f"no {witness}")
    return EXIT_NOT_ENTAILED


def _cmd_interpolate(args) -> int:
    f = _read_quantity(args.f)
    g = _read_quantity(args.g)
    _require_well_formed(f)
    _require_well_formed(g)
    build = weakest_interpolant if args.weakest else strongest_interpolant
    result = build(f, g)
    _emit(result, args.json)
    return EXIT_OK


def _cmd_check(args) -> int:
    q = _read_quantity(args.file)
    violation = check_well_formed(q)
    if violation is None:
        print("ok")
        return EXIT_OK
    i, j = violation.pair
    print(f"violation: terms {i} and {j} overlap with values oo and -oo")
    return EXIT_ILL_FORMED


def _cmd_gnf(args) -> int:
    q = _read_quantity(args.file)
    _require_well_formed(q)
    _emit(to_gnf(q, args.var), args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="linquant",
        description="Quantifier elimination and Craig interpolation for piecewise linear quantities.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{elim,eval,entails,interpolate,check,gnf}",
    )

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit the JSON AST")

    p = sub.add_parser("elim", help="eliminate all quantifiers")
    p.add_argument("file", nargs="?", help="input file (default: stdin)")
    p.add_argument("--simplify", action="store_true", help="merge and drop redundant terms")
    add_json(p)
    p.set_defaults(func=_cmd_elim)

    p = sub.add_parser("eval", help="evaluate at a valuation")
    p.add_argument("file", nargs="?")
    p.add_argument("--sigma", default="", help="comma-separated bindings, e.g. x=1,y=-2/3")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("entails", help="decide quantitative entailment f |= g")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_entails)

    p = sub.add_parser("interpolate", help="construct a Craig interpolant")
    p.add_argument("f")
    p.add_argument("g")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strongest", action="store_true", default=True)
    group.add_argument("--weakest", action="store_true", default=False)
    add_json(p)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("check", help="check well-formedness")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gnf", help="guarded normal form w.r.t. a variable")
    p.add_argument("file", nargs="?")
    p.add_argument("--var", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_gnf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, RECURSION_LIMIT))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WellFormednessViolation as exc:
        i, j = exc.pair
        print(f"ill-formed: terms {i} and {j} overlap with values oo and -oo", file=sys.stderr)
        return EXIT_ILL_FORMED
    except MissingVariable as exc:
        print(f"missing binding: {exc}", file=sys.stderr)
        return EXIT_MISSING_VAR
    except NotEntailed as exc:
        print(f"not an entailment: {exc}", file=sys.stderr)
        return EXIT_NOT_ENTAILED
    except InputUnreadable as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except RecursionError:
        print(f"too deep: input exceeds the recursion limit {RECURSION_LIMIT}", file=sys.stderr)
        return EXIT_PARSE
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    raise SystemExit(main())
