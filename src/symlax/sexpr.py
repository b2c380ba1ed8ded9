"""Plain-text s-expression serialization of normalized expressions.

The format is stable and deterministic: monomials are emitted in the normal
form's canonical order, so equal expressions serialize to identical strings
and ``loads(dumps(e)) == e`` exactly (coefficients are exact rationals).

Grammar (whitespace-separated tokens, fully parenthesized)::

    document := "(jet" space expr ")"
    space    := "(vars" NAME* ")" "(cap" INT ")"
    expr     := "(sum" monomial* ")"
    monomial := "(mon" COEF INT coords factors ")"   ; COEF exact rational,
                                                     ; INT spectral power
    coords   := "(coords" NAME* ")"                  ; commuting coordinates,
                                                     ; with multiplicity
    factors  := "(factors" atom* ")"                 ; ordered, noncommuting
    atom     := "(field"  NAME orders ")"
              | "(inv"    NAME ")"
              | "(param"  NAME ")"
              | "(pot"    NAME orders ")"
              | "(dpot"   NAME orders ")"
    orders   := "(o" INT* ")"                        ; one count per variable
    COEF     := INT | INT "/" POSINT                 ; e.g. -3/4
    INT      := "-"? [0-9]+                          ; >= 0 in cap, orders
    POSINT   := [0-9]* [1-9] [0-9]*
    NAME     := [A-Za-z_][A-Za-z0-9_]*

Variable names are distinct, and the total order of a multi-index is at
most the cap.  An empty ``(sum)`` is the zero matrix.  ``loads`` rebuilds
each monomial by multiplying its parts, so what it returns is in normal
form (like monomials collected, adjacent ``g g^-1`` cancelled); a document
outside the grammar raises IoFailure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .errors import IoFailure
from .expr import (
    Atom,
    DPotential,
    Field,
    InvField,
    JetExpr,
    Param,
    Potential,
    VarSpace,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+")
_COEF_RE = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")
_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise IoFailure(f"name {name!r} is not serializable")
    return name


def _orders_sexp(orders) -> str:
    return "(o" + "".join(f" {k}" for k in orders) + ")"


def _atom_sexp(a: Atom) -> str:
    if isinstance(a, Field):
        return f"(field {_check_name(a.name)} {_orders_sexp(a.orders)})"
    if isinstance(a, InvField):
        return f"(inv {_check_name(a.name)})"
    if isinstance(a, Param):
        return f"(param {_check_name(a.name)})"
    if isinstance(a, Potential):
        return f"(pot {_check_name(a.name)} {_orders_sexp(a.orders)})"
    if isinstance(a, DPotential):
        return f"(dpot {_check_name(a.name)} {_orders_sexp(a.orders)})"
    raise IoFailure(f"unknown atom {a!r}")


def dumps(e: JetExpr) -> str:
    """Serialize a normalized expression (with its variable space)."""
    vs = e.vs
    head = ("(vars" + "".join(f" {_check_name(v)}" for v in vs.names) + ") "
            f"(cap {vs.max_order})")
    mons = []
    for coef, lam, coords, factors in e.mons:
        cs = "(coords" + "".join(f" {_check_name(c)}" for c in coords) + ")"
        fs = "(factors" + "".join(f" {_atom_sexp(a)}" for a in factors) + ")"
        mons.append(f"(mon {coef} {lam} {cs} {fs})")
    body = "(sum" + "".join(f" {m}" for m in mons) + ")"
    return f"(jet {head} {body})"


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _show(tok) -> str:
    """A token for an error message; a nested list is not spelled out."""
    return repr(tok) if isinstance(tok, str) else "a parenthesized list"


def _read(text: str):
    """The document as nested lists of tokens, built with an explicit stack,
    so deep nesting costs memory, not recursion."""
    stack = [[]]
    for tok in _TOKEN_RE.findall(text):
        if tok == "(":
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            done = stack.pop()
            stack[-1].append(done)
        else:
            raise IoFailure("unbalanced ')'")
    match stack:
        case [[doc]]:
            return doc
        case [[_, extra, *_]]:
            raise IoFailure(f"trailing tokens after document: {_show(extra)}")
    raise IoFailure("unexpected end of input")


def _token(tok, pattern: re.Pattern = _NAME_RE, what: str = "a name") -> str:
    if isinstance(tok, str) and pattern.fullmatch(tok):
        return tok
    raise IoFailure(f"expected {what}, found {_show(tok)}")


def _int(tok) -> int:
    try:
        return int(_token(tok, _INT_RE, "an integer"))
    except ValueError:  # more digits than the interpreter converts
        raise IoFailure(f"integer {tok[:20]}... has too many digits")


def _coef(tok) -> Fraction:
    num, _, den = _token(tok, _COEF_RE, "INT or INT/POSINT").partition("/")
    return Fraction(_int(num), _int(den or "1"))


def _orders(tok, vs: VarSpace) -> tuple:
    match tok:
        case ["o", *counts] if len(counts) == vs.arity:
            out = tuple(_int(k) for k in counts)
        case _:
            raise IoFailure(f"expected (o INT*) with {vs.arity} counts, "
                            f"found {_show(tok)}")
    if min(out, default=0) < 0 or sum(out) > vs.max_order:
        raise IoFailure(f"derivative counts {out} are negative or exceed "
                        f"the cap {vs.max_order}")
    return out


_ORDERED = {"field": Field, "pot": Potential, "dpot": DPotential}
_BARE = {"inv": InvField, "param": Param}


def _atom(tok, vs: VarSpace) -> Atom:
    match tok:
        case [str(kind), name, orders] if kind in _ORDERED:
            return _ORDERED[kind](_token(name), _orders(orders, vs))
        case [str(kind), name] if kind in _BARE:
            return _BARE[kind](_token(name))
    raise IoFailure(f"expected an atom, found {_show(tok)}")


def _monomial(tok, vs: VarSpace) -> JetExpr:
    match tok:
        case ["mon", coef, lam, ["coords", *coords], ["factors", *factors]]:
            term = vs.lam(_int(lam)).scale(_coef(coef))
            for c in coords:
                if _token(c) not in vs.names:
                    raise IoFailure(f"coordinate {c!r} is not a variable")
                term = term * vs.coord(c)
            for a in factors:
                term = term * vs.atom(_atom(a, vs))
            return term
    raise IoFailure("expected (mon COEF INT (coords ...) (factors ...)), "
                    f"found {_show(tok)}")


def loads(text: str, vs: Optional[VarSpace] = None) -> JetExpr:
    """Parse a serialized expression into its normal form.

    When ``vs`` is given the document's variable space must match it exactly
    and the result is built over ``vs``; otherwise a fresh space is created.
    """
    match _read(text):
        case ["jet", ["vars", *names], ["cap", cap], ["sum", *mons]]:
            names, cap = tuple(_token(v) for v in names), _int(cap)
        case doc:
            raise IoFailure("expected (jet (vars ...) (cap INT) (sum ...)), "
                            f"found {_show(doc)}")
    if len(set(names)) != len(names):
        raise IoFailure(f"variable names {names} are not distinct")
    if cap < 0:
        raise IoFailure(f"negative derivative cap {cap}")
    if vs is not None:
        if vs.names != names or vs.max_order != cap:
            raise IoFailure(
                f"document space {names}/cap {cap} does not match the given "
                f"space {vs.names}/cap {vs.max_order}")
    else:
        vs = VarSpace(names, max_order=cap)
    out = vs.zero()
    for m in mons:
        out = out + _monomial(m, vs)
    return out


def dump(e: JetExpr, path) -> None:
    """Write ``dumps(e)`` to ``path``; an OSError is raised as IoFailure."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(e) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}")


def load(path, vs: Optional[VarSpace] = None) -> JetExpr:
    """``loads`` of a UTF-8 file; an unreadable one raises IoFailure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}")
    return loads(text, vs=vs)
