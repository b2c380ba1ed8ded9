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
    NAME     := [A-Za-z_][A-Za-z0-9_]*

An empty ``(sum)`` is the zero matrix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional

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

def _tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text)


class _Parser:
    def __init__(self, tokens: List[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise IoFailure("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise IoFailure(f"expected {tok!r}, found {t!r}")

    def open_tag(self, tag: str):
        self.expect("(")
        self.expect(tag)

    def names_until_close(self) -> List[str]:
        out = []
        while self.peek() != ")":
            name = self.next()
            if not _NAME_RE.match(name):
                raise IoFailure(f"bad name token {name!r}")
            out.append(name)
        self.next()
        return out

    def int_(self) -> int:
        t = self.next()
        try:
            return int(t)
        except ValueError:
            raise IoFailure(f"expected integer, found {t!r}")

    def fraction(self) -> Fraction:
        t = self.next()
        try:
            return Fraction(t)
        except ValueError:
            raise IoFailure(f"expected rational, found {t!r}")

    def orders(self, arity: int) -> tuple:
        self.open_tag("o")
        out = []
        while self.peek() != ")":
            out.append(self.int_())
        self.next()
        if len(out) != arity:
            raise IoFailure(f"multi-index arity {len(out)}, expected {arity}")
        if any(k < 0 for k in out):
            raise IoFailure("negative derivative count")
        return tuple(out)

    def atom(self, arity: int) -> Atom:
        self.expect("(")
        kind = self.next()
        name = self.next()
        if not _NAME_RE.match(name):
            raise IoFailure(f"bad name token {name!r}")
        if kind == "field":
            a = Field(name, self.orders(arity))
        elif kind == "inv":
            a = InvField(name)
        elif kind == "param":
            a = Param(name)
        elif kind == "pot":
            a = Potential(name, self.orders(arity))
        elif kind == "dpot":
            a = DPotential(name, self.orders(arity))
        else:
            raise IoFailure(f"unknown atom kind {kind!r}")
        self.expect(")")
        return a


def loads(text: str, vs: Optional[VarSpace] = None) -> JetExpr:
    """Parse a serialized expression.

    When ``vs`` is given the document's variable space must match it exactly
    and the result is built over ``vs``; otherwise a fresh space is created.
    """
    p = _Parser(_tokenize(text))
    p.open_tag("jet")
    p.open_tag("vars")
    names = tuple(p.names_until_close())
    p.open_tag("cap")
    cap = p.int_()
    p.expect(")")
    if vs is not None:
        if vs.names != names or vs.max_order != cap:
            raise IoFailure(
                f"document space {names}/cap {cap} does not match the given "
                f"space {vs.names}/cap {vs.max_order}")
    else:
        vs = VarSpace(names, max_order=cap)

    p.open_tag("sum")
    out = vs.zero()
    while p.peek() != ")":
        p.open_tag("mon")
        coef = p.fraction()
        lam = p.int_()
        p.open_tag("coords")
        coords = p.names_until_close()
        for c in coords:
            if c not in vs.names:
                raise IoFailure(f"coordinate {c!r} not in the variable space")
        p.open_tag("factors")
        factors = []
        while p.peek() != ")":
            factors.append(p.atom(vs.arity))
        p.next()  # close factors
        p.expect(")")  # close mon
        term = JetExpr(vs, ((coef, lam, tuple(sorted(coords)),
                             tuple(factors)),))
        out = out + term
    p.next()  # close sum
    p.expect(")")  # close jet
    if p.peek() is not None:
        raise IoFailure(f"trailing tokens after document: {p.peek()!r}")
    return out


def dump(e: JetExpr, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(e) + "\n")


def load(path, vs: Optional[VarSpace] = None) -> JetExpr:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), vs=vs)
