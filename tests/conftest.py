"""Shared strategies and exact-arithmetic helpers for the test suite."""

from fractions import Fraction
import random
import tracemalloc

import pytest
from hypothesis import strategies as st

from symlax.expr import (
    Field,
    InvField,
    JetExpr,
    Param,
    RAtom,
    RComm,
    RCoord,
    RIdentity,
    RInv,
    RLam,
    RProd,
    RScale,
    RSum,
    VarSpace,
    evaluate,
    normalize,
)

VS2 = VarSpace(("t", "x"))

_ATOMS = [
    Field("g", (0, 0)),
    Field("g", (1, 0)),
    Field("g", (0, 1)),
    Field("g", (1, 1)),
    Field("u", (0, 0)),
    Field("u", (1, 0)),
    Param("M"),
    Param("L"),
    InvField("g"),
]

_small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)

raw_leaf = st.one_of(
    st.sampled_from(_ATOMS).map(RAtom),
    st.just(RIdentity()),
    st.sampled_from(["t", "x"]).map(RCoord),
    st.integers(min_value=-2, max_value=2).map(RLam),
)

raw_expr = st.recursive(
    raw_leaf,
    lambda ch: st.one_of(
        st.lists(ch, min_size=1, max_size=3).map(lambda xs: RSum(tuple(xs))),
        st.lists(ch, min_size=1, max_size=3).map(lambda xs: RProd(tuple(xs))),
        st.tuples(_small_fraction, ch).map(lambda t: RScale(t[0], t[1])),
        st.tuples(ch, ch).map(lambda t: RComm(t[0], t[1])),
        st.just(RInv(RAtom(Field("g", (0, 0))))),
    ),
    max_leaves=8,
)

norm_expr = raw_expr.map(lambda r: normalize(r, VS2))


def raw_atoms(e):
    """All atoms occurring in a raw tree."""
    if isinstance(e, RAtom):
        return {e.atom}
    if isinstance(e, (RCoord, RLam, RIdentity)):
        return set()
    if isinstance(e, (RSum, RProd)):
        out = set()
        for a in e.args:
            out |= raw_atoms(a)
        return out
    if isinstance(e, RScale):
        return raw_atoms(e.arg)
    if isinstance(e, RComm):
        return raw_atoms(e.a) | raw_atoms(e.b)
    if isinstance(e, RInv):
        return raw_atoms(e.arg)
    raise TypeError(e)


def random_fraction_matrix(rng: random.Random, n: int):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def random_invertible(rng: random.Random, n: int):
    while True:
        m = random_fraction_matrix(rng, n)
        if n == 2:
            if _det2(m) != 0:
                return m
        else:
            try:
                from symlax.expr import mat_inv
                mat_inv([row[:] for row in m])
                return m
            except ZeroDivisionError:
                continue


def assignment_for(atoms, seed: int, n: int = 2):
    """Exact rational matrices for every atom; bare fields invertible (their
    inverses are derived, never independently assigned), derivative atoms
    independent."""
    rng = random.Random(seed)
    assign = {}
    names = set()
    for a in sorted(atoms, key=repr):
        if isinstance(a, InvField):
            names.add(a.name)
            continue
        if isinstance(a, Field) and a.is_bare():
            assign[a] = random_invertible(rng, n)
        else:
            assign[a] = random_fraction_matrix(rng, n)
    for name in sorted(names):
        bare = Field(name, VS2.zero_index())
        if bare not in assign:
            assign[bare] = random_invertible(rng, n)
    coord_values = {"t": Fraction(rng.randint(-3, 3), 2),
                    "x": Fraction(rng.randint(-3, 3), 2)}
    return assign, coord_values


def eval_pair(raw, seed: int):
    """Evaluate a raw tree and its normal form with one exact assignment."""
    e = normalize(raw, VS2)
    atoms = raw_atoms(raw) | e.atoms()
    assign, coords = assignment_for(atoms, seed)
    lam = Fraction(3, 2)
    a = evaluate(raw, assign, 2, lam_value=lam, coord_values=coords)
    b = evaluate(e, assign, 2, lam_value=lam, coord_values=coords)
    return a, b


def peak_field_sizes(fn, nbytes):
    """How far ``fn()`` raises the traced memory at its peak over what was
    allocated before it, in units of ``nbytes`` (one field sample)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / nbytes
