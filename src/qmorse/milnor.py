"""Commutative symbol-level checks: Milnor numbers and versality dimensions.

Polynomials in (x, y) are `ScalarSeries` over `SIG_PLANE`; x and y have
weight 1/2, so total degree is the doubled weight and a weight cap of D/2
keeps exactly the monomials of degree <= D.  Everything is degree-truncated
exact linear algebra over the coefficient field: the local quotient
C[x,y]/(ideal) is modelled on monomials of degree <= D, and a stabilization
flag (dim at D equals dim at D+1) reports whether the cutoff already resolved
the germ-level answer.  Each check lifts F to a working cap that holds it and
every generator exactly.  A monomial times a series is a `shift`, which drops
nothing at that cap, so those rows are exact and may keep terms of degree
above D; the elimination reads only the columns of degree <= D.  No Groebner
machinery; the quasi-homogeneous examples this backs stabilize at small D.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernel import add_term, coeff_mul, coeff_neg
from .errors import DomainError
from .field import Coefficient
from .series import SIG_PLANE, ScalarSeries


def plane(terms=None, degree=None) -> ScalarSeries:
    """The polynomial sum c x^ex y^ey of {(ex, ey): c}, capped at total degree
    `degree` (by default the highest degree among the terms)."""
    terms = terms or {}
    if degree is None:
        degree = max((sum(exp) for exp in terms), default=0)
    return ScalarSeries(terms, vars=SIG_PLANE, t_cap=0, weight_cap=Fraction(degree, 2))


def poisson(g: ScalarSeries, f: ScalarSeries) -> ScalarSeries:
    """{g, f} = g_x f_y - g_y f_x."""
    return g.deriv("x") * f.deriv("y") - g.deriv("y") * f.deriv("x")


def _working(F: ScalarSeries, degree: int) -> ScalarSeries:
    """F at degree cap D + deg F, which holds F and every generator exactly."""
    return F.with_caps(weight_cap=Fraction(degree + F.max_weight2(), 2))


def _monomials(degree):
    out = []
    for d in range(degree + 1):
        for ex in range(d, -1, -1):
            out.append((ex, d - ex))
    return out


def _rank_and_pivots(rows, columns):
    """Exact Gaussian elimination; returns (rank, pivot column set)."""
    index = {c: i for i, c in enumerate(columns)}
    mat = []
    for poly in rows:
        vec = {}
        for e, c in poly._terms.items():
            i = index.get(e)
            if i is not None:
                vec[i] = c
        if vec:
            mat.append(vec)
    pivots = {}
    for vec in mat:
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = vec
                break
            other = pivots[lead]
            factor = Coefficient._raw(vec[lead]) / Coefficient._raw(other[lead])
            raw = factor.raw
            for i, c in other.items():
                add_term(vec, i, coeff_neg(coeff_mul(c, raw)))
    return len(pivots), {columns[i] for i in pivots}


def _jacobian_rows(F, degree):
    work = _working(F, degree)
    fx, fy = work.deriv("x"), work.deriv("y")
    return [g.shift(x=ex, y=ey) for ex, ey in _monomials(degree) for g in (fx, fy)]


def milnor_number(F: ScalarSeries, degree: int):
    """dim C[x,y]_{<=D} / (F_x, F_y), with a D vs D+1 stabilization flag."""
    if F.coeff((0, 0)):
        raise DomainError("polynomial must vanish at the origin")

    def dim_at(d):
        cols = _monomials(d)
        rank, _ = _rank_and_pivots(_jacobian_rows(F, d), cols)
        return len(cols) - rank

    dim = dim_at(degree)
    return dim, dim == dim_at(degree + 1)


def _versality_rows(F, degree):
    work = _working(F, degree)
    top = work.w2_cap  # D + deg F: no generator above it has a bracket of degree <= D
    rows = []
    for mono in _monomials(top):
        g = plane({mono: 1}, top)
        br = poisson(g, work).with_caps(weight_cap=Fraction(degree, 2))
        if br:
            rows.append(br)
    return rows + [work.shift(x=ex, y=ey) for ex, ey in _monomials(degree)]


def versality_dimension(F: ScalarSeries, degree: int):
    """Dimension and monomial basis of C[x,y]/({., F} + (F)), truncated at D.

    Returns (dim, basis monomials, stabilized).
    """
    if F.coeff((0, 0)):
        raise DomainError("polynomial must vanish at the origin")

    def quotient(d):
        cols = _monomials(d)
        rank, pivots = _rank_and_pivots(_versality_rows(F, d), cols)
        basis = [c for c in cols if c not in pivots]
        return len(cols) - rank, basis

    dim, basis = quotient(degree)
    dim_next, _ = quotient(degree + 1)
    return dim, basis, dim == dim_next


def check_versal(F: ScalarSeries, tangents, degree: int):
    """Versal iff the classes of 1 and the parameter tangents span the quotient.

    Returns (versal, stabilized); `tangents` are d/d(lambda_j) of the family at
    lambda = 0.
    """
    if F.coeff((0, 0)):
        raise DomainError("polynomial must vanish at the origin")

    def spans(d):
        cols = _monomials(d)
        rows = _versality_rows(F, d)
        extra = [plane({(0, 0): 1})] + [t.with_caps(weight_cap=Fraction(d, 2)) for t in tangents]
        rank, _ = _rank_and_pivots(rows + extra, cols)
        return rank == len(cols)

    _, _, stabilized = versality_dimension(F, degree)
    return spans(degree), stabilized
