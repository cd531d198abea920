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
above D; the elimination reads only the columns of degree <= D.  The Poisson
bracket of a monomial with F is two scaled shifts of F's derivatives, so no
row is a series product.  No Groebner
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
    """F at degree cap D + deg F, which holds F and every generator exactly;
    every check starts here, so here F must vanish at the origin."""
    if F.coeff((0, 0)):
        raise DomainError("polynomial must vanish at the origin")
    return F.with_caps(weight_cap=Fraction(degree + F.max_weight2(), 2))


def _monomials(degree):
    out = []
    for d in range(degree + 1):
        for ex in range(d, -1, -1):
            out.append((ex, d - ex))
    return out


def _reduce(rows, columns, pivots):
    """Exact Gaussian elimination of `rows` into the echelon rows `pivots`
    {lead column index: row}, in place; returns `pivots`."""
    index = {c: i for i, c in enumerate(columns)}
    for poly in rows:
        vec = {}
        for e, c in poly._terms.items():
            i = index.get(e)
            if i is not None:
                vec[i] = c
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
    return pivots


def _jacobian_rows(F, degree):
    work = _working(F, degree)
    fx, fy = work.deriv("x"), work.deriv("y")
    return [g.shift(x=ex, y=ey) for ex, ey in _monomials(degree) for g in (fx, fy)]


def milnor_number(F: ScalarSeries, degree: int):
    """dim C[x,y]_{<=D} / (F_x, F_y), with a D vs D+1 stabilization flag."""
    def dim_at(d):
        cols = _monomials(d)
        return len(cols) - len(_reduce(_jacobian_rows(F, d), cols, {}))

    dim = dim_at(degree)
    return dim, dim == dim_at(degree + 1)


def _versality_rows(F, degree):
    """The rows {m, F} (capped at D) over the monomials m of degree <= D + deg F,
    and m F over those of degree <= D.

    With m = x^a y^b, {m, F} = a x^(a-1) y^b F_y - b x^a y^(b-1) F_x: two
    scaled shifts of the derivatives of F, no product.
    """
    work = _working(F, degree)
    top = work.w2_cap  # D + deg F: no generator above it has a bracket of degree <= D
    cap = Fraction(degree, 2)
    fx, fy = work.deriv("x").with_caps(weight_cap=cap), work.deriv("y").with_caps(weight_cap=cap)
    rows = []
    for a, b in _monomials(top):
        br = fx.zero_like()
        if a:
            br = br + fy.shift(x=a - 1, y=b).scale(a)
        if b:
            br = br - fx.shift(x=a, y=b - 1).scale(b)
        if br:
            rows.append(br)
    return rows + [work.shift(x=ex, y=ey) for ex, ey in _monomials(degree)]


def _quotient(F, degree):
    """(basis monomials, echelon rows) of the quotient truncated at D: the
    `_reduce` of its `_versality_rows` over the monomials of degree <= D, and
    the columns left without a pivot; a caller may reduce further rows into
    the echelon rows."""
    cols = _monomials(degree)
    pivots = _reduce(_versality_rows(F, degree), cols, {})
    return [c for i, c in enumerate(cols) if i not in pivots], pivots


def versality_dimension(F: ScalarSeries, degree: int):
    """Dimension and monomial basis of C[x,y]/({., F} + (F)), truncated at D.

    Returns (dim, basis monomials, stabilized).
    """
    dim, basis, _, stabilized = check_versal(F, [], degree)
    return dim, basis, stabilized


def check_versal(F: ScalarSeries, tangents, degree: int):
    """Versal iff the classes of 1 and the parameter tangents span the quotient.

    Returns (dim, basis monomials, versal, stabilized) of C[x,y]/({., F} + (F))
    truncated at D; `tangents` are d/d(lambda_j) of the family at lambda = 0.
    Two eliminations answer all four: the one at D, continued with 1 and the
    tangents for the span, and the one at D + 1 for the stabilization flag.
    """
    basis, pivots = _quotient(F, degree)
    cap = Fraction(degree, 2)
    extra = [plane({(0, 0): 1})] + [t.with_caps(weight_cap=cap) for t in tangents]
    cols = _monomials(degree)
    versal = len(_reduce(extra, cols, pivots)) == len(cols)
    return len(basis), basis, versal, len(basis) == len(_quotient(F, degree + 1)[0])
