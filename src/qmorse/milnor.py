"""Commutative symbol-level checks: Milnor numbers and versality dimensions.

Everything is degree-truncated exact linear algebra over the coefficient
field: the local quotient C[x,y]/(ideal) is modelled on monomials of degree
<= D, and a stabilization flag (dim at D equals dim at D+1) reports whether
the cutoff already resolved the germ-level answer.  No Groebner machinery;
the quasi-homogeneous examples this backs stabilize at small D.
"""

from __future__ import annotations

from ._kernel import coeff_add, coeff_mul, coeff_mul_int, coeff_neg
from .errors import DomainError
from .field import Coefficient
from .series import render_terms


class PlanePoly:
    """Sparse bivariate polynomial in (x, y) over the coefficient field."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {}
        if terms:
            for exp, c in terms.items():
                raw = c.raw if isinstance(c, Coefficient) else Coefficient(c).raw
                if any(raw[:4]):
                    ex, ey = exp
                    if ex < 0 or ey < 0:
                        raise ValueError("negative exponent")
                    acc = self._terms.get((ex, ey))
                    s = raw if acc is None else coeff_add(acc, raw)
                    if any(s[:4]):
                        self._terms[(ex, ey)] = s
                    elif acc is not None:
                        del self._terms[(ex, ey)]

    @classmethod
    def _from_raw(cls, terms):
        p = cls()
        p._terms = terms
        return p

    def coeff(self, exp) -> Coefficient:
        raw = self._terms.get(tuple(exp))
        return Coefficient._raw(raw) if raw else Coefficient(0)

    def items(self):
        for e, c in self._terms.items():
            yield e, Coefficient._raw(c)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, PlanePoly):
            return self._terms == other._terms
        return NotImplemented

    def degree(self):
        return max((ex + ey for ex, ey in self._terms), default=0)

    def __add__(self, other):
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            s = c if acc is None else coeff_add(acc, c)
            if any(s[:4]):
                out[e] = s
            elif acc is not None:
                del out[e]
        return PlanePoly._from_raw(out)

    def __neg__(self):
        return PlanePoly._from_raw({e: coeff_neg(c) for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for (x1, y1), c1 in self._terms.items():
            for (x2, y2), c2 in other._terms.items():
                e = (x1 + x2, y1 + y2)
                v = coeff_mul(c1, c2)
                acc = out.get(e)
                s = v if acc is None else coeff_add(acc, v)
                if any(s[:4]):
                    out[e] = s
                elif acc is not None:
                    del out[e]
        return PlanePoly._from_raw(out)

    def scale(self, c: Coefficient):
        raw = c.raw if isinstance(c, Coefficient) else Coefficient(c).raw
        return PlanePoly._from_raw(
            {e: coeff_mul(v, raw) for e, v in self._terms.items()}
        )

    def diff_x(self):
        out = {}
        for (ex, ey), c in self._terms.items():
            if ex:
                out[(ex - 1, ey)] = coeff_mul_int(c, ex)
        return PlanePoly._from_raw(out)

    def diff_y(self):
        out = {}
        for (ex, ey), c in self._terms.items():
            if ey:
                out[(ex, ey - 1)] = coeff_mul_int(c, ey)
        return PlanePoly._from_raw(out)

    def truncate(self, degree):
        return PlanePoly._from_raw(
            {e: c for e, c in self._terms.items() if e[0] + e[1] <= degree}
        )

    def __str__(self):
        return render_terms(self._terms, ("x", "y"))

    __repr__ = __str__


def poisson(g: PlanePoly, f: PlanePoly) -> PlanePoly:
    """{g, f} = g_x f_y - g_y f_x."""
    return g.diff_x() * f.diff_y() - g.diff_y() * f.diff_x()


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
                v = coeff_mul(c, raw)
                acc = vec.get(i)
                s = coeff_neg(v) if acc is None else coeff_add(acc, coeff_neg(v))
                if any(s[:4]):
                    vec[i] = s
                elif acc is not None:
                    del vec[i]
    return len(pivots), {columns[i] for i in pivots}


def _jacobian_rows(F, degree):
    fx, fy = F.diff_x(), F.diff_y()
    rows = []
    for mono in _monomials(degree):
        m = PlanePoly({mono: 1})
        rows.append((m * fx).truncate(degree))
        rows.append((m * fy).truncate(degree))
    return rows


def milnor_number(F: PlanePoly, degree: int):
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
    rows = []
    for mono in _monomials(degree + F.degree()):
        g = PlanePoly({mono: 1})
        br = poisson(g, F).truncate(degree)
        if br:
            rows.append(br)
    for mono in _monomials(degree):
        m = PlanePoly({mono: 1})
        prod = (m * F).truncate(degree)
        if prod:
            rows.append(prod)
    return rows


def versality_dimension(F: PlanePoly, degree: int):
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


def check_versal(F: PlanePoly, tangents, degree: int):
    """Versal iff the classes of 1 and the parameter tangents span the quotient.

    Returns (versal, stabilized); `tangents` are d/d(lambda_j) of the family at
    lambda = 0.
    """
    if F.coeff((0, 0)):
        raise DomainError("polynomial must vanish at the origin")

    def spans(d):
        cols = _monomials(d)
        rows = _versality_rows(F, d)
        extra = [PlanePoly({(0, 0): 1})] + [t.truncate(d) for t in tangents]
        rank, _ = _rank_and_pivots(rows + extra, cols)
        return rank == len(cols)

    dim, _, stabilized = versality_dimension(F, degree)
    _ = dim
    return spans(degree), stabilized
