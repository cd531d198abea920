"""Exact scalars: the number field Q(i, sqrt2).

Every scalar in the engine is a `Coefficient`, written as
``r + i_*i + r2*sqrt2 + ir2*i*sqrt2`` with arbitrary-precision rational
components.  The field is the smallest one closed under the p,q <-> adag,a
basis change (which needs sqrt2 and i) and hermitian conjugation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from math import sqrt as _fsqrt

from ._kernel import (
    COEFF_ONE,
    COEFF_ZERO,
    coeff_add,
    coeff_conj,
    coeff_make,
    coeff_mul,
    coeff_neg,
    coeff_sub,
)

_SQRT2 = _fsqrt(2.0)


def _normalize_components(parts):
    """Lift four Fractions onto a common denominator -> packed tuple."""
    den = 1
    for p in parts:
        den = den * p.denominator // gcd(den, p.denominator)
    ints = [p.numerator * (den // p.denominator) for p in parts]
    return coeff_make(ints[0], ints[1], ints[2], ints[3], den)


class Coefficient:
    """Immutable element of Q(i, sqrt2), stored in lowest terms."""

    __slots__ = ("_t",)

    def __init__(self, r=0, i=0, r2=0, ir2=0):
        if isinstance(r, tuple) and i == 0 and r2 == 0 and ir2 == 0:
            if len(r) != 5 or not all(isinstance(x, int) for x in r) or r[4] <= 0:
                raise ValueError("raw coefficient must be five ints (a, b, c, d, den), den > 0")
            self._t = coeff_make(*r)
            return
        parts = [Fraction(x) for x in (r, i, r2, ir2)]
        self._t = _normalize_components(parts)

    @classmethod
    def _raw(cls, t):
        obj = object.__new__(cls)
        obj._t = t
        return obj

    # -- component access -------------------------------------------------

    @property
    def raw(self):
        """Packed (a, b, c, d, den) tuple used by the kernel."""
        return self._t

    @property
    def r(self) -> Fraction:
        return Fraction(self._t[0], self._t[4])

    @property
    def i(self) -> Fraction:
        return Fraction(self._t[1], self._t[4])

    @property
    def r2(self) -> Fraction:
        return Fraction(self._t[2], self._t[4])

    @property
    def ir2(self) -> Fraction:
        return Fraction(self._t[3], self._t[4])

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        a, b, c, d, _ = self._t
        return bool(a or b or c or d)

    def is_rational(self):
        _, b, c, d, _ = self._t
        return not (b or c or d)

    def is_real(self):
        _, b, _, d, _ = self._t
        return not (b or d)

    def sign_real(self):
        """Exact sign of a real element a + c*sqrt2 (raises if not real)."""
        a, b, c, d, _ = self._t
        if b or d:
            raise ValueError("sign of a non-real coefficient")
        if c == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (c > 0) - (c < 0)
        if a > 0 and c > 0:
            return 1
        if a < 0 and c < 0:
            return -1
        # opposite signs: compare a^2 with 2 c^2
        if a > 0:
            return 1 if a * a > 2 * c * c else -1
        return 1 if a * a < 2 * c * c else -1

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Coefficient):
            return other
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Coefficient._raw(coeff_make(f.numerator, 0, 0, 0, f.denominator))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Coefficient._raw(coeff_add(self._t, o._t))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Coefficient._raw(coeff_sub(self._t, o._t))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Coefficient._raw(coeff_sub(o._t, self._t))

    def __neg__(self):
        return Coefficient._raw(coeff_neg(self._t))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Coefficient._raw(coeff_mul(self._t, o._t))

    __rmul__ = __mul__

    def inverse(self):
        """Field inverse via the Galois conjugates over Q."""
        if not self:
            raise ZeroDivisionError("inverse of zero coefficient")
        a, b, c, d, den = self._t
        ci = coeff_conj(self._t)  # i -> -i
        cr = (a, b, -c, -d, den)  # sqrt2 -> -sqrt2
        cir = (a, -b, -c, d, den)
        prod = coeff_mul(coeff_mul(ci, cr), cir)
        norm = coeff_mul(self._t, prod)  # rational: field norm down to Q
        na, nb, nc, nd, nq = norm
        if nb or nc or nd:
            raise AssertionError("field norm not rational")
        pa, pb, pc, pd, pq = prod
        return Coefficient._raw(
            coeff_make(pa * nq, pb * nq, pc * nq, pd * nq, pq * na)
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        """Complex conjugation (i -> -i, sqrt2 fixed)."""
        return Coefficient._raw(coeff_conj(self._t))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __hash__(self):
        # a rational coefficient equals its int/Fraction, so it must hash like it
        a, b, c, d, den = self._t
        if b or c or d:
            return hash(self._t)
        return hash(Fraction(a, den))

    # -- conversion / rendering ---------------------------------------------

    def to_complex(self) -> complex:
        a, b, c, d, den = self._t
        return complex((a + c * _SQRT2) / den, (b + d * _SQRT2) / den)

    def __repr__(self):
        return f"Coefficient({self})"

    def __str__(self):
        a, b, c, d, den = self._t
        if not (a or b or c or d):
            return "0"
        parts = []
        for val, unit in ((a, ""), (b, "i"), (c, "sqrt2"), (d, "i*sqrt2")):
            if not val:
                continue
            frac = _rat_str(val, den)
            if unit:
                frac = f"{frac}*{unit}" if frac not in ("1", "-1") else frac.rstrip("1") + unit
            parts.append(frac)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json(self):
        a, b, c, d, den = self._t
        return {
            "r": _rat_str(a, den),
            "i": _rat_str(b, den),
            "r2": _rat_str(c, den),
            "ir2": _rat_str(d, den),
        }

    @classmethod
    def from_json(cls, obj) -> "Coefficient":
        return cls(
            parse_rational(obj.get("r", "0")),
            parse_rational(obj.get("i", "0")),
            parse_rational(obj.get("r2", "0")),
            parse_rational(obj.get("ir2", "0")),
        )


def _rat_str(num, den):
    g = gcd(num, den)
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def rational_str(f: Fraction) -> str:
    """Canonical rational rendering: reduced, sign on the numerator."""
    return _rat_str(f.numerator, f.denominator)


def parse_rational(s) -> Fraction:
    """``"-3/4"``, an int or a Fraction as a Fraction; ValueError for any other string, "1/0" included."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError("rational with a zero denominator") from None


ZERO = Coefficient._raw(COEFF_ZERO)
ONE = Coefficient._raw(COEFF_ONE)
I = Coefficient(0, 1)
SQRT2 = Coefficient(0, 0, 1)
I_SQRT2 = Coefficient(0, 0, 0, 1)
HALF = Coefficient(Fraction(1, 2))
