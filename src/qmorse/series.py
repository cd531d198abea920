"""Truncated sparse series: one term-map core, one product loop.

Every value is a map {exponent tuple: packed coefficient} over a variable
signature, truncated by a t-order cap and a weight cap (doubled weights: 1
for adag, a, x and y, 2 for hbar and z, 0 for t and n).  `_Series` holds the
map, the caps and the signature, and implements everything that does not
depend on how monomials multiply: construction, re-capping, sums, scaling,
powers, slices, shifts, derivatives, rendering and JSON.  Both value types
multiply in one loop, `_kernel.qmul_packed`, and differ only in whether
their monomials contract:

* `QSeries` is a polynomial in (adag, a, hbar, t) stored in normal order
  (every monomial has all adag powers before all a powers); multiplication
  re-orders with [a, adag] = hbar.
* `ScalarSeries` is a commutative polynomial over a per-value signature such
  as (z, hbar, t), (n, hbar, t), the plane (x, y) or a plane family
  (x, y, lambda1, lambda2, ...) with weight-0 parameters.  Its terms enter
  the loop with adag and a powers 0, so none contracts.

Arithmetic silently drops terms beyond the caps.  Weights are additive under
multiplication and conserved by re-ordering, so truncation commutes with
products: anything dropped early could never contribute below the caps
later.  Every term of a value lies within its caps, so an operation checks
only a cap that it shrinks or an exponent that it raises.  Term maps are
never changed after construction, so values may share one.

The packed form.  A `ScalarSeries` product reads each operand as a packed
operand of `_kernel.qmul_packed` (`_kernel` module docstring), and a value
keeps that form, made on first use, for the key width it was made at
(`_packed`).  Horner's ``out * value`` in `subs_series`, a transport's
``u.deriv("z") * g`` and every other product that reads one value again at
one width thus pack it once.  Since the term map never changes, the kept
form can never go stale; it is derived data only, so it takes no part in
``__eq__`` or JSON.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache

from . import _kernel
from .errors import DomainError
from .field import Coefficient, ONE, ZERO, parse_rational

def weight_cap_to_w2(weight_cap) -> int:
    """Accept a weight cap as int, Fraction, float-free str 'p/2'; return 2*W."""
    if isinstance(weight_cap, str):
        weight_cap = parse_rational(weight_cap)
    w2 = Fraction(weight_cap) * 2
    if w2.denominator != 1:
        raise ValueError("weight cap must be a half-integer")
    return int(w2)


def w2_to_str(w2: int) -> str:
    return str(w2 // 2) if w2 % 2 == 0 else f"{w2}/2"


def render_terms(terms, names) -> str:
    """Render {exponent tuple: packed coefficient} as a sum of monomials in `names`."""
    if not terms:
        return "0"
    chunks = []
    for exp in sorted(terms):
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e)
        cs = str(Coefficient._raw(terms[exp]))
        if body:
            cs = body if cs == "1" else (f"-{body}" if cs == "-1" else f"({cs})*{body}")
        chunks.append(cs)
    return " + ".join(chunks)


def _checked_caps(t_cap, w2_cap):
    if t_cap < 0 or w2_cap < 0:
        raise ValueError("caps must be non-negative")
    return t_cap, w2_cap


def _as_raw(value):
    if isinstance(value, Coefficient):
        return value.raw
    if isinstance(value, tuple):
        return value
    f = Fraction(value)
    return _kernel.coeff_make(f.numerator, 0, 0, 0, f.denominator)


class _Series:
    """Term map, caps and signature, with every operation but the product.

    The signature is ``vars`` (variable names), ``_weights`` (their doubled
    weights) and ``_ti`` (the position of t, None when there is no t).
    """

    __slots__ = ("_terms", "t_cap", "w2_cap", "vars", "_weights", "_ti", "_pack")

    def _init(self, terms, t_cap, weight_cap):
        """Validate and canonicalize `terms` once the signature is set."""
        self.t_cap, self.w2_cap = _checked_caps(int(t_cap), weight_cap_to_w2(weight_cap))
        weights, ti = self._weights, self._ti
        out = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(weights):
                raise ValueError("exponent arity does not match signature")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if sum(map(operator.mul, exp, weights)) > self.w2_cap:
                continue
            if ti is not None and exp[ti] > self.t_cap:
                continue
            _kernel.add_term(out, exp, _as_raw(coef))
        self._terms = out
        self._pack = None

    @classmethod
    def _make(cls, sig, terms, t_cap, w2_cap):
        obj = object.__new__(cls)
        obj.vars, obj._weights, obj._ti = sig
        obj._terms = terms
        obj._pack = None
        obj.t_cap = t_cap
        obj.w2_cap = w2_cap
        return obj

    def _like(self, terms, t_cap=None, w2_cap=None):
        """A value of this type and signature over `terms`, at this value's caps by default."""
        return self._make(
            (self.vars, self._weights, self._ti),
            terms,
            self.t_cap if t_cap is None else t_cap,
            self.w2_cap if w2_cap is None else w2_cap,
        )

    def _within(self, t_cap, w2_cap):
        """The term map cut to the given caps; filters only on a cap that shrinks."""
        ti = self._ti
        cut_t = ti is not None and t_cap < self.t_cap
        if w2_cap < self.w2_cap:
            weights = self._weights
            return {
                e: c
                for e, c in self._terms.items()
                if sum(map(operator.mul, e, weights)) <= w2_cap and not (cut_t and e[ti] > t_cap)
            }
        if cut_t:
            return {e: c for e, c in self._terms.items() if e[ti] <= t_cap}
        return self._terms

    def _join_caps(self, other):
        return min(self.t_cap, other.t_cap), min(self.w2_cap, other.w2_cap)

    def _check_sig(self, other):
        if self.vars != other.vars:
            raise DomainError(f"signature mismatch: {self.vars} vs {other.vars}")

    # -- inspection ----------------------------------------------------------

    @property
    def weight_cap(self) -> Fraction:
        return Fraction(self.w2_cap, 2)

    def coeff(self, exp) -> Coefficient:
        raw = self._terms.get(tuple(exp))
        return Coefficient._raw(raw) if raw else ZERO

    def items(self):
        for exp, raw in self._terms.items():
            yield exp, Coefficient._raw(raw)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def max_weight2(self):
        weights = self._weights
        return max((sum(map(operator.mul, e, weights)) for e in self._terms), default=0)

    def var_degree(self, var):
        idx = self.vars.index(var)
        return max((e[idx] for e in self._terms), default=0)

    # -- caps and sums -----------------------------------------------------------

    def with_caps(self, t_cap=None, weight_cap=None):
        """Re-cap: extending is a metadata change, shrinking truncates."""
        t_cap, w2 = _checked_caps(
            self.t_cap if t_cap is None else int(t_cap),
            self.w2_cap if weight_cap is None else weight_cap_to_w2(weight_cap),
        )
        return self._like(self._within(t_cap, w2), t_cap, w2)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_sig(other)
        t_cap, w2 = self._join_caps(other)
        out = self._within(t_cap, w2)
        if out is self._terms:
            out = dict(out)
        for e, c in other._within(t_cap, w2).items():
            _kernel.add_term(out, e, c)
        return self._like(out, t_cap, w2)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({e: _kernel.coeff_neg(c) for e, c in self._terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        raw = _as_raw(c)
        if not any(raw[:4]):
            return self.zero_like()
        return self._like({e: _kernel.coeff_mul(v, raw) for e, v in self._terms.items()})

    def __pow__(self, n):
        """``self ** n`` by binary powers; zero at once when every term of the power lies past a cap.

        Weights and t powers add under products and contractions conserve
        weight, so each term of ``self ** n`` weighs at least ``n`` times the
        lightest term of ``self``, and carries at least ``n`` times its lowest
        t power.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        if n and self._terms:
            weights, ti = self._weights, self._ti
            light = min(sum(map(operator.mul, e, weights)) for e in self._terms)
            low = 0 if ti is None else min(e[ti] for e in self._terms)
            if n * light > self.w2_cap or n * low > self.t_cap:
                return self.zero_like()
        out = self.one_like()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def one_like(self):
        return self._like({(0,) * len(self.vars): _kernel.COEFF_ONE})

    def zero_like(self):
        return self._like({})

    # -- structural maps ------------------------------------------------------------

    def var_slice(self, var, power):
        """Coefficient of var^power, same signature with that exponent zeroed."""
        idx = self.vars.index(var)
        return self._like(
            {
                exp[:idx] + (0,) + exp[idx + 1 :]: c
                for exp, c in self._terms.items()
                if exp[idx] == power
            }
        )

    def t_slices(self):
        """[X_0 .. X_t_cap] with self = sum_l t^l X_l, each X_l with its t power zeroed."""
        ti, parts = self._ti, [{} for _ in range(self.t_cap + 1)]
        for e, c in self._terms.items():
            parts[e[ti]][e[:ti] + (0,) + e[ti + 1 :]] = c
        return [self._like(p) for p in parts]

    def join_t_slices(self, slices):
        """The inverse of `t_slices`: sum_l t^l slices[l] at this value's caps (its own
        terms are not read); slices past the t cap and terms past the weight cap are dropped."""
        ti, w2 = self._ti, self.w2_cap
        return self._like(
            {
                e[:ti] + (l,) + e[ti + 1 :]: c
                for l, x in zip(range(self.t_cap + 1), slices)
                for e, c in x._within(x.t_cap, w2).items()
            }
        )

    def shift(self, **powers):
        """Multiply by the monomial prod(var**power); terms pushed past the caps are dropped."""
        delta = [0] * len(self.vars)
        for var, power in powers.items():
            delta[self.vars.index(var)] = power
        if not any(delta):
            return self
        weights, ti = self._weights, self._ti
        w2_room = self.w2_cap - sum(map(operator.mul, delta, weights))
        t_room = self.t_cap - (delta[ti] if ti is not None else 0)
        check_w2 = w2_room < self.w2_cap
        check_t = t_room < self.t_cap
        out = {}
        for e, c in self._terms.items():
            if check_t and e[ti] > t_room:
                continue
            if check_w2 and sum(map(operator.mul, e, weights)) > w2_room:
                continue
            out[tuple(map(operator.add, e, delta))] = c
        return self._like(out)

    def deriv(self, var):
        """Derivative with respect to one variable."""
        idx = self.vars.index(var)
        out = {}
        for exp, c in self._terms.items():
            e = exp[idx]
            if e:
                out[exp[:idx] + (e - 1,) + exp[idx + 1 :]] = _kernel.coeff_mul_int(c, e)
        return self._like(out)

    # -- rendering -------------------------------------------------------------------

    def __str__(self):
        return render_terms(self._terms, self.vars)

    __repr__ = __str__

    def to_json(self):
        return {
            "format": "qseries-v1",
            "vars": list(self.vars),
            "t_cap": self.t_cap,
            "weight_cap": w2_to_str(self.w2_cap),
            "terms": [
                {"exp": list(exp), "coef": Coefficient._raw(self._terms[exp]).to_json()}
                for exp in sorted(self._terms)
            ],
        }

    @staticmethod
    def _json_terms(obj):
        if obj.get("format") != "qseries-v1":
            raise ValueError("not a qseries-v1 object")
        return {
            tuple(item["exp"]): Coefficient.from_json(item["coef"])
            for item in obj.get("terms", [])
        }


_Q_SIG = (("adag", "a", "hbar", "t"), (1, 1, 2, 0), 3)


class QSeries(_Series):
    """Normal-ordered element of the truncated operator algebra."""

    __slots__ = ()

    def __init__(self, terms=None, *, t_cap, weight_cap):
        self.vars, self._weights, self._ti = _Q_SIG
        self._init(terms, t_cap, weight_cap)

    @classmethod
    def _from_raw(cls, terms, t_cap, w2_cap):
        return cls._make(_Q_SIG, terms, t_cap, w2_cap)

    def is_central(self):
        return all(m == 0 and n == 0 for (m, n, _, _) in self._terms)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            t_cap, w2 = self._join_caps(other)
            terms = _kernel.qmul(self._terms, other._terms, t_cap, w2)
            return QSeries._from_raw(terms, t_cap, w2)
        return self.scale(other)

    def div_hbar(self):
        """Exact division by hbar; every monomial must carry hbar."""
        out = {}
        for (m, n, k, l), c in self._terms.items():
            if k == 0:
                raise DomainError("series not divisible by hbar")
            out[(m, n, k - 1, l)] = c
        return self._like(out)

    @classmethod
    def from_json(cls, obj) -> "QSeries":
        if obj.get("format") == "qseries-v1" and obj.get("vars") != list(_Q_SIG[0]):
            raise ValueError("unexpected variable list for an operator series")
        return cls(cls._json_terms(obj), t_cap=obj["t_cap"], weight_cap=obj["weight_cap"])


# variable weights (doubled) for scalar signatures
_VAR_W2 = {"z": 2, "hbar": 2, "x": 1, "y": 1, "n": 0, "t": 0}

SIG_ZHT = ("z", "hbar", "t")
SIG_HT = ("hbar", "t")
SIG_NHT = ("n", "hbar", "t")
SIG_H = ("hbar",)
SIG_SYMBOL = ("x", "y", "hbar", "t")
SIG_PRINCIPAL = ("x", "y", "t")
SIG_PLANE = ("x", "y")


def _var_w2(v):
    """Doubled weight of a scalar variable; the declared parameters lambda1,
    lambda2, ... weigh 0, so no weight cap truncates them."""
    if v in _VAR_W2:
        return _VAR_W2[v]
    if isinstance(v, str) and re.fullmatch("lambda[1-9][0-9]*", v):
        return 0
    raise ValueError(f"unknown scalar variable {v!r}")


@lru_cache(maxsize=None)
def _scalar_sig(vars):
    return vars, tuple(map(_var_w2, vars)), vars.index("t") if "t" in vars else None


class ScalarSeries(_Series):
    """Commutative truncated polynomial over a fixed variable signature."""

    __slots__ = ()

    def __init__(self, terms=None, *, vars, t_cap, weight_cap):
        self.vars, self._weights, self._ti = _scalar_sig(tuple(vars))
        self._init(terms, t_cap, weight_cap)

    @classmethod
    def _from_raw(cls, terms, vars, t_cap, w2_cap):
        return cls._make(_scalar_sig(vars), terms, t_cap, w2_cap)

    def _key_width(self, other, t_cap, w2_cap):
        """Field width of the packed keys of ``self * other`` at the joined caps.

        A field of the product holds at most ``w2_cap`` for a variable of
        positive weight and ``t_cap`` for t; only a variable of weight 0
        other than t (n, lambda_j) is bounded by the operands' largest
        exponents, so over a signature without one the width is the caps'.
        """
        top = max(w2_cap, t_cap)
        ti = self._ti
        free = [i for i, wt in enumerate(self._weights) if not wt and i != ti]
        if free:
            top = max(top, sum(max((e[i] for e in s._terms for i in free), default=0) for s in (self, other)))
        return _kernel.key_width(top)

    def _packed(self, S):
        """``(den, {component: [(key, w2, l, 0, 0, numerator)]})``, an operand of `_kernel.qmul_packed`.

        The term map over the lcm ``den`` of its denominators, split by
        component (`_kernel.split`), each exponent packed in fields of ``S``
        bits (`_kernel.pack`) with its doubled weight and t power (0 without
        t, which no t cap drops), each part sorted by t power.  The adag and
        a powers are ``m = n = 0``, so the loop never contracts a scalar
        term.  The form of the last width asked is kept, so an operand that
        several products read at one width, such as the value of a Horner
        loop, is packed once.
        """
        cached = self._pack
        if cached is not None and cached[0] == S:
            return cached[1]
        weights, ti = self._weights, self._ti
        den = _kernel.common_denominator(self._terms)
        parts = {
            x: sorted(
                [
                    (_kernel.pack(e, S), sum(map(operator.mul, e, weights)), 0 if ti is None else e[ti], 0, 0, v)
                    for e, v in p.items()
                ],
                key=_kernel.t_power,
            )
            for x, p in _kernel.split(self._terms, den).items()
        }
        self._pack = S, (den, parts)
        return den, parts

    def __mul__(self, other):
        if isinstance(other, ScalarSeries):
            self._check_sig(other)
            t_cap, w2 = self._join_caps(other)
            S = self._key_width(other, t_cap, w2)
            out, den = _kernel.qmul_packed([(self._packed(S), other._packed(S))], t_cap, w2, S)
            return self._like(_kernel.unpacked(_kernel.joined(out, den), len(self.vars), S), t_cap, w2)
        return self.scale(other)

    def subs_series(self, var, value):
        """Substitute a same-signature series for one variable (Horner)."""
        self._check_sig(value)
        out = self.zero_like()
        for power in range(self.var_degree(var), -1, -1):
            out = out * value + self.var_slice(var, power)
        return out

    def lift(self, vars_to):
        """Embed into a wider signature (new variables get exponent 0)."""
        vars_to = tuple(vars_to)
        positions = []
        for v in self.vars:
            if v not in vars_to:
                if any(e[self.vars.index(v)] for e in self._terms):
                    raise ValueError(f"cannot drop live variable {v!r}")
                positions.append(None)
            else:
                positions.append(vars_to.index(v))
        out = {}
        for exp, c in self._terms.items():
            new = [0] * len(vars_to)
            for pos, e in zip(positions, exp):
                if pos is not None:
                    new[pos] = e
            out[tuple(new)] = c
        return ScalarSeries._from_raw(out, vars_to, self.t_cap, self.w2_cap)

    def eval_var(self, var, value: Coefficient):
        """Substitute an exact scalar for one variable (signature keeps the slot)."""
        idx = self.vars.index(var)
        degree = self.var_degree(var)
        powers = [ONE]
        for _ in range(degree):
            powers.append(powers[-1] * value)
        out = {}
        for exp, c in self._terms.items():
            new = exp[:idx] + (0,) + exp[idx + 1 :]
            _kernel.add_term(out, new, _kernel.coeff_mul(c, powers[exp[idx]].raw))
        return self._like(out)

    @classmethod
    def from_json(cls, obj) -> "ScalarSeries":
        return cls(
            cls._json_terms(obj), vars=obj["vars"], t_cap=obj["t_cap"], weight_cap=obj["weight_cap"]
        )


def series_from_json(obj):
    """Dispatch a qseries-v1 JSON object to QSeries or ScalarSeries."""
    if obj.get("vars") == list(_Q_SIG[0]):
        return QSeries.from_json(obj)
    return ScalarSeries.from_json(obj)


# -- generator constructors ------------------------------------------------------


def zero(t_cap, weight_cap):
    return QSeries({}, t_cap=t_cap, weight_cap=weight_cap)


def const(c, t_cap, weight_cap):
    return QSeries({(0, 0, 0, 0): c}, t_cap=t_cap, weight_cap=weight_cap)


def one(t_cap, weight_cap):
    return const(1, t_cap, weight_cap)


def adag(t_cap, weight_cap):
    return QSeries({(1, 0, 0, 0): 1}, t_cap=t_cap, weight_cap=weight_cap)


def a_op(t_cap, weight_cap):
    return QSeries({(0, 1, 0, 0): 1}, t_cap=t_cap, weight_cap=weight_cap)


def hbar_op(t_cap, weight_cap):
    return QSeries({(0, 0, 1, 0): 1}, t_cap=t_cap, weight_cap=weight_cap)


def t_op(t_cap, weight_cap):
    return QSeries({(0, 0, 0, 1): 1}, t_cap=t_cap, weight_cap=weight_cap)


def q_op(t_cap, weight_cap):
    """q = (adag - a) / (sqrt2 i)."""
    c = Coefficient(0, 0, 0, Fraction(-1, 2))  # 1/(sqrt2 i) = -i/sqrt2 = -i*sqrt2/2
    return QSeries(
        {(1, 0, 0, 0): c, (0, 1, 0, 0): -c}, t_cap=t_cap, weight_cap=weight_cap
    )


def p_op(t_cap, weight_cap):
    """p = (adag + a) / sqrt2."""
    c = Coefficient(0, 0, Fraction(1, 2), 0)  # 1/sqrt2 = sqrt2/2
    return QSeries(
        {(1, 0, 0, 0): c, (0, 1, 0, 0): c}, t_cap=t_cap, weight_cap=weight_cap
    )


def harmonic(t_cap, weight_cap):
    """f0 = p^2 + q^2 = 2 adag a + hbar."""
    return QSeries(
        {(1, 1, 0, 0): 2, (0, 0, 1, 0): 1}, t_cap=t_cap, weight_cap=weight_cap
    )


def scalar_var(name, vars, t_cap, weight_cap):
    exp = tuple(1 if v == name else 0 for v in vars)
    return ScalarSeries({exp: 1}, vars=vars, t_cap=t_cap, weight_cap=weight_cap)
