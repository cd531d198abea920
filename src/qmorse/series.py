"""Truncated sparse series: the normal-ordered algebra and its scalar companions.

`QSeries` is a polynomial in (adag, a, hbar, t) stored in normal order (every
monomial has all adag powers before all a powers); multiplication re-orders
with [a, adag] = hbar.  `ScalarSeries` is a commutative polynomial over a fixed
variable signature such as (z, hbar, t), (n, hbar, t) or the plane (x, y).

Both types are truncated: a t-order cap and a weight cap (weight 1/2 for each
adag/a, 1 for hbar, 0 for t) are part of every value, and arithmetic silently
drops terms beyond the caps.  Weights are additive under multiplication and
conserved by re-ordering, so truncation commutes with products: anything
dropped early could never contribute below the caps later.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction

from . import _kernel
from .errors import DomainError, ResourceError
from .field import Coefficient, ONE, ZERO, parse_rational

DEFAULT_GUARD = 10**6


def term_guard():
    """Accumulator size limit; override with QMORSE_TERM_GUARD."""
    value = os.environ.get("QMORSE_TERM_GUARD")
    return int(value) if value else DEFAULT_GUARD


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


def _as_raw(value):
    if isinstance(value, Coefficient):
        return value.raw
    if isinstance(value, tuple):
        return value
    f = Fraction(value)
    return _kernel.coeff_make(f.numerator, 0, 0, 0, f.denominator)


class QSeries:
    """Normal-ordered element of the truncated operator algebra."""

    __slots__ = ("_terms", "t_cap", "w2_cap")

    def __init__(self, terms=None, *, t_cap, weight_cap):
        self.t_cap = int(t_cap)
        self.w2_cap = weight_cap_to_w2(weight_cap)
        if self.t_cap < 0 or self.w2_cap < 0:
            raise ValueError("caps must be non-negative")
        self._terms = {}
        if terms:
            for exp, coef in terms.items():
                m, n, k, l = exp
                if m < 0 or n < 0 or k < 0 or l < 0:
                    raise ValueError(f"negative exponent in {exp}")
                if l > self.t_cap or m + n + 2 * k > self.w2_cap:
                    continue
                raw = _as_raw(coef)
                if raw[0] or raw[1] or raw[2] or raw[3]:
                    acc = self._terms.get(exp)
                    self._terms[exp] = raw if acc is None else _kernel.coeff_add(acc, raw)
            self._terms = {e: c for e, c in self._terms.items() if any(c[:4])}

    @classmethod
    def _from_raw(cls, terms, t_cap, w2_cap):
        obj = object.__new__(cls)
        obj._terms = terms
        obj.t_cap = t_cap
        obj.w2_cap = w2_cap
        return obj

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
        if isinstance(other, QSeries):
            return self._terms == other._terms
        return NotImplemented

    def is_central(self):
        return all(m == 0 and n == 0 for (m, n, _, _) in self._terms)

    def t_degree(self):
        return max((l for (_, _, _, l) in self._terms), default=0)

    def max_weight2(self):
        return max((m + n + 2 * k for (m, n, k, _) in self._terms), default=0)

    def min_hbar(self):
        return min((k for (_, _, k, _) in self._terms), default=0)

    # -- cap plumbing ----------------------------------------------------------

    def with_caps(self, t_cap=None, weight_cap=None):
        """Re-cap: extending is a metadata change, shrinking truncates."""
        t_cap = self.t_cap if t_cap is None else int(t_cap)
        w2 = self.w2_cap if weight_cap is None else weight_cap_to_w2(weight_cap)
        terms = {
            e: c
            for e, c in self._terms.items()
            if e[3] <= t_cap and e[0] + e[1] + 2 * e[2] <= w2
        }
        return QSeries._from_raw(terms, t_cap, w2)

    def _join_caps(self, other):
        return min(self.t_cap, other.t_cap), min(self.w2_cap, other.w2_cap)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        t_cap, w2 = self._join_caps(other)
        out = {
            e: c
            for e, c in self._terms.items()
            if e[3] <= t_cap and e[0] + e[1] + 2 * e[2] <= w2
        }
        for e, c in other._terms.items():
            if e[3] > t_cap or e[0] + e[1] + 2 * e[2] > w2:
                continue
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = _kernel.coeff_add(acc, c)
                if any(s[:4]):
                    out[e] = s
                else:
                    del out[e]
        return QSeries._from_raw(out, t_cap, w2)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QSeries._from_raw(
            {e: _kernel.coeff_neg(c) for e, c in self._terms.items()},
            self.t_cap,
            self.w2_cap,
        )

    def __mul__(self, other):
        if isinstance(other, QSeries):
            t_cap, w2 = self._join_caps(other)
            try:
                terms = _kernel.qmul(self._terms, other._terms, t_cap, w2, term_guard())
            except MemoryError as exc:
                raise ResourceError(str(exc)) from None
            return QSeries._from_raw(terms, t_cap, w2)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        raw = _as_raw(c)
        if not any(raw[:4]):
            return QSeries._from_raw({}, self.t_cap, self.w2_cap)
        out = {e: _kernel.coeff_mul(v, raw) for e, v in self._terms.items()}
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        out = QSeries({(0, 0, 0, 0): ONE}, t_cap=self.t_cap, weight_cap=self.weight_cap)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structural maps ------------------------------------------------------------

    def map_coeff(self, fn):
        out = {}
        for e, c in self._terms.items():
            v = fn(c)
            if any(v[:4]):
                out[e] = v
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    def t_slice(self, l):
        """Coefficient of t^l as a t-free QSeries."""
        out = {
            (m, n, k, 0): c for (m, n, k, tl), c in self._terms.items() if tl == l
        }
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    def shift(self, hbar=0, t=0):
        """Multiply by the monomial hbar**hbar * t**t; terms pushed past the caps are dropped."""
        out = {}
        for (m, n, k, l), c in self._terms.items():
            if l + t <= self.t_cap and m + n + 2 * (k + hbar) <= self.w2_cap:
                out[(m, n, k + hbar, l + t)] = c
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    def dt(self):
        """Derivative with respect to the central deformation variable t."""
        out = {}
        for (m, n, k, l), c in self._terms.items():
            if l:
                out[(m, n, k, l - 1)] = _kernel.coeff_mul_int(c, l)
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    def div_hbar(self):
        """Exact division by hbar; every monomial must carry hbar."""
        out = {}
        for (m, n, k, l), c in self._terms.items():
            if k == 0:
                raise DomainError("series not divisible by hbar")
            out[(m, n, k - 1, l)] = c
        return QSeries._from_raw(out, self.t_cap, self.w2_cap)

    # -- rendering -------------------------------------------------------------------

    def __str__(self):
        return render_terms(self._terms, ("adag", "a", "hbar", "t"))

    __repr__ = __str__

    def to_json(self):
        return {
            "format": "qseries-v1",
            "vars": ["adag", "a", "hbar", "t"],
            "t_cap": self.t_cap,
            "weight_cap": w2_to_str(self.w2_cap),
            "terms": [
                {"exp": list(exp), "coef": Coefficient._raw(self._terms[exp]).to_json()}
                for exp in sorted(self._terms)
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "QSeries":
        if obj.get("format") != "qseries-v1":
            raise ValueError("not a qseries-v1 object")
        if obj.get("vars") != ["adag", "a", "hbar", "t"]:
            raise ValueError("unexpected variable list for an operator series")
        terms = {
            tuple(item["exp"]): Coefficient.from_json(item["coef"])
            for item in obj.get("terms", [])
        }
        return cls(terms, t_cap=obj["t_cap"], weight_cap=obj["weight_cap"])


# variable weights (doubled) for scalar signatures
_VAR_W2 = {"z": 2, "hbar": 2, "x": 1, "y": 1, "n": 0, "t": 0}

SIG_ZHT = ("z", "hbar", "t")
SIG_HT = ("hbar", "t")
SIG_NHT = ("n", "hbar", "t")
SIG_H = ("hbar",)
SIG_SYMBOL = ("x", "y", "hbar", "t")
SIG_PRINCIPAL = ("x", "y", "t")
SIG_PLANE = ("x", "y")


class ScalarSeries:
    """Commutative truncated polynomial over a fixed variable signature."""

    __slots__ = ("_terms", "vars", "t_cap", "w2_cap", "_weights")

    def __init__(self, terms=None, *, vars, t_cap, weight_cap):
        self.vars = tuple(vars)
        for v in self.vars:
            if v not in _VAR_W2:
                raise ValueError(f"unknown scalar variable {v!r}")
        self._weights = tuple(_VAR_W2[v] for v in self.vars)
        self.t_cap = int(t_cap)
        self.w2_cap = weight_cap_to_w2(weight_cap)
        self._terms = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(exp)
                if len(exp) != len(self.vars):
                    raise ValueError("exponent arity does not match signature")
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                if self._over_cap(exp):
                    continue
                raw = _as_raw(coef)
                if any(raw[:4]):
                    acc = self._terms.get(exp)
                    self._terms[exp] = raw if acc is None else _kernel.coeff_add(acc, raw)
            self._terms = {e: c for e, c in self._terms.items() if any(c[:4])}

    @classmethod
    def _from_raw(cls, terms, vars, t_cap, w2_cap):
        obj = object.__new__(cls)
        obj.vars = vars
        obj._weights = tuple(_VAR_W2[v] for v in vars)
        obj._terms = terms
        obj.t_cap = t_cap
        obj.w2_cap = w2_cap
        return obj

    def _t_index(self):
        return self.vars.index("t") if "t" in self.vars else None

    def _weighted_terms(self, nums):
        """Yield (exponent, numerators, doubled weight, t power) for every term.

        ``nums`` yields ``(exponent, numerators)`` pairs of this series over a
        common denominator (`_kernel.numerators`).  A signature without t
        reports t power 0, which no t cap drops.
        """
        weights = self._weights
        ti = self._t_index()
        for e, x in nums:
            yield e, x, sum(map(operator.mul, e, weights)), 0 if ti is None else e[ti]

    def _over_cap(self, exp):
        w2 = sum(e * w for e, w in zip(exp, self._weights))
        if w2 > self.w2_cap:
            return True
        ti = self._t_index()
        return ti is not None and exp[ti] > self.t_cap

    # -- inspection ---------------------------------------------------------------

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
        if isinstance(other, ScalarSeries):
            return self.vars == other.vars and self._terms == other._terms
        return NotImplemented

    def max_weight2(self):
        return max(
            (sum(e * w for e, w in zip(exp, self._weights)) for exp in self._terms),
            default=0,
        )

    def _check_sig(self, other):
        if self.vars != other.vars:
            raise DomainError(
                f"signature mismatch: {self.vars} vs {other.vars}"
            )

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        self._check_sig(other)
        t_cap = min(self.t_cap, other.t_cap)
        w2 = min(self.w2_cap, other.w2_cap)
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = _kernel.coeff_add(acc, c)
                if any(s[:4]):
                    out[e] = s
                else:
                    del out[e]
        result = ScalarSeries._from_raw(out, self.vars, t_cap, w2)
        return result._truncated()

    def _truncated(self):
        keep = {e: c for e, c in self._terms.items() if not self._over_cap(e)}
        if len(keep) == len(self._terms):
            self._terms = keep
            return self
        return ScalarSeries._from_raw(keep, self.vars, self.t_cap, self.w2_cap)

    def __sub__(self, other):
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ScalarSeries._from_raw(
            {e: _kernel.coeff_neg(c) for e, c in self._terms.items()},
            self.vars,
            self.t_cap,
            self.w2_cap,
        )

    def __mul__(self, other):
        if isinstance(other, ScalarSeries):
            self._check_sig(other)
            t_cap = min(self.t_cap, other.t_cap)
            w2 = min(self.w2_cap, other.w2_cap)
            guard = term_guard()
            den_l = _kernel.common_denominator(self._terms)
            den_r = _kernel.common_denominator(other._terms)
            right = list(other._weighted_terms(_kernel.numerators(other._terms, den_r)))
            out = {}
            get = out.get
            for e1, (xa, xb, xc, xd), a1, t1 in self._weighted_terms(
                _kernel.numerators(self._terms, den_l)
            ):
                for e2, (ya, yb, yc, yd), a2, t2 in right:
                    if a1 + a2 > w2 or t1 + t2 > t_cap:
                        continue
                    exp = tuple(map(operator.add, e1, e2))
                    ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
                    cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
                    cc = xa * yc + xc * ya - xb * yd - xd * yb
                    cd = xa * yd + xd * ya + xb * yc + xc * yb
                    acc = get(exp)
                    if acc is None:
                        out[exp] = (ca, cb, cc, cd)
                    else:
                        out[exp] = (acc[0] + ca, acc[1] + cb, acc[2] + cc, acc[3] + cd)
                if len(out) > guard:
                    raise ResourceError("term-count guard exceeded")
            out = _kernel.reduced_over(out, den_l * den_r)
            return ScalarSeries._from_raw(out, self.vars, t_cap, w2)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        raw = _as_raw(c)
        if not any(raw[:4]):
            return ScalarSeries._from_raw({}, self.vars, self.t_cap, self.w2_cap)
        out = {e: _kernel.coeff_mul(v, raw) for e, v in self._terms.items()}
        return ScalarSeries._from_raw(out, self.vars, self.t_cap, self.w2_cap)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be non-negative integers")
        out = self.one_like()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def one_like(self):
        exp = (0,) * len(self.vars)
        return ScalarSeries._from_raw(
            {exp: _kernel.COEFF_ONE}, self.vars, self.t_cap, self.w2_cap
        )

    def zero_like(self):
        return ScalarSeries._from_raw({}, self.vars, self.t_cap, self.w2_cap)

    # -- calculus / substitution ----------------------------------------------------

    def map_coeff(self, fn):
        out = {}
        for e, c in self._terms.items():
            v = fn(c)
            if any(v[:4]):
                out[e] = v
        return ScalarSeries._from_raw(out, self.vars, self.t_cap, self.w2_cap)

    def deriv(self, var):
        idx = self.vars.index(var)
        out = {}
        for exp, c in self._terms.items():
            e = exp[idx]
            if e:
                new = exp[:idx] + (e - 1,) + exp[idx + 1 :]
                out[new] = _kernel.coeff_mul_int(c, e)
        return ScalarSeries._from_raw(out, self.vars, self.t_cap, self.w2_cap)

    def with_caps(self, t_cap=None, weight_cap=None):
        """Re-cap: extending is a metadata change, shrinking truncates."""
        t_cap = self.t_cap if t_cap is None else int(t_cap)
        w2 = self.w2_cap if weight_cap is None else weight_cap_to_w2(weight_cap)
        out = ScalarSeries._from_raw({}, self.vars, t_cap, w2)
        out._terms = {e: c for e, c in self._terms.items() if not out._over_cap(e)}
        return out

    def mul_var_power(self, var, power):
        """Multiply by var**power (terms pushed past the caps are dropped)."""
        if power == 0:
            return self
        idx = self.vars.index(var)
        out = ScalarSeries._from_raw({}, self.vars, self.t_cap, self.w2_cap)
        terms = {}
        for exp, c in self._terms.items():
            new = exp[:idx] + (exp[idx] + power,) + exp[idx + 1 :]
            if not out._over_cap(new):
                terms[new] = c
        out._terms = terms
        return out

    def var_slice(self, var, power):
        """Coefficient of var^power, same signature with that exponent zeroed."""
        idx = self.vars.index(var)
        out = {}
        for exp, c in self._terms.items():
            if exp[idx] == power:
                out[exp[:idx] + (0,) + exp[idx + 1 :]] = c
        return ScalarSeries._from_raw(out, self.vars, self.t_cap, self.w2_cap)

    def var_degree(self, var):
        idx = self.vars.index(var)
        return max((e[idx] for e in self._terms), default=0)

    def subs_series(self, var, value):
        """Substitute a same-signature series for one variable (Horner)."""
        self._check_sig(value)
        idx = self.vars.index(var)
        degree = self.var_degree(var)
        out = self.zero_like()
        for power in range(degree, -1, -1):
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
            v = _kernel.coeff_mul(c, powers[exp[idx]].raw)
            acc = out.get(new)
            s = v if acc is None else _kernel.coeff_add(acc, v)
            if any(s[:4]):
                out[new] = s
            elif acc is not None:
                del out[new]
        return ScalarSeries._from_raw(out, self.vars, self.t_cap, self.w2_cap)

    # -- rendering --------------------------------------------------------------------

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

    @classmethod
    def from_json(cls, obj) -> "ScalarSeries":
        if obj.get("format") != "qseries-v1":
            raise ValueError("not a qseries-v1 object")
        terms = {
            tuple(item["exp"]): Coefficient.from_json(item["coef"])
            for item in obj.get("terms", [])
        }
        return cls(
            terms,
            vars=tuple(obj["vars"]),
            t_cap=obj["t_cap"],
            weight_cap=obj["weight_cap"],
        )


def series_from_json(obj):
    """Dispatch a qseries-v1 JSON object to QSeries or ScalarSeries."""
    if obj.get("vars") == ["adag", "a", "hbar", "t"]:
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

