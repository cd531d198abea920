"""Named operations of the normal-ordered algebra.

Products, commutators, Weyl symbols (`weyl_symbol` and `from_weyl`, one
closed form per term) and the maps that go through them: the p/q ordered
views (`to_ordered`, `from_ordered`) and linear symplectic changes of
coordinates (`linear_symplectic`), each one linear change of the symbol's
variables (`_linear_change`), the views with one more closed-form pass
(`_i_reordered`).  Also symbols, Borel transform, hermitian conjugation, the
restriction-to-zero map pi, the pairing P(f, g) = pi(dagger(f) g), and
composition of a scalar germ with an operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _kernel
from .errors import DomainError
from .field import Coefficient, ONE
from .series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_PRINCIPAL,
    SIG_SYMBOL,
    pair_caps,
    product_sum,
    render_terms,
    weight_cap_to_w2,
)

NEG_I = Coefficient(0, -1)


def commutator(f: QSeries, g: QSeries) -> QSeries:
    """[f, g] = -i hbar (i/hbar)[f, g]; keeps the terms of weight within the smaller cap."""
    return bracket_i_hbar(f, g).shift(hbar=1).scale(NEG_I)


def bracket_i_hbar(f: QSeries, g: QSeries) -> QSeries:
    """(i/hbar)[f, g]; the hbar division is exact in normal order.

    One `_kernel.qbracket` pass over the term pairs.  A pair with weights w1,
    w2 contributes only at weight w1 + w2 - 2 (one contraction, divided by
    hbar), and those terms are kept when that weight is within the smaller
    of the two weight caps and the t power within the smaller t cap, so every
    kept term is exact without widening either operand.
    """
    return bracket_sum([(f, g)])


def bracket_sum(pairs, div=1, table=_kernel.NORMAL_ORDER) -> QSeries:
    """(1/div) sum (i/hbar)[f, g] over a non-empty list of QSeries pairs (f, g).

    One `_kernel.qbracket` call sums every pair in one accumulator and reduces
    each output term once, at the caps and key width of `series.pair_caps`
    (the smallest caps of all the operands), as `series.product_sum` does.
    ``table`` is the kernel's factor table: `_kernel.NORMAL_ORDER` for
    normal-ordered operands, `_kernel.MOYAL` for Weyl symbols (`weyl_symbol`).
    Each operand is read in its kept packed form (`_packed`) at that width,
    with its kept hermitian sign (`_hermitian`), so a value is scanned once
    however many brackets read it; the sign product of the kernel's
    hermitian half skips empty operands.
    """
    t_cap, w2, S = pair_caps(pairs)
    signs = {f._hermitian() * g._hermitian() for f, g in pairs if f and g}
    s = signs.pop() if len(signs) == 1 else 0
    terms = _kernel.qbracket([(f._packed(S), g._packed(S)) for f, g in pairs], table, s, S, t_cap, w2, div)
    return QSeries._from_raw(terms, t_cap, w2)


def _reordered(f: QSeries, sign: int) -> QSeries:
    """exp(sign (hbar/2) d_1 d_2) of the symbol f in closed form: sum_j j!
    C(m,j) C(n,j) (sign hbar/2)^j v1^(m-j) v2^(n-j) for each term c v1^m v2^n
    of f, over one common denominator, each output term reduced once.

    `weyl_symbol` and `from_weyl` run it on (zbar, z), and the ordered views
    on (q, p) with hbar -> i hbar (`_i_reordered`)."""
    terms = f._terms
    den = _kernel.common_denominator(terms)
    top = max((min(m, n) for m, n, _, _ in terms), default=0)
    out = {}
    for x, p in _kernel.split(terms, den).items():
        acc = out[x] = {}
        for (m, n, k, l), v in p.items():
            acc[m, n, k, l] = acc.get((m, n, k, l), 0) + (v << top)
            if m and n:
                for j, e in enumerate(_kernel.contraction_row(m, n + 1)[n], 1):
                    e = e << top - j if sign > 0 or j % 2 == 0 else -e << top - j
                    key = (m - j, n - j, k + j, l)
                    acc[key] = acc.get(key, 0) + v * e
    return QSeries._from_raw(_kernel.joined(out, den << top), f.t_cap, f.w2_cap)


def weyl_symbol(f: QSeries) -> QSeries:
    """The Weyl symbol of f, with the same (m, n, k, l) keys, zbar standing for adag.

    sigma(adag^m a^n) = sum_j j! C(m,j) C(n,j) (-hbar/2)^j zbar^(m-j) z^(n-j),
    exp(-(hbar/2) d_zbar d_z) of the normal symbol, in closed form per term.
    Each term keeps its weight m + n + 2k and its t power, so the caps stay.
    f0 = 2 adag a + hbar has the symbol 2 zbar z.  A value made by `from_weyl`
    keeps the symbol it came from, which is returned as it is.
    """
    return f._weyl if f._weyl is not None else _reordered(f, -1)


def from_weyl(w: QSeries) -> QSeries:
    """The normal-ordered operator of the Weyl symbol w: `weyl_symbol` with
    the sign of hbar/2 flipped.  The result keeps w as its symbol."""
    out = _reordered(w, 1)
    out._weyl = w
    return out


def dagger(f: QSeries) -> QSeries:
    """Hermitian conjugation: swap adag/a powers, conjugate coefficients."""
    out = {(n, m, k, l): _kernel.coeff_conj(c) for (m, n, k, l), c in f._terms.items()}
    return QSeries._from_raw(out, f.t_cap, f.w2_cap)


def pi_restriction(f: QSeries) -> ScalarSeries:
    """Keep the adag/a-free part as a series in (hbar, t)."""
    terms = {
        (k, l): c for (m, n, k, l), c in f._terms.items() if m == 0 and n == 0
    }
    return ScalarSeries._from_raw(terms, SIG_HT, f.t_cap, f.w2_cap)


def pairing(f: QSeries, g: QSeries) -> ScalarSeries:
    """P(f, g) = pi(dagger(f) g), computed with enough weight headroom."""
    w2 = f.max_weight2() + g.max_weight2()
    t_cap = min(f.t_cap, g.t_cap)
    fx = f.with_caps(t_cap, Fraction(w2, 2))
    gx = g.with_caps(t_cap, Fraction(w2, 2))
    return pi_restriction(dagger(fx) * gx)


def tau(alpha: ScalarSeries) -> ScalarSeries:
    """Coefficient-wise complex conjugation (i -> -i, sqrt2 fixed)."""
    out = {e: _kernel.coeff_conj(c) for e, c in alpha._terms.items()}
    return ScalarSeries._from_raw(out, alpha.vars, alpha.t_cap, alpha.w2_cap)


def total_symbol(f: QSeries) -> ScalarSeries:
    """Replace adag, a by commuting x, y (exponent-preserving)."""
    return ScalarSeries._from_raw(
        dict(f._terms), SIG_SYMBOL, f.t_cap, f.w2_cap
    )


def principal_symbol(f: QSeries) -> ScalarSeries:
    """Total symbol restricted to hbar = 0, over (x, y, t)."""
    terms = {
        (m, n, l): c for (m, n, k, l), c in f._terms.items() if k == 0
    }
    return ScalarSeries._from_raw(terms, SIG_PRINCIPAL, f.t_cap, f.w2_cap)


def _hbar_index(s) -> int:
    if "hbar" not in s.vars:
        raise DomainError("series has no hbar variable")
    return s.vars.index("hbar")


def borel(f):
    """Divide the coefficient of hbar^k by k! (QSeries or ScalarSeries)."""
    idx = _hbar_index(f)
    return f._like({e: _kernel.coeff_mul(c, _inv_fact(e[idx])) for e, c in f._terms.items()})


def borel_inverse(f):
    """Multiply the coefficient of hbar^k by k!."""
    idx = _hbar_index(f)
    return f._like({e: _kernel.coeff_mul_int(c, factorial(e[idx])) for e, c in f._terms.items()})


def hbar_convolve(u: ScalarSeries, v: ScalarSeries) -> ScalarSeries:
    """Product on the Borel side: B(uv) = B(u) * B(v) for this convolution."""
    return borel(borel_inverse(u) * borel_inverse(v))


def _inv_fact(k):
    f = factorial(k)
    return _kernel.coeff_make(1, 0, 0, 0, f)


def scalar_to_qseries(s: ScalarSeries, t_cap, w2_cap) -> QSeries:
    """Embed a central scalar series (variables within {z?, hbar, t}, z dead)."""
    ih = s.vars.index("hbar") if "hbar" in s.vars else None
    it = s.vars.index("t") if "t" in s.vars else None
    out = {}
    for e, c in s._terms.items():
        for pos, exp in enumerate(e):
            if exp and pos not in (ih, it):
                raise ValueError(f"variable {s.vars[pos]!r} is not central")
        k = e[ih] if ih is not None else 0
        l = e[it] if it is not None else 0
        if l <= t_cap and 2 * k <= w2_cap:
            out[(0, 0, k, l)] = c
    return QSeries._from_raw(out, t_cap, w2_cap)


def compose_scalar(u: ScalarSeries, f: QSeries) -> QSeries:
    """u o f = sum_j u_j f^j for a scalar germ u(z, hbar, t).

    Requires every monomial of f to carry weight >= 1/2 or a positive
    t power, so each output coefficient is a finite sum.

    Horner's rule forms no power of f.  The solve instead builds each fn^j
    once, packed, and reads its t-slices over its N steps
    (`normal_form._homological_solve`); verify() composes once, and its
    running sum collapses to f0 while the powers stay dense, so Horner is
    faster there, even against packed powers (each one `_kernel.qmul_packed`
    call, then one call for the sum): 0.007 s against 0.014 s (t q^4, N=10)
    and 0.006 s against 0.011 s (t q^6, N=6), CPU seconds, best of 7, on a
    2-vCPU host.
    """
    if "z" not in u.vars:
        raise DomainError("composition germ must be a series in z")
    if (0, 0, 0, 0) in f._terms:
        raise DomainError("composition not t-adically/weight-adically finite")
    t_cap = min(u.t_cap, f.t_cap)
    w2 = min(u.w2_cap, f.w2_cap)
    out = QSeries._from_raw({}, t_cap, w2)
    for j in range(u.var_degree("z"), -1, -1):
        aj = u.var_slice("z", j)
        out = out * f + scalar_to_qseries(aj, t_cap, w2)
    return out


# -- changes of ordering and of linear coordinates, through the Weyl symbol ------

# Linear forms (c1, c2) = c1 v1 + c2 v2 in raw coefficients, from
# zbar, z = (p +- i q)/sqrt2: zbar and z in (q, p), q and p in (zbar, z).
ZBAR_QP = ((0, 0, 0, 1, 2), (0, 0, 1, 0, 2))   # (i/sqrt2) q + (1/sqrt2) p
Z_QP = ((0, 0, 0, -1, 2), (0, 0, 1, 0, 2))     # -(i/sqrt2) q + (1/sqrt2) p
Q_ZZ = ((0, 0, 0, -1, 2), (0, 0, 0, 1, 2))     # -(i/sqrt2) zbar + (i/sqrt2) z
P_ZZ = ((0, 0, 1, 0, 2), (0, 0, 1, 0, 2))      # (1/sqrt2) zbar + (1/sqrt2) z


def _linear_change(s: QSeries, x, y) -> QSeries:
    """The commutative symbol s with its variables v1, v2 replaced by the
    linear forms x, y (`ZBAR_QP`), at the caps of s.

    sum C_mn X^m Y^n over the (m, n) of s, C_mn(hbar, t) the coefficient of
    v1^m v2^n: each image X^m Y^n is formed once, for every hbar and t power,
    and the sum is one `series.product_sum` over the pairs (C_mn, X^m Y^n).
    A linear change keeps each term's degree, so no cap cuts a term.
    """
    caps = dict(vars=SIG_SYMBOL, t_cap=s.t_cap, weight_cap=Fraction(s.w2_cap, 2))
    x_img = ScalarSeries({(1, 0, 0, 0): x[0], (0, 1, 0, 0): x[1]}, **caps)
    y_img = ScalarSeries({(1, 0, 0, 0): y[0], (0, 1, 0, 0): y[1]}, **caps)
    central = {}
    for (m, n, k, l), c in s._terms.items():
        central.setdefault((m, n), {})[0, 0, k, l] = c
    x_pows, y_pows = [x_img.one_like()], [y_img.one_like()]
    pairs = []
    for (m, n), c in central.items():
        while len(x_pows) <= m:
            x_pows.append(x_pows[-1] * x_img)
        while len(y_pows) <= n:
            y_pows.append(y_pows[-1] * y_img)
        pairs.append((x_img._like(c), x_pows[m] * y_pows[n]))
    out = product_sum(pairs)._terms if pairs else {}
    return QSeries._from_raw(out, s.t_cap, s.w2_cap)


def _composed(form, x, y):
    """The linear form form[0] X + form[1] Y, X and Y the linear forms x, y."""
    a, b = form
    return tuple(_kernel.coeff_add(_kernel.coeff_mul(a, u), _kernel.coeff_mul(b, v)) for u, v in zip(x, y))


@dataclass
class OrderedPQ:
    """Secondary view of a QSeries in an ordered q/p basis.

    ``order`` is "qp" (exponents mean q^e1 p^e2) or "pq" (p^e1 q^e2); keys are
    (e1, e2, hbar, t).  Storage stays normal-ordered; this view exists for the
    differential calculus and for display.
    """

    order: str
    terms: dict
    t_cap: int
    w2_cap: int

    def coeff(self, exp) -> Coefficient:
        raw = self.terms.get(tuple(exp))
        return Coefficient._raw(raw) if raw else Coefficient(0)

    def __str__(self):
        names = ("q", "p") if self.order == "qp" else ("p", "q")
        return render_terms(self.terms, names + ("hbar", "t"))


def _frame(order: str):
    """(s, zbar and z in the view's variables, the view's variables in (zbar,
    z)) for an ordered view, s the sign of exp(s (i hbar/2) d_q d_p), which
    takes the Weyl symbol to the ``order`` symbol."""
    if order == "qp":
        return -1, (ZBAR_QP, Z_QP), (Q_ZZ, P_ZZ)
    if order == "pq":
        return 1, (ZBAR_QP[::-1], Z_QP[::-1]), (P_ZZ, Q_ZZ)
    raise ValueError("order must be 'qp' or 'pq'")


def _i_reordered(s: QSeries, sign: int) -> QSeries:
    """exp(sign (i hbar/2) d_1 d_2) of a commutative symbol: `_reordered`
    conjugated by hbar -> i hbar, each term c hbar^k scaled by i^-k before it
    and by i^k after it."""
    return _times_i_power(_reordered(_times_i_power(s, -1), sign), 1)


def _times_i_power(s: QSeries, sign: int) -> QSeries:
    """s with each term c hbar^k times i^(sign k)."""
    out = {}
    for key, (a, b, c, d, den) in s._terms.items():
        for _ in range(sign * key[2] % 4):
            a, b, c, d = -b, a, -d, c
        out[key] = (a, b, c, d, den)
    return s._like(out)


def to_ordered(f: QSeries, order: str) -> OrderedPQ:
    """Rewrite into the q-before-p (or p-before-q) ordered basis, in closed form.

    A change of ordering is the exponential of a constant second-order
    operator on the commutative symbol (Agarwal & Wolf, Phys. Rev. D 2, 2161
    (1970)).  The Weyl symbol of f (`weyl_symbol`), written in (q, p) by the
    linear change zbar, z = (p +- iq)/sqrt2 (`_linear_change`), is taken to the
    q-before-p (p-before-q) symbol by exp(-(i hbar/2) d_q d_p)
    (exp(+(i hbar/2) d_q d_p)), `_i_reordered`.  So adag a, whose Weyl symbol
    is zbar z - hbar/2, maps to (p^2 + q^2 - hbar)/2 in either order.
    """
    sign, images, _ = _frame(order)
    s = _i_reordered(_linear_change(weyl_symbol(f), *images), sign)
    return OrderedPQ(order, s._terms, f.t_cap, f.w2_cap)


def from_ordered(view: OrderedPQ) -> QSeries:
    """Normal-order an ordered q/p form back into the algebra at the view's
    caps: `to_ordered` backwards, the inverse pass, the change of (q, p) to
    (zbar, z) and `from_weyl`.  A term past the view's caps is dropped on
    entry; every map on the way keeps each term's weight and t power."""
    sign, _, images = _frame(view.order)
    kept = {e: c for e, c in view.terms.items() if e[0] + e[1] + 2 * e[2] <= view.w2_cap and e[3] <= view.t_cap}
    return from_weyl(_linear_change(_i_reordered(QSeries._from_raw(kept, view.t_cap, view.w2_cap), -sign), *images))


def linear_symplectic(f: QSeries, matrix) -> QSeries:
    """Substitute (q, p) -> (M11 q + M12 p, M21 q + M22 p), det M = 1.

    An algebra automorphism: the substitution preserves [p, q] = -i hbar
    exactly when det M = 1, which is enforced.  The Weyl calculus is
    covariant under linear symplectic maps with no hbar correction (Folland,
    Harmonic Analysis in Phase Space, 1989, ch. 2), so this is `from_weyl`
    of the Weyl symbol with zbar and z replaced by their images under M.
    """
    (m11, m12), (m21, m22) = matrix
    m11, m12, m21, m22 = (
        x if isinstance(x, Coefficient) else Coefficient(x)
        for x in (m11, m12, m21, m22)
    )
    if m11 * m22 - m12 * m21 != ONE:
        raise DomainError("matrix is not symplectic (det != 1)")
    images = (m11.raw, m12.raw), (m21.raw, m22.raw)  # q and p under M, in (q, p)
    x, y = (_composed(_composed(form, *images), Q_ZZ, P_ZZ) for form in (ZBAR_QP, Z_QP))
    return from_weyl(_linear_change(weyl_symbol(f), x, y))


def to_pq(f: QSeries) -> OrderedPQ:
    """The q-before-p ordered expansion of f."""
    return to_ordered(f, "qp")


def from_pq(view_or_terms, t_cap=None, weight_cap=None) -> QSeries:
    """Build a QSeries from a q-before-p ordered form.

    Accepts an OrderedPQ or a plain dict {(mq, np, k, l): coefficient} with
    explicit caps.
    """
    if isinstance(view_or_terms, OrderedPQ):
        return from_ordered(view_or_terms)
    if t_cap is None or weight_cap is None:
        raise ValueError("caps required for a raw ordered term map")
    terms = {
        tuple(exp): (c.raw if isinstance(c, Coefficient) else Coefficient(c).raw)
        for exp, c in view_or_terms.items()
    }
    view = OrderedPQ("qp", terms, int(t_cap), weight_cap_to_w2(weight_cap))
    return from_ordered(view)
