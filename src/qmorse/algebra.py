"""Named operations of the normal-ordered algebra.

Products, commutators, the p/q ordered views (`to_ordered` is exp(hbar D) of
the normal symbol, `from_ordered` is `substitute`), Weyl symbols
(`weyl_symbol` and `from_weyl`, one closed form per term), symbols, Borel transform,
hermitian conjugation, the restriction-to-zero map pi, the pairing
P(f, g) = pi(dagger(f) g), and composition of a scalar germ with an operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _kernel
from .errors import DomainError
from .field import Coefficient
from .series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_PLANE,
    SIG_PRINCIPAL,
    SIG_SYMBOL,
    p_op,
    pair_caps,
    product_sum,
    q_op,
    render_terms,
    weight_cap_to_w2,
)

NEG_I = Coefficient(0, -1)
HALF_SQRT2 = Coefficient(0, 0, Fraction(1, 2))          # 1/sqrt2
HALF_I_SQRT2 = Coefficient(0, 0, 0, Fraction(1, 2))     # i/sqrt2


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
    """sum_j j! C(m,j) C(n,j) (sign hbar/2)^j adag^(m-j) a^(n-j) for each term
    c adag^m a^n of f, over one common denominator, each output term reduced once."""
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


# -- q-before-p / p-before-q ordered views --------------------------------------


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


def to_ordered(f: QSeries, order: str) -> OrderedPQ:
    """Rewrite into the q-before-p (or p-before-q) ordered basis, in closed form.

    A change of ordering is the exponential of a constant second-order
    operator on the commutative symbol (Agarwal & Wolf, Phys. Rev. D 2, 2161
    (1970)).  With x = adag and y = a, the ordered symbol is exp(hbar D) of the
    normal symbol `total_symbol(f)`, D = a (d_x^2 - d_y^2) - (1/2) d_x d_y with
    a = 1/4 for "qp" and -1/4 for "pq".  Derivation: x, y = (p +- iq)/sqrt2, so
    d_q = (i/sqrt2)(d_x - d_y), d_p = (d_x + d_y)/sqrt2 and d_q d_p =
    (i/2)(d_x^2 - d_y^2); the Weyl symbol is exp(-(hbar/2) d_x d_y) of the
    normal one, and the q-before-p (p-before-q) symbol is exp(-(i hbar/2) d_q d_p)
    (exp(+(i hbar/2) d_q d_p)) of the Weyl one.  So adag a -> (p^2 + q^2 - hbar)/2.

    term_j = (hbar/j) D term_(j-1) is summed from term_0 = the symbol until a
    term vanishes; D lowers the (x, y) degree by 2 and hbar adds that weight
    back, so no cap cuts a term.  Each x^m y^n then maps to its commutative
    (q, p) image, formed once per (m, n).
    """
    if order not in ("qp", "pq"):
        raise ValueError("order must be 'qp' or 'pq'")
    a = Fraction(1, 4) if order == "qp" else Fraction(-1, 4)
    term = symbol = total_symbol(f)
    j = 0
    while term:
        j += 1
        dx = term.deriv("x")
        d2 = dx.deriv("x") - term.deriv("y").deriv("y")
        term = (d2.scale(a / j) - dx.deriv("y").scale(Fraction(1, 2 * j))).shift(hbar=1)
        symbol = symbol + term
    # commutative images of x (adag) and y (a) as polynomials in (Q, P)
    caps = dict(vars=SIG_PLANE, t_cap=0, weight_cap=Fraction(f.w2_cap, 2))
    x_img = ScalarSeries({(1, 0): HALF_I_SQRT2, (0, 1): HALF_SQRT2}, **caps)  # (P + iQ)/sqrt2
    y_img = ScalarSeries({(1, 0): -HALF_I_SQRT2, (0, 1): HALF_SQRT2}, **caps)
    x_pows, y_pows = [x_img.one_like()], [y_img.one_like()]
    images, out = {}, {}  # images: (m, n) -> the terms of x^m y^n, formed once for every t and hbar power
    for (m, n, k, l), c in symbol._terms.items():
        image = images.get((m, n))
        if image is None:
            while len(x_pows) <= m:
                x_pows.append(x_pows[-1] * x_img)
            while len(y_pows) <= n:
                y_pows.append(y_pows[-1] * y_img)
            image = images[m, n] = (x_pows[m] * y_pows[n])._terms
        for (eq, ep), w in image.items():
            key = (eq, ep, k, l) if order == "qp" else (ep, eq, k, l)
            _kernel.add_term(out, key, _kernel.coeff_mul(c, w))
    return OrderedPQ(order, out, f.t_cap, f.w2_cap)


def substitute(terms, x: QSeries, y: QSeries) -> QSeries:
    """sum c hbar^k t^l x^e1 y^e2 over ``terms`` {(e1, e2, k, l): c}, normal-ordered.

    One central coefficient series per (e1, e2), each power of x and of y
    formed once, and one `series.product_sum` over the pairs (central
    series, x^e1 y^e2), so the result takes the smaller caps of x and y.
    """
    central = {}
    for (e1, e2, k, l), c in terms.items():
        central.setdefault((e1, e2), {})[0, 0, k, l] = c
    xs, ys = [x.one_like()], [y.one_like()]
    for e1, e2 in central:
        while len(xs) <= e1:
            xs.append(xs[-1] * x)
        while len(ys) <= e2:
            ys.append(ys[-1] * y)
    pairs = [(QSeries(c, t_cap=x.t_cap, weight_cap=x.weight_cap), xs[e1] * ys[e2]) for (e1, e2), c in central.items()]
    return product_sum(pairs or [(x.zero_like(), y)])  # an empty sum: zero at the same caps


def from_ordered(view: OrderedPQ) -> QSeries:
    """Normal-order an ordered q/p form back into the algebra: `substitute`
    with x, y = q, p (or p, q for order="pq") at the view's caps."""
    wc = Fraction(view.w2_cap, 2)
    qs, ps = q_op(view.t_cap, wc), p_op(view.t_cap, wc)
    x, y = (qs, ps) if view.order == "qp" else (ps, qs)
    return substitute(view.terms, x, y)


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
