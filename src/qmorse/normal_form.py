"""Morse normal form at the harmonic base point.

Solves u o phi(f) = f0 for deformations f = f0 + t g of the harmonic
oscillator f0 = p^2 + q^2 = 2 adag a + hbar, order by order in t:

* at order k the residual of g o f + (i/hbar)[f, h] = df/dt splits into a
  diagonal part (a scalar germ of f0, via the falling-product basis
  adag^n a^n = prod_{j<n} (N - j hbar)) and an off-diagonal part, which
  ad(f0) inverts monomial-by-monomial since
  (i/hbar)[f0, adag^m a^n] = 2i(m-n) adag^m a^n;
* the normalizing germ u is transported by du/dt = -(du/dz) g, u(0, z) = z
  (the sign is pinned by the exactly solvable families t q^2 and t q);
* the stored H is the generator of the normalizing automorphism phi in the
  integrate_heisenberg convention, so
  compose_scalar(u, integrate_heisenberg(H, f, N)) == f0 holds literally;
  H = -phi(h) is solved order by order in the fixed frame, its diagonal
  from P o phi = phi o P_fn (`NormalFormResult.H`);
* the spectrum closure is E_n = u^{-1}(t, hbar (2n+1)).

Weight caps are chosen from the perturbation's weight growth per t-order so
that every reported order is exact; the Rayleigh-Schrodinger oracle equality
tests pin this down.

Precision rule: a product used only through t^L is computed at t_cap=L, which
is exact because truncation commutes with products.  Step k of the solve (and
of the split of h for H) pulls its residual from the steps already solved,

    R_k = [t^k] dfn/dt - sum_{i<k} (sum_j C_ij [t^(k-i)] fn^j + (i/hbar)[fn_(k-i), h_i]),

C_ij the central z^j slice of g_i, so nothing is formed ahead of the step
that reads it.  The powers fn^j are kept as t-slice lists: power j is built
once, when some g_k first reaches z^j, at t_cap=N-1-k (the last order a later
step reads), and never cut after that.  The composition part is one
`_kernel.qmul_sum` call over the pairs (C_ij, [t^(k-i)] fn^j) at t_cap=0,
since every operand is t-free, and the bracket part is one `bracket_i_hbar`
per nonzero pair (fn_(k-i), h_i).  Iteration j of the reversion fixes t^j
and works at t_cap=j.  The falling basis P_n of the diagonal split is built
once per solve and shared by all steps and by H.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernel, flow
from ._kernel import coeff_make, coeff_mul, coeff_mul_int
from .algebra import bracket_i_hbar, bracket_sum, compose_scalar, scalar_to_qseries
from .errors import DomainError
from .field import Coefficient, ONE
from .series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_NHT,
    SIG_ZHT,
    harmonic,
    p_op,
    q_op,
    scalar_var,
    term_guard,
)


def diagonal_to_scalar(d: QSeries, basis=None) -> ScalarSeries:
    """Express a diagonal series as a scalar germ s with s o f0 = d.

    Uses adag^n a^n = prod_{j<n} (N - j hbar) with N = (z - hbar)/2 under
    z <-> f0 = 2N + hbar; the conversion is triangular and exact.  `basis` is
    a `_falling_basis` at the caps of d, made here when not given.
    """
    if basis is None:
        basis = _falling_basis(d.t_cap, d.w2_cap)
    out = ScalarSeries._from_raw({}, SIG_ZHT, d.t_cap, d.w2_cap)
    for (m, n, k, l), c in d._terms.items():
        if m != n:
            raise DomainError("off-diagonal monomial present")
        piece = basis(m).map_coeff(lambda raw: coeff_mul(raw, c))
        out = out + piece.shift(hbar=k, t=l)
    return out


def _falling_basis(t_cap, w2_cap):
    """Cache of P_n(z, hbar) = prod_{j<n} (z - (2j+1) hbar)/2."""
    cache = [ScalarSeries({(0, 0, 0): 1}, vars=SIG_ZHT, t_cap=t_cap, weight_cap=Fraction(w2_cap, 2))]

    def get(n):
        while len(cache) <= n:
            j = len(cache) - 1
            factor = ScalarSeries(
                {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-(2 * j + 1), 2)},
                vars=SIG_ZHT,
                t_cap=t_cap,
                weight_cap=Fraction(w2_cap, 2),
            )
            cache.append(cache[-1] * factor)
        return cache[n]

    return get


def split_homological(r: QSeries, basis=None):
    """Split r = s o f0 + (i/hbar)[f0, K] with K normalized to zero diagonal.

    The splitting is total at the harmonic base point: ad(f0) is semisimple
    with (i/hbar)[f0, adag^m a^n] = 2i(m-n) adag^m a^n, so each off-diagonal
    monomial divides by 2i(m-n) and the diagonal goes through
    `diagonal_to_scalar` (with `basis`, a `_falling_basis` at the caps of r).
    """
    diag = {}
    off = {}
    for (m, n, k, l), c in r._terms.items():
        if m == n:
            diag[(m, n, k, l)] = c
        else:
            off[(m, n, k, l)] = coeff_mul(coeff_make(0, -1, 0, 0, 2 * (m - n)), c)  # c/(2i(m-n))
    s = diagonal_to_scalar(QSeries._from_raw(diag, r.t_cap, r.w2_cap), basis)
    return s, QSeries._from_raw(off, r.t_cap, r.w2_cap)


def solver_weight_cap(f: QSeries, order: int) -> Fraction:
    """Weight cap under which all orders <= `order` of the solve are exact.

    Perturbation monomials t^l M contribute weight growth (w(M) - 1)/l per
    t-order; the cap follows the fastest rate, with a cushion when the rate
    is below 1/2 (terminating families) so descendants of dropped terms can
    never re-enter the window.
    """
    rate2 = Fraction(0)
    for (m, n, k, l) in f._terms:
        if l >= 1:
            rate2 = max(rate2, Fraction(m + n + 2 * k - 2, l))
    w2 = 2 + math.ceil(rate2 * (order + 1)) + 2
    if rate2 < 1:
        w2 += order
    base2 = max((m + n + 2 * k for (m, n, k, l) in f._terms if l == 0), default=2)
    w2 = max(w2, base2 + 2)
    return Fraction(w2, 2)


class NormalFormResult:
    """Output of the Morse solver.

    The solve is performed on the normalized deformation
    fn = (f - shift)/scale with fn(t=0) = f0; `g`, `H`, `u`, `u_inv` refer to
    fn, while `spectrum` is reported for the original f:
    E_n = scale * u_inv(t, hbar(2n+1)) + shift.

    `H` (the flow generator) is assembled on first access; spectrum-only
    callers never pay for the brackets behind it.
    """

    def __init__(self, g, u, u_inv, scale, shift, normalized_input, order, h_slices, basis):
        self.g: ScalarSeries = g
        self.u: ScalarSeries = u
        self.u_inv: ScalarSeries = u_inv
        self.scale: Coefficient = scale
        self.shift: ScalarSeries = shift
        self.normalized_input: QSeries = normalized_input
        self.order: int = order
        self._h_slices = h_slices
        self._basis = basis
        self._H: QSeries | None = None
        self.spectrum: ScalarSeries = spectrum_closure(self)

    @property
    def H(self) -> QSeries:
        """Generator of phi (integrate_heisenberg convention), H = -phi(h), in O(N^2) brackets.

        P o phi = phi o P_fn (P the diagonal part, P_fn the projection on ker ad(fn)
        along im ad(fn)), so splitting h = F(t, fn) + (i/hbar)[fn, K] gives
        diag(H) = -F(t, V), V = phi(fn) = u_inv(f0).  The rest solves, at t^r,
        (i/hbar)[f0, H_r] = (r+1) V_{r+1} - Y_r - sum_{j=1..r} (i/hbar)[V_j, H_{r-j}],
        Y = phi(dfn/dt) by `flow.transport`; a diagonal right side is a DomainError.
        """
        if self._H is None:
            fn = self.normalized_input
            f0 = harmonic(fn.t_cap, fn.weight_cap)
            F, _ = _homological_solve(fn, self._h_slices, self._basis)
            F = self.u_inv.join_t_slices(F).subs_series("z", self.u_inv)
            diag = compose_scalar(F, f0).t_slices()
            V = compose_scalar(self.u_inv, f0).t_slices()
            H = []
            for r, y in zip(range(self.order), flow.transport(fn.deriv("t").t_slices(), H)):
                rhs = V[r + 1].scale(r + 1) - y
                pairs = [(V[j], H[r - j]) for j in range(1, r + 1) if V[j] and H[r - j]]
                if pairs:
                    rhs = rhs - bracket_sum(pairs)
                s, K = split_homological(rhs, self._basis)
                if s:
                    raise DomainError(f"generator equation has a diagonal part at t^{r}")
                H.append(K - diag[r])
            self._H = fn.join_t_slices(H)
        return self._H

    def verify(self) -> bool:
        """Master identity: compose_scalar(u, phi(fn)) == f0 through the caps."""
        fn = self.normalized_input
        transported = flow.integrate_heisenberg(self.H, fn, self.order)
        lhs = compose_scalar(self.u, transported)
        f0 = harmonic(lhs.t_cap, lhs.weight_cap)
        return lhs == f0

    def to_json(self):
        return {
            "format": "normal-form-v1",
            "order": self.order,
            "scale": self.scale.to_json(),
            "shift": self.shift.to_json(),
            "g": self.g.to_json(),
            "H": self.H.to_json(),
            "u": self.u.to_json(),
            "u_inv": self.u_inv.to_json(),
            "spectrum": self.spectrum.to_json(),
        }


def _normalize_input(f: QSeries):
    """Split f(t=0) = scale * f0 + shift(hbar); reject everything else."""
    t0 = f.var_slice("t", 0)
    two_c = t0.coeff((1, 1, 0, 0))
    if not two_c:
        raise DomainError("not a harmonic deformation")
    shift_terms = {}
    for (m, n, k, l), c in t0._terms.items():
        if (m, n) == (1, 1) and k == 0:
            continue
        if (m, n) == (0, 0):
            shift_terms[(k, 0)] = c
            continue
        raise DomainError("not a harmonic deformation")
    scale = two_c / 2
    hbar_coef = Coefficient._raw(shift_terms.get((1, 0), (0, 0, 0, 0, 1)))
    shift_terms[(1, 0)] = (hbar_coef - scale).raw
    shift = ScalarSeries(
        {e: Coefficient._raw(c) for e, c in shift_terms.items()},
        vars=SIG_HT,
        t_cap=f.t_cap,
        weight_cap=f.weight_cap,
    )
    return scale, shift


def _homological_solve(fn: QSeries, rhs, basis):
    """Slices of (g, h) with g o fn + (i/hbar)[fn, h] = sum_k t^k rhs[k] below t^(fn.t_cap).

    Step k splits R_k (module docstring); pows[j] holds the t-slices of fn^j.
    """
    order, w2 = fn.t_cap, fn.w2_cap
    pows = [fn.one_like().t_slices(), fn.t_slices()]
    central = []  # (i, j, C_ij)
    g_slices = []
    h_slices = []
    for k in range(order):
        pairs = [(c, pows[j][k - i]._terms) for i, j, c in central if pows[j][k - i]]
        r = rhs[k] - QSeries._from_raw(_kernel.qmul_sum(pairs, 0, w2, term_guard()), order, w2)
        for i, h_i in enumerate(h_slices):
            if h_i and pows[1][k - i]:
                r = r - bracket_i_hbar(pows[1][k - i], h_i)
        g_k, h_k = split_homological(r, basis)
        g_slices.append(g_k)
        h_slices.append(h_k)
        by_power = {}
        for (j, hb, l), c in g_k._terms.items():
            by_power.setdefault(j, {})[0, 0, hb, l] = c
        central += [(k, j, c) for j, c in by_power.items()]
        # power j is first read at step k + 1, through t^(order-1-k)
        while k < order - 1 and len(pows) <= g_k.var_degree("z"):
            fc = fn.with_caps(t_cap=order - 1 - k)
            pows.append((fc.join_t_slices(pows[-1]) * fc).t_slices())
    return g_slices, h_slices


def quantum_morse(f: QSeries, order: int, *, weight_cap=None) -> NormalFormResult:
    """Normalize a deformation of the harmonic oscillator through t-order N.

    f(t=0) must be c (p^2+q^2) plus central hbar terms (use
    `reduce_to_harmonic` or `linear_symplectic` first otherwise).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    scale, shift = _normalize_input(f)
    if weight_cap is None:
        weight_cap = solver_weight_cap(f, order)
    shift = shift.with_caps(t_cap=order, weight_cap=weight_cap)
    fw = f.with_caps(t_cap=order, weight_cap=weight_cap)
    shift_q = scalar_to_qseries(shift, fw.t_cap, fw.w2_cap)
    fn = (fw - shift_q).scale(scale.inverse())
    w2 = fn.w2_cap

    basis = _falling_basis(order, w2)
    g_slices, h_slices = _homological_solve(fn, fn.deriv("t").t_slices(), basis)

    # transport: u' = -(du/dz) g, u(0, z) = z
    z = scalar_var("z", SIG_ZHT, order, weight_cap)
    u_slices = [z]
    while len(u_slices) <= order:
        flow.ladder_step(u_slices, g_slices, lambda u, g: -(u.deriv("z") * g))
    u = z.join_t_slices(u_slices)
    u_inv = invert_series_z(u)
    return NormalFormResult(
        g=z.join_t_slices(g_slices),
        u=u,
        u_inv=u_inv,
        scale=scale,
        shift=shift,
        normalized_input=fn,
        order=order,
        h_slices=h_slices,
        basis=basis,
    )


def invert_series_z(u: ScalarSeries) -> ScalarSeries:
    """Compositional inverse in z of u = z + O(t), t-adically."""
    if "z" not in u.vars:
        raise DomainError("series has no z variable")
    z = scalar_var("z", u.vars, u.t_cap, u.weight_cap)
    if u.var_slice("t", 0) != z:
        raise DomainError("series is not z + O(t)")
    w = u - z
    v = z
    # v is exact through t^(j-1) on entry and w = O(t), so w(v) and the
    # step are exact through t^j: iteration j works at t_cap=j.
    for j in range(1, u.t_cap + 1):
        v = z.with_caps(t_cap=j) - w.with_caps(t_cap=j).subs_series("z", v.with_caps(t_cap=j))
    v = v.with_caps(t_cap=u.t_cap)
    if u.subs_series("z", v) != z:
        raise DomainError("series reversion failed to converge in the t-adic filtration")
    return v


def spectrum_closure(result: NormalFormResult) -> ScalarSeries:
    """E_n(t, hbar) = scale * u_inv(t, hbar(2n+1)) + shift."""
    v = result.u_inv
    out_terms = {}
    for (zj, k, l), c in v._terms.items():
        # z^j -> hbar^j (2n+1)^j
        for r in range(zj + 1):
            _kernel.add_term(out_terms, (r, k + zj, l), coeff_mul_int(c, math.comb(zj, r) * 2**r))
    e_norm = ScalarSeries._from_raw(out_terms, SIG_NHT, v.t_cap, v.w2_cap)
    e = e_norm.scale(result.scale)
    return e + result.shift.lift(SIG_NHT)


def linear_symplectic(f: QSeries, matrix) -> QSeries:
    """Substitute (q, p) -> (M11 q + M12 p, M21 q + M22 p), det M = 1.

    An algebra automorphism: the substitution preserves [p, q] = -i hbar
    exactly when det M = 1, which is enforced.
    """
    (m11, m12), (m21, m22) = matrix
    m11, m12, m21, m22 = (
        x if isinstance(x, Coefficient) else Coefficient(x)
        for x in (m11, m12, m21, m22)
    )
    if m11 * m22 - m12 * m21 != ONE:
        raise DomainError("matrix is not symplectic (det != 1)")
    qs = q_op(f.t_cap, f.weight_cap)
    ps = p_op(f.t_cap, f.weight_cap)
    q_img = qs.scale(m11) + ps.scale(m12)
    p_img = qs.scale(m21) + ps.scale(m22)
    inv_sqrt2 = Coefficient(0, 0, Fraction(1, 2))
    i_unit = Coefficient(0, 1)
    adag_img = (p_img + q_img.scale(i_unit)).scale(inv_sqrt2)
    a_img = (p_img - q_img.scale(i_unit)).scale(inv_sqrt2)
    central = {}
    for (m, n, k, l), c in f._terms.items():
        central.setdefault((m, n), {})[0, 0, k, l] = c
    pairs = [(c, (adag_img**m * a_img**n)._terms) for (m, n), c in central.items()]
    terms = _kernel.qmul_sum(pairs, f.t_cap, f.w2_cap, term_guard())
    return QSeries._from_raw(terms, f.t_cap, f.w2_cap)


def reduce_to_harmonic(f0: QSeries, order: int, *, weight_cap=None) -> NormalFormResult:
    """Normalize a t-free Morse operator to the harmonic oscillator.

    Builds the linear interpolation family Q + t (f0 - Q) between f0 and its
    harmonic part Q and runs the Morse solver along it; the t variable of the
    result is the interpolation parameter, with the composite normalization
    read at t = 1.
    """
    if f0.var_degree("t") > 0:
        raise DomainError("input must be t-free")
    lin = [e for e in f0._terms if e[0] + e[1] == 1 and e[2] == 0]
    if lin:
        raise DomainError("not Morse: nonzero linear part in the symbol")
    a20 = f0.coeff((2, 0, 0, 0))
    a02 = f0.coeff((0, 2, 0, 0))
    a11 = f0.coeff((1, 1, 0, 0))
    if a11 * a11 - 4 * a20 * a02 == Coefficient(0):
        raise DomainError("not Morse: degenerate Hessian of the symbol")
    if a20 or a02:
        raise DomainError(
            "quadratic part is not c(p^2+q^2); precondition with linear_symplectic"
        )
    quad_terms = {
        e: Coefficient._raw(c) for e, c in f0._terms.items() if e[0] == e[1] == 0
    }
    quad_terms[(1, 1, 0, 0)] = a11
    quad = QSeries(quad_terms, t_cap=max(f0.t_cap, order), weight_cap=f0.weight_cap)
    rest = f0.with_caps(t_cap=quad.t_cap) - quad
    family = quad + rest.shift(t=1)
    return quantum_morse(family, order, weight_cap=weight_cap)
