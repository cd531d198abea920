"""Morse normal form at the harmonic base point.

Solves u o phi(f) = f0 for deformations f = f0 + t g of the harmonic
oscillator f0 = p^2 + q^2 = 2 adag a + hbar, order by order in t:

* at order k the residual of g o f + (i/hbar)[f, h] = df/dt splits into a
  diagonal part (a scalar germ of f0, via the falling-product basis
  adag^n a^n = prod_{j<n} (N - j hbar)) and an off-diagonal part, which
  ad(f0) inverts monomial-by-monomial since
  (i/hbar)[f0, adag^m a^n] = 2i(m-n) adag^m a^n;
* the normalizing germ u is transported by du/dt = -(du/dz) g, u(0, z) = z
  (the sign is pinned by the exactly solvable families t q^2 and t q), step
  r one `product_sum` over (du_j/dz, g_(r-j)), each du_j/dz formed once;
* the stored H is the generator of the normalizing automorphism phi in the
  integrate_heisenberg convention, so
  compose_scalar(u, integrate_heisenberg(H, f, N)) == f0 holds literally;
  H = -phi(h) is solved order by order in the fixed frame, its diagonal
  from P o phi = phi o P_fn (`NormalFormResult.H`); H keeps the Lie ladders
  of the slices fn_l, l >= 1, that its recursion ran for phi(dfn/dt), and
  `verify()` reads phi(fn) off them plus one new ladder, phi(fn_0) by
  `flow.integrate_heisenberg`.  The recursion and every ladder run on Weyl
  symbols (`algebra.weyl_symbol`, the Moyal table of `_kernel.qbracket`):
  fn's slices, V and the diagonal convert in once, H and phi(fn) out once,
  and `split_homological` reads Weyl symbols as they are, since ad f0 acts
  on zbar^m z^n as 2i(m-n) too and the conversion keeps each m-n class;
* the spectrum closure is E_n = u^{-1}(t, hbar (2n+1)).

Weight caps are chosen from the perturbation's weight growth per t-order so
that every reported order is exact; the Rayleigh-Schrodinger oracle equality
tests pin this down.

Precision rule: a product used only through t^L is computed at t_cap=L, which
is exact because truncation commutes with products.  Step k of the solve (and
of the split of h for H) pulls its residual from the steps already solved,

    R_k = [t^k] dfn/dt - sum_{i<k} (sum_j C_ij [t^(k-i)] fn^j + (i/hbar)[fn_(k-i), h_i]),

C_ij the central z^j slice of g_i, so nothing is formed ahead of the step
that reads it.  The powers fn^j never become series: they stay in the product
kernel's packed, split form, at one key width for the whole solve.  fn is read
in its kept form (`_Series._packed`, written by `_kernel.pack_terms`, the one
packer), and each C_ij, j >= 1, is packed once, when g_i is split (fn^0 = 1
has no slice that a step reads).  Power j is built once, when some g_k first
reaches z^j, at t_cap=N-1-k (the last order a later step reads), as one
`_kernel.qmul_packed` call over fn and fn^(j-1), both cut to that cap (fn
commutes with its powers, and on the left its few terms carry the per-term
work of the loop); its sums are reduced once as a whole
(`_kernel.pack_sums`), its t-slices read off the key once
(`_kernel.t_slices`), and only the last power is kept whole, for the next.
The composition part is one `_kernel.qmul_packed` call over the packed pairs
(C_ij, [t^(k-i)] fn^j) at t_cap=0, since every operand is t-free; only its
sum, the residual, becomes a series.  The bracket part is one
`bracket_i_hbar` per nonzero pair (fn_(k-i), h_i), each operand read in its
kept form, so each slice fn_l and each h_i is packed once for all the steps
that read it.  Iteration j of the reversion fixes t^j and works at t_cap=j.
The diagonal split reads the falling products P_n from one integer table
(`_falling_row`), filled on first use, not per solve.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _kernel, flow
from ._kernel import MOYAL, coeff_make, coeff_mul, coeff_mul_int
from .algebra import bracket_i_hbar, bracket_sum, compose_scalar, from_weyl, scalar_to_qseries, weyl_symbol
from .algebra import linear_symplectic  # noqa: F401  the preconditioner that reduce_to_harmonic names
from .errors import DomainError
from .field import Coefficient
from .series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_NHT,
    SIG_ZHT,
    harmonic,
    product_sum,
    scalar_var,
)


_falling = [(1,)]


def _falling_row(n):
    """Row n of the integers e(n, m) with 2^n P_n = sum_m e(n, m) z^m hbar^(n-m),
    P_n = prod_{j<n} (z - (2j+1) hbar)/2; rows are made on first use, by
    e(j+1, m) = e(j, m-1) - (2j+1) e(j, m)."""
    rows = _falling
    while len(rows) <= n:
        j, prev = len(rows) - 1, rows[-1]
        rows.append(tuple(a - (2 * j + 1) * b for a, b in zip((0,) + prev, prev + (0,))))
    return rows[n]


def diagonal_to_scalar(d: QSeries) -> ScalarSeries:
    """Express a diagonal series as a scalar germ s with s o f0 = d.

    Under z <-> f0 = 2 adag a + hbar, adag^n a^n = P_n(z, hbar), so the term
    c hbar^k t^l adag^n a^n maps to sum_m (c e(n, m)/2^n) z^m hbar^(k+n-m)
    t^l (`_falling_row`), each image term of weight 2n + 2k: exact at d's caps.
    """
    out = {}
    for (m, n, k, l), c in d._terms.items():
        if m != n:
            raise DomainError("off-diagonal monomial present")
        a, b, r, ir, den = c
        for j, e in enumerate(_falling_row(n)):
            _kernel.add_term(out, (j, k + n - j, l), coeff_make(a * e, b * e, r * e, ir * e, den << n))
    return ScalarSeries._from_raw(out, SIG_ZHT, d.t_cap, d.w2_cap)


def split_homological(r: QSeries):
    """Split r = s o f0 + (i/hbar)[f0, K] with K normalized to zero diagonal.

    The splitting is total at the harmonic base point: ad(f0) is semisimple
    with (i/hbar)[f0, adag^m a^n] = 2i(m-n) adag^m a^n, so each off-diagonal
    monomial divides by 2i(m-n) and the diagonal goes to `diagonal_to_scalar`.
    """
    diag = {}
    off = {}
    for (m, n, k, l), c in r._terms.items():
        if m == n:
            diag[(m, n, k, l)] = c
        else:
            off[(m, n, k, l)] = coeff_mul(coeff_make(0, -1, 0, 0, 2 * (m - n)), c)  # c/(2i(m-n))
    s = diagonal_to_scalar(QSeries._from_raw(diag, r.t_cap, r.w2_cap))
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

    def __init__(self, g, u, u_inv, scale, shift, normalized_input, order, h):
        self.g: ScalarSeries = g
        self.u: ScalarSeries = u
        self.u_inv: ScalarSeries = u_inv
        self.scale: Coefficient = scale
        self.shift: ScalarSeries = shift
        self.normalized_input: QSeries = normalized_input
        self.order: int = order
        self._h = h
        self._H: QSeries | None = None
        self._ladders = None
        self._verified: bool | None = None
        self.spectrum: ScalarSeries = spectrum_closure(self)

    @property
    def H(self) -> QSeries:
        """Generator of phi (integrate_heisenberg convention), H = -phi(h), in O(N^2) brackets.

        P o phi = phi o P_fn (P the diagonal part, P_fn the projection on ker ad(fn)
        along im ad(fn)), so splitting h = F(t, fn) + (i/hbar)[fn, K] gives
        diag(H) = -F(t, V), V = phi(fn) = u_inv(f0).  The rest solves, at t^r,
        (i/hbar)[f0, H_r] = (r+1) V_{r+1} - Y_r - sum_{j=1..r} (i/hbar)[V_j, H_{r-j}],
        Y = phi(dfn/dt); a diagonal right side is a DomainError.  Y_r = sum_l l L_l[r+1-l]
        is read by `flow.ladder_sum` off the Lie ladders L_l of the unscaled slices fn_l,
        l >= 1, which step r runs only as far as H_0..H_(r-1); they are kept for `verify()`.
        The recursion runs on Weyl symbols (module docstring): H converts out once, and
        keeps its symbol for the ladder of fn_0 that `verify()` runs.
        h, kept joined, is sliced afresh by this build only, and released after it.
        """
        if self._H is None:
            fn = self.normalized_input
            f0 = harmonic(fn.t_cap, fn.weight_cap)
            F, _ = _homological_solve(fn, self._h.t_slices())
            F = self.u_inv.join_t_slices(F).subs_series("z", self.u_inv)
            diag = weyl_symbol(compose_scalar(F, f0)).t_slices()
            V = weyl_symbol(compose_scalar(self.u_inv, f0)).t_slices()
            ladders = [(l, [x]) for l, x in enumerate(weyl_symbol(fn).t_slices()) if l and x]
            zero = fn.zero_like()
            H = []
            for r in range(self.order):
                y = flow.ladder_sum(ladders, H, r + 1, zero, weight=lambda l: l)
                rhs = V[r + 1].scale(r + 1) - y
                pairs = [(V[j], H[r - j]) for j in range(1, r + 1) if V[j] and H[r - j]]
                if pairs:
                    rhs = rhs - bracket_sum(pairs, table=MOYAL)
                s, K = split_homological(rhs)
                if s:
                    raise DomainError(f"generator equation has a diagonal part at t^{r}")
                H.append(K - diag[r])
            self._H, self._ladders = from_weyl(fn.join_t_slices(H)), ladders
            self._h = None
        return self._H

    def verify(self) -> bool:
        """Master identity: compose_scalar(u, phi(fn)) == f0 through the caps.

        Like H, the verdict is formed once; the ladders H kept are then released,
        as nothing else reads them.
        """
        if self._verified is None:
            lhs = compose_scalar(self.u, self._transported())
            self._verified = lhs == harmonic(lhs.t_cap, lhs.weight_cap)
            self._ladders = None
        return self._verified

    def _transported(self) -> QSeries:
        """phi(fn) = phi(fn_0) + sum_l t^l phi(fn_l) through t^N.

        The ladders of fn_l, l >= 1, are the ones `H` ran, and already as long as
        this reads them, so none takes a step here; their Weyl sum converts out once.
        The only new ladder is that of fn_0, run by `flow.integrate_heisenberg` on
        H's kept symbol, and it alone reads H_(N-1).
        """
        fn, H = self.normalized_input, self.H
        phi0 = flow.integrate_heisenberg(H, fn.var_slice("t", 0), self.order)
        zero = fn.zero_like()
        rest = fn.join_t_slices(flow.ladder_sum(self._ladders, (), r, zero) for r in range(self.order + 1))
        return phi0 + from_weyl(rest)

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


def _homological_solve(fn: QSeries, rhs):
    """Slices of (g, h) with g o fn + (i/hbar)[fn, h] = sum_k t^k rhs[k] below t^(fn.t_cap).

    Step k splits R_k (module docstring).  pows[j] holds the packed t-slices
    of fn^j and last the packed fn^j they were read off, the right factor of
    the next power; every packed operand has the key width S of the solve's
    caps.
    """
    order, w2 = fn.t_cap, fn.w2_cap
    S = _kernel.key_width(max(w2, order))
    last = fn_form = fn._packed(S)
    pows = [None, _kernel.t_slices(fn_form, order)]  # no C_i0 is kept, so fn^0 is never read
    fn_slices = fn.t_slices()
    central = []  # (i, j, packed C_ij), j >= 1
    g_slices = []
    h_slices = []
    for k in range(order):
        pairs = [(c, pows[j][k - i]) for i, j, c in central if pows[j][k - i][1]]
        parts, den = _kernel.qmul_packed(pairs, 0, w2, S)
        r = rhs[k] - QSeries._from_raw(_kernel.unpacked(_kernel.joined(parts, den), 4, S), order, w2)
        for i, h_i in enumerate(h_slices):
            if h_i and fn_slices[k - i]:
                r = r - bracket_i_hbar(fn_slices[k - i], h_i)
        g_k, h_k = split_homological(r)
        g_slices.append(g_k)
        h_slices.append(h_k)
        by_power = {}
        for (j, hb, l), c in g_k._terms.items():
            if j:  # a step reads only slices past t^0, and fn^0 = 1 has none
                by_power.setdefault(j, {})[0, 0, hb, l] = c
        central += [(k, j, _kernel.pack_terms(c, S, *_kernel.OPERATOR)) for j, c in by_power.items()]
        # power j is first read at step k + 1, through t^(order-1-k)
        while k < order - 1 and len(pows) <= g_k.var_degree("z"):
            cap = order - 1 - k
            pair = (_kernel.cut_t(fn_form, cap), _kernel.cut_t(last, cap))
            last = _kernel.pack_sums(*_kernel.qmul_packed([pair], cap, w2, S), S)
            pows.append(_kernel.t_slices(last, cap))
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

    g_slices, h_slices = _homological_solve(fn, fn.deriv("t").t_slices())

    # transport: u' = -(du/dz) g, u(0, z) = z
    z = scalar_var("z", SIG_ZHT, order, weight_cap)
    u_slices, du = [z], []
    for r in range(order):
        du.append(u_slices[r].deriv("z"))
        pairs = [(du[j], g_slices[r - j]) for j in range(r + 1) if du[j] and g_slices[r - j]]
        u_slices.append(product_sum(pairs, -(r + 1)) if pairs else z.zero_like())
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
        h=fn.join_t_slices(h_slices),
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
