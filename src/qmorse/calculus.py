"""Quantum partial derivatives, antiderivatives, and derivation reconstruction.

The partials are commutators, d_dq f = -(i/hbar)[f, p] and
d_dp f = (i/hbar)[f, q]; on ordered monomials they act like the classical
partials.  Antiderivatives are fixed uniquely by left divisibility (the q
antiderivative is divisible by q on the left, the p one by p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernel import coeff_make, coeff_mul
from .algebra import (
    OrderedPQ,
    bracket_i_hbar,
    commutator,
    from_ordered,
    to_ordered,
)
from .errors import DomainError
from .series import QSeries, ScalarSeries, p_op, q_op


def d_dq(f: QSeries) -> QSeries:
    """-(i/hbar)[f, p]; lowers the q-degree like the classical partial."""
    return -bracket_i_hbar(f, p_op(f.t_cap, f.weight_cap))


def d_dp(f: QSeries) -> QSeries:
    """(i/hbar)[f, q]."""
    return bracket_i_hbar(f, q_op(f.t_cap, f.weight_cap))


def int_dq(f: QSeries) -> QSeries:
    """The antiderivative F with d_dq F = f and F divisible by q on the left.

    Realized on the q-before-p ordered view as q^m p^n -> q^(m+1) p^n / (m+1).
    The result carries weight headroom +1/2 over f's cap so the top terms of
    f integrate without truncation.
    """
    view = to_ordered(f, "qp")
    terms = {
        (m + 1, n, k, l): coeff_mul(c, coeff_make(1, 0, 0, 0, m + 1))
        for (m, n, k, l), c in view.terms.items()
    }
    return from_ordered(OrderedPQ("qp", terms, f.t_cap, f.w2_cap + 1))


def int_dp(f: QSeries) -> QSeries:
    """The antiderivative F with d_dp F = f and F divisible by p on the left."""
    view = to_ordered(f, "pq")
    terms = {
        (m + 1, n, k, l): coeff_mul(c, coeff_make(1, 0, 0, 0, m + 1))
        for (m, n, k, l), c in view.terms.items()
    }
    return from_ordered(OrderedPQ("pq", terms, f.t_cap, f.w2_cap + 1))


def divisible_by_q(f: QSeries) -> bool:
    """Exact left divisibility by q, decided on the ordered view."""
    view = to_ordered(f, "qp")
    return all(m >= 1 for (m, _, _, _) in view.terms)


@dataclass
class DerivationSpec:
    """Images of the generators under a candidate derivation.

    The compatibility invariant [Dp, q] + [p, Dq] = 0 (D must kill the
    defining relation) is checked by `is_derivation`, never assumed.
    """

    Dq: QSeries
    Dp: QSeries
    alpha: ScalarSeries | None = None

    def is_derivation(self) -> bool:
        w2 = max(self.Dq.w2_cap, self.Dp.w2_cap) + 2
        wc = Fraction(w2, 2)
        dq = self.Dq.with_caps(weight_cap=wc)
        dp = self.Dp.with_caps(weight_cap=wc)
        t_cap = min(dq.t_cap, dp.t_cap)
        qe = q_op(t_cap, wc)
        pe = p_op(t_cap, wc)
        return not (commutator(dp, qe) + commutator(pe, dq))


def reconstruct_hamiltonian(d: DerivationSpec):
    """Recover H with (i/hbar)[q, H] = Dq and (i/hbar)[p, H] = Dp.

    Construction: H = int(Dp) dq + int(-Dq - d_dp int(Dp) dq) dp; the second
    integrand is q-free exactly when the compatibility invariant holds.
    Returns (H, alpha) with alpha passed through; H is unique up to the
    centre, pinned here by the divisibility normalization of the integrals.
    """
    if not d.is_derivation():
        raise DomainError("not a derivation")
    w2 = max(d.Dq.w2_cap, d.Dp.w2_cap)
    wide = Fraction(w2 + 4, 2)
    dq = d.Dq.with_caps(weight_cap=wide)
    dp = d.Dp.with_caps(weight_cap=wide)
    h1 = int_dq(dp).with_caps(weight_cap=wide)
    w = -dq - d_dp(h1)
    if any(m for (m, _, _, _) in to_ordered(w, "qp").terms):
        raise AssertionError("residual integrand depends on q")
    h = h1 + int_dp(w).with_caps(weight_cap=wide)
    h = h.with_caps(weight_cap=Fraction(w2 + 2, 2))
    qe = q_op(h.t_cap, h.weight_cap)
    pe = p_op(h.t_cap, h.weight_cap)
    if bracket_i_hbar(qe, h).with_caps(weight_cap=d.Dq.weight_cap) != d.Dq.with_caps(
        t_cap=h.t_cap
    ) or bracket_i_hbar(pe, h).with_caps(weight_cap=d.Dp.weight_cap) != d.Dp.with_caps(
        t_cap=h.t_cap
    ):
        raise AssertionError("reconstructed hamiltonian fails its defining identities")
    return h, d.alpha
