"""Order-by-order integration of Heisenberg equations and propagators.

`integrate_heisenberg` builds the automorphism phi_t generated by H, i.e. the
unique t-power-series solution of d/dt phi(f) = (i/hbar)[phi(f), H] with
phi_0 = id.  A t-dependent observable is transported fiberwise
(phi fixes t), which is what makes phi an algebra automorphism of the whole
t-series ring.  All meromorphic intermediates of the textbook conjugation
U f U^{-1} are avoided; each order is a polynomial identity.

Every t-order recursion here, and the transport of the normalizing germ u in
`normal_form`, is the Lie ladder X_{r+1} = (1/(r+1)) sum_j op(X_j, S_{r-j})
run by `ladder_step`.  `transport` runs phi on a t-series, one ladder per slice,
for `integrate_heisenberg` and for Y = phi(dfn/dt) in the fixed-frame recursion
of `NormalFormResult.H` (one ladder for a perturbation linear in t).  A bracket
step is one `algebra.bracket_sum` call: the r+1 brackets go to one
`_kernel.qbracket` accumulator over packed monomial keys, with the division by
r+1 folded into the single reduction of each output term, so a step forms no
per-bracket result, no sum of series and no scaled copy.  When H and the
transported observable are hermitian, as for a self-adjoint perturbation,
every slice of the ladder is hermitian too, since the bracket (i/hbar)[X, S]
of two hermitian operators is hermitian; the kernel then forms only the output
terms whose adag power is at least their a power and fills in the rest by
conjugation (its "hermitian half").
"""

from __future__ import annotations

from fractions import Fraction

# The ladder calls bracket_sum only; flow.bracket_i_hbar stays importable
# because the traced benchmark run (qbench/spans.py) wraps it by that name.
from .algebra import bracket_i_hbar, bracket_sum  # noqa: F401
from .series import QSeries, one


def ladder_step(xs: list, slices, op=None) -> None:
    """Append X_{r+1} = (1/(r+1)) sum_{j<=r} op(X_j, S_{r-j}) to xs = [X_0..X_r].

    `op` defaults to the bracket (i/hbar)[X, S] of QSeries: the pairs with
    both X_j and S_{r-j} nonzero go to one `bracket_sum` call with div=r+1.
    A custom `op` is applied pair by pair and the results are summed and
    scaled; X and S may then be QSeries or ScalarSeries.  `slices` is only
    read up to S_r, so it may still be growing between steps.  An empty sum
    is the zero of X_0's type.
    """
    r = len(xs) - 1
    pairs = [(xs[j], slices[r - j]) for j in range(r + 1) if xs[j] and slices[r - j]]
    if not pairs:
        xs.append(xs[0].zero_like())
    elif op is None:
        xs.append(bracket_sum(pairs, r + 1))
    else:
        acc = op(*pairs[0])
        for x, s in pairs[1:]:
            acc = acc + op(x, s)
        xs.append(acc.scale(Fraction(1, r + 1)))


def transport(x_slices, gen_slices):
    """Yield slice r of phi(X), X = sum_l t^l x_slices[l], for r < len(x_slices).

    phi is generated by S = sum_j t^j gen_slices[j]; slice r sums the t^(r-l) pieces
    of phi(X_l), l <= r, off one `ladder_step` ladder per nonzero X_l.  It reads S
    only through S_{r-1}, so the caller may append S_r to `gen_slices` between yields.
    """
    ladders = []
    for r, x in enumerate(x_slices):
        total = x
        for l, ladder in ladders:
            while len(ladder) <= r - l:
                ladder_step(ladder, gen_slices)
            total = total + ladder[r - l]
        if x:
            ladders.append((r, [x]))
        yield total


def integrate_heisenberg(H: QSeries, f: QSeries, order: int) -> QSeries:
    """Transport f along the flow of H through t-order `order`."""
    if order < 0:
        raise ValueError("order must be non-negative")
    wc = Fraction(min(H.w2_cap, f.w2_cap), 2)
    fw = f.with_caps(t_cap=order, weight_cap=wc)
    hw = H.with_caps(t_cap=order, weight_cap=wc)
    return fw.join_t_slices(transport(fw.t_slices(), hw.t_slices()))


def solve_propagator(H: QSeries, order: int) -> QSeries:
    """The unique U with dU/dt = H U and U(0) = 1, through t-order `order`."""
    if order < 0:
        raise ValueError("order must be non-negative")
    hw = H.with_caps(t_cap=order)
    h_slices = hw.t_slices()
    us = [one(order, hw.weight_cap)]
    while len(us) <= order:
        ladder_step(us, h_slices, lambda u, h: h * u)
    return hw.join_t_slices(us)
