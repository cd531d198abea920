"""Order-by-order integration of Heisenberg equations and propagators.

`integrate_heisenberg` builds the automorphism phi_t generated by H, i.e. the
unique t-power-series solution of d/dt phi(f) = (i/hbar)[phi(f), H] with
phi_0 = id.  A t-dependent observable is transported fiberwise
(phi fixes t), which is what makes phi an algebra automorphism of the whole
t-series ring.  All meromorphic intermediates of the textbook conjugation
U f U^{-1} are avoided; each order is a polynomial identity.

Every Lie-series recursion of the engine is a ladder X_{r+1} = (1/(r+1))
sum_j op(X_j, S_{r-j}) whose step r is one kernel call over its nonzero
pairs, the division by r+1 folded into the single reduction of each output
term, so a step forms no per-pair result, no sum of series and no scaled
copy.  A bracket step, op = (i/hbar)[X, S], is `ladder_step`, one
`algebra.bracket_sum` call; a product step, in `solve_propagator` and the
transport of the normalizing germ u in `normal_form`, is one
`series.product_sum` call.  phi of a t-series sum_l t^l X_l is read off one
bracket ladder per nonzero slice X_l by `ladder_sum`, which steps each
ladder on demand.  A ladder is linear in its start, so it is kept per
unscaled slice and weighted where it is read: `integrate_heisenberg` reads
with weight 1, and `NormalFormResult.H` reads Y = phi(dfn/dt) off the
ladders of fn_l, l >= 1, with weight l, and keeps them for `verify()`, whose
one new ladder is that of fn_0, run by `integrate_heisenberg` (one ladder
each for a perturbation linear in t).  Each slice X_j and S_k is read in the
packed form it keeps, so it is packed once, however many steps read it.
When H and the transported observable are hermitian, as for a self-adjoint
perturbation, every slice of a bracket ladder is hermitian too, since the
bracket (i/hbar)[X, S] of two hermitian operators is hermitian; the kernel
then forms only the output terms whose adag power is at least their a power
and fills in the rest by conjugation (its "hermitian half").

Every bracket ladder runs on Weyl symbols (`algebra.weyl_symbol`), through
the kernel's Moyal table: the Moyal bracket writes only the odd orders of
its bidifferential operator, and for a self-adjoint perturbation the
symbols are hbar-even, about half the size of the normal-ordered operators.
The Weyl map is an algebra isomorphism that keeps every term's weight and t
power, so the ladders equal the normal-order ones slice for slice, under the
same caps.  `integrate_heisenberg` converts f and H in once (H's kept symbol
when it has one, as `NormalFormResult.H` does) and the result out once.
"""

from __future__ import annotations

from fractions import Fraction

# The ladder calls bracket_sum only; flow.bracket_i_hbar stays importable
# because the traced benchmark run (qbench/spans.py) wraps it by that name.
from ._kernel import MOYAL
from .algebra import bracket_i_hbar, bracket_sum, from_weyl, weyl_symbol  # noqa: F401
from .series import QSeries, one, product_sum


def ladder_step(xs: list, slices) -> None:
    """Append X_{r+1} = (1/(r+1)) sum_{j<=r} (i/hbar)[X_j, S_{r-j}] to xs = [X_0..X_r],
    every X_j and S_k a Weyl symbol (`algebra.weyl_symbol`).

    The pairs with both X_j and S_{r-j} nonzero go to one `bracket_sum` call
    with div=r+1 over the Moyal table.  `slices` is only read up to S_r, so it
    may still be growing between steps.  An empty sum is the zero of X_0's type.
    """
    r = len(xs) - 1
    pairs = [(xs[j], slices[r - j]) for j in range(r + 1) if xs[j] and slices[r - j]]
    xs.append(bracket_sum(pairs, r + 1, MOYAL) if pairs else xs[0].zero_like())


def ladder_sum(ladders, gen_slices, r, start, weight=None):
    """start + slice r of sum_l weight(l) t^l phi(X_l), phi generated by S = sum_j t^j gen_slices[j].

    `ladders` holds (l, [X_l, ...]) pairs in increasing l, one `ladder_step` ladder per
    nonzero start X_l; slice r adds weight(l) times X_l's ladder at r - l (weight 1 when
    `weight` is None), stepping each ladder with l <= r on demand.  It reads S only
    through S_{r-1}, so the caller may append S_r to `gen_slices` between calls.
    """
    total = start
    for l, ladder in ladders:
        if l > r:
            break
        while len(ladder) <= r - l:
            ladder_step(ladder, gen_slices)
        w = 1 if weight is None else weight(l)
        total = total + (ladder[r - l] if w == 1 else ladder[r - l].scale(w))
    return total


def integrate_heisenberg(H: QSeries, f: QSeries, order: int) -> QSeries:
    """Transport f along the flow of H through t-order `order`.

    The ladders run on Weyl symbols: f and H convert in once (H's kept symbol,
    when it has one, is read as it is) and the result converts out once.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    wc = Fraction(min(H.w2_cap, f.w2_cap), 2)
    fw = weyl_symbol(f.with_caps(t_cap=order, weight_cap=wc))
    hw = weyl_symbol(H).with_caps(t_cap=order, weight_cap=wc)
    ladders = [(l, [x]) for l, x in enumerate(fw.t_slices()) if x]
    h_slices, zero = hw.t_slices(), fw.zero_like()
    return from_weyl(fw.join_t_slices(ladder_sum(ladders, h_slices, r, zero) for r in range(order + 1)))


def solve_propagator(H: QSeries, order: int) -> QSeries:
    """The unique U with dU/dt = H U and U(0) = 1, through t-order `order`.

    U_{r+1} = (1/(r+1)) sum_{j<=r} H_{r-j} U_j, each step one `product_sum`
    call over its nonzero pairs.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    hw = H.with_caps(t_cap=order)
    h_slices = hw.t_slices()
    us = [one(order, hw.weight_cap)]
    for r in range(order):
        pairs = [(h_slices[r - j], us[j]) for j in range(r + 1) if h_slices[r - j] and us[j]]
        us.append(product_sum(pairs, r + 1) if pairs else us[0].zero_like())
    return hw.join_t_slices(us)
