"""Heisenberg flows and propagators."""

import math
import random
from fractions import Fraction

import pytest

from qmorse import algebra, flow
from qmorse.errors import ResourceError
from qmorse.field import Coefficient
from qmorse.series import QSeries, a_op, adag, harmonic, hbar_op, one, p_op, q_op, t_op

from oracles import (
    COPRIME,
    ladder_step_in_normal_order,
    moyal_per_pair,
    random_qseries,
    transport_in_normal_order,
)


def test_flow_of_a_under_number_operator():
    caps = dict(t_cap=12, weight_cap="4")
    h = adag(**caps) * a_op(**caps)
    res = flow.integrate_heisenberg(h, a_op(**caps), 12)
    for k in range(13):
        expected = Coefficient(0, 1) ** k * Fraction(1, math.factorial(k))
        assert res.coeff((0, 1, 0, k)) == expected
    assert len(res) == 13


def test_flow_conserves_hamiltonian():
    caps = dict(t_cap=6, weight_cap="12")
    h = harmonic(**caps) + (q_op(**caps) ** 3)
    res = flow.integrate_heisenberg(h, h, 6)
    assert res == h.with_caps(t_cap=6)


def test_flow_p_under_q():
    caps = dict(t_cap=4, weight_cap="8")
    res = flow.integrate_heisenberg(q_op(**caps), p_op(**caps), 4)
    assert res == p_op(**caps).with_caps(t_cap=4) + t_op(**caps).with_caps(t_cap=4)


def test_flow_is_automorphism_per_order():
    rng = random.Random(77)
    caps = dict(t_cap=3, weight_cap="18")
    for _ in range(8):
        h = random_qseries(rng, t_cap=0, weight_cap="18", max_exp=2, with_t=False)
        f = random_qseries(rng, t_cap=0, weight_cap="18", max_exp=2, with_t=False)
        g = random_qseries(rng, t_cap=0, weight_cap="18", max_exp=2, with_t=False)
        f = f.with_caps(t_cap=3)
        g = g.with_caps(t_cap=3)
        h = h.with_caps(t_cap=3)
        lhs = flow.integrate_heisenberg(h, f * g, 3)
        rhs = flow.integrate_heisenberg(h, f, 3) * flow.integrate_heisenberg(h, g, 3)
        assert lhs == rhs
        lb = flow.integrate_heisenberg(h, algebra.commutator(f, g), 3)
        rb = algebra.commutator(
            flow.integrate_heisenberg(h, f, 3), flow.integrate_heisenberg(h, g, 3)
        )
        assert lb == rb


def test_flow_fixes_center():
    caps = dict(t_cap=4, weight_cap="10")
    h = harmonic(**caps) + q_op(**caps) ** 3
    hb = hbar_op(**caps)
    assert flow.integrate_heisenberg(h, hb, 4) == hb.with_caps(t_cap=4)
    c = one(**caps).scale(Fraction(5, 3))
    assert flow.integrate_heisenberg(h, c, 4) == c.with_caps(t_cap=4)


def test_flow_reversal():
    rng = random.Random(101)
    for _ in range(6):
        h = random_qseries(rng, t_cap=0, weight_cap="16", max_exp=2, with_t=False)
        h = h.with_caps(t_cap=4)
        f = random_qseries(rng, t_cap=0, weight_cap="16", max_exp=2, with_t=False)
        f = f.with_caps(t_cap=4)
        fwd = flow.integrate_heisenberg(h, f, 4)
        back = flow.integrate_heisenberg(-h, fwd, 4)
        assert back == f


def test_propagator_examples():
    caps = dict(t_cap=6, weight_cap="8")
    u = flow.solve_propagator(one(**caps), 6)
    for k in range(7):
        assert u.coeff((0, 0, 0, k)) == Coefficient(Fraction(1, math.factorial(k)))
    u2 = flow.solve_propagator(adag(**caps), 6)
    for k in range(7):
        expected = Coefficient(Fraction(1, math.factorial(k)))
        if 2 * k <= 16:
            assert u2.coeff((k, 0, 0, k)) == expected
    u0 = flow.solve_propagator(one(**caps) - one(**caps), 4)
    assert u0 == one(**caps).with_caps(t_cap=4)


def test_propagator_solves_ode():
    rng = random.Random(13)
    h = random_qseries(rng, t_cap=3, weight_cap="10", max_exp=1)
    u = flow.solve_propagator(h, 5)
    # dU/dt == H U order by order
    lhs = u.deriv("t")
    rhs = h.with_caps(t_cap=5) * u
    for k in range(5):
        assert lhs.var_slice("t", k) == rhs.var_slice("t", k)


def _step_reference(xs, slices):
    """X_{r+1} of Weyl symbols as a sum of `moyal_per_pair` over the nonzero pairs,
    then one scale; converted to normal order, it is the step of the normal-order
    ladder over the converted operands."""
    r = len(xs) - 1
    acc = None
    for j in range(r + 1):
        x, s = xs[j], slices[r - j]
        if x and s:
            term = QSeries._from_raw(moyal_per_pair(x, s), *x._join_caps(s))
            acc = term if acc is None else acc + term
    expected = xs[0].zero_like() if acc is None else acc.scale(Fraction(1, r + 1))
    normal = [algebra.from_weyl(x) for x in xs]
    ladder_step_in_normal_order(normal, [algebra.from_weyl(s) for s in slices])
    assert algebra.from_weyl(expected) == normal[-1]
    return expected


def _checked_step(xs, slices):
    expected = _step_reference(xs, slices)
    flow.ladder_step(xs, slices)
    got = xs[-1]
    assert got == expected
    assert (got.t_cap, got.w2_cap) == (expected.t_cap, expected.w2_cap)
    return got


def test_ladder_step_matches_per_pair_brackets():
    """A ladder step reads its operands as Weyl symbols (the Moyal table)."""
    c0, c1, c2 = COPRIME
    # joined caps t^2, weight 5/2; S0 holds adag^6 and adag^3 a^3 (weight 3),
    # and the weight-1/2 terms of X1 and X2 carry adag^6 down to weight 5/2
    xs = [
        QSeries({(0, 2, 0, 1): c0, (1, 1, 1, 0): c1, (2, 0, 0, 2): c2, (0, 1, 0, 0): c1}, t_cap=3, weight_cap="5/2"),
        QSeries({(2, 1, 0, 1): c2, (1, 0, 0, 0): c0, (0, 0, 1, 1): c1, (0, 1, 0, 0): c2}, t_cap=2, weight_cap=4),
        QSeries({(0, 1, 0, 0): c0, (1, 2, 0, 0): c1, (1, 0, 1, 1): c2}, t_cap=4, weight_cap=3),
    ]
    slices = [
        QSeries({(6, 0, 0, 0): c1, (3, 3, 0, 0): c2, (0, 2, 0, 1): c0, (1, 0, 0, 0): c2}, t_cap=5, weight_cap=3),
        QSeries({(2, 0, 0, 0): c2, (0, 3, 0, 1): c0, (1, 1, 0, 2): c1}, t_cap=3, weight_cap="7/2"),
        QSeries({(0, 1, 1, 0): c1, (3, 0, 0, 1): c0}, t_cap=6, weight_cap=3),
    ]
    out = _checked_step(xs, slices)
    assert (out.t_cap, out.w2_cap) == (2, 5)
    assert out.coeff((5, 0, 0, 0)) and any(m + n + 2 * k == 5 for m, n, k, _ in out._terms)


def test_ladder_step_with_t_cap_wider_than_weight_cap():
    # t powers up to 12 under a weight cap of 3/2: the t field is the widest
    c0, c1, c2 = COPRIME
    xs = [QSeries({(2, 0, 0, 5): c0, (0, 1, 0, 7): c1, (0, 1, 0, 12): c2}, t_cap=12, weight_cap="3/2")]
    slices = [
        QSeries({(0, 1, 0, 7): c2, (1, 0, 0, 5): c0, (0, 2, 0, 0): c1}, t_cap=14, weight_cap=2),
        QSeries({(1, 0, 0, 3): c1, (0, 1, 0, 4): c2}, t_cap=13, weight_cap="3/2"),
    ]
    out = _checked_step(xs, slices)
    assert out.coeff((1, 0, 0, 12)) and out.coeff((0, 0, 0, 12))
    assert _checked_step(xs, slices)


def test_ladder_step_empty_and_cancelling_sums():
    c0, c1, c2 = COPRIME
    x = QSeries({(1, 0, 0, 0): c0, (0, 2, 0, 1): c1}, t_cap=3, weight_cap=3)
    s = QSeries({(0, 1, 0, 0): c2, (2, 1, 0, 0): c1}, t_cap=2, weight_cap=4)
    # every pair has a zero side: the zero at the caps of X_0
    xs = [x, QSeries({}, t_cap=1, weight_cap=1)]
    out = _checked_step(xs, [s, s.zero_like()])
    assert not out and (out.t_cap, out.w2_cap) == (3, 6)
    # [x, s] + [s, x] = 0: an empty result at the joined caps
    out = _checked_step([x, s], [x, s])
    assert not out and (out.t_cap, out.w2_cap) == (2, 6)


def test_ladder_step_term_guard(monkeypatch):
    xs = [q_op(2, 12) ** 3]
    slices = [p_op(2, 12) ** 3]
    monkeypatch.setenv("QMORSE_TERM_GUARD", "1")
    with pytest.raises(ResourceError):
        flow.ladder_step(xs, slices)
    assert len(xs) == 1


def test_ladder_scans_each_slice_once(monkeypatch):
    """Every value keeps its hermitian sign beside its packed form, so a ladder
    of r steps scans each nonzero slice, of X and of S, once, not once per
    step that reads it."""
    from qmorse import _kernel

    caps = dict(t_cap=6, weight_cap="10")
    # hermitian term maps, read as Weyl symbols
    slices = (harmonic(**caps) + q_op(**caps) ** 3 + t_op(**caps) * p_op(**caps) ** 4).t_slices()
    xs = [q_op(**caps) ** 2 + p_op(**caps)]
    scans = []
    sign = _kernel.hermitian_sign

    def counting(terms):
        scans.append(terms)
        return sign(terms)

    monkeypatch.setattr(_kernel, "hermitian_sign", counting)
    for _ in range(6):
        flow.ladder_step(xs, slices)
    operands = [x for x in xs[:-1] + slices[:6] if x]
    assert len(scans) == len({id(x) for x in operands}) == len(operands)
    assert sorted(map(id, scans)) == sorted(id(x._terms) for x in operands)


def _symmetrized(rng, sign, **kw):
    """A nonzero random operator plus (sign 1) or minus (sign -1) its adjoint."""
    while True:
        f = random_qseries(rng, **kw)
        out = f + algebra.dagger(f) if sign > 0 else f - algebra.dagger(f)
        if out:
            return out


@pytest.mark.parametrize("kind", ["hermitian", "anti-hermitian", "mixed-sign", "non-hermitian", "t-cap-wide"])
def test_transport_equals_the_normal_order_ladders(kind):
    """`integrate_heisenberg`, whose ladders run on Weyl symbols, equals the
    normal-order ladders (`transport_in_normal_order`) on seeded random
    families.  Hermitian H with hermitian or anti-hermitian f take the
    kernel's hermitian half; H with a hermitian and an anti-hermitian slice,
    or neither, take the full loop; and one family has a t cap wider than
    its weight cap."""
    rng = random.Random(f"transport-{kind}")
    for _ in range(6):
        if kind == "t-cap-wide":
            kw = dict(t_cap=9, weight_cap="3/2", max_exp=2)
            H = _symmetrized(rng, 1, **kw) + t_op(9, "3/2").scale(Fraction(1, 3)) * _symmetrized(rng, 1, **kw)
            f, order = _symmetrized(rng, 1, **kw), 9
        else:
            kw = dict(t_cap=4, weight_cap="7", max_exp=3)
            if kind == "non-hermitian":
                H, f = random_qseries(rng, **kw), random_qseries(rng, **kw)
            else:
                H = _symmetrized(rng, 1, **kw)
                if kind == "mixed-sign":
                    H = H.var_slice("t", 0) + t_op(4, "7").scale(2) * _symmetrized(rng, -1, **kw).var_slice("t", 0)
                f = _symmetrized(rng, -1 if kind == "anti-hermitian" else 1, **kw)
            order = 4
        got = flow.integrate_heisenberg(H, f, order)
        assert got.to_json() == transport_in_normal_order(H, f, order).to_json()
