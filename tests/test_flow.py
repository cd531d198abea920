"""Heisenberg flows and propagators."""

import math
import random
from fractions import Fraction

from qmorse import algebra, flow
from qmorse.field import Coefficient
from qmorse.series import a_op, adag, harmonic, hbar_op, one, p_op, q_op, t_op

from oracles import random_qseries


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
