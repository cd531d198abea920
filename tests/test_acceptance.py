"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py`.  Every tolerance is pinned
here; exact means exact (rational equality).  Two stated desk-scale constants
were corrected against three independent computations (RS recursion, Morse
solver, float diagonalization; see the level-0 q^4 order-3 coefficient and the
Borel ratio limit): the quartic family in this normalization has
E3 = 333/64 hbar^4 and Borel-ratio limit 3/2 (radius 2/3).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

from qmorse import algebra, calculus, flow, gevrey, normal_form as nf, spectrum as sp
from qmorse.field import Coefficient, I
from qmorse.series import (
    QSeries,
    adag,
    a_op,
    harmonic,
    hbar_op,
    one,
    p_op,
    q_op,
    t_op,
)

from oracles import normal_order_word, word_to_qseries


def _ok(num, text, t0):
    print(f"[PASS] criterion {num}: {text} ({time.time() - t0:.2f}s)")


def _family(pert, order, wc):
    caps = dict(t_cap=order, weight_cap=wc)
    return harmonic(**caps) + t_op(**caps) * pert(dict(t_cap=order, weight_cap=wc))


def test_criterion_01_exact_algebra_identities():
    t0 = time.time()
    caps = dict(t_cap=1, weight_cap="8")
    a, ad, hb = a_op(**caps), adag(**caps), hbar_op(**caps)
    q, p = q_op(**caps), p_op(**caps)
    assert algebra.commutator(a, ad) == hb
    assert algebra.commutator(p, q) == hb.scale(-I)
    assert p * p + q * q == ad * a + ad * a + hb
    for length in range(1, 7):
        for letters in itertools.product("ad", repeat=length):
            word = "".join(letters)
            expected = normal_order_word(word)
            got = word_to_qseries(word, 0, "6")
            assert len(got) == len(expected)
            for (m, n, k), coef in expected.items():
                assert got.coeff((m, n, k, 0)) == Coefficient(coef)
    assert time.time() - t0 < 1.0
    _ok(1, "algebra identities and word-rewriting oracle, exact, < 1 s", t0)


def test_criterion_02_master_identity_five_families():
    t0 = time.time()
    order = 8

    def families(caps):
        q = q_op(**caps)
        p = p_op(**caps)
        return {
            "q": q,
            "q^2": q**2,
            "q^3": q**3,
            "q^4": q**4,
            "sym(q^2p^2)": (q * q * p * p + p * p * q * q).scale(Fraction(1, 2)),
        }

    for name, build in families(dict(t_cap=order, weight_cap="24")).items():
        caps = dict(t_cap=order, weight_cap="24")
        f = harmonic(**caps) + t_op(**caps) * build
        res = nf.quantum_morse(f, order)
        assert res.verify(), name
    assert time.time() - t0 < 60.0
    _ok(2, "compose_scalar(u, replayed phi(f)) == f0 for five families, order 8", t0)


def test_criterion_03_closed_form_families():
    t0 = time.time()
    order = 8
    caps = dict(t_cap=order, weight_cap="24")
    q = q_op(**caps)

    res2 = nf.quantum_morse(harmonic(**caps) + t_op(**caps) * (q * q), order)
    for k in range(order + 1):
        chalf = Fraction((-1) ** (k + 1) * math.comb(2 * k, k), 4**k * (2 * k - 1))
        assert res2.spectrum.coeff((0, 1, k)) == Coefficient(chalf)
        assert res2.spectrum.coeff((1, 1, k)) == Coefficient(2 * chalf)
    assert all(e[0] <= 1 for e in res2.spectrum._terms)

    res1 = nf.quantum_morse(harmonic(**caps) + t_op(**caps) * q, order)
    expected = {(0, 1, 0): Coefficient(1), (1, 1, 0): Coefficient(2),
                (0, 0, 2): Coefficient(Fraction(-1, 4))}
    assert dict(res1.spectrum.items()) == expected
    _ok(3, "t q^2 spectrum = hbar(2n+1) sqrt(1+t); t q spectrum terminates at -t^2/4", t0)


def test_criterion_04_oracle_triangle_quartic():
    t0 = time.time()
    order = 8
    caps = dict(t_cap=order, weight_cap="40")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q**4)
    res = nf.quantum_morse(f, order)
    for n in (0, 1, 2):
        rs = sp.rs_perturbation(f, n, order)
        closure = res.spectrum.eval_var("n", Coefficient(n))
        lifted = rs.lift(("n", "hbar", "t")).with_caps(
            t_cap=closure.t_cap, weight_cap=closure.weight_cap
        )
        assert closure == lifted, f"level {n}"
        assert rs.coeff((2, 1)) == Coefficient(Fraction(3 * (2 * n * n + 2 * n + 1), 4))
    e0 = sp.rs_perturbation(f, 0, 3)
    assert e0.coeff((3, 2)) == Coefficient(Fraction(-21, 16))
    assert e0.coeff((4, 3)) == Coefficient(Fraction(333, 64))  # corrected, see ledger
    assert time.time() - t0 < 60.0
    _ok(4, "normal-form spectrum == RS oracle exactly, levels 0..2, order 8", t0)


def test_criterion_05_numeric_cross_check():
    t0 = time.time()
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    result = sp.diagonalize(f, 0.01, 1.0, 60, 1)
    assert result.hermitian and result.converged
    series3 = 1.0 + 0.75 * 0.01 - (21 / 16) * 0.01**2 + (333 / 64) * 0.01**3
    assert abs(result.values[0] - series3) < 1e-6
    assert time.time() - t0 < 5.0
    _ok(5, f"diagonalize ground level {result.values[0]:.9f} vs order-3 series, < 1e-6", t0)


def test_criterion_06_gevrey_evidence():
    t0 = time.time()
    order = 16
    caps = dict(t_cap=order, weight_cap="40")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q**4)
    res = nf.quantum_morse(f, order)
    alphas = gevrey.extract_diagonal(res.spectrum, 0, 1)
    assert len(alphas) == 17
    assert alphas[1] == Coefficient(Fraction(3, 4))
    assert alphas[2] == Coefficient(Fraction(-21, 16))

    report = gevrey.gevrey_report(alphas, (10, 15))
    # growth rate for f0 = p^2+q^2, lambda = t hbar is 3/2 (bounce action 2/3);
    # the spec's 3 / [0.28, 0.40] figures presume the x^2/4 normalization.
    ratios = [report.ratios[k] for k in range(10, 16)]
    assert all(1.40 <= r <= 1.55 for r in ratios), ratios
    assert ratios[-3] < ratios[-2] < ratios[-1] < 1.5  # trend toward 3/2
    assert 0.60 <= report.radius <= 0.75
    assert report.verdict == "gevrey1-consistent"

    control = [Coefficient(Fraction(math.factorial(k))) * a for k, a in enumerate(alphas)]
    flipped = gevrey.gevrey_report(control, (10, 15))
    assert flipped.verdict == "violated"
    assert time.time() - t0 < 120.0
    _ok(6, f"q^4 Borel ratios {ratios[0]:.3f}..{ratios[-1]:.3f} -> 3/2, radius {report.radius:.3f}, control flips", t0)


def test_criterion_07_flow():
    t0 = time.time()
    caps = dict(t_cap=12, weight_cap="4")
    h = adag(**caps) * a_op(**caps)
    res = flow.integrate_heisenberg(h, a_op(**caps), 12)
    for k in range(13):
        assert res.coeff((0, 1, 0, k)) == Coefficient(0, 1) ** k * Fraction(
            1, math.factorial(k)
        )
    rng = random.Random(2024)
    from oracles import random_qseries

    for _ in range(10):
        hh = random_qseries(rng, t_cap=0, weight_cap="16", max_exp=2, with_t=False)
        hh = hh.with_caps(t_cap=3)
        f = random_qseries(rng, t_cap=0, weight_cap="16", max_exp=2, with_t=False).with_caps(t_cap=3)
        g = random_qseries(rng, t_cap=0, weight_cap="16", max_exp=2, with_t=False).with_caps(t_cap=3)
        assert flow.integrate_heisenberg(hh, f * g, 3) == flow.integrate_heisenberg(
            hh, f, 3
        ) * flow.integrate_heisenberg(hh, g, 3)
    _ok(7, "phi_t(a) = sum (it)^k/k! a through order 12; automorphism on random pairs", t0)


def test_criterion_08_derivation_reconstruction():
    t0 = time.time()
    caps = dict(t_cap=1, weight_cap="10")
    q, p = q_op(**caps), p_op(**caps)
    h, _ = calculus.reconstruct_hamiltonian(calculus.DerivationSpec(Dq=-q, Dp=p))
    assert h == (q * p).with_caps(weight_cap=h.weight_cap)

    rng = random.Random(88)
    pool = [(m, n, k) for m in range(4) for n in range(4) for k in range(2)
            if m + n + 2 * k <= 6 and (m, n, k) != (0, 0, 0)]
    wide = dict(t_cap=1, weight_cap="12")
    qw, pw = q_op(**wide), p_op(**wide)
    for _ in range(100):
        terms = {}
        for mono in rng.sample(pool, rng.randint(1, 3)):
            terms[mono + (0,)] = Coefficient(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2))
            )
        hh = QSeries(terms, **wide)
        dq = algebra.bracket_i_hbar(qw, hh)
        dp = algebra.bracket_i_hbar(pw, hh)
        h2, _ = calculus.reconstruct_hamiltonian(calculus.DerivationSpec(Dq=dq, Dp=dp))
        diff = hh.with_caps(weight_cap=h2.weight_cap) - h2
        assert diff.is_central()
    _ok(8, "(Dq,Dp)=(-q,p) -> H=qp; 100 random round trips central", t0)


def test_criterion_09_trace():
    t0 = time.time()
    caps = dict(t_cap=0, weight_cap="2")
    tr = sp.trace_hbar(one(**caps), 12)
    assert len(tr) == 13
    for n in range(13):
        assert tr.coeff((n, 0)) == Coefficient(math.factorial(n))
    b = algebra.borel(tr)
    for n in range(13):
        assert b.coeff((n, 0)) == Coefficient(1)
    assert len(b) == 13
    _ok(9, "Tr(1) at M=12 = sum n! hbar^n; Borel transform = truncated geometric", t0)


def test_criterion_10_milnor_versality():
    t0 = time.time()
    from qmorse.milnor import check_versal, milnor_number, plane, versality_dimension

    mu, ok = milnor_number(plane({(0, 2): 1, (2, 0): 1}), 6)
    assert ok and mu == 1
    for k in range(1, 7):
        F = plane({(0, 2): 1, (k + 1, 0): 1})
        dim, basis, stable = versality_dimension(F, 2 * k + 2)
        assert stable and dim == k
        assert basis == [(j, 0) for j in range(k)]
        tangents = [plane({(j, 0): 1}) for j in range(1, k)]
        assert check_versal(F, tangents, 2 * k + 2) == (dim, basis, True, True)
    assert time.time() - t0 < 10.0
    _ok(10, "milnor(y^2+x^2)=1; vdim(y^2+x^(k+1))=k with basis 1..x^(k-1); family versal", t0)


def test_criterion_11_determinism():
    t0 = time.time()
    order = 6
    caps = dict(t_cap=order, weight_cap="20")
    q = q_op(**caps)
    pert = q**4
    items = sorted(pert._terms.items())
    f_fwd = harmonic(**caps) + t_op(**caps) * QSeries(dict(items), **caps)
    f_rev = harmonic(**caps) + t_op(**caps) * QSeries(dict(reversed(items)), **caps)
    a = nf.quantum_morse(f_fwd, order)
    b = nf.quantum_morse(f_rev, order)
    assert json.dumps(a.u.to_json()) == json.dumps(b.u.to_json())
    assert json.dumps(a.spectrum.to_json()) == json.dumps(b.spectrum.to_json())
    _ok(11, "permuted insertion order -> byte-identical JSON", t0)
