"""Representation, RS oracle, Fock matrices, trace, inner products."""

import ast
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qmorse import _kernel, algebra, normal_form as nf, parser, spectrum as sp
from qmorse.errors import DomainError, ResourceError
from qmorse.field import Coefficient
from qmorse.series import QSeries, adag, a_op, harmonic, one, q_op, t_op

from oracles import (
    COMPLEX_ENERGIES,
    COPRIME,
    component_pair_counts,
    inner_per_entry,
    random_qseries,
    rho_per_entry,
    rs_per_entry,
    rs_spectrum,
    trace_by_products,
)

CAPS = dict(t_cap=2, weight_cap="12")


def test_apply_rho_examples():
    a = a_op(**CAPS)
    ad = adag(**CAPS)
    out = sp.apply_rho(a, sp.FockVector.basis(2))
    assert out.component(1) == {1: Coefficient(2)}
    out = sp.apply_rho(ad, sp.FockVector.basis(0))
    assert out.component(1) == {0: Coefficient(1)}
    n_op = ad * a
    for n in range(5):
        out = sp.apply_rho(n_op, sp.FockVector.basis(n))
        expected = {1: Coefficient(n)} if n else {}
        assert out.component(n) == expected


def test_apply_rho_is_representation():
    rng = random.Random(23)
    for _ in range(12):
        f = random_qseries(rng, t_cap=0, weight_cap="12", max_exp=2, with_t=False)
        g = random_qseries(rng, t_cap=0, weight_cap="12", max_exp=2, with_t=False)
        psi = sp.FockVector({rng.randint(0, 3): Coefficient(1, rng.randint(-2, 2))})
        assert sp.apply_rho(f * g, psi) == sp.apply_rho(f, sp.apply_rho(g, psi))


def test_apply_rho_rejects_t():
    with pytest.raises(DomainError):
        sp.apply_rho(t_op(**CAPS), sp.FockVector.basis(0))


def _vector(entries):
    """The FockVector of ``{(z power, hbar power): Coefficient}``, built by the constructor."""
    comps = {}
    for (j, k), c in entries.items():
        comps.setdefault(j, {})[k] = c
    return sp.FockVector(comps)


def test_fock_vector_value_contract():
    # a vector from per-entry Coefficients, the same vector from apply_rho and
    # from adding its two halves are equal; the denominators 3, 5, 7 make the
    # three sides reach it over different common denominators
    c3, c5, c7 = COPRIME
    f = QSeries({(2, 0, 0, 0): c3, (0, 1, 1, 0): c5, (1, 2, 0, 0): c7}, t_cap=0, weight_cap="12")
    psi = {(0, 0): c5, (1, -1): c7, (3, 2): c3}
    expected = rho_per_entry(f, psi)
    out = sp.apply_rho(f, _vector(psi))
    assert out == _vector(expected)
    items = sorted(expected.items())
    assert _vector(dict(items[::2])) + _vector(dict(items[1::2])) == out
    for j in out.levels():
        for k, c in out.component(j).items():
            assert c == expected[(j, k)]
            assert c.raw == Coefficient(c.r, c.i, c.r2, c.ir2).raw  # reduced
    negated = _vector({key: -c for key, c in expected.items()})
    assert not (out + negated)
    assert out + negated == sp.FockVector()


def test_inner_product():
    assert sp.inner_product(sp.FockVector.basis(1), sp.FockVector.basis(1)).coeff(
        (1,)
    ) == Coefficient(1)
    assert not sp.inner_product(sp.FockVector.basis(0), sp.FockVector.basis(1))
    v2 = sp.FockVector.basis(2)
    ip = sp.inner_product(v2, v2)
    assert ip.coeff((2,)) == Coefficient(2)
    psi = sp.FockVector({0: Coefficient(0, 1)})  # i|0>
    assert sp.inner_product(psi, psi).coeff((0,)) == Coefficient(1)


def test_inner_product_matches_per_entry_reference():
    # every entry carries all four Q(i, sqrt2) components over 3, 5 or 7, so
    # every component pair and every conjugation sign is exercised
    c3, c5, c7 = COPRIME
    psi = {(0, 0): c5, (1, 2): c3, (2, -1): c7, (2, 1): c7, (3, 0): c5}
    chi = {(0, 1): c7, (1, 0): c3, (1, 1): -c5, (2, 0): c5, (3, 2): c3}
    for left, right in ((psi, chi), (chi, psi), (psi, psi), (chi, chi)):
        out = sp.inner_product(_vector(left), _vector(right))
        assert dict(out.items()) == {(k,): c for k, c in inner_per_entry(left, right).items()}


def test_inner_product_positivity():
    rng = random.Random(29)
    for _ in range(15):
        comps = {
            rng.randint(0, 4): Coefficient(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            )
            for _ in range(rng.randint(1, 3))
        }
        psi = sp.FockVector(comps)
        if not psi:
            continue
        ip = sp.inner_product(psi, psi)
        lead = min(ip._terms)
        assert ip.coeff(lead).sign_real() == 1


def test_rs_q2_matches_closed_form():
    caps = dict(t_cap=8, weight_cap="40")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q * q)
    for n in (0, 1, 3):
        e = sp.rs_perturbation(f, n, 8)
        for k in range(9):
            chalf = Fraction((-1) ** (k + 1) * math.comb(2 * k, k), 4**k * (2 * k - 1))
            assert e.coeff((1, k)) == Coefficient((2 * n + 1) * chalf)


def test_rs_q_terminates():
    caps = dict(t_cap=6, weight_cap="40")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * q
    for n in (0, 2):
        e = sp.rs_perturbation(f, n, 6)
        assert e.coeff((1, 0)) == Coefficient(2 * n + 1)
        assert e.coeff((0, 2)) == Coefficient(Fraction(-1, 4))
        assert len(e) == 2


def test_rs_q4_known_coefficients():
    caps = dict(t_cap=3, weight_cap="40")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q ** 4)
    e0 = sp.rs_perturbation(f, 0, 3)
    assert e0.coeff((1, 0)) == Coefficient(1)
    assert e0.coeff((2, 1)) == Coefficient(Fraction(3, 4))
    assert e0.coeff((3, 2)) == Coefficient(Fraction(-21, 16))
    assert e0.coeff((4, 3)) == Coefficient(Fraction(333, 64))
    # first order at general level: (3/4) hbar^2 (2n^2+2n+1)
    for n in (1, 2, 5):
        en = sp.rs_perturbation(f, n, 1)
        assert en.coeff((2, 1)) == Coefficient(Fraction(3 * (2 * n * n + 2 * n + 1), 4))


def test_rs_matches_per_entry_reference():
    # t^1, t^2, t^3 slices over denominators 3, 5, 7 in all four Q(i, sqrt2)
    # components: every order rescales its sources to a common denominator
    c3, c5, c7 = COPRIME
    caps = dict(t_cap=8, weight_cap="16")
    g = QSeries(
        {
            (2, 0, 0, 1): c3, (0, 1, 0, 1): -c3,
            (1, 2, 0, 2): c5, (0, 0, 1, 2): c5,
            (3, 0, 0, 3): c7, (0, 1, 1, 3): -c7,
        },
        **caps,
    )
    f = harmonic(**caps) + g
    for level in range(4):
        assert dict(sp.rs_perturbation(f, level, 8).items()) == rs_per_entry(f, level, 8)


def test_rs_calls_apply_rho_through_the_module(monkeypatch):
    # the benchmark's spectrum.apply_rho span wraps the module attribute
    calls = []
    original = sp.apply_rho

    def counted(f, psi):
        calls.append(f)
        return original(f, psi)

    monkeypatch.setattr(sp, "apply_rho", counted)
    caps = dict(t_cap=40, weight_cap="64")
    sp.rs_perturbation(harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4, 0, 40)
    assert len(calls) == 40


def test_rs_component_pair_counts():
    """Work counts of the split Fock layer, without timing anything.

    Components 0..3 are ``1, i, sqrt2, i*sqrt2``.  For ``q^4`` every vector
    and every energy is rational, so only the pair (0, 0) runs, one integer
    product per term pair, where a 4-int layout pays sixteen.  The
    non-hermitian ``complex-energies`` perturbation fills all four
    components, and all sixteen pairs run.
    """
    caps = dict(t_cap=40, weight_cap="64")
    f = harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4
    assert component_pair_counts(lambda: sp.rs_perturbation(f, 0, 40)) == {(0, 0): 35409}
    f = parser.elaborate(parser.parse_expr(COMPLEX_ENERGIES), 6, "16")
    assert component_pair_counts(lambda: sp.rs_perturbation(f, 0, 6)) == {
        (0, 0): 807, (0, 1): 532, (0, 2): 390, (0, 3): 642,
        (1, 0): 551, (1, 1): 381, (1, 2): 266, (1, 3): 460,
        (2, 0): 598, (2, 1): 348, (2, 2): 266, (2, 3): 432,
        (3, 0): 645, (3, 1): 449, (3, 2): 316, (3, 3): 540,
    }


def test_rs_requires_harmonic_base():
    caps = dict(t_cap=2, weight_cap="12")
    f = adag(**caps) * a_op(**caps)  # missing the hbar of p^2+q^2
    with pytest.raises(DomainError):
        sp.rs_perturbation(f, 0, 2)


def test_fock_matrix_examples():
    caps = dict(t_cap=0, weight_cap="8")
    n_op = adag(**caps) * a_op(**caps)
    op = sp.fock_matrix(n_op, 5, 0.0, 0.5)
    assert np.allclose(np.diag(op.matrix), [0, 0.5, 1.0, 1.5, 2.0])
    ident = sp.fock_matrix(one(**caps), 4, 0.0, 1.0)
    assert np.allclose(ident.matrix, np.eye(4))
    q2 = sp.fock_matrix(q_op(**caps) ** 2, 6, 0.0, 1.0)
    assert np.allclose(np.diag(q2.matrix), [(2 * n + 1) / 2 for n in range(6)])


def test_fock_matrix_hermitian_for_selfadjoint():
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    m = sp.fock_matrix(f, 30, 0.3, 0.7).matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_diagonalize_harmonic():
    caps = dict(t_cap=0, weight_cap="4")
    res = sp.diagonalize(harmonic(**caps), 0.0, 1.0, 40, 5)
    assert res.hermitian and res.converged
    assert np.allclose(res.values, [1, 3, 5, 7, 9], atol=1e-12)


@pytest.mark.parametrize("levels", [-1, 21])
def test_diagonalize_refuses_levels_outside_dim(levels):
    f = harmonic(t_cap=0, weight_cap="4")
    with pytest.raises(ValueError, match="between 0 and dim = 20"):
        sp.diagonalize(f, 0.0, 1.0, 20, levels)
    assert len(sp.diagonalize(f, 0.0, 1.0, 20, 20).values) == 20


def test_diagonalize_quartic_value():
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    res = sp.diagonalize(f, 0.01, 1.0, 60, 1)
    assert res.hermitian and res.converged
    series3 = 1 + 0.0075 - (21 / 16) * 1e-4 + (333 / 64) * 1e-6
    assert abs(res.values[0] - series3) < 1e-6


def test_diag_depends_on_value_not_term_order():
    f = parser.elaborate(parser.parse_expr("p^2+q^2+t*(q^3+q^4+p*q^2*p)"), 1, "64")
    items = list(f._terms.items())
    for seed in range(4):
        random.Random(seed).shuffle(items)
        g = QSeries._from_raw(dict(items), f.t_cap, f.w2_cap)
        assert g == f
        assert np.array_equal(sp.fock_matrix(g, 60, 0.3, 1.0).matrix, sp.fock_matrix(f, 60, 0.3, 1.0).matrix)
        assert sp.diagonalize(g, 0.3, 1.0, 60, 3) == sp.diagonalize(f, 0.3, 1.0, 60, 3)


def test_diagonalize_t_zero_reproduces_harmonic():
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    res = sp.diagonalize(f, 0.0, 1.0, 40, 3)
    assert np.allclose(res.values, [1, 3, 5], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_trace_hbar_equals_the_trace_by_products(monkeypatch, seed):
    """The trace read off the Fock action equals sum_n pi(a^n f adag^n), in
    value and caps, on operators with t-slices and Q(i, sqrt2) coefficients,
    and it forms no operator product."""
    rng = random.Random(300 + seed)
    caps = dict(t_cap=2, weight_cap=rng.choice(["7/2", "6", "12"]))
    f = random_qseries(rng, max_terms=5, max_exp=4, **caps)
    f = f + QSeries({(rng.randint(0, 3), rng.randint(0, 3), 0, 2): rng.choice(COPRIME)}, **caps)
    expected = [trace_by_products(f, cutoff) for cutoff in range(7)]

    def refuse(*args):
        raise AssertionError("trace_hbar formed an operator product")

    monkeypatch.setattr(_kernel, "qmul_packed", refuse)
    for cutoff, ref in enumerate(expected):
        got = sp.trace_hbar(f, cutoff)
        assert got == ref
        assert (got.t_cap, got.w2_cap) == (ref.t_cap, ref.w2_cap)


def test_spectrum_imports_only_the_value_layers():
    """The oracles share no code with the solver: `spectrum` imports, from its
    own package, only `_kernel`, `errors`, `field` and `series`."""
    tree = ast.parse(Path(sp.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("qmorse")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("qmorse") for alias in node.names)
    assert local == {"_kernel", "errors", "field", "series"}


def test_trace_examples():
    caps = dict(t_cap=0, weight_cap="2")
    tr = sp.trace_hbar(one(**caps), 8)
    for n in range(9):
        assert tr.coeff((n, 0)) == Coefficient(math.factorial(n))
    b = algebra.borel(tr)
    for n in range(9):
        assert b.coeff((n, 0)) == Coefficient(1)
    assert not sp.trace_hbar(a_op(**caps), 5)
    n_op = adag(**caps) * a_op(**caps)
    tr2 = sp.trace_hbar(n_op, 6)
    for n in range(7):
        expected = Coefficient(n * math.factorial(n))
        assert tr2.coeff((n + 1, 0)) == expected


def test_trace_hbar_slices_through_the_highest_t_power(monkeypatch):
    """The cost of the trace follows the operator, not its t cap: an operator
    of t-degree 3 at t cap 10^4 is cut into 4 slices, and its trace equals
    the one at t cap 3 (series compare by terms, not by caps)."""
    lengths = []
    t_slices = QSeries.t_slices

    def counting(self):
        out = t_slices(self)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(QSeries, "t_slices", counting)

    def operator(t_cap):
        caps = dict(t_cap=t_cap, weight_cap="8")
        t = t_op(**caps)
        return harmonic(**caps) + t * q_op(**caps) ** 4 + t * t * t * adag(**caps) * a_op(**caps)

    wide = sp.trace_hbar(operator(10**4), 4)
    assert lengths == [4] and wide.t_cap == 10**4
    assert wide == sp.trace_hbar(operator(3), 4) and wide.var_degree("t") == 3


def test_fock_operator_type_hints_resolve():
    """The annotations of `FockOperator` serve static type checkers: numpy is
    imported only under ``TYPE_CHECKING``, so the module never binds ``np``
    and importing it does not load numpy (`test_import_fills_no_table`).  At
    run time `typing.get_type_hints` resolves them once ``np`` is supplied."""
    import typing

    hints = typing.get_type_hints(sp.FockOperator, localns={"np": np})
    assert hints == {"dim": int, "t": float, "hbar": float, "matrix": np.ndarray}
    assert "np" not in vars(sp)


def test_oracle_triangle_small():
    # solver == RS exactly; both near diagonalize at small t
    order = 4
    caps = dict(t_cap=order, weight_cap="30")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q ** 4)
    res = nf.quantum_morse(f, order, weight_cap="30")
    for n in (0, 1, 2):
        rs = sp.rs_perturbation(f, n, order)
        closure = res.spectrum.eval_var("n", Coefficient(n))
        lifted = rs.lift(("n", "hbar", "t")).with_caps(
            t_cap=closure.t_cap, weight_cap=closure.weight_cap
        )
        assert closure == lifted

    t_val, hbar_val = 0.02, 1.0
    diag = sp.diagonalize(f, t_val, hbar_val, 50, 3)
    for n in (0, 1, 2):
        rs = sp.rs_perturbation(f, n, order)
        series_val = sum(
            c.to_complex().real * hbar_val ** e[0] * t_val ** e[1] for e, c in rs.items()
        )
        # truncation budget: |next term| * 10
        nxt = sp.rs_perturbation(f, n, order + 1).var_slice("t", order + 1)
        budget = 10 * abs(
            sum(c.to_complex().real * hbar_val ** e[0] for e, c in nxt.items())
        ) * t_val ** (order + 1)
        assert abs(diag.values[n] - series_val) < max(budget, 1e-12)


# Families with coefficients in sqrt2 and i, and perturbations in two t-slices.
OUTSIDE_Q = [
    "p^2+q^2 + t*(sqrt2*(q^3)/3 + (q^2*p^2+p^2*q^2)/5 + i*(q^3*p - p*q^3)/3)"
    " + t^2*(q^2)/7",
    # not hermitian: the energies carry all four components of Q(i, sqrt2)
    COMPLEX_ENERGIES,
]
OUTSIDE_Q_IDS = ["hermitian", "complex-energies"]


@pytest.mark.parametrize("text", OUTSIDE_Q, ids=OUTSIDE_Q_IDS)
def test_rs_matches_normal_form_outside_q(text):
    f = parser.elaborate(parser.parse_expr(text), 6, "16")
    res = nf.quantum_morse(f, 6)
    for n in (0, 1, 2):
        closure = res.spectrum.eval_var("n", Coefficient(n))
        lifted = sp.rs_perturbation(f, n, 6).lift(("n", "hbar", "t")).with_caps(
            t_cap=closure.t_cap, weight_cap=closure.weight_cap
        )
        assert closure == lifted


@pytest.mark.parametrize(
    "text",
    ["p^2+q^2+t*q", "p^2+q^2+t*q^3", "p^2+q^2+t*q^4", "p^2+q^2+t*q^6", "p^2+q^2+t*(q^2*p^2+p^2*q^2)/2"] + OUTSIDE_Q,
    ids=["q", "q^3", "q^4", "q^6", "sym(q^2p^2)"] + OUTSIDE_Q_IDS,
)
def test_whole_spectrum_equals_rs_interpolated_in_n(text):
    """The normal-form spectrum E(n, hbar, t) through t^8 equals, as a whole
    series, the one `rs_spectrum` interpolates in n from RS alone."""
    f = parser.elaborate(parser.parse_expr(text), 8, "64")
    assert nf.quantum_morse(f, 8).spectrum == rs_spectrum(f, 8)


# SHA-256 of the RS series of p^2+q^2+t q^4 at order 40, as the CLI prints
# its JSON, for levels 0, 1, 2: any change to the RS arithmetic must keep
# these bytes.
RS_QUARTIC_DIGESTS = {
    0: "f2951258eee61e3685537cecfd30762b5557141afaf618eab458c7cde1ed8e2c",
    1: "2b863af5e894e7c3195a41e7e50668b9745ea54c9586ead9c8fe6b3241bb025b",
    2: "33e6ab52c816ca5e4b45224e8b946c8e512581961d4b35ebbec0de28806fdea0",
}


@pytest.mark.parametrize("level", sorted(RS_QUARTIC_DIGESTS))
def test_rs_quartic_golden_digest(level):
    caps = dict(t_cap=40, weight_cap="64")
    f = harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4
    text = json.dumps(sp.rs_perturbation(f, level, 40).to_json(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == RS_QUARTIC_DIGESTS[level]


# The same for the non-hermitian perturbation COMPLEX_ENERGIES at order 12,
# whose vectors and energies fill all four components of Q(i, sqrt2): these
# bytes were recorded with the 4-int Fock layout, before the split by
# component.
RS_COMPLEX_DIGESTS = {
    0: "8a45f416e6f3f5d8785aaa66454b35490abe187765fabc5c21e5ab205e0fa89f",
    1: "b64c7f31e1fc4baf36e9c515bb35151da2211b70edef40c2225ff2b127c1d193",
    2: "12a77a469317cf0fad389dd0209316ccb5d11f3020981d6fdf5d65066d5f9d03",
}


@pytest.mark.parametrize("level", sorted(RS_COMPLEX_DIGESTS))
def test_rs_complex_energies_golden_digest(level):
    f = parser.elaborate(parser.parse_expr(COMPLEX_ENERGIES), 12, "16")
    text = json.dumps(sp.rs_perturbation(f, level, 12).to_json(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == RS_COMPLEX_DIGESTS[level]


@pytest.mark.parametrize(
    "t, hbar, message",
    [
        (float("nan"), 1.0, "t must be finite"),
        (float("inf"), 1.0, "t must be finite"),
        (0.1, float("-inf"), "hbar must be finite"),
        (1e308, 1.0, "overflows"),
        (0.1, 1e200, "overflows"),
        (0.1, 1e-100, "overflows"),  # the norm ratio's product underflows to 0
        (0.1, 1e-200, "overflows"),
    ],
)
def test_fock_matrix_refuses_non_finite_input(t, hbar, message):
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    with pytest.raises(ValueError, match=message):
        sp.fock_matrix(f, 30, t, hbar)
    with pytest.raises(ValueError, match=message):
        sp.diagonalize(f, t, hbar, 30, 2)


def test_diagonalize_refuses_overflow_in_its_checks():
    # every entry is finite, but the anti-hermitian part doubles in a - a^H
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * parser.elaborate(parser.parse_expr("i*q^3"), **caps)
    t = 2.0**1020.1
    assert np.isfinite(sp.fock_matrix(f, 5, t, 1.0).matrix).all()
    with pytest.raises(ValueError, match="overflows"):
        sp.diagonalize(f, t, 1.0, 5, 2)


def test_fock_matrix_size_limit():
    caps = dict(t_cap=1, weight_cap="10")
    f = harmonic(**caps) + t_op(**caps) * (q_op(**caps) ** 4)
    side = math.isqrt(sp.MAX_MATRIX_BYTES // 16)
    with pytest.raises(ResourceError):
        sp.fock_matrix(f, side + 1, 0.1, 1.0)
    with pytest.raises(ResourceError):  # diagonalize also builds dim + 10
        sp.diagonalize(f, 0.1, 1.0, side - 9, 1)
