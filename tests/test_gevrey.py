"""Borel/Gevrey growth diagnostics."""

import math
from fractions import Fraction

import pytest

from qmorse import gevrey, normal_form as nf
from qmorse.errors import DomainError
from qmorse.field import Coefficient
from qmorse.series import ScalarSeries, SIG_NHT, harmonic, q_op, t_op


def _spectrum(pert_power: int, order: int, wc: str):
    caps = dict(t_cap=order, weight_cap=wc)
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q ** pert_power)
    return nf.quantum_morse(f, order).spectrum


def test_homogeneity_check():
    spec4 = _spectrum(4, 4, "20")
    assert gevrey.homogeneity_check(spec4, 4)
    assert not gevrey.homogeneity_check(spec4, 6)
    harmonic_spec = _spectrum(4, 0, "8")
    assert gevrey.homogeneity_check(harmonic_spec, 4)
    # hand-corrupted series fails
    bad = spec4 + ScalarSeries(
        {(0, 3, 1): 1}, vars=SIG_NHT, t_cap=spec4.t_cap, weight_cap=spec4.weight_cap
    )
    assert not gevrey.homogeneity_check(bad, 4)


def test_extract_diagonal_q4():
    spec = _spectrum(4, 4, "20")
    alphas = gevrey.extract_diagonal(spec, 0, 1)
    assert alphas[0] == Coefficient(1)
    assert alphas[1] == Coefficient(Fraction(3, 4))
    assert alphas[2] == Coefficient(Fraction(-21, 16))
    assert alphas[3] == Coefficient(Fraction(333, 64))


def test_extract_diagonal_harmonic_and_tq():
    spec0 = _spectrum(4, 0, "8")
    for nstar in (0, 1, 2):
        alphas = gevrey.extract_diagonal(spec0, nstar, 1)
        assert alphas == [Coefficient(2 * nstar + 1)]
    spec1 = _spectrum(1, 6, "12")
    alphas = gevrey.extract_diagonal(spec1, 1, Fraction(-1, 2))
    assert alphas[0] == Coefficient(3)
    assert alphas[2] == Coefficient(Fraction(-1, 4))
    assert all(not a for k, a in enumerate(alphas) if k not in (0, 2))


def test_extract_diagonal_homogeneity_error():
    spec = _spectrum(4, 3, "20")
    with pytest.raises(DomainError):
        gevrey.extract_diagonal(spec, 0, 2)


def test_gevrey_report_factorial_is_consistent():
    coeffs = [Fraction(math.factorial(k)) for k in range(18)]
    rep = gevrey.gevrey_report(coeffs, (4, 16))
    assert rep.verdict == "gevrey1-consistent"
    assert all(abs(r - 1.0) < 1e-9 for r in rep.ratios.values())
    assert abs(rep.radius - 1.0) < 1e-9


def test_gevrey_report_factorial_squared_is_violated():
    coeffs = [Fraction(math.factorial(k)) ** 2 for k in range(18)]
    rep = gevrey.gevrey_report(coeffs, (4, 16))
    assert rep.verdict == "violated"
    assert rep.slope is not None and rep.slope > 0.5


def test_gevrey_report_too_few_coeffs_inconclusive():
    rep = gevrey.gevrey_report([1, 1, 1, 0, 0, 0, 0, 0], (0, 7))
    assert rep.verdict == "inconclusive"


def test_gevrey_scale_equivariance():
    base = [Fraction(math.factorial(k)) for k in range(16)]
    rep = gevrey.gevrey_report(base, (4, 14))
    for c, r in ((3, Fraction(2)), (Fraction(1, 7), Fraction(1, 3))):
        scaled = [c * (r ** k) * a for k, a in enumerate(base)]
        rep2 = gevrey.gevrey_report(scaled, (4, 14))
        assert rep2.verdict == rep.verdict
        assert abs(rep2.radius - rep.radius / float(r)) < 1e-9 * rep.radius


def test_q4_levels_all_consistent():
    spec = _spectrum(4, 12, "32")
    for nstar in (0, 1, 2):
        alphas = gevrey.extract_diagonal(spec, nstar, 1)
        rep = gevrey.gevrey_report(alphas, (4, 11))
        assert rep.verdict == "gevrey1-consistent"


def test_report_json():
    coeffs = [Fraction(math.factorial(k)) for k in range(12)]
    rep = gevrey.gevrey_report(coeffs, (2, 10), source="unit")
    payload = rep.to_json()
    assert payload["format"] == "borel-report-v1"
    assert payload["verdict"] == "gevrey1-consistent"
    assert payload["alphas_exact"][3] == "6"


@pytest.mark.parametrize(
    "bad",
    [math.inf, -math.inf, math.nan, 10**401, Fraction(10**401, 3), Coefficient(0, 10**401)],
    ids=["inf", "-inf", "nan", "big-int", "big-fraction", "big-coefficient"],
)
def test_report_refuses_a_coefficient_outside_the_float_range(bad):
    with pytest.raises(ValueError, match="coefficient 2 "):
        gevrey.gevrey_report([1, 2, bad, 4])
