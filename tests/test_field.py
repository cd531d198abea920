"""Coefficient field Q(i, sqrt2): exactness, canonical form, field axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmorse._kernel import COMPONENT_PRODUCT, coeff_mul
from qmorse.field import Coefficient, I, ONE, SQRT2, parse_rational, rational_str

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
coeffs = st.builds(Coefficient, rationals, rationals, rationals, rationals)


def test_components_round_trip():
    c = Coefficient(Fraction(3, 4), Fraction(-1, 2), 2, Fraction(5, 6))
    assert c.r == Fraction(3, 4)
    assert c.i == Fraction(-1, 2)
    assert c.r2 == Fraction(2)
    assert c.ir2 == Fraction(5, 6)


def test_lowest_terms_storage():
    c = Coefficient(Fraction(2, 4))
    assert c.raw == (1, 0, 0, 0, 2)
    assert Coefficient(Fraction(-2, 4)).raw == (-1, 0, 0, 0, 2)


def test_component_product_table_matches_coeff_mul():
    # e_x * e_y = w * e_z for the basis elements 1, i, sqrt2, i*sqrt2
    basis = [tuple(int(c == x) for c in range(4)) + (1,) for x in range(4)]
    assert len(COMPONENT_PRODUCT) == 16
    for x in range(4):
        for y in range(4):
            z, w = COMPONENT_PRODUCT[x, y]
            expected = [0, 0, 0, 0, 1]
            expected[z] = w
            assert coeff_mul(basis[x], basis[y]) == tuple(expected)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Coefficient(2)
    assert I * I == Coefficient(-1)
    assert (I * SQRT2) * (I * SQRT2) == Coefficient(-2)


@given(coeffs, coeffs)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(coeffs, coeffs, coeffs)
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(coeffs)
def test_inverse(x):
    if x:
        assert x * x.inverse() == ONE
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@given(coeffs, coeffs)
def test_conjugate_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x


def test_division():
    c = Coefficient(1, 2, 3, Fraction(-1, 5))
    assert (c / c) == ONE
    assert Coefficient(1) / SQRT2 == SQRT2 * Fraction(1, 2)


def test_sign_real_exact():
    assert Coefficient(3, 0, -2).sign_real() == 1  # 3 - 2 sqrt2 > 0 (9 > 8)
    assert Coefficient(2, 0, -2).sign_real() == -1  # 2 - 2 sqrt2 < 0
    assert Coefficient(-1, 0, 1).sign_real() == 1  # sqrt2 - 1 > 0
    assert Coefficient(0).sign_real() == 0
    with pytest.raises(ValueError):
        Coefficient(0, 1).sign_real()


def test_to_complex():
    z = Coefficient(1, 1, 1, 1).to_complex()
    assert abs(z.real - (1 + 2**0.5)) < 1e-12
    assert abs(z.imag - (1 + 2**0.5)) < 1e-12


def test_rational_strings():
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    assert rational_str(Fraction(5)) == "5"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    for bad in ("1/0", " -2/0 ", "x"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_json_round_trip():
    c = Coefficient(Fraction(3, 4), Fraction(-1, 2), 0, Fraction(7, 3))
    assert Coefficient.from_json(c.to_json()) == c
    assert c.to_json() == {"r": "3/4", "i": "-1/2", "r2": "0", "ir2": "7/3"}


@given(rationals)
def test_rational_hashes_like_its_number(x):
    assert Coefficient(x) == x
    assert hash(Coefficient(x)) == hash(x)
    assert len({Coefficient(x), x}) == 1


def test_raw_tuple_is_validated_and_normalized():
    assert Coefficient((2, 0, 0, 4, 6)).raw == (1, 0, 0, 2, 3)
    for bad in [(1, 2), (1, 0, 0, 0, 0), (1, 0, 0, 0, -2), (1.0, 0, 0, 0, 1)]:
        with pytest.raises(ValueError):
            Coefficient(bad)
