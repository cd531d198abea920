"""Milnor numbers and versality dimensions by truncated exact linear algebra."""

import random

import pytest

from qmorse import milnor
from qmorse.errors import DomainError
from qmorse.milnor import check_versal, milnor_number, plane, poisson, versality_dimension
from qmorse.series import ScalarSeries

from oracles import COPRIME, jacobian_rows_by_products, random_coeff, versality_rows_by_products


def _akpoly(k):
    return plane({(0, 2): 1, (k + 1, 0): 1})  # y^2 + x^(k+1)


def test_milnor_morse_is_one():
    mu, ok = milnor_number(plane({(2, 0): 1, (0, 2): 1}), 6)
    assert (mu, ok) == (1, True)


def test_milnor_ak_chain():
    for k in range(1, 7):
        mu, ok = milnor_number(_akpoly(k), 2 * k + 2)
        assert ok and mu == k


def test_milnor_x3_plus_y3():
    mu, ok = milnor_number(plane({(3, 0): 1, (0, 3): 1}), 8)
    assert ok and mu == 4


def test_milnor_requires_vanishing_at_origin():
    for check in (milnor_number, versality_dimension, lambda F, d: check_versal(F, [], d)):
        with pytest.raises(DomainError, match="vanish at the origin"):
            check(plane({(0, 0): 1, (2, 0): 1}), 4)


def test_versality_morse():
    dim, basis, ok = versality_dimension(plane({(2, 0): 1, (0, 2): 1}), 6)
    assert ok and dim == 1 and basis == [(0, 0)]


def test_versality_ak_basis():
    for k in range(1, 7):
        dim, basis, ok = versality_dimension(_akpoly(k), 2 * k + 2)
        assert ok and dim == k
        assert basis == [(j, 0) for j in range(k)]  # 1, x, ..., x^(k-1)


def test_versality_x_is_zero():
    dim, basis, ok = versality_dimension(plane({(1, 0): 1}), 5)
    assert ok and dim == 0 and basis == []


def test_quasi_homogeneous_versality_equals_milnor():
    for k in range(1, 7):
        mu, _ = milnor_number(_akpoly(k), 2 * k + 2)
        dim, _, _ = versality_dimension(_akpoly(k), 2 * k + 2)
        assert mu == dim


def test_check_versal_family():
    # y^2 + x^(k+1) + sum_j lambda_j x^j is versal
    for k in range(2, 6):
        F = _akpoly(k)
        tangents = [plane({(j, 0): 1}) for j in range(1, k)]
        dim, basis, versal, ok = check_versal(F, tangents, 2 * k + 2)
        assert ok and versal and (dim, basis) == (k, [(j, 0) for j in range(k)])


def test_check_versal_needs_parameters():
    # y^2 + x^3 with no parameters: quotient dim 2, {1} insufficient
    dim, _, versal, ok = check_versal(plane({(0, 2): 1, (3, 0): 1}), [], 8)
    assert ok and not versal and dim == 2
    # Morse germ needs none
    dim2, _, versal2, ok2 = check_versal(plane({(2, 0): 1, (0, 2): 1}), [], 6)
    assert ok2 and versal2 and dim2 == 1


def test_poisson_bracket():
    x = plane({(1, 0): 1})
    y = plane({(0, 1): 1})
    assert poisson(x, y) == plane({(0, 0): 1})
    assert poisson(y, x) == plane({(0, 0): -1})


def test_dimensions_nonincreasing_once_stabilized():
    F = _akpoly(3)
    dims = [versality_dimension(F, d)[0] for d in range(4, 10)]
    stab = [versality_dimension(F, d)[2] for d in range(4, 10)]
    for i in range(1, len(dims)):
        if stab[i - 1]:
            assert dims[i] <= dims[i - 1]


# (symbol, parameters, cutoff).  The first three and p^2+q^2 change their
# output when the family is capped at cutoff + 1 instead of cutoff + 2.
CAPPED_FAMILIES = [
    ("q^5+p^2", (), 3),
    ("q^4+p^2", (), 2),
    ("q^3+p^2", (), 1),
    ("p^3+q^5*p^2+l1*q", ("l1",), 9),
    ("p^2+q^4+l1*q+l2*q^2", ("l1", "l2"), 8),
    ("(q+p)^5", (), 2),
    ("q^3+p^3+l1*q*p^4", ("l1",), 4),
    ("p^2+q^2", (), 0),
    ("q^2*p^2+q^7+l1*p+l2*q^3", ("l1", "l2"), 3),
]
WHOLE = 12  # _plane_family elaborates at degree WHOLE + 2, past every symbol above


@pytest.mark.parametrize("symbol, params, cutoff", CAPPED_FAMILIES, ids=[c[0] for c in CAPPED_FAMILIES])
def test_family_capped_at_cutoff_plus_two_is_exact(symbol, params, cutoff):
    from qmorse.cli import _plane_family

    poly, tangents = _plane_family(symbol, params, cutoff)
    whole, whole_tangents = _plane_family(symbol, params, WHOLE)
    assert whole.max_weight2() < WHOLE
    assert milnor_number(poly, cutoff) == milnor_number(whole, cutoff)
    assert versality_dimension(poly, cutoff) == versality_dimension(whole, cutoff)
    assert check_versal(poly, tangents, cutoff) == check_versal(whole, whole_tangents, cutoff)


@pytest.mark.parametrize("seed", range(8))
def test_shifted_rows_eliminate_like_product_rows(seed):
    """The rows a monomial times a series makes by `shift` keep terms above
    degree D; the elimination reads only columns of degree <= D, so rank and
    pivots equal those of the rows formed as products capped at D."""
    rng = random.Random(500 + seed)
    if seed < 3:
        F = _akpoly(2 * seed + 1)
    else:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            ex, ey = rng.randint(0, 5), rng.randint(0, 5)
            if ex + ey:
                terms[(ex, ey)] = rng.choice(COPRIME + [random_coeff(rng)])
        F = plane(terms)
    for d in range(7):
        cols = milnor._monomials(d)
        for rows, by_products in (
            (milnor._jacobian_rows, jacobian_rows_by_products),
            (milnor._versality_rows, versality_rows_by_products),
        ):
            assert set(milnor._reduce(rows(F, d), cols, {})) == set(milnor._reduce(by_products(F, d), cols, {}))


def test_monomial_rows_form_no_series_product(monkeypatch):
    """Neither the Jacobian rows nor the versality rows form a `ScalarSeries`
    product: a Poisson bracket {m, F} of a monomial is two scaled shifts."""
    products = []
    multiply = ScalarSeries.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    F = plane({(3, 0): 1, (0, 2): 1, (1, 1): 2})
    monkeypatch.setattr(ScalarSeries, "__mul__", counting)
    milnor._jacobian_rows(F, 5)
    assert products == []
    rows = milnor._versality_rows(F, 5)
    assert products == []
    monkeypatch.undo()
    # the brackets equal those formed by `poisson`, the first rows of the oracle
    brackets = [r for r in versality_rows_by_products(F, 5)[: len(milnor._monomials(5 + 3))] if r]
    assert rows[: len(brackets)] == brackets


def test_check_versal_builds_each_degree_once(monkeypatch):
    """check_versal builds the rows at D once, for the quotient dimension and
    the span, and at D + 1 once, for the stabilization flag."""
    from qmorse.cli import _plane_family

    poly, tangents = _plane_family("p^3+q^5+q^2*p", (), 9)
    expected = check_versal(poly, tangents, 9)
    builds, products = [], []
    rows, multiply = milnor._versality_rows, ScalarSeries.__mul__

    def counting_rows(F, degree):
        builds.append(degree)
        return rows(F, degree)

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(milnor, "_versality_rows", counting_rows)
    monkeypatch.setattr(ScalarSeries, "__mul__", counting)
    assert check_versal(poly, tangents, 9) == expected
    assert sorted(builds) == [9, 10] and products == []


def test_versal_command_runs_two_eliminations(monkeypatch, capsys):
    """`qmorse versal` prints dim, basis, versal and stabilized from two
    quotients, one at the cutoff D (continued with 1 and the tangents) and one
    at D + 1."""
    import json

    from qmorse import cli

    degrees = []
    quotient = milnor._quotient

    def counting(F, degree):
        degrees.append(degree)
        return quotient(F, degree)

    monkeypatch.setattr(milnor, "_quotient", counting)
    assert cli.main(["versal", "--symbol", "p^2+q^4+l1*q+l2*q^2", "--params", "l1,l2", "--cutoff", "8"]) == 0
    assert degrees == [8, 9]
    out = json.loads(capsys.readouterr().out)
    assert (out["dim"], out["basis"], out["versal"], out["stabilized"]) == (3, ["1", "x", "x^2"], True, True)

