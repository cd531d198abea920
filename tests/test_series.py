"""QSeries / ScalarSeries container semantics: caps, canonical form, JSON."""

import random
from fractions import Fraction

import pytest

from qmorse._kernel import COEFF_ZERO, coeff_add, coeff_mul
from qmorse.algebra import from_pq, to_ordered, to_pq, total_symbol
from qmorse.errors import DomainError, ResourceError
from qmorse.field import Coefficient
from qmorse.milnor import plane
from qmorse.series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_NHT,
    SIG_PLANE,
    SIG_ZHT,
    a_op,
    adag,
    harmonic,
    hbar_op,
    one,
    q_op,
    series_from_json,
    t_op,
)
from qmorse.spectrum import FockVector

from oracles import COPRIME, qmul_per_pair, random_qseries


def test_zero_series_has_empty_map():
    f = QSeries({(0, 0, 0, 0): 0}, t_cap=2, weight_cap=4)
    assert len(f) == 0 and not f


def test_caps_truncate_on_construction():
    f = QSeries({(4, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 0, 0, 3): 1}, t_cap=2, weight_cap="3/2")
    assert len(f) == 1
    assert f.coeff((1, 0, 0, 0)) == Coefficient(1)


def test_half_integer_weight_cap():
    f = QSeries({(1, 0, 0, 0): 1}, t_cap=0, weight_cap="1/2")
    assert len(f) == 1
    assert f.weight_cap == Fraction(1, 2)
    with pytest.raises(ValueError):
        QSeries({}, t_cap=0, weight_cap="1/3")


def test_mul_takes_min_caps():
    f = adag(4, 8)
    g = a_op(2, 3)
    h = f * g
    assert h.t_cap == 2 and h.weight_cap == Fraction(3)


def test_insertion_order_is_canonicalized():
    items = [((1, 1, 0, 0), 2), ((0, 0, 1, 0), 1), ((2, 2, 0, 0), Fraction(1, 3))]
    f = QSeries(dict(items), t_cap=2, weight_cap=8)
    g = QSeries(dict(reversed(items)), t_cap=2, weight_cap=8)
    assert f == g
    assert f.to_json() == g.to_json()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QSeries({(-1, 0, 0, 0): 1}, t_cap=1, weight_cap=2)


def test_shift_refuses_negative_powers_and_names_unknown_variables():
    """A shift by a negative power would hold negative exponents, which no
    value may (construction refuses them); an unknown variable is named."""
    f = q_op(4, 4) + t_op(4, 4)
    with pytest.raises(ValueError, match="negative power t"):
        f.shift(t=-1)
    with pytest.raises(ValueError, match="negative power"):
        f.shift(hbar=1, adag=-2)
    s = ScalarSeries({(1, 0, 1): 1}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    for value in (f, s):
        for call in (
            lambda: value.shift(x=1), lambda: value.var_slice("x", 0),
            lambda: value.deriv("x"), lambda: value.var_degree("x"),
        ):
            with pytest.raises(ValueError, match="unknown variable 'x'"):
                call()


def test_term_guard(monkeypatch):
    monkeypatch.setenv("QMORSE_TERM_GUARD", "3")
    f = QSeries({(i, 0, 0, 0): 1 for i in range(6)}, t_cap=0, weight_cap=12)
    with pytest.raises(ResourceError):
        _ = f * f


def test_json_round_trip_qseries():
    rng = random.Random(7)
    for _ in range(20):
        f = random_qseries(rng)
        assert QSeries.from_json(f.to_json()) == f
    assert isinstance(series_from_json(harmonic(2, 4).to_json()), QSeries)


def test_json_weight_cap_rendering():
    f = QSeries({(1, 0, 0, 0): 1}, t_cap=0, weight_cap="7/2")
    payload = f.to_json()
    assert payload["weight_cap"] == "7/2"
    assert payload["terms"][0]["coef"] == {"r": "1", "i": "0", "r2": "0", "ir2": "0"}
    assert QSeries.from_json(payload) == f


def test_scalar_signature_mismatch_is_error():
    s1 = ScalarSeries({(0, 0): 1}, vars=SIG_HT, t_cap=2, weight_cap=4)
    s2 = ScalarSeries({(0, 0, 0): 1}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    with pytest.raises(DomainError):
        _ = s1 + s2  # type: ignore[operator]


def test_scalar_series_mul_and_caps():
    z = ScalarSeries({(1, 0, 0): 1}, vars=SIG_ZHT, t_cap=2, weight_cap=1)
    z2 = z * z
    assert not z2  # weight cap 1 kills z^2
    z = ScalarSeries({(1, 0, 0): 1}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    assert (z * z).coeff((2, 0, 0)) == Coefficient(1)


def _naive_product(a, b):
    """Reference product: the untruncated double loop, cut to the smaller caps afterwards."""
    full = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            full[e] = full.get(e, Coefficient(0)) + c1 * c2
    return ScalarSeries(
        full,
        vars=a.vars,
        t_cap=min(a.t_cap, b.t_cap),
        weight_cap=min(a.weight_cap, b.weight_cap),
    )


# per signature: a, b as (terms, t_cap, weight_cap), and the one product term
# that survives, which sits exactly on the t cap and/or the weight cap
ON_CAP_PRODUCTS = {
    SIG_ZHT: (({(1, 0, 2): 1}, 3, 2), ({(1, 0, 1): 1, (1, 0, 2): 1, (2, 0, 1): 1}, 5, 3), (2, 0, 3)),
    SIG_NHT: (({(5, 1, 1): 1}, 2, 1), ({(3, 0, 1): 1, (0, 1, 1): 1, (1, 0, 2): 1}, 4, 3), (8, 1, 2)),
    SIG_PLANE: (({(1, 1): 1}, 0, 2), ({(2, 0): 1, (2, 1): 1}, 0, 3), (3, 1)),
}


@pytest.mark.parametrize("sig", list(ON_CAP_PRODUCTS), ids=["zht", "nht", "plane"])
def test_scalar_product_matches_naive_double_loop(sig):
    (ta, ca, wa), (tb, cb, wb), on_cap = ON_CAP_PRODUCTS[sig]
    a = ScalarSeries(ta, vars=sig, t_cap=ca, weight_cap=wa)
    b = ScalarSeries(tb, vars=sig, t_cap=cb, weight_cap=wb)
    assert list((a * b)._terms) == [on_cap]
    assert (a * b).to_json() == _naive_product(a, b).to_json()

    rng = random.Random(11)
    for _ in range(40):
        operands = []
        for _ in range(2):  # unequal caps, exponents on both sides of them
            terms = {
                tuple(rng.randint(0, 4) for _ in sig): Coefficient(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1)
                )
                for _ in range(rng.randint(0, 9))
            }
            t_cap, weight_cap = rng.randint(0, 5), Fraction(rng.randint(0, 12), 2)
            operands.append(ScalarSeries(terms, vars=sig, t_cap=t_cap, weight_cap=weight_cap))
        a, b = operands
        assert (a * b).to_json() == _naive_product(a, b).to_json()


def test_scalar_json_round_trip():
    s = ScalarSeries(
        {(1, 2, 0): Fraction(1, 3), (0, 0, 2): -2}, vars=SIG_ZHT, t_cap=4, weight_cap=8
    )
    assert ScalarSeries.from_json(s.to_json()) == s
    assert isinstance(series_from_json(s.to_json()), ScalarSeries)


def test_t_slice_and_dt():
    t = t_op(3, 4)
    f = harmonic(3, 4) + t * t
    assert f.var_slice("t", 2) == one(3, 4)
    assert f.deriv("t").var_slice("t", 1) == one(3, 4) + one(3, 4)  # d/dt t^2 = 2t


# Both series types over one shape of term map: a weight-1 variable (adag*a
# for QSeries, z for ScalarSeries over SIG_ZHT) to the power j, hbar^k, t^l.
SERIES_KINDS = {
    "qseries": (lambda terms, t_cap, w: QSeries(terms, t_cap=t_cap, weight_cap=w), lambda j, k, l: (j, j, k, l)),
    "scalar": (
        lambda terms, t_cap, w: ScalarSeries(terms, vars=SIG_ZHT, t_cap=t_cap, weight_cap=w),
        lambda j, k, l: (j, k, l),
    ),
}


@pytest.mark.parametrize("kind", list(SERIES_KINDS))
def test_shared_operations(kind):
    make, mono = SERIES_KINDS[kind]

    def series(terms, t_cap=2, weight_cap=2):
        return make({mono(*e): c for e, c in terms.items()}, t_cap, weight_cap)

    f = series({(0, 0, 0): 1, (1, 0, 1): Fraction(1, 2), (0, 1, 2): -3, (2, 0, 0): 2})
    assert len(f) == 4

    # shrinking truncates; extending keeps the very same term map
    g = f.with_caps(t_cap=1, weight_cap=1)
    assert (g.t_cap, g.w2_cap) == (1, 2)
    assert g == series({(0, 0, 0): 1, (1, 0, 1): Fraction(1, 2)}, 1, 1)
    h = g.with_caps(t_cap=5, weight_cap=4)
    assert (h.t_cap, h.w2_cap) == (5, 8) and h._terms is g._terms

    # sums take the smaller caps and cut only the wider operand
    assert (h + f).t_cap == 2 and (h + f).w2_cap == 4
    doubled = series({(0, 0, 0): 2, (1, 0, 1): 1, (0, 1, 2): -3, (2, 0, 0): 2})
    assert h + f == doubled and f + h == doubled
    wide = series({(0, 0, 3): 1, (3, 0, 0): 1, (0, 0, 0): -1}, 5, 4)
    rest = series({(1, 0, 1): Fraction(1, 2), (0, 1, 2): -3, (2, 0, 0): 2})
    assert wide + f == rest and f + wide == rest and f - series({(0, 0, 0): 1}, 5, 4) == rest

    # shifts drop what they push past the t cap or the weight cap
    assert f.shift(t=1) == series({(0, 0, 1): 1, (1, 0, 2): Fraction(1, 2), (2, 0, 1): 2})
    assert f.shift(hbar=1) == series({(0, 1, 0): 1, (1, 1, 1): Fraction(1, 2), (0, 2, 2): -3})
    assert f.shift(hbar=1, t=1) == series({(0, 1, 1): 1, (1, 1, 2): Fraction(1, 2)})
    assert f.shift(t=0) == f

    assert -f == f.scale(-1) and not f - f
    assert f.scale(Fraction(1, 2)).coeff(mono(2, 0, 0)) == Coefficient(1)
    zero = f.scale(0)
    assert not zero and (zero.t_cap, zero.w2_cap) == (2, 4)
    assert f**0 == f.one_like() and f**3 == f * f * f
    assert type(f).from_json(f.to_json()) == f and series_from_json(f.to_json()) == f

    # one t-free slice per t power through the cap, zero slices included;
    # joining reads no slice past the template's t cap and drops the terms
    # past its weight cap, and never reads the template's own terms
    slices = f.with_caps(t_cap=3).t_slices()
    assert [len(x) for x in slices] == [2, 1, 1, 0]
    assert all((x.t_cap, x.w2_cap) == (3, 4) for x in slices)
    assert slices[1] == series({(1, 0, 0): Fraction(1, 2)}) and slices[2] == series({(0, 1, 0): -3})
    assert f.join_t_slices(slices) == f and f.scale(0).join_t_slices(slices) == f
    joined = g.join_t_slices(slices)
    assert joined == g and (joined.t_cap, joined.w2_cap) == (1, 2)

    for caps in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            make({}, *caps)
        with pytest.raises(ValueError):
            f.with_caps(*caps)
    with pytest.raises(ValueError):
        f.with_caps(t_cap=-1, weight_cap=-3)


def test_plane_family_parameters_round_trip_json():
    def family(terms):
        return ScalarSeries(terms, vars=("x", "y", "lambda1", "lambda12"), t_cap=0, weight_cap=1)

    # the cap keeps total (x, y) degree 2 and every parameter power
    s = family({(1, 0, 3, 0): Fraction(1, 3), (0, 2, 0, 1): -2, (1, 2, 0, 0): 1})
    assert s == family({(1, 0, 3, 0): Fraction(1, 3), (0, 2, 0, 1): -2})
    assert ScalarSeries.from_json(s.to_json()) == s and series_from_json(s.to_json()) == s


@pytest.mark.parametrize(
    "vars",
    [
        ["adag", "a", "hbar", "t"], ["z", "a"], ["w", "t"],
        ["x", "lambda"], ["x", "lambda0"], ["x", "lambda01"], ["x", "Lambda1"], ["x", "lambda1y"],
        ["x", 1],
    ],
)
def test_scalar_from_json_rejects_foreign_variables(vars):
    payload = {"format": "qseries-v1", "vars": vars, "t_cap": 1, "weight_cap": "1", "terms": []}
    with pytest.raises(ValueError):
        ScalarSeries.from_json(payload)


def test_qseries_never_equals_a_scalar_series():
    q = harmonic(2, 4)
    s = total_symbol(q)
    assert s._terms == q._terms
    assert q != s and s != q


def test_div_hbar_exactness():
    assert hbar_op(1, 4).div_hbar() == one(1, 4)
    with pytest.raises(DomainError):
        q_op(1, 4).div_hbar()


def test_immutability_of_operands():
    f = harmonic(2, 4)
    g = adag(2, 4)
    before = f.to_json()
    _ = f * g
    _ = f + g
    _ = -f
    assert f.to_json() == before


def _render_cases():
    q = QSeries(
        {
            (0, 0, 0, 0): 1,
            (1, 0, 0, 0): 1,
            (0, 1, 0, 0): -1,
            (1, 1, 1, 2): Fraction(3, 2),
            (2, 0, 0, 0): Coefficient(0, 1),
            (0, 0, 1, 0): Coefficient(1, 0, -1),
        },
        t_cap=2,
        weight_cap=4,
    )
    s = ScalarSeries(
        {(0, 0, 0): Fraction(-1, 3), (1, 0, 0): -1, (0, 1, 1): 1, (2, 1, 0): Coefficient(0, 0, 2)},
        vars=SIG_ZHT,
        t_cap=2,
        weight_cap=4,
    )
    f = from_pq(
        {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (2, 0, 0, 0): -1, (0, 2, 1, 0): Fraction(1, 2)},
        t_cap=2,
        weight_cap=4,
    )
    return [
        (q, "1 + (1 - sqrt2)*hbar + -a + adag + (3/2)*adag*a*hbar*t^2 + (i)*adag^2"),
        (QSeries({}, t_cap=2, weight_cap=4), "0"),
        (s, "-1/3 + hbar*t + -z + (2*sqrt2)*z^2*hbar"),
        (ScalarSeries({}, vars=SIG_HT, t_cap=2, weight_cap=4), "0"),
        (to_pq(f), "1 + (1/2)*p^2*hbar + q*p + -q^2"),
        (to_ordered(f, "pq"), "1 + (i)*hbar + -q^2 + p*q + (1/2)*p^2*hbar"),
        (plane({(0, 0): -1, (1, 0): -1, (0, 1): 1, (2, 1): Fraction(1, 2)}), "-1 + y + -x + (1/2)*x^2*y"),
        (plane(), "0"),
        (
            FockVector({0: {-1: Fraction(1, 2), 0: 1}, 2: {1: Coefficient(0, 1)}, 3: {-2: -1}}),
            "(1/2)*hbar^-1 + 1 + (i)*z^2*hbar + -z^3*hbar^-2",
        ),
        (FockVector(), "0"),
    ]


@pytest.mark.parametrize(
    "value, expected",
    _render_cases(),
    ids=[
        "qseries", "qseries-zero", "scalar", "scalar-zero", "qp", "pq", "plane", "plane-zero",
        "fock", "fock-zero",
    ],
)
def test_term_rendering(value, expected):
    assert str(value) == expected


def _per_pair_product(a, b):
    """a * b with every pair product reduced by coeff_mul and summed by coeff_add."""
    out = {}
    for e1, c1 in a._terms.items():
        for e2, c2 in b._terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = coeff_add(out.get(e, COEFF_ZERO), coeff_mul(c1, c2))
    t_cap, weight_cap = min(a.t_cap, b.t_cap), min(a.weight_cap, b.weight_cap)
    return ScalarSeries(out, vars=a.vars, t_cap=t_cap, weight_cap=weight_cap)._terms


def test_scalar_product_matches_per_pair_reduction():
    c0, c1, c2 = COPRIME
    # unequal caps, joined at t^2 and weight 3; pairs land on each cap and past it
    a = ScalarSeries(
        {(1, 0, 1): c0, (0, 1, 0): c1, (0, 0, 2): c2, (0, 0, 0): c1, (1, 0, 0): c2},
        vars=SIG_ZHT,
        t_cap=3,
        weight_cap=3,
    )
    b = ScalarSeries(
        {(1, 1, 1): c2, (0, 0, 0): c0, (0, 1, 1): c1, (2, 0, 0): c0}, vars=SIG_ZHT, t_cap=2, weight_cap=4
    )
    for x, y in ((a, b), (b, a)):
        out = (x * y)._terms
        assert out == _per_pair_product(x, y)
        assert any(e[2] == 2 for e in out) and any(e[0] + e[1] == 3 for e in out)
    # z/3 + hbar/5 times hbar/7 - (5/21) z: the z hbar sums cancel exactly
    x = ScalarSeries({(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(1, 5)}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    y = ScalarSeries({(0, 1, 0): Fraction(1, 7), (1, 0, 0): Fraction(-5, 21)}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    out = (x * y)._terms
    assert (1, 1, 0) not in out and out == _per_pair_product(x, y)
    assert out == {(2, 0, 0): (-5, 0, 0, 0, 63), (0, 2, 0): (1, 0, 0, 0, 35)}


@pytest.mark.parametrize("sig", [SIG_ZHT, SIG_NHT, ("x", "y", "lambda1", "lambda2")])
def test_scalar_product_is_one_run_of_the_operator_loop(monkeypatch, sig):
    """Each `ScalarSeries` product is one `_kernel.qmul_packed` call over one
    pair, whose every term carries adag and a powers 0, so no term contracts;
    the product equals the naive double loop."""
    from qmorse import _kernel

    rng = random.Random(len(sig))
    calls = []
    qmul_packed = _kernel.qmul_packed

    def recording(pairs, *rest):
        calls.append(pairs)
        return qmul_packed(pairs, *rest)

    def operand():
        terms = {tuple(rng.randint(0, 2) for _ in sig): rng.choice(COPRIME) for _ in range(5)}
        return ScalarSeries(terms, vars=sig, t_cap=3, weight_cap=4)

    monkeypatch.setattr(_kernel, "qmul_packed", recording)
    for _ in range(4):
        a, b = operand(), operand()
        del calls[:]
        assert (a * b).to_json() == _naive_product(a, b).to_json()
        assert len(calls) == 1 and len(calls[0]) == 1
        terms = [term for operand in calls[0][0] for p in operand[1].values() for term in p]
        assert terms and all(term[3] == term[4] == 0 for term in terms)


PLANE_FAMILY = ("x", "y", "lambda1", "lambda2")


@pytest.mark.parametrize("sig", ["operator", SIG_ZHT, SIG_NHT, PLANE_FAMILY], ids=["q", "zht", "nht", "plane-family"])
def test_product_sum_is_the_per_pair_sum_then_scaled(monkeypatch, sig):
    """`product_sum(pairs, div)` equals the per-pair products summed as
    series and then scaled by 1/div, negative div included, at the smallest
    caps of all the operands (here always those of the last pair's right
    operand), in one `_kernel.qmul_packed` call.  The n and lambda exponents
    reach 40 and 30 under a weight cap of at most 4, so the key width comes
    from the operands' largest weight-0 exponents, not from the caps."""
    from qmorse import _kernel
    from qmorse.series import product_sum

    rng = random.Random(str(sig))
    calls = []
    qmul_packed = _kernel.qmul_packed

    def recording(pairs, *rest):
        calls.append(len(pairs))
        return qmul_packed(pairs, *rest)

    def operand(t_cap, weight_cap):
        if sig == "operator":
            return random_qseries(rng, t_cap=t_cap, weight_cap=weight_cap, max_terms=5)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exp = [rng.randint(0, 2) for _ in sig]
            if sig != SIG_ZHT and rng.randrange(2):
                exp[0 if sig == SIG_NHT else 2] = rng.choice((20, 30, 40))
            terms[tuple(exp)] = rng.choice(COPRIME)
        return ScalarSeries(terms, vars=sig, t_cap=t_cap, weight_cap=weight_cap)

    def product(a, b):
        if sig == "operator":
            return QSeries._from_raw(qmul_per_pair(a, b), *a._join_caps(b))
        return _naive_product(a, b)

    monkeypatch.setattr(_kernel, "qmul_packed", recording)
    nonzero = 0
    for div in (1, 3, -2):
        for size in (1, 2, 4, 4):
            pairs = [(operand(4, 4), operand(3, "7/2")) for _ in range(size)]
            pairs[-1] = (pairs[-1][0], operand(2, "5/2"))
            reference = product(*pairs[0])
            for a, b in pairs[1:]:
                reference = reference + product(a, b)
            reference = reference.scale(Fraction(1, div))
            del calls[:]
            got = product_sum(pairs, div)
            assert calls == [size] and got == reference
            assert (got.t_cap, got.w2_cap) == (reference.t_cap, reference.w2_cap) == (2, 5)
            nonzero += bool(got)
    assert nonzero >= 8


def test_product_sum_refuses_mixed_signatures_and_keeps_the_guard(monkeypatch):
    """A pair list of mixed signatures, or of operators and scalars, is a
    DomainError before any product; under ``QMORSE_TERM_GUARD=1`` the one
    `_kernel.qmul_packed` call raises ResourceError."""
    from qmorse import _kernel
    from qmorse.series import product_sum

    z = ScalarSeries({(1, 0, 0): 1, (0, 1, 0): 1}, vars=SIG_ZHT, t_cap=2, weight_cap=4)
    n = ScalarSeries({(1, 0, 0): 1}, vars=SIG_NHT, t_cap=2, weight_cap=4)
    q = q_op(2, 4)
    calls = []
    qmul_packed = _kernel.qmul_packed

    def recording(pairs, *rest):
        calls.append(len(pairs))
        return qmul_packed(pairs, *rest)

    monkeypatch.setattr(_kernel, "qmul_packed", recording)
    for pairs in ([(z, z), (n, n)], [(z, n)], [(q, q), (z, z)], [(q, z)]):
        with pytest.raises(DomainError):
            product_sum(pairs)
    assert calls == []
    assert len(product_sum([(z, z), (z, z.shift(t=1))], -1)) == 6
    monkeypatch.setenv("QMORSE_TERM_GUARD", "1")
    with pytest.raises(ResourceError):
        product_sum([(z, z), (z, z.shift(t=1))], -1)
    assert calls == [2, 2]


def test_scalar_product_term_guard(monkeypatch):
    z, hb = (ScalarSeries({e: 1}, vars=SIG_ZHT, t_cap=0, weight_cap=8) for e in ((1, 0, 0), (0, 1, 0)))
    s = z + hb
    assert len(s * s) == 3
    monkeypatch.setenv("QMORSE_TERM_GUARD", "1")
    with pytest.raises(ResourceError):
        _ = s * s


def _horner(s, var, value):
    """``s(var = value)`` by Horner steps, each product by `_naive_product`."""
    out = s.zero_like()
    for power in range(s.var_degree(var), -1, -1):
        out = _naive_product(out, value) + s.var_slice(var, power)
    return out


def test_packed_product_at_the_width_edges():
    """Products whose packed keys sit at the edges of their field width.

    The width comes from the joined caps, except for a variable of weight 0
    other than t, which is bounded by the operands' largest exponents: here
    n^300 * n^300 and a plane family's lambda1^1000, far past the caps.
    """
    c0, c1, c2 = COPRIME
    a = ScalarSeries({(300, 1, 0): c0, (2, 0, 1): c1, (300, 0, 2): c2}, vars=SIG_NHT, t_cap=2, weight_cap=2)
    b = ScalarSeries({(300, 0, 1): c2, (0, 1, 0): c0, (1, 1, 1): c1}, vars=SIG_NHT, t_cap=3, weight_cap=1)
    for x, y in ((a, b), (b, a), (a, a)):
        assert (x * y).to_json() == _naive_product(x, y).to_json()
    assert (a * a).coeff((600, 0, 0)) == Coefficient(0) and (a * b).coeff((600, 1, 1)) == c0 * c2
    family = ("x", "y", "lambda1")
    f = ScalarSeries({(1, 0, 1000): c0, (0, 2, 0): c1, (1, 1, 1): c2}, vars=family, t_cap=0, weight_cap=2)
    g = ScalarSeries({(0, 1, 1000): c1, (0, 0, 1): c2, (3, 0, 0): 1}, vars=family, t_cap=0, weight_cap="3/2")
    for x, y in ((f, g), (g, f), (f, f)):
        assert (x * y).to_json() == _naive_product(x, y).to_json()
    assert (f * g).coeff((1, 1, 2000)) == c0 * c1


def test_subs_series_after_a_product_at_other_caps():
    """A value packed by a product at other caps is packed afresh when its key
    width changes, and read as kept when only the caps differ: the result
    equals the Horner loop over `_naive_product` either way."""
    c0, c1, c2 = COPRIME

    def value():
        return ScalarSeries(
            {(1, 0, 0): 1, (2, 0, 1): c0, (0, 1, 1): c1, (3, 1, 2): c2, (9, 0, 3): c0}, vars=SIG_ZHT, t_cap=6, weight_cap=15
        )

    s = ScalarSeries({(1, 0, 0): c1, (2, 0, 1): c2, (4, 1, 0): c0, (0, 0, 2): 1}, vars=SIG_ZHT, t_cap=6, weight_cap=15)
    expected = _horner(s, "z", value())
    assert s.subs_series("z", value()) == expected and expected
    for other_caps in ((2, 2), (6, 14)):  # a key width of 3 bits, then the same 5 bits as s
        v = value()
        other = ScalarSeries({(1, 1, 0): c2, (0, 0, 1): c1}, vars=SIG_ZHT, t_cap=other_caps[0], weight_cap=other_caps[1])
        assert (other * v).to_json() == _naive_product(other, v).to_json()
        assert s.subs_series("z", v) == expected
        assert (other * v).to_json() == _naive_product(other, v).to_json()


def test_scalar_kept_form_serves_any_partner_caps():
    """A value first multiplied by a narrow-cap partner (t cap 1, weight
    5/2) keeps its whole packed form, and multiplies exactly, in either
    order, by a wide-cap partner (t cap 3, weight 7/2) at the same key width
    of 3 bits; a plane family with a weight-0 parameter does the same."""
    from qmorse import _kernel

    c0, c1, c2 = COPRIME
    for vars, terms, narrow, wide in (
        (SIG_ZHT, {(1, 0, 0): c0, (2, 0, 2): c1, (0, 1, 3): c2, (3, 0, 1): 1},
         {(1, 0, 0): c1, (0, 1, 1): c2}, {(1, 0, 1): c0, (0, 1, 2): c1, (2, 0, 0): 1}),
        (("x", "y", "lambda1"), {(1, 0, 1): c0, (2, 3, 0): c1, (0, 5, 2): c2},
         {(1, 0, 1): c2, (0, 1, 0): 1}, {(0, 2, 1): c1, (1, 0, 2): c0}),
    ):
        t_cap = 3 if "t" in vars else 0
        narrow = ScalarSeries(narrow, vars=vars, t_cap=min(t_cap, 1), weight_cap="5/2")
        wide = ScalarSeries(wide, vars=vars, t_cap=t_cap, weight_cap="7/2")
        value = ScalarSeries(terms, vars=vars, t_cap=t_cap, weight_cap="7/2")
        assert (narrow * value).to_json() == _naive_product(narrow, value).to_json()
        S = value._pack[0]
        assert value._pack[1] == _kernel.pack_terms(value._terms, S, value._weights, value._ti, False)
        for x, y in ((value, wide), (wide, value)):
            out = x * y
            assert value._pack[0] == S and out.to_json() == _naive_product(x, y).to_json()
            assert out != out.with_caps(t_cap=narrow.t_cap, weight_cap="5/2")  # terms past the narrow caps


def test_power_past_the_weight_cap_forms_no_product(monkeypatch, capsys):
    """``(q+p)^99999`` at weight cap 64 is zero: each of its terms weighs at
    least 99999/2, so no product is formed, and `qmorse spectrum` prints
    what it prints for the perturbation 0."""
    from qmorse import _kernel, cli
    from qmorse.parser import elaborate, parse_expr

    calls = []
    qmul_packed = _kernel.qmul_packed

    def counting(pairs, *rest):
        calls.append(len(pairs))
        return qmul_packed(pairs, *rest)

    monkeypatch.setattr(_kernel, "qmul_packed", counting)
    g = elaborate(parse_expr("(q+p)^99999"), 2, "64")
    assert not g and (g.t_cap, g.w2_cap) == (2, 128) and calls == []
    outputs = []
    for text in ("(q+p)^99999", "0"):
        assert cli.main(["spectrum", "--perturbation", text, "--order", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _random_power_base(rng, kind):
    """A QSeries, or a ScalarSeries over (z, hbar, t) or (n, hbar, t), of 1-3
    terms; every third one carries a term of weight 0 (t^l, or n^j t^l)."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        l = rng.randint(0, 2)
        if kind == "q":
            exp = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), l)
        else:
            exp = (rng.randint(0 if kind == "n" else 1, 2), rng.randint(0, 1), l)
        terms[exp] = rng.choice(COPRIME)
    if rng.randrange(3) == 0:
        terms[(0, 0, 0, rng.randint(0, 1)) if kind == "q" else (rng.randint(0, 2) if kind == "n" else 0, 0, 1)] = 1
    return terms


@pytest.mark.parametrize("kind", ["q", "z", "n"])
def test_power_equals_repeated_products_around_the_floor(kind):
    """``x ** n`` equals ``x * x * ... * x`` on both sides of the floor ``n *
    (lightest doubled weight) > w2_cap`` or ``n * (lowest t power) > t_cap``,
    where the power is zero without a product; a term of weight 0 puts the
    weight floor at 0, so only the caps truncate."""
    vars = {"z": SIG_ZHT, "n": SIG_NHT}.get(kind)
    weights = (1, 1, 2, 0) if kind == "q" else ((0 if kind == "n" else 2), 2, 0)
    rng = random.Random(4099)
    sides = set()
    for _ in range(60):
        terms = _random_power_base(rng, kind)
        n = rng.randint(1, 4)
        light = min(sum(e * w for e, w in zip(exp, weights)) for exp in terms)
        low = min(exp[-1] for exp in terms)
        w2_cap = max(n * light + rng.randint(-1, 1), 0)
        t_cap = max(n * low + rng.randint(-1, 1), 0)
        if kind == "q":
            x = QSeries(terms, t_cap=t_cap, weight_cap=Fraction(w2_cap, 2))
        else:
            x = ScalarSeries(terms, vars=vars, t_cap=t_cap, weight_cap=Fraction(w2_cap, 2))
        if not x:
            continue
        expected = x.one_like()
        for _ in range(n):
            expected = expected * x
        got = x ** n
        assert got == expected and (got.t_cap, got.w2_cap) == (expected.t_cap, expected.w2_cap)
        floor = n * min(sum(e * w for e, w in zip(exp, weights)) for exp in x._terms) > x.w2_cap
        floor = floor or n * min(exp[-1] for exp in x._terms) > x.t_cap
        light0 = any(sum(e * w for e, w in zip(exp, weights)) == 0 for exp in x._terms)
        sides.add((floor, bool(expected), light0))
        if floor:
            assert not got
    assert {(True, False, False), (False, True, False), (False, True, True)} <= sides
