"""Algebra operations against the spec'd identities and the word-rewriting oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from qmorse import algebra
from qmorse.errors import DomainError
from qmorse.field import Coefficient, I, SQRT2
from qmorse.series import (
    QSeries,
    ScalarSeries,
    SIG_HT,
    SIG_ZHT,
    a_op,
    adag,
    const,
    harmonic,
    hbar_op,
    one,
    p_op,
    q_op,
    t_op,
)

from oracles import (
    COPRIME,
    bracket_per_pair,
    normal_order_word,
    qmul_per_pair,
    random_coeff,
    random_qseries,
    substitute_per_monomial,
    word_to_qseries,
)

CAPS = dict(t_cap=2, weight_cap="12")


def _gens():
    return (
        a_op(**CAPS),
        adag(**CAPS),
        hbar_op(**CAPS),
        q_op(**CAPS),
        p_op(**CAPS),
    )


def test_basic_commutators():
    a, ad, hb, q, p = _gens()
    assert algebra.commutator(a, ad) == hb
    assert algebra.commutator(p, q) == hb.scale(-I)
    assert algebra.commutator(hb, q) == q - q
    assert algebra.commutator(t_op(**CAPS), p) == q - q
    f = random_qseries(random.Random(1))
    assert algebra.commutator(f, f) == f - f


def test_ad_a_product():
    a, ad, hb, *_ = _gens()
    n = ad * a
    assert n * n == ad * ad * a * a + hb * ad * a


def test_mul_matches_word_oracle_up_to_length_6():
    for length in range(1, 7):
        for word in itertools.product("ad", repeat=length):
            word = "".join(word)
            expected = normal_order_word(word)
            got = word_to_qseries(word, 0, "6")
            assert len(got) == len(expected), word
            for (m, n, k), coef in expected.items():
                assert got.coeff((m, n, k, 0)) == Coefficient(coef), word


def test_mul_bilinear_and_associative_randomized():
    rng = random.Random(42)
    for _ in range(25):
        f = random_qseries(rng, t_cap=3, weight_cap="20")
        g = random_qseries(rng, t_cap=3, weight_cap="20")
        h = random_qseries(rng, t_cap=3, weight_cap="20")
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)


def test_from_pq_examples():
    q, p = q_op(**CAPS), p_op(**CAPS)
    hb = hbar_op(**CAPS)
    assert p * p + q * q == harmonic(**CAPS)
    # q in normal order
    expected_q = QSeries(
        {(1, 0, 0, 0): Coefficient(0, 0, 0, Fraction(-1, 2)),
         (0, 1, 0, 0): Coefficient(0, 0, 0, Fraction(1, 2))},
        **CAPS,
    )
    assert q == expected_q
    assert const(1, **CAPS) == one(**CAPS)
    _ = hb


def test_to_pq_round_trip_and_ordering():
    rng = random.Random(5)
    for _ in range(15):
        f = random_qseries(rng, t_cap=2, weight_cap="16", max_exp=2)
        view = algebra.to_pq(f)
        assert algebra.from_pq(view) == f
        view2 = algebra.to_ordered(f, "pq")
        assert algebra.from_ordered(view2) == f


@pytest.mark.parametrize("order", ["qp", "pq"])
def test_from_ordered_equals_per_monomial_ordering(order):
    """One `substitute` call over all monomials equals ordering each monomial
    by its own binary powers, in value and caps, with exponents up to 5, hbar
    and t powers, Q(i, sqrt2) coefficients and terms past the weight cap."""
    rng = random.Random(41 if order == "qp" else 43)
    for _ in range(12):
        w2 = rng.randint(7, 20)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = (rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 2), rng.randint(0, 2))
            terms[key] = rng.choice(COPRIME + [random_coeff(rng)]).raw
        qs, ps = q_op(2, Fraction(w2, 2)), p_op(2, Fraction(w2, 2))
        x, y = (qs, ps) if order == "qp" else (ps, qs)
        got = algebra.from_ordered(algebra.OrderedPQ(order, terms, 2, w2))
        assert got == substitute_per_monomial(terms, x, y)
        assert (got.t_cap, got.w2_cap) == (2, w2)


def test_substitute_takes_the_smaller_caps_of_its_images():
    """A term past the narrower image's caps is missing, not zero, so
    `substitute` returns at the smaller caps of x and y: q p^2 (weight 3/2,
    6 terms at weight cap 4) is no term at weight cap 1/2, a cap its result
    states.  Either image may be the narrower one, by t cap or weight cap,
    and the monomial-by-monomial route agrees in value and caps; an empty
    sum is zero at the same caps."""
    from qmorse._kernel import COEFF_ONE

    terms = {(1, 2, 0, 0): COEFF_ONE, (0, 1, 1, 1): COPRIME[0].raw}
    q, p = q_op(2, 4), p_op(2, 4)
    wide = algebra.substitute({(1, 2, 0, 0): COEFF_ONE}, q, p)
    assert wide == q * p * p and len(wide) == 6 and (wide.t_cap, wide.w2_cap) == (2, 8)
    narrow = algebra.substitute({(1, 2, 0, 0): COEFF_ONE}, q, p_op(2, "1/2"))
    assert not narrow and (narrow.t_cap, narrow.w2_cap) == (2, 1)
    for x, y in ((q, p_op(2, "1/2")), (q_op(2, "3/2"), p), (q_op(0, 4), p), (q, p_op(1, "5/2"))):
        got = algebra.substitute(terms, x, y)
        caps = (min(x.t_cap, y.t_cap), min(x.w2_cap, y.w2_cap))
        assert got == substitute_per_monomial(terms, x, y) and (got.t_cap, got.w2_cap) == caps
        empty = algebra.substitute({}, x, y)
        assert not empty and (empty.t_cap, empty.w2_cap) == caps


def test_to_pq_of_qp():
    q, p = q_op(**CAPS), p_op(**CAPS)
    view = algebra.to_pq(q * p)
    assert view.coeff((1, 1, 0, 0)) == Coefficient(1)
    assert len(view.terms) == 1
    # pq = qp - i hbar has a genuine hbar term in the q-before-p basis
    view2 = algebra.to_pq(p * q)
    assert view2.coeff((1, 1, 0, 0)) == Coefficient(1)
    assert view2.coeff((0, 0, 1, 0)) == -I


def test_symbols():
    a, ad, hb, q, p = _gens()
    f = ad * a + hb
    total = algebra.total_symbol(f)
    assert total.coeff((1, 1, 0, 0)) == Coefficient(1)
    assert total.coeff((0, 0, 1, 0)) == Coefficient(1)
    principal = algebra.principal_symbol(f)
    assert principal.coeff((1, 1, 0)) == Coefficient(1)
    assert len(principal) == 1
    assert not algebra.principal_symbol(hb * hb)


def test_symbol_is_ring_homomorphism():
    rng = random.Random(9)
    for _ in range(20):
        f = random_qseries(rng, t_cap=2, weight_cap="24")
        g = random_qseries(rng, t_cap=2, weight_cap="24")
        assert algebra.principal_symbol(f * g) == algebra.principal_symbol(
            f
        ) * algebra.principal_symbol(g)


def test_borel_and_inverse():
    terms = {(0, 0, k, 0): Fraction(__import__("math").factorial(k)) for k in range(6)}
    f = QSeries(terms, t_cap=0, weight_cap=12)
    b = algebra.borel(f)
    for k in range(6):
        assert b.coeff((0, 0, k, 0)) == Coefficient(1)
    assert algebra.borel_inverse(b) == f
    n = adag(**CAPS) * a_op(**CAPS)
    assert algebra.borel(n) == n


def test_borel_convolution_identity():
    rng = random.Random(3)
    for _ in range(15):
        u = ScalarSeries(
            {(rng.randint(0, 4), rng.randint(0, 1)): rng.randint(1, 5) for _ in range(3)},
            vars=SIG_HT, t_cap=2, weight_cap=20,
        )
        v = ScalarSeries(
            {(rng.randint(0, 4), rng.randint(0, 1)): Fraction(rng.randint(-4, 4), 3) for _ in range(3)},
            vars=SIG_HT, t_cap=2, weight_cap=20,
        )
        assert algebra.borel(u * v) == algebra.hbar_convolve(algebra.borel(u), algebra.borel(v))


def test_dagger():
    a, ad, hb, q, p = _gens()
    assert algebra.dagger(a) == ad
    assert algebra.dagger(ad * a) == ad * a
    assert algebra.dagger(q * p) == p * q
    rng = random.Random(11)
    for _ in range(15):
        f = random_qseries(rng)
        g = random_qseries(rng)
        assert algebra.dagger(f * g) == algebra.dagger(g) * algebra.dagger(f)
        assert algebra.dagger(algebra.dagger(f)) == f
    # antilinear
    f = random_qseries(rng)
    assert algebra.dagger(f.scale(I)) == algebra.dagger(f).scale(-I)


def test_pi_restriction():
    a, ad, hb, *_ = _gens()
    assert not algebra.pi_restriction(ad * a)
    assert algebra.pi_restriction(a * ad).coeff((1, 0)) == Coefficient(1)
    f = const(3, **CAPS) * hb * hb + ad
    s = algebra.pi_restriction(f)
    assert s.coeff((2, 0)) == Coefficient(3) and len(s) == 1


def test_pairing():
    a, ad, hb, *_ = _gens()
    assert algebra.pairing(ad, ad).coeff((1, 0)) == Coefficient(1)
    import math

    for n in range(1, 5):
        adn = one(**CAPS)
        for _ in range(n):
            adn = adn * ad
        val = algebra.pairing(adn, adn)
        assert val.coeff((n, 0)) == Coefficient(math.factorial(n))
        assert len(val) == 1
    assert not algebra.pairing(one(**CAPS), a)


def test_pairing_positivity():
    rng = random.Random(13)
    for _ in range(20):
        # psi = sum c_n adag^n with Gaussian-rational c_n: leading coefficient
        # of P(psi, psi) is |c|^2 n0!, a positive rational
        terms = {}
        for n in rng.sample(range(5), rng.randint(1, 3)):
            terms[(n, 0, 0, 0)] = Coefficient(
                Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            )
        psi = QSeries(terms, **CAPS)
        if not psi:
            continue
        val = algebra.pairing(psi, psi)
        lead_k = min(k for (k, _) in val._terms)
        lead = val.coeff((lead_k, 0))
        assert lead.is_rational() and lead.sign_real() == 1


def test_tau_involution():
    s = ScalarSeries({(1, 0): I, (2, 0): Coefficient(3)}, vars=SIG_HT, t_cap=0, weight_cap=8)
    ts = algebra.tau(s)
    assert ts.coeff((1, 0)) == -I
    assert ts.coeff((2, 0)) == Coefficient(3)
    assert algebra.tau(ts) == s


def test_compose_scalar_examples():
    caps = dict(t_cap=2, weight_cap="12")
    f = adag(**caps) * a_op(**caps)
    z = ScalarSeries({(1, 0, 0): 1}, vars=SIG_ZHT, **caps)
    assert algebra.compose_scalar(z, f) == f
    z2 = z * z
    assert algebra.compose_scalar(z2, f) == f * f
    # u = sum z^k against 2 adag a + hbar: hbar^2 coefficient is 1
    u = ScalarSeries({(k, 0, 0): 1 for k in range(13)}, vars=SIG_ZHT, t_cap=2, weight_cap="12")
    out = algebra.compose_scalar(u, harmonic(**caps))
    assert out.coeff((0, 0, 2, 0)) == Coefficient(1)


def test_compose_scalar_precondition():
    caps = dict(t_cap=2, weight_cap="8")
    z = ScalarSeries({(1, 0, 0): 1}, vars=SIG_ZHT, **caps)
    bad = one(**caps) + adag(**caps)
    with pytest.raises(DomainError):
        algebra.compose_scalar(z, bad)
    # pure-hbar constant terms are fine
    ok = hbar_op(**caps) + adag(**caps)
    algebra.compose_scalar(z, ok)


def test_sqrt2_needed_for_pq():
    # p = (adag + a)/sqrt2: coefficient really lives in Q(sqrt2)
    p = p_op(**CAPS)
    c = p.coeff((1, 0, 0, 0))
    assert c == Coefficient(0, 0, Fraction(1, 2))
    assert c * SQRT2 == Coefficient(1)


def _bracket_reference(f, g):
    """(i/hbar)[f, g] formed the long way: both products at weight headroom
    +1 over the smaller cap, subtracted, divided by hbar, times i, re-capped."""
    t_cap, w2 = min(f.t_cap, g.t_cap), min(f.w2_cap, g.w2_cap)
    wide = Fraction(w2 + 2, 2)
    fe, ge = f.with_caps(weight_cap=wide), g.with_caps(weight_cap=wide)
    out = (fe * ge - ge * fe).div_hbar().scale(I)
    return out.with_caps(t_cap=t_cap, weight_cap=Fraction(w2, 2))


def _random_operand(rng):
    """Up to six terms, central and pure-hbar ones included, with random caps."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        m, n = (0, 0) if rng.random() < 0.25 else (rng.randint(0, 4), rng.randint(0, 4))
        terms[(m, n, rng.randint(0, 2), rng.randint(0, 3))] = random_coeff(rng)
    return QSeries(terms, t_cap=rng.randint(1, 5), weight_cap=Fraction(rng.randint(2, 14), 2))


def test_bracket_matches_the_product_construction():
    rng = random.Random(23)
    for _ in range(60):
        f, g = _random_operand(rng), _random_operand(rng)
        assert algebra.bracket_i_hbar(f, g).to_json() == _bracket_reference(f, g).to_json()
    # pure hbar and central operands bracket to zero
    f = QSeries({(0, 0, 1, 0): 2, (0, 0, 2, 1): I}, t_cap=2, weight_cap=6)
    assert not algebra.bracket_i_hbar(f, q_op(2, 6)) and not algebra.bracket_i_hbar(q_op(2, 6), f)


@pytest.mark.parametrize("t_cap, weight_cap", [(3, "3/2"), (2, "3/2"), (3, "1"), (3, "2")])
def test_bracket_output_on_the_caps(t_cap, weight_cap):
    # a^2 t (w=2) with adag^3 t^2 (w=3): every output term sits at t^3, weight 3/2
    f = QSeries({(0, 2, 0, 1): 1, (1, 0, 1, 0): Coefficient(0, 1)}, t_cap=5, weight_cap=6)
    g = QSeries({(3, 0, 0, 2): SQRT2, (0, 1, 0, 0): 1}, t_cap=t_cap, weight_cap=weight_cap)
    out = algebra.bracket_i_hbar(f, g)
    assert out.to_json() == _bracket_reference(f, g).to_json()
    on_caps = (t_cap, weight_cap) in ((3, "3/2"), (3, "2"))
    assert bool(out.coeff((2, 1, 0, 3))) == on_caps  # the j=1 term of that pair, 6i sqrt2


def test_bracket_term_guard(monkeypatch):
    from qmorse.errors import ResourceError

    f, g = q_op(2, 12) ** 3, p_op(2, 12) ** 3
    assert len(algebra.bracket_i_hbar(f, g)) > 1
    monkeypatch.setenv("QMORSE_TERM_GUARD", "1")
    with pytest.raises(ResourceError):
        algebra.bracket_i_hbar(f, g)


def test_bracket_factor_table_follows_exponents_not_caps():
    from qmorse import _kernel

    # [adag, a] = -hbar and a adag = adag a + hbar: one contraction of exponent 1
    # each, under a weight cap of 4000
    assert algebra.bracket_i_hbar(adag(0, 4000), a_op(0, 4000)).coeff((0, 0, 0, 0)) == Coefficient(0, -1)
    assert (a_op(0, 4000) * adag(0, 4000)).coeff((0, 0, 1, 0)) == Coefficient(1)
    assert len(_kernel._rows) < 100 and max(map(len, _kernel._rows)) < 100
    # every row is filled when it is made or lengthened
    f, g = q_op(2, 12) ** 3, p_op(2, 12) ** 3
    assert f * g and algebra.bracket_i_hbar(f, g)
    for a, row in enumerate(_kernel._rows):
        assert row == [_kernel.contractions(a, b)[1:] for b in range(len(row))]
    assert len(_kernel._rows) < 100 and max(map(len, _kernel._rows)) < 100


def _coprime_operands():
    """Unequal caps (joined: t^2, weight 5/2); pairs land on each cap and past it."""
    c0, c1, c2 = COPRIME
    f = QSeries(
        {(0, 2, 0, 1): c0, (1, 1, 1, 0): c1, (2, 0, 0, 2): c2, (0, 1, 0, 0): c1, (1, 0, 0, 1): c2},
        t_cap=3,
        weight_cap="5/2",
    )
    g = QSeries(
        {(2, 1, 0, 1): c2, (1, 0, 0, 0): c0, (0, 0, 1, 1): c1, (3, 0, 0, 0): c2, (0, 2, 0, 0): c0},
        t_cap=2,
        weight_cap=4,
    )
    return f, g


def test_qmul_matches_per_pair_reduction(monkeypatch):
    f, g = _coprime_operands()
    for x, y in ((f, g), (g, f)):
        out = (x * y)._terms
        assert out == qmul_per_pair(x, y)
        assert any(key[3] == 2 for key in out)  # on the t cap
        assert any(m + n + 2 * k == 5 for m, n, k, _ in out)  # on the weight cap
    # adag/3 + hbar/5 times hbar/7 - (5/21) adag: the adag hbar sums cancel exactly
    x = QSeries({(1, 0, 0, 0): Fraction(1, 3), (0, 0, 1, 0): Fraction(1, 5)}, **CAPS)
    y = QSeries({(0, 0, 1, 0): Fraction(1, 7), (1, 0, 0, 0): Fraction(-5, 21)}, **CAPS)
    out = (x * y)._terms
    assert (1, 0, 1, 0) not in out and out == qmul_per_pair(x, y)
    assert out == {(2, 0, 0, 0): (-5, 0, 0, 0, 63), (0, 0, 2, 0): (1, 0, 0, 0, 35)}
    # the sum over a pair list, each pair over the lcm of its side's denominators,
    # against the per-pair products summed as series (re-capped at the smallest caps)
    from qmorse.errors import ResourceError
    from qmorse.series import product_sum

    pairs = [(f, g), (g, f), (x, y)]
    reference = None
    for a, b in pairs:
        term = QSeries._from_raw(qmul_per_pair(a, b), *a._join_caps(b))
        reference = term if reference is None else reference + term
    for order in (pairs, pairs[::-1]):  # the sum does not depend on the order of the list
        out = product_sum(order)
        assert out and out == reference and (out.t_cap, out.w2_cap) == (reference.t_cap, reference.w2_cap)
    monkeypatch.setenv("QMORSE_TERM_GUARD", str(len(out) - 1))
    with pytest.raises(ResourceError):
        product_sum(pairs)


def test_kernels_read_operand_terms_past_the_joined_caps():
    """Operands that hold terms far past the joined caps (t^1, weight 3/2,
    a key width of 2 bits): every kept pair still unpacks exactly, in a
    product and in a bracket, in both orders.  A bracket keeps terms of
    weight 4, whose adag or a power overflows its field in the operand key."""
    from qmorse import _kernel

    c0, c1, c2 = COPRIME
    f = QSeries(
        {
            (40, 0, 0, 0): c0,
            (0, 39, 1, 9): c1,
            (1, 0, 0, 0): c2,
            (0, 1, 0, 1): c0,
            (2, 1, 0, 0): c1,
            (0, 0, 0, 1): c2,
            (4, 0, 0, 0): c1,
            (0, 4, 0, 0): c2,
        },
        t_cap=9,
        weight_cap=30,
    )
    g = QSeries({(0, 1, 0, 0): c1, (2, 1, 0, 0): c2, (0, 0, 0, 1): c0, (1, 0, 0, 1): c1}, t_cap=1, weight_cap="3/2")
    for x, y in ((f, g), (g, f)):
        out = _kernel.qmul(x._terms, y._terms, 1, 3)
        assert out and out == qmul_per_pair(x, y)
        assert any(m + n + 2 * k == 3 for m, n, k, _ in out)
        assert algebra.bracket_i_hbar(x, y)._terms == bracket_per_pair(x, y)


def test_to_ordered_forms_each_image_once(monkeypatch):
    """`to_ordered` forms the commutative image x^m y^n once per (m, n), so
    the t-slices of an operator that repeat one set of monomials cost no
    further products."""
    products = []
    multiply = ScalarSeries.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    caps = dict(t_cap=3, weight_cap=6)
    q6, t = q_op(**caps) ** 6, t_op(**caps)
    repeated = q6 + t * q6 + t * t * q6 + t * t * t * q6
    monkeypatch.setattr(ScalarSeries, "__mul__", counting)
    counts = []
    for f, view in ((q6, {(6, 0, 0, 0): 1}), (repeated, {(6, 0, 0, l): 1 for l in range(4)})):
        products.clear()
        assert algebra.to_pq(f) == algebra.OrderedPQ("qp", {e: Coefficient(c).raw for e, c in view.items()}, 3, 12)
        counts.append(len(products))
    assert counts == [19, 19]


def test_to_ordered_matches_direct_products():
    """`to_ordered` against operator products, not through `from_ordered`:
    q^a p^b is the one q-before-p term q^a p^b, and p^b q^a the one
    p-before-q term p^b q^a, for every a + b <= 8, alone or times a central
    c hbar^k t^l; a sum of such products, cut at a weight cap below the top
    ones, keeps exactly the rest, at the operator's caps."""
    caps = dict(t_cap=2, weight_cap=6)
    q, p, hb, t = q_op(**caps), p_op(**caps), hbar_op(**caps), t_op(**caps)
    qs, ps = [q.one_like()], [p.one_like()]
    for _ in range(8):
        qs.append(qs[-1] * q)
        ps.append(ps[-1] * p)
    centrals = ((0, 0, Coefficient(1)), (1, 0, COPRIME[0]), (0, 2, COPRIME[1]), (2, 1, COPRIME[2]))
    sums = {"qp": (q.zero_like(), {}), "pq": (q.zero_like(), {})}
    for a, b in itertools.product(range(9), repeat=2):
        if a + b > 8:
            continue
        for order, op, key in (("qp", qs[a] * ps[b], (a, b)), ("pq", ps[b] * qs[a], (b, a))):
            for k, l, c in centrals:
                view = algebra.to_ordered(op * (hb**k * t**l).scale(c), order)
                assert view == algebra.OrderedPQ(order, {key + (k, l): c.raw}, 2, 12)
            c = COPRIME[(a + 2 * b) % 3]
            total, expected = sums[order]
            if a + b <= 6:
                expected[key + (0, 0)] = c.raw
            sums[order] = (total + op.scale(c), expected)
    for order, (total, expected) in sums.items():
        assert algebra.to_ordered(total.with_caps(weight_cap=3), order) == algebra.OrderedPQ(order, expected, 2, 6)


def test_qbracket_matches_per_pair_reduction():
    f, g = _coprime_operands()
    for x, y in ((f, g), (g, f)):
        out = algebra.bracket_i_hbar(x, y)._terms
        assert out == bracket_per_pair(x, y)
        assert any(key[3] == 2 for key in out)
        assert any(m + n + 2 * k == 5 for m, n, k, _ in out)
    # (i/hbar)[a/3 + adag/5, adag/7 + (5/21) a] = i (1/21 - 1/21): the term vanishes
    x = QSeries({(0, 1, 0, 0): Fraction(1, 3), (1, 0, 0, 0): Fraction(1, 5)}, **CAPS)
    y = QSeries({(1, 0, 0, 0): Fraction(1, 7), (0, 1, 0, 0): Fraction(5, 21)}, **CAPS)
    assert not algebra.bracket_i_hbar(x, y) and not bracket_per_pair(x, y)
    y = QSeries({(1, 0, 0, 0): Fraction(1, 7), (0, 1, 0, 0): Fraction(2, 21)}, **CAPS)
    assert algebra.bracket_i_hbar(x, y)._terms == {(0, 0, 0, 0): (0, 1, 0, 0, 35)}


def _symmetrized(rng, sign):
    """A nonzero ``f + dagger(f)`` (hermitian) for sign 1, ``f - dagger(f)``
    (anti-hermitian) for -1, from random operands ``f``."""
    while True:
        f = _random_operand(rng)
        out = f + algebra.dagger(f) if sign > 0 else f - algebra.dagger(f)
        if out:
            return out


def _bracket_sum_reference(pairs, div):
    """``(1/div) sum (i/hbar)[f, g]``, each pair formed by `bracket_per_pair` and
    summed as series, which re-caps the sum at the smallest caps of the list."""
    out = None
    for f, g in pairs:
        term = QSeries._from_raw(bracket_per_pair(f, g), *f._join_caps(g))
        out = term if out is None else out + term
    return out.scale(Fraction(1, div))


def _record_prefixes(monkeypatch):
    """A list that receives ``(formed, offered)`` for every prefix `qbracket` visits."""
    from qmorse import _kernel

    seen = []
    prefix_length = _kernel.prefix_length

    def recording(part, bound):
        formed = prefix_length(part, bound)
        seen.append((formed, len(part)))
        return formed

    monkeypatch.setattr(_kernel, "prefix_length", recording)
    return seen


def _past_the_caps(pairs):
    """Whether an operand of the list holds a term beyond the list's smallest caps."""
    t_cap = min(min(f.t_cap, g.t_cap) for f, g in pairs)
    w2 = min(min(f.w2_cap, g.w2_cap) for f, g in pairs)
    return any(
        l > t_cap or m + n + 2 * k > w2 for f, g in pairs for x in (f, g) for m, n, k, l in x._terms
    )


@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_qbracket_hermitian_half_matches_per_pair(monkeypatch, signs):
    """Pair lists of (anti)hermitian operands take the half path and agree with
    `bracket_per_pair`, with central terms, terms past the caps and div > 1."""
    from qmorse import _kernel

    rng = random.Random(41 + 3 * signs[0] + signs[1])
    seen = _record_prefixes(monkeypatch)
    past = cut = 0
    for _ in range(40):
        pairs = [
            (_symmetrized(rng, signs[0]), _symmetrized(rng, signs[1]))
            for _ in range(rng.randint(1, 3))
        ]
        div = rng.randint(1, 4)
        for f, g in pairs:
            assert (_kernel.hermitian_sign(f._terms), _kernel.hermitian_sign(g._terms)) == signs
        if len(pairs) == 2:  # a zero operand brackets to zero and leaves the sign alone
            pairs.append((QSeries({}, t_cap=9, weight_cap=9), _symmetrized(rng, -signs[1])))
        del seen[:]
        out = algebra.bracket_sum(pairs, div)
        assert out.to_json() == _bracket_sum_reference(pairs, div).to_json()
        assert algebra.dagger(out) == out.scale(signs[0] * signs[1])
        past += _past_the_caps(pairs)
        cut += any(formed < offered for formed, offered in seen)
    assert past > 20 and cut > 10


def test_qbracket_forms_the_pairs_that_land_at_m_ge_n(monkeypatch):
    """A term pair lands at ``m - n = (m1 - n1) + (m2 - n2)``; on the half path
    a left term forms only the right terms that land at ``m >= n``."""
    x = QSeries({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, **CAPS)  # adag + a
    y = QSeries({(1, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 1, 0, 0): 1}, **CAPS)  # adag + adag a + a
    seen = _record_prefixes(monkeypatch)
    out = algebra.bracket_i_hbar(x, y)
    # adag forms all three right terms; a forms adag only (adag a and a land at m < n)
    assert sorted(seen) == [(1, 3), (3, 3)]
    assert out.to_json() == _bracket_reference(x, y).to_json()


def test_qbracket_mixed_signs_take_the_full_loop(monkeypatch):
    """A list whose pairs have products +1 and -1, or one operand hermitian but
    for one term, makes no cut and still matches `bracket_per_pair`."""
    from qmorse import _kernel

    rng = random.Random(59)
    seen = _record_prefixes(monkeypatch)
    for trial in range(30):
        h = [_symmetrized(rng, 1) for _ in range(3)]
        a = _symmetrized(rng, -1)
        if trial % 2:
            pairs = [(h[0], h[1]), (a, h[2])]  # products +1 and -1
        else:
            key = max(h[0]._terms)  # one term changes, its mirror does not
            broken = h[0] + QSeries({key: COPRIME[trial % 3]}, t_cap=h[0].t_cap, weight_cap=h[0].weight_cap)
            assert _kernel.hermitian_sign(broken._terms) == 0
            pairs = [(broken, h[1]), (h[2], h[1])]
        div = 1 + trial % 3
        del seen[:]
        assert algebra.bracket_sum(pairs, div).to_json() == _bracket_sum_reference(pairs, div).to_json()
        assert not seen


def _fresh_form(value, S):
    """A packed form of ``value`` made afresh by the one packer, `_kernel.pack_terms`."""
    from qmorse import _kernel

    return _kernel.pack_terms(value._terms, S, value._weights, value._ti, value._contracts)


@pytest.mark.parametrize("hermitian", [True, False])
def test_qbracket_reads_its_operands_from_pack_terms(monkeypatch, hermitian):
    """A bracket reads each operand's kept packed form (`_Series._packed`,
    written once by `_kernel.pack_terms`), and loops over the packed terms
    that do not commute (m or n nonzero), with the numerators as packed:
    each pair's lift to the list's denominators rides on the factor of its
    left terms.  A second bracket over the same operands packs nothing, and
    neither leaves a kept form changed: the half path sorts copies."""
    from qmorse import _kernel

    c0, _, c2 = COPRIME
    central = {(0, 0, 1, 0): Fraction(1, 11), (0, 0, 0, 1): Fraction(2, 13)}
    x = QSeries({(1, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): Fraction(1, 3), **central}, **CAPS)
    y = QSeries({(2, 1, 0, 0): c0, (1, 1, 0, 1): Fraction(1, 5), (0, 1, 0, 2): Fraction(1, 7), **central}, **CAPS)
    y = y + algebra.dagger(y)
    if not hermitian:
        y = y + QSeries({(0, 2, 0, 0): c2}, **CAPS)
    pairs = [(x, y), (y.scale(Fraction(1, 7)), x.scale(5))]
    signs = {_kernel.hermitian_sign(z._terms) for pair in pairs for z in pair}
    assert signs == ({1} if hermitian else {0, 1})
    S = _kernel.key_width(max(y.w2_cap, y.t_cap))
    packs, seen, read = [], [], []
    pack_terms, component_pairs, qbracket = _kernel.pack_terms, _kernel.component_pairs, _kernel.qbracket

    def recording_pack(terms, *rest):
        packs.append(terms)
        return pack_terms(terms, *rest)

    def recording_pairs(left, right):
        seen.append((left, right))
        return component_pairs(left, right)

    def recording_qbracket(operands, s, *rest):
        read.append((operands, s))
        return qbracket(operands, s, *rest)

    monkeypatch.setattr(_kernel, "pack_terms", recording_pack)
    monkeypatch.setattr(_kernel, "component_pairs", recording_pairs)
    monkeypatch.setattr(_kernel, "qbracket", recording_qbracket)
    expected = _bracket_sum_reference(pairs, 2).to_json()
    assert algebra.bracket_sum(pairs, 2).to_json() == expected
    assert packs == [z._terms for pair in pairs for z in pair]
    (operands, s), = read
    assert s == (1 if hermitian else 0)
    assert all(a is f._pack[1] and b is g._pack[1] for (a, b), (f, g) in zip(operands, pairs))
    assert len(seen) == len(pairs)
    for (left, right), ((_, packed_left), (_, packed_right)) in zip(seen, operands):
        if not hermitian:  # the half path sorts the right parts by n2 - m2
            assert right == _kernel.noncentral(packed_right)
        assert {x: sorted(q) for x, q in right.items()} == {
            x: sorted(q) for x, q in _kernel.noncentral(packed_right).items()
        }
        moving = _kernel.noncentral(packed_left)
        assert {x: [term[-2] for term in p] for x, p in left.items()} == {
            x: [term[-1] for term in p] for x, p in moving.items()
        }
    del packs[:]
    assert algebra.bracket_sum(pairs, 2).to_json() == expected
    assert packs == [] and read[1][0] == operands
    for z in {id(z): z for pair in pairs for z in pair}.values():
        assert z._pack == (S, _fresh_form(z, S))


def test_kept_form_serves_any_partner_caps():
    """A form is kept whole, whatever the caps of the partner beside which it
    was first packed: a value packed for a bracket or product with a
    narrow-cap partner (t cap 1, weight 5/2) gives exact brackets and
    products later with a wide-cap partner (t cap 3, weight 7/2), at the
    same key width of 3 bits, in either order."""
    from qmorse import _kernel

    c0, c1, c2 = COPRIME
    terms = {(2, 1, 0, 0): c0, (1, 2, 0, 2): c1, (3, 0, 0, 1): c2, (1, 1, 1, 3): c0, (0, 1, 0, 0): c1}
    narrow = QSeries({(1, 0, 0, 0): c2, (0, 2, 0, 0): c1, (1, 0, 0, 1): 1}, t_cap=1, weight_cap="5/2")
    wide = QSeries({(1, 1, 0, 0): c1, (0, 2, 0, 1): c0, (2, 0, 0, 2): 1, (0, 1, 0, 0): c2}, t_cap=3, weight_cap="7/2")
    assert _kernel.key_width(5) == _kernel.key_width(7)
    for first in ("bracket", "product"):
        for swap in (False, True):
            value = QSeries(terms, t_cap=3, weight_cap="7/2")
            if first == "bracket":
                algebra.bracket_sum([(value, narrow)])
            else:
                _kernel.qmul_packed([(narrow._packed(3), value._packed(3))], 1, 5, 3)
            assert value._pack == (3, _fresh_form(value, 3))
            x, y = (wide, value) if swap else (value, wide)
            out = algebra.bracket_i_hbar(x, y)
            assert out and out._terms == bracket_per_pair(x, y)
            out, den = _kernel.qmul_packed([(x._packed(3), y._packed(3))], 3, 7, 3)
            assert _kernel.unpacked(_kernel.joined(out, den), 4, 3) == qmul_per_pair(x, y)


def test_hermitian_sign():
    from qmorse import _kernel

    x = QSeries({(2, 1, 0, 1): Coefficient(1, 2, 3, 4), (1, 2, 0, 1): Coefficient(1, -2, 3, -4)}, **CAPS)
    assert _kernel.hermitian_sign(x._terms) == 1
    assert _kernel.hermitian_sign(x.scale(I)._terms) == -1
    assert _kernel.hermitian_sign({}) == 1
    assert _kernel.hermitian_sign(QSeries({(1, 1, 0, 0): I}, **CAPS)._terms) == -1
    assert _kernel.hermitian_sign(QSeries({(1, 1, 0, 0): Coefficient(1, 1)}, **CAPS)._terms) == 0
    assert _kernel.hermitian_sign(QSeries({(2, 0, 0, 0): 1}, **CAPS)._terms) == 0  # no mirror
