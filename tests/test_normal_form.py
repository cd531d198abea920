"""Morse normal forms: splitting, closed-form families, inversion, invariance."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from qmorse import flow, normal_form as nf, parser, spectrum as sp
from qmorse.algebra import bracket_i_hbar, compose_scalar, dagger, weyl_symbol
from qmorse.errors import DomainError
from qmorse.field import Coefficient, I
from qmorse.series import (
    QSeries,
    ScalarSeries,
    SIG_ZHT,
    adag,
    a_op,
    harmonic,
    hbar_op,
    one,
    p_op,
    q_op,
    scalar_var,
    t_op,
)

from oracles import (
    COMPLEX_ENERGIES,
    component_pair_counts,
    generator_in_normal_order,
    random_coeff,
    random_qseries,
    substitute_per_monomial,
    transport_in_normal_order,
)

CAPS = dict(t_cap=8, weight_cap="24")


def _f(perturbation, order=8, caps=None):
    caps = caps or CAPS
    return harmonic(**caps) + t_op(**caps) * perturbation


def test_diagonal_to_scalar_examples():
    caps = dict(t_cap=2, weight_cap="12")
    n_op = adag(**caps) * a_op(**caps)
    s = nf.diagonal_to_scalar(n_op)
    z = scalar_var("z", SIG_ZHT, 2, "12")
    hb = scalar_var("hbar", SIG_ZHT, 2, "12")
    assert s == (z - hb).scale(Fraction(1, 2))
    # adag^2 a^2 = N(N - hbar): (z-hbar)(z-3hbar)/4
    d2 = QSeries({(2, 2, 0, 0): 1}, **caps)
    s2 = nf.diagonal_to_scalar(d2)
    expected = (z - hb) * (z - hb.scale(3))
    assert s2 == expected.scale(Fraction(1, 4))
    assert nf.diagonal_to_scalar(one(**caps)) == z.one_like()
    # reconstruction: compose back
    for d in (n_op, d2, n_op * n_op):
        s = nf.diagonal_to_scalar(d)
        assert compose_scalar(s, harmonic(**caps)) == d
    # the falling table against P_n = prod_{j<n} (z - (2j+1) hbar)/2 built as ScalarSeries products
    z = scalar_var("z", SIG_ZHT, 0, "12")
    hb = scalar_var("hbar", SIG_ZHT, 0, "12")
    falling = z.one_like()
    for n in range(13):
        assert nf.diagonal_to_scalar(QSeries({(n, n, 0, 0): 1}, t_cap=0, weight_cap="12")) == falling
        falling = falling * (z - hb.scale(2 * n + 1)).scale(Fraction(1, 2))
    # seeded diagonals with Q(i, sqrt2) coefficients and hbar^k t^l factors, the
    # first term on the weight cap 10 (2n + 2k = 20)
    caps = dict(t_cap=3, weight_cap="10")
    for seed in range(12):
        rng = random.Random(seed)
        top = rng.randint(0, 10)
        terms = {(top, top, 10 - top, rng.randint(0, 3)): random_coeff(rng)}
        for _ in range(rng.randint(1, 5)):
            n = rng.randint(0, 10)
            terms[n, n, rng.randint(0, 10 - n), rng.randint(0, 3)] = random_coeff(rng)
        d = QSeries(terms, **caps)
        assert d.max_weight2() == 20
        assert compose_scalar(nf.diagonal_to_scalar(d), harmonic(**caps)) == d


def test_diagonal_to_scalar_rejects_offdiagonal():
    with pytest.raises(DomainError):
        nf.diagonal_to_scalar(adag(2, 4))


def test_split_homological_examples():
    caps = dict(t_cap=2, weight_cap="12")
    r = adag(**caps) * adag(**caps)
    s, K = nf.split_homological(r)
    assert not s
    assert K.coeff((2, 0, 0, 0)) == Coefficient(0, Fraction(-1, 4))
    r2 = adag(**caps) * a_op(**caps)
    s2, K2 = nf.split_homological(r2)
    assert not K2
    z = scalar_var("z", SIG_ZHT, 2, "12")
    hb = scalar_var("hbar", SIG_ZHT, 2, "12")
    assert s2 == (z - hb).scale(Fraction(1, 2))
    s3, K3 = nf.split_homological(one(**caps))
    assert s3 == z.one_like() and not K3


def test_split_inverts_ad_f0():
    # r = s o f0 + (i/hbar)[f0, K] reassembles
    from qmorse.algebra import bracket_i_hbar

    rng = random.Random(3)
    caps = dict(t_cap=1, weight_cap="12")
    f0 = harmonic(**caps)
    from oracles import random_qseries

    for _ in range(10):
        r = random_qseries(rng, t_cap=1, weight_cap="12", max_exp=3)
        s, K = nf.split_homological(r)
        back = compose_scalar(s, f0) + bracket_i_hbar(f0, K)
        assert back == r
        # K has zero diagonal
        assert all(m != n for (m, n, _, _) in K._terms)


def test_undeformed_is_identity():
    res = nf.quantum_morse(harmonic(**CAPS), 6)
    z = scalar_var("z", SIG_ZHT, res.u.t_cap, res.u.weight_cap)
    assert res.u == z
    assert not res.g
    assert not res.H
    spec = res.spectrum
    assert spec.coeff((0, 1, 0)) == Coefficient(1)
    assert spec.coeff((1, 1, 0)) == Coefficient(2)
    assert len(spec) == 2


def test_tq2_closed_form():
    q = q_op(**CAPS)
    res = nf.quantum_morse(_f(q * q), 8)
    # u = z (1+t)^(-1/2), u_inv = z (1+t)^(1/2), spectrum hbar(2n+1) sqrt(1+t)
    for k in range(9):
        binom = Coefficient(Fraction(math.comb(2 * k, k), (-4) ** k * (1 - 2 * k)))
        # (1+t)^{1/2} coefficients: C(1/2, k) = (-1)^(k+1) C(2k,k) / (4^k (2k-1))
        chalf = Fraction((-1) ** (k + 1) * math.comb(2 * k, k), 4**k * (2 * k - 1))
        assert res.u_inv.coeff((1, 0, k)) == Coefficient(chalf)
        assert res.spectrum.coeff((0, 1, k)) == Coefficient(chalf)
        assert res.spectrum.coeff((1, 1, k)) == Coefficient(2 * chalf)
        _ = binom
    assert res.verify()


def test_tq_terminates():
    q = q_op(**CAPS)
    res = nf.quantum_morse(_f(q), 8)
    spec = res.spectrum
    assert spec.coeff((0, 1, 0)) == Coefficient(1)
    assert spec.coeff((1, 1, 0)) == Coefficient(2)
    assert spec.coeff((0, 0, 2)) == Coefficient(Fraction(-1, 4))
    assert len(spec) == 3  # all orders >= 3 vanish identically
    assert res.verify()


def test_scaled_and_shifted_base():
    # f = 3(p^2+q^2) + 5 hbar^2 + t q^2 normalizes through scale/shift
    caps = dict(t_cap=4, weight_cap="16")
    q = q_op(**caps)
    f = harmonic(**caps).scale(3) + (hbar_op(**caps) * hbar_op(**caps)).scale(5) + t_op(
        **caps
    ) * (q * q)
    res = nf.quantum_morse(f, 4)
    assert res.scale == Coefficient(3)
    # E = 3 u_inv(t, hbar(2n+1)) + 5 hbar^2 with the t q^2 data scaled by 1/3
    assert res.spectrum.coeff((0, 2, 0)) == Coefficient(5)
    assert res.spectrum.coeff((0, 1, 0)) == Coefficient(3)
    # first order: 3 * (1/3) * (1/2) hbar (2n+1) = hbar(2n+1)/2
    assert res.spectrum.coeff((0, 1, 1)) == Coefficient(Fraction(1, 2))
    assert res.verify()


def test_rejects_non_harmonic_base():
    caps = dict(t_cap=2, weight_cap="8")
    with pytest.raises(DomainError):
        nf.quantum_morse(adag(**caps) * adag(**caps), 2)
    with pytest.raises(DomainError):
        nf.quantum_morse(q_op(**caps), 2)


def test_invert_series_examples():
    z = scalar_var("z", SIG_ZHT, 4, "20")
    t = scalar_var("t", SIG_ZHT, 4, "20")
    assert nf.invert_series_z(z) == z
    u = z + t * z * z
    v = nf.invert_series_z(u)
    # Catalan: z - t z^2 + 2 t^2 z^3 - 5 t^3 z^4
    assert v.coeff((1, 0, 0)) == Coefficient(1)
    assert v.coeff((2, 0, 1)) == Coefficient(-1)
    assert v.coeff((3, 0, 2)) == Coefficient(2)
    assert v.coeff((4, 0, 3)) == Coefficient(-5)
    assert u.subs_series("z", v) == z
    with pytest.raises(DomainError):
        nf.invert_series_z(z * z)


def _invert_full_precision(u):
    """Reference reversion: v = z - w(v) at full t-precision, t_cap times."""
    z = scalar_var("z", u.vars, u.t_cap, u.weight_cap)
    w = u - z
    v = z
    for _ in range(u.t_cap):
        v = z - w.subs_series("z", v)
    return v


def _reversion_input(family, t_cap):
    if family == "quartic":
        return nf.quantum_morse(_f(q_op(t_cap=t_cap, weight_cap="24") ** 4), t_cap).u
    z, hb, t = (scalar_var(name, SIG_ZHT, t_cap, "12") for name in SIG_ZHT)
    if family == "catalan":
        return z + t * z * z
    if family == "hbar":
        hbar_part = (z * z).scale(Fraction(1, 2)) + (hb * z).scale(Coefficient(0, 0, 1)) - hb * hb
        return z + t * hbar_part + t * t * hb * z * z
    # the z-degree of the t^k coefficient grows with k
    u = z
    for k in range(1, t_cap + 1):
        u = u + (t ** k * z ** (k + 1)).scale(Fraction((-1) ** k, k + 1))
    return u


@pytest.mark.parametrize(
    "family, t_cap",
    [(family, t_cap) for family in ("catalan", "hbar", "growing") for t_cap in range(1, 9)]
    + [("quartic", 8)],
)
def test_invert_series_matches_full_precision_loop(family, t_cap):
    u = _reversion_input(family, t_cap)
    assert nf.invert_series_z(u).to_json() == _invert_full_precision(u).to_json()


def test_reversion_packs_each_horner_value_once(monkeypatch):
    """Each `subs_series` of the quartic reversion at N=12 packs its Horner
    value once, for all of the products that read it.

    Every series keeps its packed form at the key width it was asked for
    (`_Series._packed`, written by `_kernel.pack_terms`, the one packer), and
    the caps of a Horner loop are fixed, so only the first product ``out *
    value`` packs ``value``.  A change that packs a reused operand again
    fails here without timing anything.
    """
    from qmorse import _kernel

    u = _reversion_input("quartic", 12)
    pack_terms, subs_series, smul = _kernel.pack_terms, ScalarSeries.subs_series, ScalarSeries.__mul__
    packed_terms, operands, calls = [], [], []

    def counting_pack_terms(terms, *rest):
        packed_terms.append(terms)
        return pack_terms(terms, *rest)

    def counting_smul(self, other):
        operands.append(other)
        return smul(self, other)

    def counting_subs_series(self, var, value):
        first_pack, first_product = len(packed_terms), len(operands)
        out = subs_series(self, var, value)
        packs = sum(terms is value._terms for terms in packed_terms[first_pack:])
        calls.append((packs, sum(other is value for other in operands[first_product:])))
        return out

    monkeypatch.setattr(_kernel, "pack_terms", counting_pack_terms)
    monkeypatch.setattr(ScalarSeries, "__mul__", counting_smul)
    monkeypatch.setattr(ScalarSeries, "subs_series", counting_subs_series)
    nf.invert_series_z(u)
    assert [packs for packs, _ in calls] == [1] * 13  # 12 steps and the final check
    assert sum(reads for _, reads in calls) == 116


def _operand_terms(operand, S):
    """The term map of a packed operand, each coefficient reduced and each key
    unpacked from its own fields, not from the fields kept beside it."""
    from qmorse import _kernel

    den, parts = operand
    sums = {x: {term[0]: term[-1] for term in p} for x, p in parts.items()}
    return _kernel.unpacked(_kernel.joined(sums, den), 4, S)


@pytest.mark.parametrize(
    "text, order",
    [
        ("p^2+q^2+t*q^4", 8),
        ("p^2+q^2+t*(q^2*p^2+p^2*q^2)/2", 6),
        (COMPLEX_ENERGIES, 6),
        ("p^2+q^2+t*(q^3+p^3+q^4)", 5),
    ],
    ids=["quartic", "sym-q2p2", "complex-energies", "q3+p3+q4"],
)
def test_packed_powers_equal_the_series_powers(monkeypatch, text, order):
    """Each packed power fn^j of the solve equals ``fn.with_caps(t_cap=c) ** j``
    slice by slice, at the cap c it is built at: ``N - 1 - k`` for the first
    step k < N - 1 whose g_k reaches z^j (fn itself at N).  The slices are
    read where the solve reads them, at `_kernel.t_slices`."""
    from qmorse import _kernel

    seen = []
    t_slices = _kernel.t_slices

    def spy(operand, t_cap):
        out = t_slices(operand, t_cap)
        seen.append((t_cap, out))
        return out

    monkeypatch.setattr(_kernel, "t_slices", spy)
    result = nf.quantum_morse(parser.elaborate(parser.parse_expr(text), order, "64"), order)
    fn = result.normalized_input
    degrees = [g.var_degree("z") for g in result.g.t_slices()[: order - 1]]
    caps = [order] + [order - 1 - min(k for k, d in enumerate(degrees) if d >= j) for j in range(2, max(degrees) + 1)]
    assert [t_cap for t_cap, _ in seen] == caps and len(caps) > 2
    S = _kernel.key_width(max(fn.w2_cap, fn.t_cap))
    for j, (t_cap, slices) in enumerate(seen, 1):
        expected = (fn.with_caps(t_cap=t_cap) ** j).t_slices()
        assert len(slices) == len(expected) == t_cap + 1
        for operand, x in zip(slices, expected):
            assert _operand_terms(operand, S) == x._terms


def _record_packs(monkeypatch, active=None):
    """Lists that receive ``(terms, S, contracts, kept)`` for every call of
    `_kernel.pack_terms`, the one packer (``kept`` when `_Series._packed`
    made it, for a value's kept form), and ``(value, S)`` for every call of
    `_Series._packed`, while ``active`` (a list) is nonempty, or always when
    it is None."""
    from qmorse import _kernel
    from qmorse.series import _Series

    packs, asked, inside = [], [], []
    pack_terms, packed = _kernel.pack_terms, _Series._packed

    def recording_pack_terms(terms, S, weights, ti, contracts):
        if active is None or active:
            packs.append((terms, S, contracts, bool(inside)))
        return pack_terms(terms, S, weights, ti, contracts)

    def recording_packed(self, S):
        if active is None or active:
            asked.append((self, S))
        inside.append(1)
        try:
            return packed(self, S)
        finally:
            inside.pop()

    monkeypatch.setattr(_kernel, "pack_terms", recording_pack_terms)
    monkeypatch.setattr(_Series, "_packed", recording_packed)
    return packs, asked


def _distinct_kept_forms(asked):
    """The number of distinct ``(value, width)`` pairs asked of `_Series._packed`."""
    return len({(id(value), S) for value, S in asked})


def test_solve_packs_each_operand_once(monkeypatch):
    """The packing work of the quartic solve at N=12.

    Every operand is packed by `_kernel.pack_terms`, at the one key width of
    the solve, and once.  fn and the operands of the brackets (the slice
    fn_1 and the h_i) are read in their kept forms (`_Series._packed`), each
    packed on its first read; the only other packs are the central C_ij of
    z power j >= 1, each when g_i is split.  Each power fn^j, j >= 2, is
    packed once, from the sums of its product (`_kernel.pack_sums`), and its
    t-slices are read off once (`_kernel.t_slices`); no power and no slice
    is packed again.
    """
    from qmorse import _kernel

    caps = dict(t_cap=12, weight_cap="24")
    f = harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4
    calls = {"pack_sums": 0, "t_slices": 0}
    in_solve = []
    pack_sums, t_slices, solve = _kernel.pack_sums, _kernel.t_slices, nf._homological_solve
    packs, asked = _record_packs(monkeypatch, in_solve)

    def counting_pack_sums(*args):
        calls["pack_sums"] += 1
        return pack_sums(*args)

    def counting_t_slices(*args):
        calls["t_slices"] += 1
        return t_slices(*args)

    def solving(*args):
        in_solve.append(1)
        try:
            return solve(*args)
        finally:
            in_solve.pop()

    monkeypatch.setattr(_kernel, "pack_sums", counting_pack_sums)
    monkeypatch.setattr(_kernel, "t_slices", counting_t_slices)
    monkeypatch.setattr(nf, "_homological_solve", solving)
    result = nf.quantum_morse(f, 12)
    fn = result.normalized_input
    S = _kernel.key_width(max(fn.w2_cap, fn.t_cap))
    assert {(width, contracts) for _, width, contracts, _ in packs} == {(S, True)}
    own = [terms for terms, _, _, kept in packs if kept]
    central = [terms for terms, _, _, kept in packs if not kept]
    assert packs[0][0] is fn._terms and packs[0][3] and fn._pack[0] == S
    assert len(own) == _distinct_kept_forms(asked) == len({id(terms) for terms in own})
    assert all(m == n == 0 for terms in central for m, n, _, _ in terms)
    powers = max(g.var_degree("z") for g in result.g.t_slices()[:11]) - 1
    assert calls == {"pack_sums": powers, "t_slices": powers + 1}
    assert (len(own), len(central), powers) == (13, 48, 11)


def test_generator_packs_each_value_once_per_width(monkeypatch):
    """The solve, H and verify() of the quartic pack each value once per key width.

    Every bracket reads its operands in their kept forms (`_Series._packed`),
    so a Lie-ladder slice X_j, or a slice H_k or V_j, that several steps read
    is packed once, and so is every ScalarSeries operand.  The other
    operator packs are the central C_ij of the solve (`_homological_solve`)
    and the operands of the term-map products (`_kernel.qmul`, which
    `compose_scalar` reaches through ``QSeries.__mul__``).  The layout
    before the kept forms packed both operands of every bracket pair on
    every call: 280 operator packs (5,503 terms) at N=8 and 968 (51,951
    terms) at N=16, where the kept forms make 120 and 264.
    """
    from qmorse import _kernel

    for order, expected in ((8, (54, 24, 42)), (16, (110, 80, 74))):
        caps = dict(t_cap=order, weight_cap=str(2 * order))
        f = harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4
        packs, asked = _record_packs(monkeypatch)
        qmul, in_products = _kernel.qmul, []

        def marked_qmul(*args):
            in_products.append(1)
            try:
                return qmul(*args)
            finally:
                in_products.pop()

        monkeypatch.setattr(_kernel, "qmul", marked_qmul)
        product_packs = _record_packs(monkeypatch, in_products)[0]
        result = nf.quantum_morse(f, order)
        result.H
        assert result.verify()
        assert sum(kept for *_, kept in packs) == _distinct_kept_forms(asked)
        kept_operators = sum(contracts and kept for _, _, contracts, kept in packs)
        assert all(contracts and not kept for _, _, contracts, kept in product_packs)
        central = [terms for terms, _, _, kept in packs if not (kept or any(terms is p[0] for p in product_packs))]
        assert all(m == n == 0 for terms in central for m, n, _, _ in terms)
        assert (kept_operators, len(central), len(product_packs)) == expected
        assert sum(expected) == sum(contracts for _, _, contracts, _ in packs)
        monkeypatch.undo()


def test_solve_work_counts(monkeypatch):
    """Pair visits of the quartic solve at N=12, counted where the products run.

    A change that widens the working precision of the homological solve or
    of the reversion raises these totals and fails here without timing
    anything.  Every product, of operators and of scalars, and every
    bracket runs over packed operands, and is counted where it runs as the
    product of the operands' entries (a term has one entry per nonzero
    component; every term of this solve has one), by operand type.  Brackets
    are formed by `_kernel.qbracket` and counted before its hermitian cut.
    Every other product is formed by `_kernel.qmul_packed`.  The operator
    products are the powers of fn, one pair each, and the composition part
    of each residual R_k, one pair (C_ij, [t^(k-i)] fn^j) per earlier step i
    and z power j >= 1 of g_i, whose central left operand C_ij holds g_i's
    terms at z^j.  Only the t^(k-i) slices that R_k reads are formed, none
    at t^0.  The scalar products are those whose left operand is the kept
    form of a ``ScalarSeries``: the transport of u, one `product_sum` of the
    pairs (du_j/dz, g_(r-j)) per step r, and the Horner products of its
    reversion, one pair each.  The diagonal split reads the falling
    products P_n from an integer table, so it forms no ScalarSeries product.

    The solve makes 12 z-derivatives and 151 `_kernel.qmul_packed` calls:
    each du_j/dz is formed once, when u_j is, and step r of the transport is
    one call.  A step that differentiated every u_j, j <= r, again and formed
    one product per pair made 78 z-derivatives and 217 calls.
    """
    from qmorse import _kernel
    from qmorse.series import _Series

    caps = dict(t_cap=12, weight_cap="24")
    f = harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4
    counts = {"smul_pairs": 0, "product_pairs": 0, "bracket_pairs": 0, "qmul_packed_calls": 0, "z_derivatives": 0}
    packed, qmul_packed, qbracket, deriv = _Series._packed, _kernel.qmul_packed, _kernel.qbracket, _Series.deriv
    kinds = {}  # id of a kept form: (the form, kept alive so no id is reused; its value's type)

    def entries(operand):
        return sum(map(len, operand[1].values()))

    def typed_packed(self, S):
        form = packed(self, S)
        kinds[id(form)] = (form, type(self))
        return form

    def counting_deriv(self, var):
        counts["z_derivatives"] += var == "z"
        return deriv(self, var)

    def counting_qmul_packed(pairs, *rest):
        counts["qmul_packed_calls"] += 1
        for A, B in pairs:
            scalar = kinds.get(id(A), (None, None))[1] is ScalarSeries
            counts["smul_pairs" if scalar else "product_pairs"] += entries(A) * entries(B)
        return qmul_packed(pairs, *rest)

    def counting_qbracket(pairs, *rest):
        counts["bracket_pairs"] += sum(entries(A) * entries(B) for A, B in pairs)
        return qbracket(pairs, *rest)

    monkeypatch.setattr(_Series, "_packed", typed_packed)
    monkeypatch.setattr(_Series, "deriv", counting_deriv)
    monkeypatch.setattr(_kernel, "qmul_packed", counting_qmul_packed)
    monkeypatch.setattr(_kernel, "qbracket", counting_qbracket)
    nf.quantum_morse(f, 12)
    assert counts == {
        "smul_pairs": 48950,
        "product_pairs": 37637,
        "bracket_pairs": 6534,
        "qmul_packed_calls": 151,
        "z_derivatives": 12,
    }


def _held_series(result):
    """The QSeries a result holds, in its attributes and the lists among them."""
    for value in vars(result).values():
        for x in value if isinstance(value, list) else [value]:
            if isinstance(x, QSeries):
                yield x


@pytest.mark.parametrize("order", [8, 16])
def test_result_holds_no_packed_form_but_the_input(order):
    """After the solve the result keeps h as one joined series, not as the
    slices whose packed forms the solve's brackets kept, so no QSeries it
    holds carries a packed form but `normalized_input`, which the second
    solve of `H` reads; building H releases h."""
    caps = dict(t_cap=order, weight_cap=str(2 * order))
    result = nf.quantum_morse(harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4, order)
    held = list(_held_series(result))
    assert any(x is result._h for x in held) and result.normalized_input._pack
    assert all(x._pack is None for x in held if x is not result.normalized_input)
    assert result.H and result._h is None


def test_generator_work_counts(monkeypatch):
    """Bracket work of the generator H and of verify() for the quartic at N=8.

    H splits h in the body frame (one `bracket_i_hbar` per step, normal
    order) and solves its fixed-frame recursion on Weyl symbols, with one
    `bracket_sum` over the pairs (V_j, H_(r-j)) per step r; Y = phi(dfn/dt)
    is read off the ladder of fn_1 = q^4, the one nonzero slice of fn past
    t^0.  verify() reuses that ladder, already as long as it needs, and runs
    one new ladder, that of fn_0.  Every ladder step is one `_kernel.qbracket`
    call over all of its nonzero pairs, with the Moyal table.  The pairs are
    counted as the product of the packed operands' entries (one per nonzero
    component of a term; every term here has one), summed over each call's
    pair list, before any cut.  H, V and every ladder slice are hermitian, so
    the kernel forms only the term pairs that land at ``m >= n`` (its
    hermitian half); those are counted where the kernel reads them, at
    `_kernel.prefix_length`, summed over the component pairs.  Every value
    keeps its hermitian sign, so `_kernel.hermitian_sign` scans each bracket
    operand once.
    """
    from qmorse import _kernel

    caps = dict(t_cap=8, weight_cap="16")
    result = nf.quantum_morse(harmonic(**caps) + t_op(**caps) * q_op(**caps) ** 4, 8)
    counts = {"bracket_pairs": 0, "formed_pairs": 0, "qbracket_calls": 0, "bracket_steps": 0, "sign_scans": 0}
    tables = set()
    qbracket, prefix_length, ladder_step = _kernel.qbracket, _kernel.prefix_length, flow.ladder_step
    hermitian_sign = _kernel.hermitian_sign

    def entries(operand):
        return sum(map(len, operand[1].values()))

    def counting_qbracket(pairs, table, *rest):
        counts["bracket_pairs"] += sum(entries(A) * entries(B) for A, B in pairs)
        counts["qbracket_calls"] += 1
        tables.add(table)
        return qbracket(pairs, table, *rest)

    def counting_prefix_length(part, bound):
        formed = prefix_length(part, bound)
        counts["formed_pairs"] += formed
        return formed

    def counting_ladder_step(xs, slices):
        counts["bracket_steps"] += 1
        return ladder_step(xs, slices)

    def counting_sign(terms):
        counts["sign_scans"] += 1
        return hermitian_sign(terms)

    monkeypatch.setattr(_kernel, "qbracket", counting_qbracket)
    monkeypatch.setattr(_kernel, "prefix_length", counting_prefix_length)
    monkeypatch.setattr(_kernel, "hermitian_sign", counting_sign)
    monkeypatch.setattr(flow, "ladder_step", counting_ladder_step)
    result.H
    assert result.verify()
    assert counts["formed_pairs"] < counts["bracket_pairs"]
    assert tables == {_kernel.NORMAL_ORDER, _kernel.MOYAL}
    assert counts == {
        "bracket_pairs": 12384,
        "formed_pairs": 6661,
        "qbracket_calls": 29,
        "bracket_steps": 15,
        "sign_scans": 45,
    }


def _assert_generator_is_minus_phi_of_h(result):
    """H = -phi(h) through t^(N-1), phi the flow of H and h = sum_k t^k h_k.

    Building H releases the slices of h that the solve kept, so h is solved
    afresh here."""
    fn = result.normalized_input
    h = fn.join_t_slices(nf._homological_solve(fn, fn.deriv("t").t_slices())[1])
    top = max(result.order - 1, 0)
    assert flow.integrate_heisenberg(result.H, h, top) == (-result.H).with_caps(t_cap=top)


@pytest.mark.parametrize(
    "text, order",
    [
        ("p^2+q^2+t*q^4", 6),
        (COMPLEX_ENERGIES, 5),
        ("p^2+q^2+t*(q^3+p^3+q^4)", 5),
        ("p^2+q^2+t*q^6", 6),
        ("p^2+q^2+t*(q^2*p^2+p^2*q^2)/2", 6),
        ("p^2+q^2+t*q", 6),
        ("p^2+q^2+t*q^3", 6),
        ("p^2+q^2+t*q*p*q", 6),
        ("p^2+q^2+t*q^4", 0),
        ("p^2+q^2+t*q^4", 1),
        ("p^2+q^2", 4),
        ("p^2+q^2+t*hbar", 4),
    ],
    ids=[
        "quartic", "complex-energies", "q3+p3+q4", "sextic", "sym-q2p2", "linear", "cubic",
        "qpq", "order-0", "order-1", "zero", "hbar",
    ],
)
def test_generator_is_minus_phi_of_h(text, order):
    """The fixed-frame H equals -phi(h), its diagonal -F(t, V) included; the
    random families of `test_random_family_matches_rs_and_verifies` check it too."""
    f = parser.elaborate(parser.parse_expr(text), order, "64")
    _assert_generator_is_minus_phi_of_h(nf.quantum_morse(f, order))


def test_generator_refuses_a_diagonal_right_side():
    """One corrupt coefficient of u_inv at t^3 puts a diagonal term on the right
    side of the fixed-frame equation at t^2, which H reports instead of dropping."""
    caps = dict(t_cap=6, weight_cap="16")
    result = nf.quantum_morse(_f(q_op(**caps) ** 4, caps=caps), 6)
    terms = dict(result.u_inv.items())
    exp = min(e for e in terms if e[2] == 3)
    terms[exp] = terms[exp] + 1
    result.u_inv = ScalarSeries(terms, vars=SIG_ZHT, t_cap=6, weight_cap=result.u_inv.weight_cap)
    with pytest.raises(DomainError, match=r"t\^2\b"):
        result.H


@pytest.mark.parametrize("step", range(8))
def test_a_wrong_generator_slice_is_caught(monkeypatch, step):
    """q^2 - p^2 (hermitian and off the diagonal, as K is) added to H_r puts a
    diagonal part on the right side at t^(2r+2), so H refuses it while
    2r+2 < N; past that no step of the recursion sees it, and verify() must be
    False.  H_(N-1) is read only by the ladder of fn_0 that verify() runs.
    One H build calls `split_homological` N times for the body-frame split of
    h, then N times for the recursion, so step r is call N + r + 1."""
    caps = dict(t_cap=8, weight_cap="16")
    result = nf.quantum_morse(_f(q_op(**caps) ** 4, caps=caps), 8)
    split, calls = nf.split_homological, []

    def corrupt(r):
        s, K = split(r)
        calls.append(r)
        if len(calls) == 8 + step + 1:
            at = dict(t_cap=K.t_cap, weight_cap=K.weight_cap)
            K = K + q_op(**at) ** 2 - p_op(**at) ** 2
        return s, K

    monkeypatch.setattr(nf, "split_homological", corrupt)
    if 2 * step + 2 < 8:
        with pytest.raises(DomainError, match=rf"generator equation has a diagonal part at t\^{2 * step + 2}\b"):
            result.H
    else:
        assert result.verify() is False


@pytest.mark.parametrize(
    "text, order",
    [("p^2+q^2+t*q^4", 8), ("p^2+q^2+t*(q^3+p^3+q^4)", 5), (COMPLEX_ENERGIES, 6)],
    ids=["quartic", "q3+p3+q4", "complex-energies"],
)
def test_verify_ladders_equal_an_independent_transport(monkeypatch, text, order):
    """The phi(fn) that verify() composes with u, read off the ladders H kept
    plus the ladder of fn_0, equals `flow.integrate_heisenberg` run afresh.
    The verdict is formed once and the ladders are then released."""
    result = nf.quantum_morse(parser.elaborate(parser.parse_expr(text), order, "64"), order)
    result.H
    composed = []

    def spy(u, x):
        composed.append(x)
        return compose_scalar(u, x)

    monkeypatch.setattr(nf, "compose_scalar", spy)
    assert result.verify()
    fn = result.normalized_input
    assert composed == [flow.integrate_heisenberg(result.H, fn, order)]
    assert result._ladders is None and result._h is None
    assert result.verify() and len(composed) == 1


def _random_perturbation(rng, hermitian, caps):
    """1-3 words q^a p^b, a + b <= 4, in shuffled letter order, with
    coefficients in Q(i, sqrt2); made hermitian by (g + dagger(g))/2."""
    g = QSeries({}, **caps)
    for _ in range(rng.randint(1, 3)):
        letters = list("q" * rng.randint(0, 4))
        letters += "p" * rng.randint(0 if letters else 1, 4 - len(letters))
        rng.shuffle(letters)
        word = one(**caps)
        for letter in letters:
            word = word * (q_op(**caps) if letter == "q" else p_op(**caps))
        g = g + word.scale(random_coeff(rng))
    if hermitian:
        g = (g + dagger(g)).scale(Fraction(1, 2))
    return g


@pytest.mark.parametrize("seed", range(25))
def test_random_family_matches_rs_and_verifies(seed):
    """Random perturbations, every other one hermitian, so that both loops of
    `_kernel.qbracket` run: at N=5 and the automatic weight cap, the spectrum
    equals RS at levels 0..2, every hbar power included, the master identity
    holds, and H = -phi(h)."""
    caps = dict(t_cap=5, weight_cap="16")
    g = _random_perturbation(random.Random(7919 + seed), seed % 2 == 0, caps)
    f = harmonic(**caps) + t_op(**caps) * g
    result = nf.quantum_morse(f, 5)
    assert result.verify()
    _assert_generator_is_minus_phi_of_h(result)
    for n in range(3):
        closure = result.spectrum.eval_var("n", Coefficient(n))
        assert closure == sp.rs_perturbation(f, n, 5).lift(("n", "hbar", "t"))


def _transported_by_verify(monkeypatch, result):
    """The phi(fn) that verify() composes with u, read off its ladders, and the verdict."""
    result.H  # its recursion composes too
    composed = []

    def spy(u, x):
        composed.append(x)
        return compose_scalar(u, x)

    monkeypatch.setattr(nf, "compose_scalar", spy)
    verdict = result.verify()
    monkeypatch.setattr(nf, "compose_scalar", compose_scalar)
    (phi,) = composed
    return phi, verdict


@pytest.mark.parametrize("kind", ["hermitian", "mixed-sign", "t-cap-wide"])
def test_generator_and_verify_equal_the_normal_order_references(monkeypatch, kind):
    """`H`, whose recursion and ladders run on Weyl symbols, equals the same
    recursion on normal-ordered operators (`generator_in_normal_order`), and
    the phi(fn) that verify() reads off its ladders equals the normal-order
    transport (`transport_in_normal_order`), on seeded random families:
    hermitian perturbations (the kernel's hermitian half), ones that are not
    (the full loop), and a quartic family solved at a weight cap below its t
    cap."""
    rng = random.Random(f"generator-{kind}")
    for trial in range(4 if kind != "t-cap-wide" else 1):
        if kind == "t-cap-wide":
            caps = dict(t_cap=8, weight_cap="16")
            result = nf.quantum_morse(_f(q_op(**caps) ** 4 + p_op(**caps) ** 3, caps=caps), 8, weight_cap=3)
            assert result.normalized_input.w2_cap == 6 < 8 == result.normalized_input.t_cap
        else:
            caps = dict(t_cap=5, weight_cap="16")
            result = nf.quantum_morse(_f(_random_perturbation(rng, kind == "hermitian", caps), caps=caps), 5)
        assert result.H.to_json() == generator_in_normal_order(result).to_json()
        phi, verdict = _transported_by_verify(monkeypatch, result)
        fn = result.normalized_input
        assert phi.to_json() == transport_in_normal_order(result.H, fn, result.order).to_json()
        assert verdict is (compose_scalar(result.u, phi) == harmonic(phi.t_cap, phi.weight_cap))


def _odd_hbar(series):
    """The number of terms of a series at an odd power of hbar."""
    k = series.vars.index("hbar")
    return sum(e[k] % 2 for e in series._terms)


@pytest.mark.parametrize(
    "text, order",
    [
        ("p^2+q^2+t*q^4", 16),
        ("p^2+q^2+t*q^3", 12),
        ("p^2+q^2+t*(q^2*p^2+p^2*q^2)/2", 10),
        ("p^2+q^2+t*(q^3+p^3+q^4)", 6),
        (COMPLEX_ENERGIES, 6),
    ],
    ids=["quartic", "cubic", "sym-q2p2", "q3+p3+q4", "complex-energies"],
)
def test_weyl_symbols_are_hbar_even(monkeypatch, text, order):
    """The Weyl symbols of H and of phi(fn) (read off verify()'s ladders), and
    u_inv, whose z is the Weyl symbol of f0 = 2 zbar z as it stands, have no
    term at an odd power of hbar for self-adjoint perturbations whose Weyl
    symbol is hbar-even.  `COMPLEX_ENERGIES` is the negative control: its
    perturbation is not self-adjoint, and all three have odd-hbar terms."""
    f = parser.elaborate(parser.parse_expr(text), order, "64")
    result = nf.quantum_morse(f, order)
    phi, verdict = _transported_by_verify(monkeypatch, result)
    assert verdict
    # with_caps makes fresh values, converted afresh rather than read from the symbol H keeps
    odd = [_odd_hbar(weyl_symbol(x.with_caps())) for x in (result.H, phi)] + [_odd_hbar(result.u_inv)]
    if text == COMPLEX_ENERGIES:
        assert all(odd)
    else:
        assert odd == [0, 0, 0] and _odd_hbar(weyl_symbol(result.normalized_input)) == 0


def test_component_pair_counts():
    """Work of the split products, counted per component pair (x, y).

    Components 0..3 are ``1, i, sqrt2, i*sqrt2``.  The quartic solve visits
    only (0, 0), (0, 1) and, to build ``q^4`` from ``q = (adag - a)/(i sqrt2)``,
    (3, 3): nearly every term has one component, so a term pair costs one
    integer product where a 4-int layout pays sixteen.  Its generator and
    verify() visit two pairs.  ``COMPLEX_ENERGIES`` fills all four
    components, and its solve, generator and verify() visit all sixteen.
    A power fn^(j+1) is formed as fn fn^j, fn on the left, so its term pairs
    are counted at (component of fn, component of fn^j).
    """
    caps = dict(t_cap=12, weight_cap="24")
    counts = component_pair_counts(lambda: nf.quantum_morse(_f(q_op(**caps) ** 4, caps=caps), 12))
    assert counts == {(0, 0): 86621, (0, 1): 5808, (3, 3): 4}
    caps = dict(t_cap=8, weight_cap="16")
    result = nf.quantum_morse(_f(q_op(**caps) ** 4, caps=caps), 8)
    counts = component_pair_counts(lambda: (result.H, result.verify()))
    assert counts == {(0, 0): 11144, (0, 1): 10242}
    f = parser.elaborate(parser.parse_expr(COMPLEX_ENERGIES), 6, "64")

    def run():
        result = nf.quantum_morse(f, 6)
        result.H
        assert result.verify()

    assert component_pair_counts(run) == {
        (0, 0): 32284, (0, 1): 28717, (0, 2): 28375, (0, 3): 18011,
        (1, 0): 15091, (1, 1): 14175, (1, 2): 13682, (1, 3): 8405,
        (2, 0): 22332, (2, 1): 16120, (2, 2): 16657, (2, 3): 12030,
        (3, 0): 18190, (3, 1): 19432, (3, 2): 17991, (3, 3): 10956,
    }


# SHA-256 of the normal-form JSON (g, H, u, u_inv, spectrum) at N=6 of two
# families whose terms carry several Q(i, sqrt2) components, as the CLI prints
# it: these bytes were recorded with the 4-int product kernels, before the
# split by component.
DENSE_DIGESTS = {
    "complex-energies": (COMPLEX_ENERGIES, "b40142e040ee15ea9457052ac61ab338d316d20215f14b55e45d7c064fddc381"),
    "q3+p3+q4": ("p^2+q^2+t*(q^3+p^3+q^4)", "79e701bd50310532e0b922427615ad4dfad0b583f6a75d8720a25e6f0aa0f108"),
}


@pytest.mark.parametrize("label", sorted(DENSE_DIGESTS))
def test_dense_normal_form_golden_digest(label):
    text, digest = DENSE_DIGESTS[label]
    f = parser.elaborate(parser.parse_expr(text), 6, "64")
    payload = json.dumps(nf.quantum_morse(f, 6).to_json(), indent=2)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, order",
    [
        ("p^2+q^2+t*q^4", 8),
        ("p^2+q^2+t*(q^3+p^3+q^4)", 5),
        ("p^2+q^2+t*(q^2*p^2+p^2*q^2)/2", 6),
        ("p^2+q^2+t*q^6", 6),
    ],
    ids=["quartic", "q3+p3+q4", "sym-q2p2", "sextic"],
)
def test_homological_equation(text, order):
    """g o fn + (i/hbar)[fn, h] = dfn/dt through t^(N-1), h = sum_k t^k h_k.

    The solve pulls each residual from the t-slices of fn and of its powers;
    here both sides are formed from whole series, by `compose_scalar` (Horner,
    no powers) and `bracket_i_hbar`.
    """
    f = parser.elaborate(parser.parse_expr(text), order, "64")
    result = nf.quantum_morse(f, order)
    fn = result.normalized_input
    h = result._h
    lhs = compose_scalar(result.g, fn) + bracket_i_hbar(fn, h)
    assert lhs.with_caps(t_cap=order - 1) == fn.deriv("t").with_caps(t_cap=order - 1)


def test_spectral_invariance_under_conjugation():
    rng = random.Random(19)
    caps = dict(t_cap=4, weight_cap="30")
    q = q_op(**caps)
    f = harmonic(**caps) + t_op(**caps) * (q ** 4)
    base = nf.quantum_morse(f, 4, weight_cap="30").spectrum
    for _ in range(3):
        gen_terms = {}
        for _ in range(rng.randint(1, 2)):
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            gen_terms[(m, n, 0, 0)] = Coefficient(
                Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
            )
        gen = QSeries(gen_terms, **caps)
        conj = flow.integrate_heisenberg(gen, f, 4)
        res = nf.quantum_morse(conj, 4, weight_cap="30")
        assert res.spectrum == base


def test_determinism_and_term_order_independence():
    caps = dict(t_cap=6, weight_cap="20")
    q = q_op(**caps)
    pert = q ** 4
    items = sorted(pert._terms.items())
    f_fwd = harmonic(**caps) + t_op(**caps) * QSeries(dict(items), **caps)
    f_rev = harmonic(**caps) + t_op(**caps) * QSeries(dict(reversed(items)), **caps)
    import json

    a = nf.quantum_morse(f_fwd, 6)
    b = nf.quantum_morse(f_rev, 6)
    assert json.dumps(a.u.to_json()) == json.dumps(b.u.to_json())
    assert json.dumps(a.spectrum.to_json()) == json.dumps(b.spectrum.to_json())


def test_linear_symplectic():
    caps = dict(t_cap=2, weight_cap="8")
    q, p = q_op(**caps), p_op(**caps)
    ident = [[1, 0], [0, 1]]
    f = q * q + p
    assert nf.linear_symplectic(f, ident) == f
    rot = [[0, 1], [-1, 0]]  # (q,p) -> (p, -q)
    assert nf.linear_symplectic(q * q, rot) == p * p
    assert nf.linear_symplectic(p * p, rot) == q * q
    # commutation preserved for a random symplectic over the field
    m = [[Coefficient(2), Coefficient(1)], [Coefficient(1), Coefficient(1)]]
    fq = nf.linear_symplectic(q, m)
    fp = nf.linear_symplectic(p, m)
    from qmorse.algebra import commutator

    assert commutator(fp, fq) == hbar_op(**caps).scale(-I)
    with pytest.raises(DomainError):
        nf.linear_symplectic(q, [[2, 0], [0, 1]])


def test_linear_symplectic_scaling():
    # (q,p) -> (lq, p/l) with l^2 = 1/omega turns p^2 + omega^2 q^2 into omega(p^2+q^2)
    caps = dict(t_cap=2, weight_cap="8")
    q, p = q_op(**caps), p_op(**caps)
    lam = Coefficient(0, 0, Fraction(1, 2))  # 1/sqrt2, so omega = 2
    m = [[lam, 0], [0, lam.inverse()]]
    f = p * p + (q * q).scale(4)
    assert nf.linear_symplectic(f, m) == (p * p + q * q).scale(2)


def test_reduce_to_harmonic_identity_and_cubic():
    caps = dict(t_cap=6, weight_cap="24")
    f0 = harmonic(**caps)
    res = nf.reduce_to_harmonic(f0, 4)
    z = scalar_var("z", SIG_ZHT, res.u.t_cap, res.u.weight_cap)
    assert res.u == z

    q = q_op(**caps)
    res3 = nf.reduce_to_harmonic(f0 + q ** 3, 6)
    assert res3.verify()


def test_reduce_to_harmonic_rejections():
    caps = dict(t_cap=2, weight_cap="8")
    q, p = q_op(**caps), p_op(**caps)
    with pytest.raises(DomainError):
        nf.reduce_to_harmonic(harmonic(**caps) + q, 2)  # linear part
    with pytest.raises(DomainError):
        nf.reduce_to_harmonic(p * p - q * q, 2)  # wrong normal form
    with pytest.raises(DomainError):
        nf.reduce_to_harmonic(q * p + p * q, 2)  # Morse but not c(p^2+q^2)


def test_p2_minus_q2_after_complex_symplectic():
    caps = dict(t_cap=4, weight_cap="16")
    q, p = q_op(**caps), p_op(**caps)
    c1 = Coefficient(0, 0, Fraction(1, 2), Fraction(-1, 2))  # (1-i)/sqrt2
    c2 = Coefficient(0, 0, Fraction(1, 2), Fraction(1, 2))   # (1+i)/sqrt2
    mapped = nf.linear_symplectic(p * p - q * q, [[c1, 0], [0, c2]])
    assert mapped == harmonic(**caps).scale(I)
    res = nf.reduce_to_harmonic(mapped, 3)
    assert res.scale == I
    assert res.verify()


SYMPLECTIC = [
    ((1, 0), (0, 1)),
    ((0, 1), (-1, 0)),
    ((1, 2), (0, 1)),
    ((2, 1), (1, 1)),
    ((Coefficient(0, 0, 1), 0), (0, Coefficient(0, 0, Fraction(1, 2)))),
    ((Coefficient(Fraction(1, 2), Fraction(-1, 2)), 0), (0, Coefficient(1, 1))),  # diag((1-i)/2, 1+i)
    ((Coefficient(0, 0, 1), I), (0, Coefficient(0, 0, Fraction(1, 2)))),  # ((sqrt2, i), (0, sqrt2/2))
]


def test_linear_symplectic_equals_per_monomial_substitution():
    """adag, a -> (p' + i q')/sqrt2, (p' - i q')/sqrt2 for the images q', p'
    under M, normal-ordered one monomial at a time, equals `linear_symplectic`
    in value and caps, for real and complex M over Q(i, sqrt2) and exponents
    up to 5; the identity matrix gives f back."""
    rng = random.Random(61)
    i_unit, inv_sqrt2 = Coefficient(0, 1), Coefficient(0, 0, Fraction(1, 2))
    for max_exp in [3] * 8 + [5] * 3:
        f = random_qseries(rng, t_cap=2, weight_cap=rng.choice(["7/2", "5", "8"]), max_terms=5, max_exp=max_exp)
        qs, ps = q_op(f.t_cap, f.weight_cap), p_op(f.t_cap, f.weight_cap)
        for (m11, m12), (m21, m22) in SYMPLECTIC:
            q_img = qs.scale(m11) + ps.scale(m12)
            p_img = qs.scale(m21) + ps.scale(m22)
            adag_img = (p_img + q_img.scale(i_unit)).scale(inv_sqrt2)
            a_img = (p_img - q_img.scale(i_unit)).scale(inv_sqrt2)
            got = nf.linear_symplectic(f, ((m11, m12), (m21, m22)))
            assert got == substitute_per_monomial(f._terms, adag_img, a_img)
            assert (got.t_cap, got.w2_cap) == (f.t_cap, f.w2_cap)
        assert nf.linear_symplectic(f, SYMPLECTIC[0]) == f
