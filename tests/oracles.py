"""Independent oracles used by the tests; no engine arithmetic inside.

The word rewriter normal-orders products of a / adag letters by the literal
rewrite a adag -> adag a + hbar applied to a fixed point, tracking integer
coefficients.  It shares nothing with the kernel's binomial formula.

`qmul_per_pair` and `bracket_per_pair` form a product or a bracket term pair
by term pair, reducing every pair product with the single-coefficient ops of
`_kernel` (`coeff_mul`, `coeff_add`), not with its product kernels.
`rho_per_entry`, `inner_per_entry` and `rs_per_entry` form the Fock action,
the Fock inner product and the Rayleigh-Schrodinger recursion entry by entry
in `field.Coefficient` arithmetic, with no common denominators and no split
by component.

`component_pair_counts` is the work counter of the split products: it counts
the term pairs that each component pair visits, at `_kernel.component_pairs`.

`trace_by_products`, `substitute_per_monomial` and `jacobian_rows_by_products`
/ `versality_rows_by_products` are second routes, through engine products, to
values the engine forms another way: the hbar-trace as ``pi(a^n f adag^n)``
rather than from the Fock action, normal ordering one monomial ``x^e1 y^e2``
at a time by binary powers rather than by `algebra.substitute`, and the
Milnor rows as ``plane(...) *`` products capped at degree D rather than as
shifts.
"""

from fractions import Fraction
from math import comb, factorial, perm
import random

from qmorse import _kernel
from qmorse._kernel import COEFF_ZERO, coeff_add, coeff_mul, coeff_mul_int
from qmorse.algebra import pi_restriction
from qmorse.field import Coefficient, I
from qmorse.milnor import _monomials, _working, plane, poisson
from qmorse.series import QSeries, ScalarSeries, SIG_HT, a_op, adag, harmonic, one, q_op

# A non-hermitian perturbation whose values fill all four components of
# Q(i, sqrt2).
COMPLEX_ENERGIES = (
    "p^2+q^2 + t*(i*(q^2)/2 + sqrt2*(q^3*p+p*q^3)/5 + i*sqrt2*(p^2*q)/3)"
    " + t^2*(sqrt2*(p^4)/7)"
)


def component_pair_counts(run):
    """``{(x, y): term pairs}`` visited per component pair while ``run()`` runs.

    Every product of term maps runs through `_kernel.component_pairs`; a
    product counts ``len(p) * len(q)`` for each part ``p`` of component ``x``
    of its left operand and ``q`` of component ``y`` of its right one,
    including the pairs that its caps then skip.
    """
    counts = {}
    original = _kernel.component_pairs

    def counting(left, right):
        for x, p in left.items():
            for y, q in right.items():
                counts[x, y] = counts.get((x, y), 0) + len(p) * len(q)
        return original(left, right)

    _kernel.component_pairs = counting
    try:
        run()
    finally:
        _kernel.component_pairs = original
    return counts


def normal_order_word(word: str):
    """Normal-order a word over {'a', 'd'} (d = adag).

    Returns {(m, n, k): integer coefficient} for adag^m a^n hbar^k.
    """
    pending = {(word, 0): 1}
    done = {}
    while pending:
        nxt = {}
        for (w, k), coef in pending.items():
            i = w.find("ad")
            if i < 0:
                key = (w.count("d"), w.count("a"), k)
                done[key] = done.get(key, 0) + coef
            else:
                swapped = w[:i] + "da" + w[i + 2 :]
                nxt[(swapped, k)] = nxt.get((swapped, k), 0) + coef
                contracted = w[:i] + w[i + 2 :]
                nxt[(contracted, k + 1)] = nxt.get((contracted, k + 1), 0) + coef
        pending = nxt
    return {k: v for k, v in done.items() if v}


def word_to_qseries(word: str, t_cap, weight_cap) -> QSeries:
    """Engine-side product of the same word, one letter at a time."""
    from qmorse.series import a_op, adag, one

    out = one(t_cap, weight_cap)
    for ch in word:
        out = out * (a_op(t_cap, weight_cap) if ch == "a" else adag(t_cap, weight_cap))
    return out


_COEFF_POOL = [
    Coefficient(1),
    Coefficient(-1),
    Coefficient(2),
    Coefficient(Fraction(1, 2)),
    Coefficient(Fraction(-3, 4)),
    Coefficient(0, 1),
    Coefficient(0, Fraction(-1, 2)),
    Coefficient(0, 0, 1),
    Coefficient(0, 0, 0, Fraction(1, 3)),
    Coefficient(1, 1),
    Coefficient(Fraction(2, 3), 0, Fraction(-1, 2)),
]


# One coefficient per coprime denominator 3, 5, 7, all four Q(i, sqrt2)
# components nonzero: the terms of an operand need different scales to reach
# their lcm, so a wrong common-denominator scale cannot pass.
COPRIME = [
    Coefficient(Fraction(1, 3), Fraction(-2, 3), Fraction(4, 3), Fraction(1, 3)),
    Coefficient(Fraction(2, 5), Fraction(1, 5), Fraction(-3, 5), Fraction(4, 5)),
    Coefficient(Fraction(-1, 7), Fraction(6, 7), Fraction(2, 7), Fraction(-5, 7)),
]


def random_coeff(rng: random.Random) -> Coefficient:
    return rng.choice(_COEFF_POOL)


def random_qseries(
    rng: random.Random,
    t_cap=4,
    weight_cap="8",
    max_terms=4,
    max_exp=2,
    with_t=True,
) -> QSeries:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(0, max_exp)
        n = rng.randint(0, max_exp)
        k = rng.randint(0, 1)
        l = rng.randint(0, 1) if with_t else 0
        terms[(m, n, k, l)] = random_coeff(rng)
    return QSeries(terms, t_cap=t_cap, weight_cap=weight_cap)


def _contraction(n, m, j):
    return comb(n, j) * comb(m, j) * factorial(j)


def _on_caps(out, t_cap, w2):
    return {
        key: c
        for key, c in out.items()
        if any(c[:4]) and key[3] <= t_cap and key[0] + key[1] + 2 * key[2] <= w2
    }


def qmul_per_pair(f, g):
    """f * g with every pair product reduced by coeff_mul and summed by coeff_add."""
    out = {}
    for (m1, n1, k1, l1), c1 in f._terms.items():
        for (m2, n2, k2, l2), c2 in g._terms.items():
            c = coeff_mul(c1, c2)
            for j in range(min(n1, m2) + 1):
                key = (m1 + m2 - j, n1 + n2 - j, k1 + k2 + j, l1 + l2)
                out[key] = coeff_add(out.get(key, COEFF_ZERO), coeff_mul_int(c, _contraction(n1, m2, j)))
    return _on_caps(out, *f._join_caps(g))


def bracket_per_pair(f, g):
    """(i/hbar)[f, g] with every pair product reduced by coeff_mul and summed by coeff_add."""
    out = {}
    for (m1, n1, k1, l1), c1 in f._terms.items():
        for (m2, n2, k2, l2), c2 in g._terms.items():
            c = coeff_mul(coeff_mul(c1, c2), I.raw)
            for j in range(1, max(min(n1, m2), min(n2, m1)) + 1):
                w = _contraction(n1, m2, j) - _contraction(n2, m1, j)
                key = (m1 + m2 - j, n1 + n2 - j, k1 + k2 + j - 1, l1 + l2)
                out[key] = coeff_add(out.get(key, COEFF_ZERO), coeff_mul_int(c, w))
    return _on_caps(out, *f._join_caps(g))


def rho_per_entry(f, psi):
    """rho(f) psi for a t-free ``f``; ``psi`` and the result map (z power, hbar power) to Coefficients."""
    out = {}
    for (m, n, k, _), c in f._terms.items():
        for (j, kh), x in psi.items():
            if n <= j:
                key = (j - n + m, kh + k + n)
                out[key] = out.get(key, 0) + Coefficient._raw(c) * x * perm(j, n)
    return {key: c for key, c in out.items() if c}


def inner_per_entry(psi, chi):
    """<psi|chi> as ``{hbar power: Coefficient}``; ``psi`` and ``chi`` map (z power, hbar power) to Coefficients.

    ``<z^j|z^j> = j! hbar^j``, and the left entries are conjugated explicitly,
    component by component: ``r + i_ i + r2 sqrt2 + ir2 i sqrt2`` becomes
    ``r - i_ i + r2 sqrt2 - ir2 i sqrt2``.
    """
    out = {}
    for (j, k1), x in psi.items():
        conj = Coefficient(x.r, -x.i, x.r2, -x.ir2)
        for (j2, k2), y in chi.items():
            if j2 == j:
                key = k1 + k2 + j
                out[key] = out.get(key, 0) + conj * y * factorial(j)
    return {k: c for k, c in out.items() if c}


def rs_per_entry(f, level, order):
    """The RS energies ``{(hbar power, t power): Coefficient}`` of ``f = p^2 + q^2 + O(t)``.

    Every sum, product and division is one Coefficient operation per entry.
    """
    slices = [f.var_slice("t", j) for j in range(order + 1)]
    psis = [{(level, 0): Coefficient(1)}]
    energies = [{1: Coefficient(2 * level + 1)}]
    for k in range(1, order + 1):
        res = {}
        for j in range(1, k + 1):
            for key, c in rho_per_entry(slices[j], psis[k - j]).items():
                res[key] = res.get(key, 0) + c
        energies.append({kh: c for (m, kh), c in res.items() if m == level and c})
        for j in range(1, k + 1):
            for eh, e in energies[j].items():
                for (m, kh), x in psis[k - j].items():
                    res[(m, kh + eh)] = res.get((m, kh + eh), 0) - e * x
        psi = {}
        for (m, kh), c in res.items():
            if c:
                assert m != level, "level component of the residual did not cancel"
                psi[(m, kh - 1)] = -c / (2 * (m - level))
        psis.append(psi)
    return {(kh, k): c for k, e in enumerate(energies) for kh, c in e.items()}


def trace_by_products(f, cutoff):
    """sum_{n<=cutoff} pi(a^n f adag^n), each level by two operator products,
    with f's weight cap set to its highest weight plus cutoff + 1."""
    w2 = f.max_weight2() + 2 * cutoff + 2
    work = f.with_caps(weight_cap=Fraction(w2, 2))
    ad, an = adag(work.t_cap, work.weight_cap), a_op(work.t_cap, work.weight_cap)
    left = right = one(work.t_cap, work.weight_cap)
    total = ScalarSeries({}, vars=SIG_HT, t_cap=work.t_cap, weight_cap=work.weight_cap)
    for n in range(cutoff + 1):
        if n:
            left, right = an * left, right * ad
        total = total + pi_restriction(left * work * right)
    return total


def substitute_per_monomial(terms, x, y):
    """sum c hbar^k t^l x^e1 y^e2 over {(e1, e2, k, l): c}, one monomial at a time."""
    out = x.zero_like()
    for (e1, e2, k, l), c in terms.items():
        out = out + (x**e1 * y**e2).shift(hbar=k, t=l).scale(c)
    return out


def jacobian_rows_by_products(F, degree):
    """The rows m F_x, m F_y over the monomials m of degree <= D, as products capped at D."""
    work = _working(F, degree)
    fx, fy = work.deriv("x"), work.deriv("y")
    rows = []
    for mono in _monomials(degree):
        m = plane({mono: 1}, degree)
        rows += [m * fx, m * fy]
    return rows


def versality_rows_by_products(F, degree):
    """The rows {g, F} (capped at D) and m F, the latter as products capped at D."""
    work = _working(F, degree)
    top = work.w2_cap
    rows = [poisson(plane({mono: 1}, top), work).with_caps(weight_cap=Fraction(degree, 2)) for mono in _monomials(top)]
    return rows + [plane({mono: 1}, degree) * work for mono in _monomials(degree)]


def _potential(coefficients, order):
    """p^2 + sum_k c_k t^(k-2) q^k over ``coefficients`` [c_0, c_1, ...], through t^order.

    c_0 = c_1 = 0 and c_2 = 1, so f(t=0) = p^2 + q^2.  The powers of q are
    engine products, which the word rewriter checks elsewhere.
    """
    assert coefficients[:3] == [0, 0, 1]
    caps = dict(t_cap=order, weight_cap=str(order + 4))
    q = q_op(**caps)
    f, power = harmonic(**caps), q * q
    for k in range(3, order + 3):
        power = power * q
        f = f + power.shift(t=k - 2).scale(coefficients[k])
    return f


def morse_perturbation(order):
    """The Morse oscillator p^2 + (1 - e^(-tq))^2 / t^2 through t^order.

    (1 - e^(-x))^2 = sum_{k>=2} (-1)^k (2^k - 2) / k! x^k.
    """
    return _potential([Fraction((-1) ** k * (2**k - 2), factorial(k)) if k > 1 else 0 for k in range(order + 3)], order)


def poschl_teller_perturbation(order):
    """The Poschl-Teller oscillator p^2 + tanh^2(tq) / t^2 through t^order.

    tanh x = sum_j T_j x^j from tanh' = 1 - tanh^2: T_1 = 1 and
    (j+1) T_(j+1) = -sum_i T_i T_(j-i) for j >= 1.
    """
    tanh = [Fraction(0), Fraction(1)]
    for j in range(1, order + 2):
        tanh.append(-sum(tanh[i] * tanh[j - i] for i in range(j + 1)) / (j + 1))
    return _potential([sum(tanh[i] * tanh[k - i] for i in range(k + 1)) for k in range(order + 3)], order)


def _half_binomial(k):
    """binomial(1/2, k), the coefficient of x^k in sqrt(1 + x)."""
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(1, 2) - i) / (i + 1)
    return out


# The closed-form germs u_inv(z, hbar, t), {(z, hbar, t) exponents: Fraction}, with
# E_n = u_inv(z = hbar (2n + 1)) the exact bound-state levels.
def morse_germ(order):
    """z - t^2 z^2 / 4: E_n = hbar (2n+1) - t^2 hbar^2 (n + 1/2)^2 (Morse, Phys. Rev. 34, 57 (1929),
    at D = 1/t^2, alpha = t, mass 1/2)."""
    return {(1, 0, 0): Fraction(1), (2, 0, 2): Fraction(-1, 4)}


def poschl_teller_germ(order):
    """z sqrt(1 + t^4 hbar^2 / 4) - t^2 z^2 / 4 - t^2 hbar^2 / 4, through t^order: E_n = D - alpha^2
    hbar^2 (s - n)^2 with s (s + 1) = D / (alpha hbar)^2 (Poschl and Teller, Z. Phys. 83, 143
    (1933)), at D = 1/t^2, alpha = t, mass 1/2."""
    germ = {(1, 2 * k, 4 * k): _half_binomial(k) / 4**k for k in range(order // 4 + 1)}
    germ[2, 0, 2] = germ[0, 2, 2] = Fraction(-1, 4)
    return germ


def germ_levels(germ, n=None):
    """The germ at z = hbar (2n + 1): {(n, hbar, t): Fraction} for a symbolic n, or
    {(hbar, t): Fraction} at the level ``n``."""
    out = {}
    for (j, k, l), c in germ.items():
        for r in range(j + 1):  # (2n + 1)^j = sum_r C(j, r) 2^r n^r
            w = c * comb(j, r) * 2**r
            key = (r, j + k, l) if n is None else (j + k, l)
            out[key] = out.get(key, 0) + (w if n is None else w * n**r)
    return {key: c for key, c in out.items() if c}
