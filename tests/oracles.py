"""Independent oracles used by the tests; no engine arithmetic inside.

The word rewriter normal-orders products of a / adag letters by the literal
rewrite a adag -> adag a + hbar applied to a fixed point, tracking integer
coefficients.  It shares nothing with the kernel's binomial formula.

`qmul_per_pair` and `bracket_per_pair` form a product or a bracket term pair
by term pair, reducing every pair product with the single-coefficient ops of
`_kernel` (`coeff_mul`, `coeff_add`), not with its product kernels.
"""

from fractions import Fraction
from math import comb, factorial
import random

from qmorse._kernel import COEFF_ZERO, coeff_add, coeff_mul, coeff_mul_int
from qmorse.field import Coefficient, I
from qmorse.series import QSeries


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
