"""Kernel: exact coefficient arithmetic and the normal-ordered product.

Coefficients of the engine live in the number field Q(i, sqrt2) and are packed
as 5-tuples of ints ``(a, b, c, d, den)`` meaning ``(a + b*i + c*sqrt2 +
d*i*sqrt2) / den`` with ``den > 0`` and ``gcd(a, b, c, d, den) == 1``.

Callers reach `qmul` through the module attribute (``_kernel.qmul``), so a
wrapper installed on it sees every product.
"""

from math import comb, factorial, gcd

BACKEND = "python"

COEFF_ZERO = (0, 0, 0, 0, 1)
COEFF_ONE = (1, 0, 0, 0, 1)


def coeff_make(a, b, c, d, den):
    """Normalize raw integer components into a canonical coefficient tuple."""
    if den == 1:
        return (a, b, c, d, 1)
    if den == 0:
        raise ZeroDivisionError("coefficient with zero denominator")
    if den < 0:
        a, b, c, d, den = -a, -b, -c, -d, -den
    # incremental gcd with early exit: most reductions terminate at 1 quickly
    g = gcd(den, abs(a))
    if g > 1:
        g = gcd(g, abs(b))
    if g > 1:
        g = gcd(g, abs(c))
    if g > 1:
        g = gcd(g, abs(d))
    if g > 1:
        a //= g
        b //= g
        c //= g
        d //= g
        den //= g
    return (a, b, c, d, den)


def coeff_add(x, y):
    xa, xb, xc, xd, xq = x
    ya, yb, yc, yd, yq = y
    if xq == yq:
        if xq == 1:
            return (xa + ya, xb + yb, xc + yc, xd + yd, 1)
        return coeff_make(xa + ya, xb + yb, xc + yc, xd + yd, xq)
    return coeff_make(
        xa * yq + ya * xq,
        xb * yq + yb * xq,
        xc * yq + yc * xq,
        xd * yq + yd * xq,
        xq * yq,
    )


def coeff_neg(x):
    a, b, c, d, den = x
    return (-a, -b, -c, -d, den)


def coeff_sub(x, y):
    return coeff_add(x, coeff_neg(y))


def coeff_mul(x, y):
    # (a1 + b1 i + c1 r + d1 ir)(a2 + b2 i + c2 r + d2 ir), r = sqrt2
    xa, xb, xc, xd, xq = x
    ya, yb, yc, yd, yq = y
    if xq == 1 and yq == 1:
        return (
            xa * ya - xb * yb + 2 * xc * yc - 2 * xd * yd,
            xa * yb + xb * ya + 2 * xc * yd + 2 * xd * yc,
            xa * yc + xc * ya - xb * yd - xd * yb,
            xa * yd + xd * ya + xb * yc + xc * yb,
            1,
        )
    return coeff_make(
        xa * ya - xb * yb + 2 * xc * yc - 2 * xd * yd,
        xa * yb + xb * ya + 2 * xc * yd + 2 * xd * yc,
        xa * yc + xc * ya - xb * yd - xd * yb,
        xa * yd + xd * ya + xb * yc + xc * yb,
        xq * yq,
    )


def coeff_mul_int(x, n):
    a, b, c, d, den = x
    if den == 1:
        return (a * n, b * n, c * n, d * n, 1)
    return coeff_make(a * n, b * n, c * n, d * n, den)


def qmul(A, B, t_cap, w2_cap, guard):
    """Normal-ordered product of two term maps.

    ``A`` and ``B`` map exponent tuples ``(m, n, k, l)`` (powers of adag, a,
    hbar, t) to coefficient tuples.  Reordering uses
    ``a^n adag^m = sum_j C(n,j) C(m,j) j! hbar^j adag^(m-j) a^(n-j)``,
    which conserves the weight ``m + n + 2k``, so the caps are checked once
    per term pair.  Terms beyond ``t_cap``/``w2_cap`` are dropped (silent
    truncation is part of the series contract).  Returns the new term map;
    raises MemoryError when the accumulator exceeds ``guard`` entries.
    """
    out = {}
    for (m1, n1, k1, l1), c1 in A.items():
        for (m2, n2, k2, l2), c2 in B.items():
            l = l1 + l2
            if l > t_cap:
                continue
            if m1 + n1 + m2 + n2 + 2 * (k1 + k2) > w2_cap:
                continue
            c = coeff_mul(c1, c2)
            m = m1 + m2
            n = n1 + n2
            k = k1 + k2
            for j in range(min(n1, m2) + 1):
                if j:
                    factor = comb(n1, j) * comb(m2, j) * factorial(j)
                    term = coeff_mul_int(c, factor)
                else:
                    term = c
                key = (m - j, n - j, k + j, l)
                acc = out.get(key)
                out[key] = term if acc is None else coeff_add(acc, term)
        if len(out) > guard:
            raise MemoryError("term-count guard exceeded")
    return {key: val for key, val in out.items() if val[0] or val[1] or val[2] or val[3]}
