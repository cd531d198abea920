"""Kernel: exact coefficient arithmetic, the normal-ordered product and bracket.

Coefficients of the engine live in the number field Q(i, sqrt2) and are packed
as 5-tuples of ints ``(a, b, c, d, den)`` meaning ``(a + b*i + c*sqrt2 +
d*i*sqrt2) / den`` with ``den > 0`` and ``gcd(a, b, c, d, den) == 1``.

Two kernels act on term maps: `qmul`, the normal-ordered product, and
`qbracket`, the bracket (i/hbar)[A, B] formed directly from the contraction
terms.  Both take their reordering factors from one table, `contractions`.
Callers reach them through the module attributes (``_kernel.qmul``,
``_kernel.qbracket``), so a wrapper installed on one sees every call.  The
benchmark's ``kernel.qmul`` spans therefore count products only: the pairs of
a bracket go through `qbracket` and are seen by the ``algebra.bracket`` spans
of its callers, not by ``kernel.qmul``.
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


_contractions = {}


def contractions(n, m):
    """The reordering factors ``C(n,j) C(m,j) j!`` for ``j = 0..min(n, m)``.

    ``a^n adag^m = sum_j c_j hbar^j adag^(m-j) a^(n-j)``; the tuples are kept
    in `_contractions`, keyed by ``(n, m)``, so the table holds at most one
    entry per pair of exponents below the weight caps in use.
    """
    w = _contractions.get((n, m))
    if w is None:
        w = tuple(comb(n, j) * comb(m, j) * factorial(j) for j in range(min(n, m) + 1))
        _contractions[(n, m)] = w
    return w


def _accumulate(out, key, a, b, c, d, den):
    """out[key] += (a, b, c, d)/den, unreduced over the lcm of the denominators.

    The kernels reduce each accumulated sum once, through `_reduced`, instead
    of once per contribution.
    """
    acc = out.get(key)
    if acc is None:
        out[key] = (a, b, c, d, den)
        return
    xa, xb, xc, xd, xq = acc
    if xq == den:
        out[key] = (xa + a, xb + b, xc + c, xd + d, den)
        return
    g = gcd(xq, den)
    r = den // g
    s = xq // g
    out[key] = (xa * r + a * s, xb * r + b * s, xc * r + c * s, xd * r + d * s, xq * r)


def _reduced(out):
    """The nonzero accumulated sums of `_accumulate`, as canonical coefficients."""
    return {
        key: coeff_make(a, b, c, d, den)
        for key, (a, b, c, d, den) in out.items()
        if a or b or c or d
    }


def qmul(A, B, t_cap, w2_cap, guard):
    """Normal-ordered product of two term maps.

    ``A`` and ``B`` map exponent tuples ``(m, n, k, l)`` (powers of adag, a,
    hbar, t) to coefficient tuples.  Reordering ``a^n1 adag^m2`` uses the
    factors of `contractions`; it conserves the weight ``m + n + 2k``, so the
    caps are checked once per term pair.  Terms beyond ``t_cap``/``w2_cap``
    are dropped (silent truncation is part of the series contract).  Returns
    the new term map; raises MemoryError when the accumulator exceeds
    ``guard`` entries.
    """
    table = _contractions
    out = {}
    for (m1, n1, k1, l1), c1 in A.items():
        for (m2, n2, k2, l2), c2 in B.items():
            l = l1 + l2
            if l > t_cap:
                continue
            if m1 + n1 + m2 + n2 + 2 * (k1 + k2) > w2_cap:
                continue
            ca, cb, cc, cd, cq = coeff_mul(c1, c2)
            m = m1 + m2
            n = n1 + n2
            k = k1 + k2
            _accumulate(out, (m, n, k, l), ca, cb, cc, cd, cq)
            if n1 and m2:
                factors = table.get((n1, m2)) or contractions(n1, m2)
                for j in range(1, len(factors)):
                    w = factors[j]
                    _accumulate(out, (m - j, n - j, k + j, l), ca * w, cb * w, cc * w, cd * w, cq)
        if len(out) > guard:
            raise MemoryError("term-count guard exceeded")
    return _reduced(out)


def qbracket(A, B, t_cap, w2_cap, guard):
    """The bracket ``(i/hbar)[A, B]`` of two term maps, in one pass over term pairs.

    For a pair of terms with coefficients c1, c2, the ``hbar^j`` part of
    ``AB - BA`` is ``c1 c2`` times ``contractions(n1, m2)[j] -
    contractions(n2, m1)[j]`` (a missing entry counts as 0).  The ``j = 0``
    parts cancel exactly, so they are never formed, and a pair with no
    contraction in either order is skipped before its coefficients are
    multiplied.  The ``hbar^j`` part is written at ``hbar^(j-1)`` (the exact
    division by hbar); its weight is ``w1 + w2 - 2``, and it is kept when that
    is within ``w2_cap`` and ``l1 + l2`` is within ``t_cap``.  The factor
    ``i`` is applied once per output term as the component permutation
    ``(a, b, c, d) -> (-b, a, -d, c)``.  Raises MemoryError when the
    accumulator exceeds ``guard`` entries.
    """
    table = _contractions
    room2 = w2_cap + 2
    right = [(m2, n2, k2, l2, m2 + n2 + 2 * k2, c2) for (m2, n2, k2, l2), c2 in B.items()]
    out = {}
    for (m1, n1, k1, l1), c1 in A.items():
        w_room = room2 - (m1 + n1 + 2 * k1)
        t_room = t_cap - l1
        for m2, n2, k2, l2, w2, c2 in right:
            if w2 > w_room or l2 > t_room:
                continue
            fwd = (table.get((n1, m2)) or contractions(n1, m2)) if n1 and m2 else ()
            bwd = (table.get((n2, m1)) or contractions(n2, m1)) if n2 and m1 else ()
            if not fwd and not bwd:
                continue
            ca, cb, cc, cd, cq = coeff_mul(c1, c2)
            m = m1 + m2
            n = n1 + n2
            k = k1 + k2 - 1
            l = l1 + l2
            nf = len(fwd)
            nb = len(bwd)
            for j in range(1, nf if nf > nb else nb):
                w = (fwd[j] if j < nf else 0) - (bwd[j] if j < nb else 0)
                if w:
                    _accumulate(out, (m - j, n - j, k + j, l), ca * w, cb * w, cc * w, cd * w, cq)
        if len(out) > guard:
            raise MemoryError("term-count guard exceeded")
    return {key: (-b, a, -d, c, den) for key, (a, b, c, d, den) in _reduced(out).items()}
