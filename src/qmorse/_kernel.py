"""Kernel: exact coefficient arithmetic, the normal-ordered product and bracket.

Coefficients of the engine live in the number field Q(i, sqrt2) and are packed
as 5-tuples of ints ``(a, b, c, d, den)`` meaning ``(a + b*i + c*sqrt2 +
d*i*sqrt2) / den`` with ``den > 0`` and ``gcd(a, b, c, d, den) == 1``.

Three kernels act on term maps: `qmul`, the normal-ordered product,
`qbracket`, the sum ``(1/div) sum (i/hbar)[A, B]`` over a list of term-map
pairs formed directly from the contraction terms, and `qcompose`, the sum
``sum_j c_j(hbar, t) P_j`` of central coefficients times cached powers.  The
reordering factors come from one table, `contractions`; `qbracket` reads its
``j >= 1`` factors by row (`contraction_row`), from entries made from
`contractions` on first use.  `qbracket` keys its accumulator by packed
monomials, one int ``((m<<S | n)<<S | k)<<S | l`` per exponent tuple, so a
monomial product is an integer add; a Lie-ladder step passes all of its
brackets in one call.  Callers reach the kernels through the module attributes
(``_kernel.qmul``, ``_kernel.qbracket``, ``_kernel.qcompose``), so a wrapper
installed on one sees every call.  The benchmark's ``kernel.qmul`` spans
therefore count products only: the pairs of a bracket or a composition are
not seen by ``kernel.qmul``.

Common denominators.  The kernels and ``ScalarSeries.__mul__`` put each
operand over the lcm of its denominators (`common_denominator`) and read it as
4-int numerators over that lcm (`numerators`).  A term pair then costs one
integer product of numerators, added into a 4-int tuple of the output term;
no pair is reduced and none calls `coeff_mul` or `coeff_make`.  Each output
term is reduced once, by ``coeff_make(a, b, c, d, den_A * den_B)``
(`reduced_over`); in `qbracket` ``den_A`` and ``den_B`` are the lcms over all
left and all right operands, and the divisor joins them in that one reduction.

The Fock-space operations of `spectrum` (`apply_rho`, `inner_product`,
`FockVector.__add__` and the Rayleigh-Schrodinger step) sum products of
single coefficients, unreduced, through `_accumulate` and reduce each output
coefficient once through `_reduced` (the RS step through one `coeff_make`
that also divides by the level gap).  `coeff_mul_unreduced` gives such a
product.
"""

from itertools import zip_longest
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


def coeff_mul_unreduced(x, y):
    """The product x*y as ``(a, b, c, d, den)``, not reduced to canonical form."""
    # (a1 + b1 i + c1 r + d1 ir)(a2 + b2 i + c2 r + d2 ir), r = sqrt2
    xa, xb, xc, xd, xq = x
    ya, yb, yc, yd, yq = y
    return (
        xa * ya - xb * yb + 2 * xc * yc - 2 * xd * yd,
        xa * yb + xb * ya + 2 * xc * yd + 2 * xd * yc,
        xa * yc + xc * ya - xb * yd - xd * yb,
        xa * yd + xd * ya + xb * yc + xc * yb,
        xq * yq,
    )


def coeff_mul(x, y):
    # the formula of coeff_mul_unreduced, inlined for single products; the
    # product kernels multiply numerators over a common denominator instead
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

    The Fock-space operations of `spectrum` reduce each accumulated sum once,
    through `_reduced`, instead of once per contribution.
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


def common_denominator(terms, den=1):
    """The lcm of ``den`` and the denominators of a term map's coefficients."""
    for c in terms.values():
        q = c[4]
        if den % q:
            den = den // gcd(den, q) * q
    return den


def numerators(terms, den):
    """Yield ``(key, (a, b, c, d))`` with ``terms[key] == (a, b, c, d)/den``.

    ``den`` is a common multiple of the denominators of ``terms`` (see
    `common_denominator`).  The numerators are made one term at a time, so an
    operand read once costs no scaled copy.
    """
    for key, (a, b, c, d, q) in terms.items():
        if q == den:
            yield key, (a, b, c, d)
        else:
            s = den // q
            yield key, (a * s, b * s, c * s, d * s)


def reduced_over(out, den):
    """The nonzero 4-int sums of ``out``, each divided by ``den`` and reduced once."""
    return {
        key: coeff_make(a, b, c, d, den)
        for key, (a, b, c, d) in out.items()
        if a or b or c or d
    }


def qmul(A, B, t_cap, w2_cap, guard):
    """Normal-ordered product of two term maps.

    ``A`` and ``B`` map exponent tuples ``(m, n, k, l)`` (powers of adag, a,
    hbar, t) to coefficient tuples.  Reordering ``a^n1 adag^m2`` uses the
    factors of `contractions`; it conserves the weight ``m + n + 2k``, so the
    caps are checked once per term pair.  Terms beyond ``t_cap``/``w2_cap``
    are dropped (silent truncation is part of the series contract).  Each
    operand is put over its common denominator once; the pairs add integer
    numerators and each output term is reduced once.  Returns the new term
    map; raises MemoryError when the accumulator exceeds ``guard`` entries.
    """
    den_a = common_denominator(A)
    den_b = common_denominator(B)
    table = _contractions
    right = [(m2, n2, k2, l2, m2 + n2 + 2 * k2, y) for (m2, n2, k2, l2), y in numerators(B, den_b)]
    out = {}
    get = out.get
    for (m1, n1, k1, l1), (xa, xb, xc, xd) in numerators(A, den_a):
        w_room = w2_cap - (m1 + n1 + 2 * k1)
        t_room = t_cap - l1
        for m2, n2, k2, l2, w2, (ya, yb, yc, yd) in right:
            if w2 > w_room or l2 > t_room:
                continue
            ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
            cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
            cc = xa * yc + xc * ya - xb * yd - xd * yb
            cd = xa * yd + xd * ya + xb * yc + xc * yb
            m = m1 + m2
            n = n1 + n2
            k = k1 + k2
            l = l1 + l2
            key = (m, n, k, l)
            acc = get(key)
            if acc is None:
                out[key] = (ca, cb, cc, cd)
            else:
                out[key] = (acc[0] + ca, acc[1] + cb, acc[2] + cc, acc[3] + cd)
            if n1 and m2:
                factors = table.get((n1, m2)) or contractions(n1, m2)
                for j in range(1, len(factors)):
                    w = factors[j]
                    key = (m - j, n - j, k + j, l)
                    acc = get(key)
                    if acc is None:
                        out[key] = (ca * w, cb * w, cc * w, cd * w)
                    else:
                        out[key] = (acc[0] + ca * w, acc[1] + cb * w, acc[2] + cc * w, acc[3] + cd * w)
        if len(out) > guard:
            raise MemoryError("term-count guard exceeded")
    return reduced_over(out, den_a * den_b)


_rows = []


def contraction_row(a, size):
    """Row ``a`` of the table ``rows[a][b] = contractions(a, b)[1:]``, for ``b < size``.

    Only the ``j >= 1`` factors are kept.  The rows are shared by every call;
    a row is made, and lengthened, only when a call reads it, so the table is
    bounded by the exponents in use.  An entry is None until the caller fills
    it on first use.
    """
    rows = _rows
    if a >= len(rows):
        rows.extend([] for _ in range(a + 1 - len(rows)))
    row = rows[a]
    if len(row) < size:
        row.extend([None] * (size - len(row)))
    return row


def qbracket(pairs, t_cap, w2_cap, guard, div=1):
    """``(1/div) sum (i/hbar)[A, B]`` over the term-map pairs ``(A, B)``, in one accumulator.

    For a pair of terms with coefficients c1, c2, the ``hbar^j`` part of
    ``AB - BA`` is ``c1 c2`` times ``contractions(n1, m2)[j] -
    contractions(n2, m1)[j]`` (a missing entry counts as 0).  The ``j = 0``
    parts cancel exactly, so they are never formed; the ``j >= 1`` factors are
    read by row from the table of `contraction_row`, as ``rows[n1][m2]`` and
    ``rows[m1][n2]``, each entry made on its first use.  A term with
    ``m = n = 0`` commutes with everything and is skipped, and so is a pair
    with no contraction in either order.  The ``hbar^j`` part is written at
    ``hbar^(j-1)`` (the exact division by hbar); its weight is
    ``w1 + w2 - 2``, and it is kept when that is within ``w2_cap`` and
    ``l1 + l2`` is within ``t_cap``.

    Packed keys.  The accumulator is keyed by ``((m<<S | n)<<S | k)<<S | l``.
    The key of a pair's product is the sum of the operand keys, and the
    division by hbar and each contraction (m and n down by one, k up by one)
    add a constant, so a monomial product is an integer add.  The field width
    ``S`` holds the largest exponent present in the operands, ``w2_cap + 2``
    and ``t_cap``: every field of an operand key (an operand may hold terms
    beyond the caps), of a contributing pair's sum and of an output key fits
    in ``S`` bits, so the output keys unpack exactly.

    All numerators go over ``den_A * den_B``, the lcm of the left operands'
    denominators times the lcm of the right ones, as in `qmul`.  The factor
    ``i`` is applied once per output term, before its single reduction by
    ``coeff_make(-b, a, -d, c, den_A * den_B * div)``, as the component
    permutation ``(a, b, c, d) -> (-b, a, -d, c)``.  Raises MemoryError when
    the accumulator exceeds ``guard`` entries.
    """
    den_a = den_b = 1
    top = max(w2_cap + 2, t_cap)
    for A, B in pairs:
        den_a = common_denominator(A, den_a)
        den_b = common_denominator(B, den_b)
        top = max(top, max(map(max, A), default=0), max(map(max, B), default=0))
    S = top.bit_length()
    s2 = 2 * S
    one = 1 << S
    step = one - (one << S) - (one << s2)
    room2 = w2_cap + 2
    out = {}
    get = out.get
    for A, B in pairs:
        # a contributing term has weight <= w2_cap + 1, since its partner's is >= 1
        right = []
        reach = 0
        for (m2, n2, k2, l2), y in numerators(B, den_b):
            w2 = m2 + n2 + 2 * k2
            if (m2 or n2) and w2 < room2 and l2 <= t_cap:
                right.append((((m2 << S | n2) << S | k2) << S | l2, w2, l2, m2, n2, *y))
                reach = max(reach, m2, n2)
        if not right:
            continue
        for (m1, n1, k1, l1), (xa, xb, xc, xd) in numerators(A, den_a):
            w_room = room2 - (m1 + n1 + 2 * k1)
            t_room = t_cap - l1
            if not (m1 or n1) or w_room < 1 or t_room < 0:
                continue
            base = (((m1 << S | n1) << S | k1) << S | l1) - one
            row_f = contraction_row(n1, reach + 1)
            row_b = contraction_row(m1, reach + 1)
            for p2, w2, l2, m2, n2, ya, yb, yc, yd in right:
                if w2 > w_room or l2 > t_room:
                    continue
                fwd = row_f[m2]
                if fwd is None:
                    fwd = row_f[m2] = contractions(n1, m2)[1:]
                bwd = row_b[n2]
                if bwd is None:
                    bwd = row_b[n2] = contractions(m1, n2)[1:]
                if not fwd and not bwd:
                    continue
                ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
                cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
                cc = xa * yc + xc * ya - xb * yd - xd * yb
                cd = xa * yd + xd * ya + xb * yc + xc * yb
                key = base + p2
                for wf, wb in zip_longest(fwd, bwd, fillvalue=0):
                    key += step
                    w = wf - wb
                    if w:
                        acc = get(key)
                        if acc is None:
                            out[key] = (ca * w, cb * w, cc * w, cd * w)
                        else:
                            out[key] = (acc[0] + ca * w, acc[1] + cb * w, acc[2] + cc * w, acc[3] + cd * w)
            if len(out) > guard:
                raise MemoryError("term-count guard exceeded")
    den = den_a * den_b * div
    mask = one - 1
    return {
        (key >> (s2 + S), (key >> s2) & mask, (key >> S) & mask, key & mask): coeff_make(-b, a, -d, c, den)
        for key, (a, b, c, d) in out.items()
        if a or b or c or d
    }


def qcompose(C, powers, t_cap, w2_cap, guard):
    """``sum c hbar^k t^l P_j`` over the terms ``(j, k, l) -> c`` of ``C``.

    ``C`` is the term map of a germ in (z, hbar, t) and ``powers[j]`` the term
    map of ``P^j`` for every z power j of ``C``; the central factor
    ``hbar^k t^l`` is a key shift, and a shifted term is kept when its weight
    is within ``w2_cap`` and its t power within ``t_cap``.  ``C`` is put over
    its common denominator ``den_C`` and the powers over the lcm ``L`` of
    theirs, so every contribution is an integer numerator over ``den_C * L``
    and each output term is reduced once.  The powers are scaled one at a
    time, so no two scaled copies are alive at once.
    Raises MemoryError when the accumulator exceeds ``guard`` entries.
    """
    den_c = common_denominator(C)
    by_power = {}
    for (j, k, l), x in numerators(C, den_c):
        by_power.setdefault(j, []).append((k, l, x))
    lcm = 1
    for j in by_power:
        lcm = common_denominator(powers[j], lcm)
    out = {}
    get = out.get
    for j, central in by_power.items():
        right = [(m, n, k, l, m + n + 2 * k, y) for (m, n, k, l), y in numerators(powers[j], lcm)]
        for kc, lc, (xa, xb, xc, xd) in central:
            w_room = w2_cap - 2 * kc
            t_room = t_cap - lc
            for m, n, k, l, w2, (ya, yb, yc, yd) in right:
                if w2 > w_room or l > t_room:
                    continue
                ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
                cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
                cc = xa * yc + xc * ya - xb * yd - xd * yb
                cd = xa * yd + xd * ya + xb * yc + xc * yb
                key = (m, n, k + kc, l + lc)
                acc = get(key)
                if acc is None:
                    out[key] = (ca, cb, cc, cd)
                else:
                    out[key] = (acc[0] + ca, acc[1] + cb, acc[2] + cc, acc[3] + cd)
            if len(out) > guard:
                raise MemoryError("term-count guard exceeded")
    return reduced_over(out, den_c * lcm)
