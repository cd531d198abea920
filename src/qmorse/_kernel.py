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

Components and common denominators.  Every product of term maps, the three
kernels, ``ScalarSeries.__mul__`` and the Fock-space layer of `spectrum`
(`apply_rho`, `inner_product` and the Rayleigh-Schrodinger step), puts each
operand over the lcm of its denominators (`common_denominator`) and splits it
once by component (`split`): up to four integer term maps, one per basis
element ``1, i, sqrt2, i*sqrt2`` (components 0..3, the positions of ``(a, b,
c, d)``), only the nonzero ones kept.  A product loops over the nonzero
component pairs of its operands (`component_pairs`); the pair's entry ``(z,
w)`` of `COMPONENT_PRODUCT` is applied once, to the left operand, and each term
pair is then one integer multiply-add into the accumulator of component
``z``.  An operand with only rational terms thus costs one integer product per
term pair.  The field product is written out once, in `coeff_mul`, the
reference that `COMPONENT_PRODUCT` and the tests check against; no pair is
reduced and none calls `coeff_mul` or `coeff_make`.  Each output term is joined
from its components and reduced once, by ``coeff_make(a, b, c, d, den_A *
den_B)`` (`joined`); in `qbracket` ``den_A`` and ``den_B`` are the lcms over
all left and all right operands, and the divisor joins them in that one
reduction.  Callers reach `component_pairs` through the module attribute, as
they reach the kernels, so a wrapper installed on it sees every component
pair.  Every product raises ResourceError when its accumulators together hold
more than ``guard`` entries (`check_guard`).
"""

from itertools import zip_longest
from math import comb, factorial, gcd

from .errors import ResourceError

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
    # (a1 + b1 i + c1 r + d1 ir)(a2 + b2 i + c2 r + d2 ir), r = sqrt2: the one
    # written-out product, which COMPONENT_PRODUCT and the tests check against
    xa, xb, xc, xd, xq = x
    ya, yb, yc, yd, yq = y
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


# The product of the basis elements 1, i, sqrt2, i*sqrt2 (components 0..3):
# ``(x, y) -> (z, w)`` with ``e_x * e_y = w * e_z``.  Bit 0 of a component is
# its factor i and bit 1 its factor sqrt2, so ``z = x ^ y``, and w is -1 when
# both carry i and 2 when both carry sqrt2; e.g. ``(1, 1) -> (0, -1)``
# (i*i = -1) and ``(3, 2) -> (1, 2)`` (i*sqrt2 * sqrt2 = 2i).
COMPONENT_PRODUCT = {
    (x, y): (x ^ y, (-1 if x & y & 1 else 1) * (2 if x & y & 2 else 1))
    for x in range(4)
    for y in range(4)
}


def component_pairs(left, right):
    """Yield ``(z, w, p, q)`` for each part ``p = left[x]`` and ``q = right[y]``.

    ``left`` and ``right`` map components to parts, and hold only the nonzero
    ones; ``(z, w) = COMPONENT_PRODUCT[x, y]``, so the products of the terms
    of ``p`` and ``q``, times ``w``, belong to component ``z``.
    """
    for x, p in left.items():
        for y, q in right.items():
            z, w = COMPONENT_PRODUCT[x, y]
            yield z, w, p, q


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


def common_denominator(terms, den=1):
    """The lcm of ``den`` and the denominators of a term map's coefficients."""
    for c in terms.values():
        q = c[4]
        if den % q:
            den = den // gcd(den, q) * q
    return den


def split(terms, den):
    """The term map ``terms`` of coefficient tuples as numerators over ``den``,
    split by component: ``{component: {key: int}}``, nonzero entries only.

    ``den`` is a common multiple of the denominators of ``terms`` (see
    `common_denominator`).
    """
    parts = ({}, {}, {}, {})
    for key, (a, b, c, d, q) in terms.items():
        s = den // q
        for p, v in zip(parts, (a, b, c, d)):
            if v:
                p[key] = v * s
    return {x: p for x, p in enumerate(parts) if p}


def joined(parts, den):
    """``{key: coefficient tuple}`` of the split sums ``parts`` over ``den``,
    each nonzero entry reduced once."""
    nums = {}
    for x, p in parts.items():
        for key, c in p.items():
            if c:
                nums.setdefault(key, [0, 0, 0, 0])[x] = c
    return {key: coeff_make(a, b, c, d, den) for key, (a, b, c, d) in nums.items()}


def check_guard(out, guard):
    """Raise ResourceError when the split accumulators ``out`` hold more than ``guard`` entries."""
    if sum(map(len, out.values())) > guard:
        raise ResourceError("term-count guard exceeded")


def qmul(A, B, t_cap, w2_cap, guard):
    """Normal-ordered product of two term maps.

    ``A`` and ``B`` map exponent tuples ``(m, n, k, l)`` (powers of adag, a,
    hbar, t) to coefficient tuples.  Reordering ``a^n1 adag^m2`` uses the
    factors of `contractions`; it conserves the weight ``m + n + 2k``, so the
    caps are checked once per term pair.  Terms beyond ``t_cap``/``w2_cap``
    are dropped (silent truncation is part of the series contract).  Each
    operand is put over its common denominator and split by component once;
    each term pair of a component pair adds one integer product, times each
    contraction factor, and each output term is reduced once.  Returns the
    new term map; raises ResourceError when the accumulators exceed ``guard``
    entries.
    """
    den_a = common_denominator(A)
    den_b = common_denominator(B)
    table = _contractions
    right = {
        y: [(m, n, k, l, m + n + 2 * k, c) for (m, n, k, l), c in q.items()]
        for y, q in split(B, den_b).items()
    }
    out = {}
    for z, w, p, q in component_pairs(split(A, den_a), right):
        acc = out.setdefault(z, {})
        get = acc.get
        for (m1, n1, k1, l1), x in p.items():
            x *= w
            w_room = w2_cap - (m1 + n1 + 2 * k1)
            t_room = t_cap - l1
            for m2, n2, k2, l2, w2, y in q:
                if w2 > w_room or l2 > t_room:
                    continue
                c = x * y
                m = m1 + m2
                n = n1 + n2
                k = k1 + k2
                l = l1 + l2
                key = (m, n, k, l)
                acc[key] = get(key, 0) + c
                if n1 and m2:
                    factors = table.get((n1, m2)) or contractions(n1, m2)
                    for j in range(1, len(factors)):
                        key = (m - j, n - j, k + j, l)
                        acc[key] = get(key, 0) + c * factors[j]
            check_guard(out, guard)
    return joined(out, den_a * den_b)


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
    """``(1/div) sum (i/hbar)[A, B]`` over the term-map pairs ``(A, B)``, in one split accumulator.

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
    denominators times the lcm of the right ones, and each operand is split by
    component, as in `qmul`.  The factor ``i`` is the table entry
    ``COMPONENT_PRODUCT[1, z]``, applied with the pair's own factor to the
    left operand, so a pair of components ``x, y`` adds into component ``x ^
    y ^ 1``; each output term is reduced once, over ``den_A * den_B * div``.
    Raises ResourceError when the accumulators exceed ``guard`` entries.
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
    for A, B in pairs:
        # a contributing term has weight <= w2_cap + 1, since its partner's is >= 1
        right = {}
        reach = 0
        for y, q in split(B, den_b).items():
            kept = []
            for (m2, n2, k2, l2), c in q.items():
                w2 = m2 + n2 + 2 * k2
                if (m2 or n2) and w2 < room2 and l2 <= t_cap:
                    kept.append((((m2 << S | n2) << S | k2) << S | l2, w2, l2, m2, n2, c))
                    reach = max(reach, m2, n2)
            if kept:
                right[y] = kept
        if not right:
            continue
        left = {}
        for x, p in split(A, den_a).items():
            kept = []
            for (m1, n1, k1, l1), c in p.items():
                w_room = room2 - (m1 + n1 + 2 * k1)
                t_room = t_cap - l1
                if (m1 or n1) and w_room >= 1 and t_room >= 0:
                    base = (((m1 << S | n1) << S | k1) << S | l1) - one
                    rows = contraction_row(n1, reach + 1), contraction_row(m1, reach + 1)
                    kept.append((base, w_room, t_room, n1, m1, *rows, c))
            if kept:
                left[x] = kept
        for z, w, p, q in component_pairs(left, right):
            z, u = COMPONENT_PRODUCT[1, z]  # the factor i
            w *= u
            acc = out.setdefault(z, {})
            get = acc.get
            for base, w_room, t_room, n1, m1, row_f, row_b, x in p:
                x *= w
                for p2, w2, l2, m2, n2, y in q:
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
                    c = x * y
                    key = base + p2
                    for wf, wb in zip_longest(fwd, bwd, fillvalue=0):
                        key += step
                        if wf != wb:
                            acc[key] = get(key, 0) + c * (wf - wb)
                check_guard(out, guard)
    mask = one - 1
    return {
        (key >> (s2 + S), (key >> s2) & mask, (key >> S) & mask, key & mask): c
        for key, c in joined(out, den_a * den_b * div).items()
    }


def qcompose(C, powers, t_cap, w2_cap, guard):
    """``sum c hbar^k t^l P_j`` over the terms ``(j, k, l) -> c`` of ``C``.

    ``C`` is the term map of a germ in (z, hbar, t) and ``powers[j]`` the term
    map of ``P^j`` for every z power j of ``C``; the central factor
    ``hbar^k t^l`` is a key shift, and a shifted term is kept when its weight
    is within ``w2_cap`` and its t power within ``t_cap``.  ``C`` is put over
    its common denominator ``den_C`` and the powers over the lcm ``L`` of
    theirs, and each is split by component, so every contribution is an
    integer product over ``den_C * L``, added into the accumulator of its
    component, and each output term is reduced once.  The powers are split one
    at a time, so no two split copies are alive at once.
    Raises ResourceError when the accumulators exceed ``guard`` entries.
    """
    den_c = common_denominator(C)
    by_power = {}
    for x, p in split(C, den_c).items():
        for (j, k, l), c in p.items():
            by_power.setdefault(j, {}).setdefault(x, []).append((k, l, c))
    lcm = 1
    for j in by_power:
        lcm = common_denominator(powers[j], lcm)
    out = {}
    for j, central in by_power.items():
        right = {
            y: [(m, n, k, l, m + n + 2 * k, c) for (m, n, k, l), c in q.items()]
            for y, q in split(powers[j], lcm).items()
        }
        for z, w, p, q in component_pairs(central, right):
            acc = out.setdefault(z, {})
            get = acc.get
            for kc, lc, x in p:
                x *= w
                w_room = w2_cap - 2 * kc
                t_room = t_cap - lc
                for m, n, k, l, w2, y in q:
                    if w2 > w_room or l > t_room:
                        continue
                    key = (m, n, k + kc, l + lc)
                    acc[key] = get(key, 0) + x * y
                check_guard(out, guard)
    return joined(out, den_c * lcm)
