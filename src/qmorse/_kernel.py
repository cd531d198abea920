"""Kernel: exact coefficient arithmetic, the normal-ordered product and bracket.

Coefficients of the engine live in the number field Q(i, sqrt2) and are packed
as 5-tuples of ints ``(a, b, c, d, den)`` meaning ``(a + b*i + c*sqrt2 +
d*i*sqrt2) / den`` with ``den > 0`` and ``gcd(a, b, c, d, den) == 1``.

Two kernels act on term maps, each summing over a list of term-map pairs in
one accumulator: `qmul_sum`, the sum ``sum A B`` of normal-ordered products
(`qmul` is its one-pair entry), and `qbracket`, the sum ``(1/div) sum
(i/hbar)[A, B]`` formed directly from the contraction terms.  Every product,
of operators and of scalars, runs one loop, `qmul_packed`, over packed
operands (below): a composition ``sum_j C_j(hbar, t) P^j`` is one call whose
left operands are central, a ``ScalarSeries`` product one call whose terms
never contract.  The reordering factors come from one table: both kernels
read the ``j >= 1`` factors of `contractions` by row (`contraction_row`),
each row filled when it is made or lengthened.  A Lie-ladder step passes all
of its brackets to `qbracket` in one call.

Packed keys.  Every product of monomials, in `qmul_packed` and `qbracket`,
adds integer keys.  An exponent tuple ``(e_0, ..., e_r)`` is packed once into
``sum e_i << S (r - i)`` (`pack`; `pack_terms` writes it out as ``(m << 3S) +
(n << 2S) + (k << S) + l``), so the key of a product is the sum of its
factors' keys, and a contraction (m and n down by one, k up by one) or the
division by hbar adds a constant (`contraction_step`, ``1 << S``).  The
fields are added, not or-ed, so the sum is exact even where an operand's
field overflows; each output key is unpacked once, after the reduction
(`unpacked`).  That needs only the fields of the output keys to fit in ``S``
bits, so the width comes from the caps (`key_width`): a field of a variable
of positive weight holds at most ``w2_cap`` and the t field at most
``t_cap``.  Only a variable of weight 0 other than t (n and the plane
parameters lambda_j, which operators never carry) is bounded by the
operands' largest exponents instead.

Packed operands.  Both kernels read every operand in one form, ``(den,
{component: [(key, w2, l, m, n, numerator)]})``: the terms over one
denominator, split by component, each with its packed key, doubled weight,
t power and the adag and a powers the contractions read, each part sorted by
t power, so that a left term stops at the first right term past its t room.
Operators are packed by `pack_terms`; a ``ScalarSeries`` packs itself, one
field per variable, with ``m = n = 0`` (``ScalarSeries._packed``).
`qbracket` drops the central terms of its operands (`noncentral`).
`qmul_packed` returns the split sums over ``den_A * den_B``, and has two
endings.  `qmul_sum`, for term-map callers, packs its operands, runs the
loop, then joins and reduces each output term (`joined`) and unpacks its key
(`unpacked`).  A caller that reads the product as an operand again, as the
Morse solve does with the powers fn^j, takes the sums as a packed operand
instead (`pack_sums`): reduced once as a whole, by one gcd chain
(`reduced`), its keys never unpacked into tuples.  Such an operand can be
cut to a t cap (`cut_t`) and split into t-slices read off the key
(`t_slices`) without being split or packed again.

Callers reach the kernels through the module attributes (``_kernel.qmul``,
``_kernel.qmul_sum``, ``_kernel.qmul_packed``, ``_kernel.qbracket``), and
`qmul` reaches `qmul_sum`, and `qmul_sum` `qmul_packed`, the same way, so a
wrapper installed on one sees every call.  The benchmark's ``kernel.qmul``
spans therefore count binary term-map products only: the pairs of a bracket,
the powers and compositions of the Morse solve and the ``ScalarSeries``
products, which call `qmul_packed` directly, are not seen by them.

Components and common denominators.  Every product of term maps, the two
kernels and the Fock-space layer of `spectrum` (`apply_rho`, `inner_product`
and the Rayleigh-Schrodinger step), puts each operand over the lcm of its
denominators (`common_denominator`) and splits it once by component
(`split`): up to four integer term maps, one per basis element ``1, i,
sqrt2, i*sqrt2`` (components 0..3, the positions of ``(a, b, c, d)``), only
the nonzero ones kept.  A product loops over the nonzero component pairs of
its operands (`component_pairs`); the pair's entry ``(z, w)`` of
`COMPONENT_PRODUCT` is applied once, to the left operand, and each term pair
is then one integer multiply-add into the accumulator of component ``z``.
An operand with only rational terms thus costs one integer product per term
pair.  The field product is written out once, in `coeff_mul`, the reference
that `COMPONENT_PRODUCT` and the tests check against; no pair is reduced and
none calls `coeff_mul` or `coeff_make`.  Each output term is joined from its
components and reduced once, by ``coeff_make(a, b, c, d, den_A * den_B)``
(`joined`), unless the product is kept packed (`pack_sums`); ``den_A`` and
``den_B`` are the lcms over all left and all right operands of the pair list
(`denominator_lcms`; both kernels lift a pair's own denominators to them by
one factor on its left terms), and `qbracket`'s divisor joins them in that
one reduction.  Callers reach `component_pairs` through the module
attribute, as they reach the kernels, so a wrapper installed on it sees
every component pair.  Every product raises ResourceError when its
accumulators together hold more than `term_guard` entries (`check_guard`),
read once per call.

Hermitian half.  The bracket of two hermitian (or anti-hermitian) operators
is hermitian or anti-hermitian again: ``dagger((i/hbar)[A, B]) = eps delta
(i/hbar)[A, B]`` when ``dagger(A) = eps A`` and ``dagger(B) = delta B``.
`qbracket` reads each operand's sign (`hermitian_sign`: 1, -1, or 0 for
neither); when every pair of its list has the same nonzero product, it forms
only the output terms with ``m >= n`` (adag power at least the a power) and
fills in the others by conjugation (`coeff_conj`).  The cut is exact under
the caps, which read ``m + n`` and never ``m - n``.  A list with any other
mix of signs runs the full loop.  For a self-adjoint perturbation, as in
every benchmark family, the operator, its generator ``H`` and every
Lie-ladder slice that builds ``H`` or checks ``verify()`` are hermitian, so
those brackets take the half path.
"""

import os
from bisect import bisect_right
from itertools import zip_longest
from math import comb, factorial, gcd, lcm
from operator import itemgetter

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


def coeff_conj(x):
    """Complex conjugation (i -> -i, sqrt2 fixed)."""
    a, b, c, d, den = x
    return (a, -b, c, -d, den)


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


def add_term(out, key, c):
    """``out[key] += c`` on a term map, dropping the key when the sum is zero."""
    acc = out.get(key)
    s = c if acc is None else coeff_add(acc, c)
    if any(s[:4]):
        out[key] = s
    elif acc is not None:
        del out[key]


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


def contractions(n, m):
    """The reordering factors ``C(n,j) C(m,j) j!`` for ``j = 0..min(n, m)``.

    ``a^n adag^m = sum_j c_j hbar^j adag^(m-j) a^(n-j)``.  The kernels keep
    the ``j >= 1`` factors in the table of `contraction_row`, so this runs
    once per pair of exponents in use.
    """
    return tuple(comb(n, j) * comb(m, j) * factorial(j) for j in range(min(n, m) + 1))


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


def term_guard():
    """The accumulator size limit, ``QMORSE_TERM_GUARD`` or 10^6; read per product, not at import.

    A value that is not an integer of at least 1 is a ValueError that names the variable.
    """
    value = os.environ.get("QMORSE_TERM_GUARD")
    if not value:
        return 10**6
    try:
        guard = int(value)
    except ValueError:
        guard = 0
    if guard < 1:
        raise ValueError(f"QMORSE_TERM_GUARD must be an integer of at least 1, not {value!r}")
    return guard


def check_guard(out, guard):
    """Raise ResourceError when the split accumulators ``out`` hold more than ``guard`` entries."""
    if sum(map(len, out.values())) > guard:
        raise ResourceError("term-count guard exceeded")


def key_width(top):
    """Bits per field of a packed key whose fields hold integers up to ``top`` (at least 1)."""
    return max(top, 1).bit_length()


def pack(exp, S):
    """The packed key ``sum e_i << S (r - i)`` of an exponent tuple ``(e_0, ..., e_r)``.

    The fields are added, so the key is linear in the exponents even when
    one overflows its ``S`` bits (module docstring).
    """
    key = 0
    for e in exp:
        key = (key << S) + e
    return key


def unpacked(terms, arity, S):
    """``{exponent tuple: c}`` of a map keyed by packed keys of ``arity`` fields of ``S`` bits."""
    mask = (1 << S) - 1
    fields = [[key >> s & mask for key in terms] for s in range(S * (arity - 1), -1, -S)]
    return dict(zip(zip(*fields), terms.values()))


def contraction_step(S):
    """The packed ``(m, n, k, l)`` step of one contraction: m and n down by one, k up by one."""
    one = 1 << S
    return one - (one << S) - (one << 2 * S)


_rows = []


def contraction_row(a, size):
    """Row ``a`` of the table ``rows[a][b] = contractions(a, b)[1:]``, for ``b < size``.

    Only the ``j >= 1`` factors are kept.  The rows are shared by every call
    of `qmul_sum` and `qbracket`; a row is made, and lengthened, only when a
    call reads it, and a call sizes it by the exponents of its operands, so
    the table is bounded by the exponents in use, not by the caps.  The
    entries are filled when the row is made or lengthened.
    """
    rows = _rows
    if a >= len(rows):
        rows.extend([] for _ in range(a + 1 - len(rows)))
    row = rows[a]
    if len(row) < size:
        row.extend(contractions(a, b)[1:] for b in range(len(row), size))
    return row


t_power = itemgetter(2)  # of a packed term: (key, doubled weight, t power, ...)


def reduced(parts, den):
    """The split sums ``parts`` over ``den`` in canonical form, as ``(parts, den)``.

    Zero sums and empty parts are dropped and every numerator and ``den`` are
    divided by ``g = gcd(den, all numerators)``.  An entry ``x/den`` reduces to
    the denominator ``den / gcd(den, x)``, so ``den / g`` is the lcm of the
    entries' reduced denominators.  The chain stops at the first ``g == 1``.
    """
    kept = {}
    g = den
    for x, p in parts.items():
        p = {key: c for key, c in p.items() if c}
        if p:
            kept[x] = p
            if g != 1:
                g = gcd(g, *p.values())
    if g != 1:
        kept = {x: {key: c // g for key, c in p.items()} for x, p in kept.items()}
        den //= g
    return kept, den


def pack_terms(terms, S, t_cap, w2_cap):
    """The packed operand of the terms of a term map within the caps.

    A packed operand is ``(den, {component: [(key, w2, l, m, n,
    numerator)]})``: the terms over the lcm ``den`` of the map's
    denominators, split by component (`split`), each exponent ``(m, n, k,
    l)`` packed in fields of ``S`` bits with its doubled weight ``w2 = m + n +
    2k``, each part sorted by t power (`t_power`), so that a product stops at
    the first right term past its t room.
    """
    den = common_denominator(terms)
    s2, s3 = 2 * S, 3 * S
    parts = {}
    for x, p in split(terms, den).items():
        kept = []
        for (m, n, k, l), c in p.items():
            w2 = m + n + 2 * k
            if w2 <= w2_cap and l <= t_cap:
                kept.append(((m << s3) + (n << s2) + (k << S) + l, w2, l, m, n, c))
        if kept:
            kept.sort(key=t_power)
            parts[x] = kept
    return den, parts


def pack_sums(parts, den, S):
    """The packed operand of a product's split sums ``parts`` over ``den``.

    The sums are reduced once as a whole (`reduced`), not term by term, and
    each key's fields are read once; the key itself is kept as it is.
    """
    parts, den = reduced(parts, den)
    mask = (1 << S) - 1
    s2, s3 = 2 * S, 3 * S
    out = {}
    for x, p in parts.items():
        terms = []
        for key, c in p.items():
            m, n, k, l = key >> s3, key >> s2 & mask, key >> S & mask, key & mask
            terms.append((key, m + n + 2 * k, l, m, n, c))
        terms.sort(key=t_power)
        out[x] = terms
    return den, out


def cut_t(operand, t_cap):
    """A packed operand cut to its terms of t power at most ``t_cap``."""
    den, parts = operand
    out = {}
    for x, p in parts.items():
        end = bisect_right(p, t_cap, key=t_power)
        if end:
            out[x] = p if end == len(p) else p[:end]
    return den, out


def t_slices(operand, t_cap):
    """``[X_0 .. X_t_cap]`` of a packed operand with no term past ``t_cap``.

    Each ``X_l`` holds the terms at ``t^l`` with the t field of the key and
    the t power set to 0, over the operand's ``den``.
    """
    den, parts = operand
    slices = [{} for _ in range(t_cap + 1)]
    for x, p in parts.items():
        for key, w2, l, m, n, c in p:
            slices[l].setdefault(x, []).append((key - l, w2, 0, m, n, c))
    return [(den, s) for s in slices]


def denominator_lcms(pairs):
    """``(den_A, den_B)``: the lcms of the left and of the right packed operands' denominators."""
    return lcm(*(da for (da, _), _ in pairs)), lcm(*(db for _, (db, _) in pairs))


def qmul_packed(pairs, t_cap, w2_cap, S):
    """``sum A B`` over pairs of packed operands, as split sums ``(parts, den)``.

    The one product loop of the engine, for operators (`pack_terms`,
    `pack_sums`) and scalars (``ScalarSeries._packed``, whose terms carry
    ``m = n = 0`` and never contract).  Reordering ``a^n1 adag^m2`` conserves
    the weight ``m + n + 2k`` and adds the ``j >= 1`` terms of
    ``contractions(n1, m2)``, read as ``rows[n1][m2]`` (`contraction_row`,
    each row sized by the largest adag power of the pair's right terms; a
    left term with ``n1 = 0`` has no row).  A term pair is formed when its
    weight is within ``w2_cap`` and its t power within ``t_cap``; a left
    term stops at the first right term past its t room.  The key of a term pair is the sum of its operands' keys, and each
    contraction adds `contraction_step`.  The sums are numerators over ``den
    = den_A * den_B`` (`denominator_lcms`): a pair's own denominators are
    lifted to those by one factor on its left terms.  Raises ResourceError
    when the sums exceed `term_guard` entries.
    """
    guard = term_guard()
    den_a, den_b = denominator_lcms(pairs)
    step = contraction_step(S)
    out = {}
    for (da, left), (db, right) in pairs:
        lift = den_a // da * (den_b // db)
        size = 0
        if any(term[4] for p in left.values() for term in p):
            size = max((term[3] for q in right.values() for term in q), default=0) + 1
        for z, w, p, q in component_pairs(left, right):
            acc = out.setdefault(z, {})
            get = acc.get
            w *= lift
            for p1, w1, l1, _, n1, x in p:
                x *= w
                w_room = w2_cap - w1
                t_room = t_cap - l1
                row = contraction_row(n1, size) if n1 else None
                for p2, w2, l2, m2, _, y in q:
                    if l2 > t_room:
                        break
                    if w2 > w_room:
                        continue
                    c = x * y
                    key = p1 + p2
                    acc[key] = get(key, 0) + c
                    if row:
                        for f in row[m2]:
                            key += step
                            acc[key] = get(key, 0) + c * f
                check_guard(out, guard)
    return out, den_a * den_b


def qmul_sum(pairs, t_cap, w2_cap):
    """``sum A B`` over the term-map pairs ``(A, B)``, normal-ordered, as a term map.

    Term maps take exponent tuples ``(m, n, k, l)`` (powers of adag, a, hbar,
    t) to coefficient tuples.  Each operand is packed (`pack_terms`) in
    fields of `key_width` bits for the caps, keeping only its terms within
    the caps (silent truncation is part of the series contract); the product
    is `qmul_packed`, and each output term is reduced once (`joined`) and its
    key unpacked once (`unpacked`).
    """
    S = key_width(max(w2_cap, t_cap))
    packed = [(pack_terms(A, S, t_cap, w2_cap), pack_terms(B, S, t_cap, w2_cap)) for A, B in pairs]
    out, den = qmul_packed(packed, t_cap, w2_cap, S)
    return unpacked(joined(out, den), 4, S)


def qmul(A, B, t_cap, w2_cap):
    """The normal-ordered product of two term maps: `qmul_sum` over the one pair."""
    return qmul_sum([(A, B)], t_cap, w2_cap)


def hermitian_sign(terms):
    """1 if the term map is hermitian, -1 if it is anti-hermitian, 0 if neither.

    ``dagger`` swaps the adag and a powers and conjugates the coefficient, so
    the map is hermitian when the coefficient at every ``(m, n, k, l)`` is the
    conjugate of the one at its mirror ``(n, m, k, l)``, and anti-hermitian
    when it is minus that conjugate.  Coefficient tuples are canonical, so
    equal values are equal tuples.  The empty map counts as hermitian.
    """
    herm = anti = True
    get = terms.get
    for (m, n, k, l), c in terms.items():
        mirror = get((n, m, k, l))
        if mirror is None:
            return 0
        conj = coeff_conj(mirror)
        herm = herm and conj == c
        anti = anti and conj == coeff_neg(c)
        if not (herm or anti):
            return 0
    return 1 if herm else -1


def _lowering(term):
    # n2 - m2 of a kept right term of qbracket
    return term[4] - term[3]


def noncentral(parts):
    """The parts of a packed operand without their central terms (``m = n = 0``), empty parts dropped."""
    kept = {x: [term for term in p if term[3] or term[4]] for x, p in parts.items()}
    return {x: p for x, p in kept.items() if p}


def prefix_length(part, bound):
    """How many terms of a `qbracket` right part, sorted by ``n2 - m2``, have
    ``n2 - m2 <= bound``: the term pairs one left term forms with the part."""
    return bisect_right(part, bound, key=_lowering)


def qbracket(pairs, t_cap, w2_cap, div=1):
    """``(1/div) sum (i/hbar)[A, B]`` over the term-map pairs ``(A, B)``, in one split accumulator.

    For a pair of terms with coefficients c1, c2, the ``hbar^j`` part of
    ``AB - BA`` is ``c1 c2`` times ``contractions(n1, m2)[j] -
    contractions(n2, m1)[j]`` (a missing entry counts as 0).  The ``j = 0``
    parts cancel exactly, so they are never formed; the ``j >= 1`` factors are
    read by row from the table of `contraction_row`, as ``rows[n1][m2]`` and
    ``rows[m1][n2]``.  A term with ``m = n = 0`` commutes with everything
    and is skipped, and so is a pair with no contraction in either order.
    The ``hbar^j`` part is written at ``hbar^(j-1)`` (the exact division by
    hbar); its weight is ``w1 + w2 - 2``, and it is kept when that is within
    ``w2_cap`` and ``l1 + l2`` is within ``t_cap``.

    Hermitian half.  ``dagger((i/hbar)[A, B]) = (i/hbar)[dagger(A),
    dagger(B)]``, so when ``dagger(A) = eps A`` and ``dagger(B) = delta B``
    the output has ``out(n, m, k, l) = eps delta conj(out(m, n, k, l))``.
    Each operand's sign is read once (`hermitian_sign`).  When every pair of
    the list with two nonempty operands has the same nonzero product ``s =
    eps delta``, only the output terms with ``m >= n`` are formed, and after
    the one reduction each term with ``m > n`` is copied to ``(n, m, k, l)``
    as ``s conj(c)``.  A term pair lands only at ``m - n = (m1 - n1) + (m2 -
    n2)``, since each contraction lowers m and n alike, so a left term needs
    only the right terms with ``n2 - m2 <= m1 - n1``: each right part is
    sorted by ``n2 - m2`` and a left term loops over its prefix of length
    `prefix_length`.  The kernel calls `prefix_length` through the module
    attribute, so a wrapper installed on it sees every term pair formed.  The
    cut is exact under truncation: the caps read only ``m + n``, k and l,
    which the mirror keeps, and ``div`` is rational.  Otherwise ``s = 0``:
    the right parts stay in t order, every left term loops over the whole
    part and every output term is formed.

    Each operand is packed by `pack_terms`, as in `qmul_sum`, at the weight
    cap ``w2_cap + 1`` (a contributing term's partner weighs at least 1), and
    its central terms are dropped (`noncentral`).  The key of a pair's
    product is the sum of the operand keys, and the division by hbar and each
    contraction add a constant; every output term lies within the caps, so
    its fields fit the caps' `key_width`.  All numerators go over ``den_A *
    den_B`` (`denominator_lcms`), each pair lifted by one factor on its left
    terms, as in `qmul_packed`.  The factor ``i`` is the table entry
    ``COMPONENT_PRODUCT[1, z]``, applied with the pair's own factor and lift
    to the left operand, so a pair of components ``x, y`` adds into component
    ``x ^ y ^ 1``; each output term is reduced once, over ``den_A * den_B *
    div``.  Raises ResourceError when the accumulators, or the output, exceed
    `term_guard` entries.
    """
    guard = term_guard()
    signs = set()
    for A, B in pairs:
        if A and B:  # an empty operand brackets to zero, whatever the other's sign
            signs.add(hermitian_sign(A) * hermitian_sign(B))
    s = signs.pop() if len(signs) == 1 else 0
    S = key_width(max(w2_cap, t_cap))
    packed = [(pack_terms(A, S, t_cap, w2_cap + 1), pack_terms(B, S, t_cap, w2_cap + 1)) for A, B in pairs]
    den_a, den_b = denominator_lcms(packed)
    one = 1 << S  # the packed hbar
    step = contraction_step(S)
    room2 = w2_cap + 2
    out = {}
    for (da, left), (db, right) in packed:
        left, right = noncentral(left), noncentral(right)
        if not (left and right):
            continue
        if s:
            for q in right.values():
                q.sort(key=_lowering)
        reach = max(max(term[3], term[4]) for q in right.values() for term in q) + 1
        left = {
            x: [
                (key - one, room2 - w1, t_cap - l1, contraction_row(n1, reach), contraction_row(m1, reach),
                 c, m1 - n1)
                for key, w1, l1, m1, n1, c in p
            ]
            for x, p in left.items()
        }
        lift = den_a // da * (den_b // db)
        for z, w, p, q in component_pairs(left, right):
            z, u = COMPONENT_PRODUCT[1, z]  # the factor i
            w *= u * lift
            acc = out.setdefault(z, {})
            get = acc.get
            for base, w_room, t_room, row_f, row_b, x, cut in p:
                x *= w
                for p2, w2, l2, m2, n2, y in q[: prefix_length(q, cut)] if s else q:
                    if w2 > w_room or l2 > t_room:
                        continue
                    fwd = row_f[m2]
                    bwd = row_b[n2]
                    if not fwd and not bwd:
                        continue
                    c = x * y
                    key = base + p2
                    for wf, wb in zip_longest(fwd, bwd, fillvalue=0):
                        key += step
                        if wf != wb:
                            acc[key] = get(key, 0) + c * (wf - wb)
                check_guard(out, guard)
    terms = unpacked(joined(out, den_a * den_b * div), 4, S)
    if s:
        for (m, n, k, l), c in list(terms.items()):
            if m > n:
                c = coeff_conj(c)
                terms[n, m, k, l] = c if s > 0 else coeff_neg(c)
        check_guard({0: terms}, guard)
    return terms
