"""The Fock-space representation and two independent spectral oracles.

adag acts as multiplication by z and a as hbar d/dz on the polynomial module
spanned by the unnormalized vectors |n> = z^n (so <n|n> = n! hbar^n).  On top
of it sit an exact Rayleigh-Schrodinger recursion (symbolic hbar) and a
floating-point Fock-matrix diagonalization; the two never share code with the
normal-form solver, which is what makes the oracle-triangle tests meaningful.

Perturbation intermediates (the eigenvector corrections) are Laurent in hbar;
only the eigenvalue series is required to be polynomial, and that is asserted.

The exact operations work fraction-free, like the product kernels.  A
`FockVector` is one term map ``{(z power, hbar power): (a, b, c, d)}`` of
integer numerators over a single denominator, the lcm of its entries' reduced
denominators.  `apply_rho`, `inner_product` and `FockVector.__add__` multiply
and add numerators inline, with no gcd per pair, and reduce each output once:
a vector by one gcd chain over its denominator and all of its numerators
(`_reduced_vector`), a scalar series term by term (`_kernel.reduced_over`).
Each order of `rs_perturbation` puts all of its contributions over one
denominator, sums them as integer 4-tuples and reduces the new eigenvector
correction once, as one vector, with the level gaps folded into its
denominator.

The dense matrix of `fock_matrix` and `diagonalize` is limited to
MAX_MATRIX_BYTES; a larger dimension raises ResourceError (CLI exit 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernel import coeff_make, common_denominator, numerators, reduced_over
from .algebra import pi_restriction
from .errors import DomainError, ResourceError
from .field import Coefficient
from .series import QSeries, ScalarSeries, SIG_H, SIG_HT, adag, a_op, harmonic, one


def _reduced_vector(out, den) -> "FockVector":
    """The FockVector of the 4-int sums ``out`` over ``den``, in canonical form.

    Zero sums are dropped and every numerator and ``den`` are divided by
    ``g = gcd(den, all numerators)``.  An entry ``x/den`` reduces to the
    denominator ``den / gcd(den, x)``, so ``den / g`` is the lcm of the
    entries' reduced denominators.  The chain stops at the first ``g == 1``.
    """
    terms = {key: x for key, x in out.items() if x[0] or x[1] or x[2] or x[3]}
    g = den
    for a, b, c, d in terms.values():
        g = math.gcd(g, a, b, c, d)
        if g == 1:
            break
    v = FockVector()
    if g == 1:
        v._terms, v._den = terms, den
    else:
        v._terms = {key: (a // g, b // g, c // g, d // g) for key, (a, b, c, d) in terms.items()}
        v._den = den // g
    return v


class FockVector:
    """Finite vector sum_j c_j(hbar) z^j with exact Laurent-hbar coefficients.

    Stored as ``_terms = {(j, hbar exponent): (a, b, c, d)}`` over one
    denominator ``_den``, the lcm of the entries' reduced denominators; that
    form is canonical, so equal vectors compare equal.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, components=None):
        coeffs = {}
        if components:
            for j, val in components.items():
                if isinstance(val, Coefficient):
                    val = {0: val}
                elif not isinstance(val, dict):
                    val = {0: Coefficient(val)}
                for k, c in val.items():
                    raw = c.raw if isinstance(c, Coefficient) else Coefficient(c).raw
                    if any(raw[:4]):
                        coeffs[(j, k)] = raw
        self._den = common_denominator(coeffs)
        self._terms = dict(numerators(coeffs, self._den))

    @classmethod
    def basis(cls, n: int) -> "FockVector":
        v = cls()
        v._terms = {(n, 0): (1, 0, 0, 0)}
        return v

    def component(self, j):
        """Hbar expansion of the z^j coefficient as {exponent: Coefficient}."""
        den = self._den
        return {
            k: Coefficient._raw(coeff_make(a, b, c, d, den))
            for (m, k), (a, b, c, d) in self._terms.items()
            if m == j
        }

    def over(self, den):
        """Yield ``(key, (a, b, c, d))``: the entries as numerators over ``den``,
        a multiple of ``_den``."""
        s = den // self._den
        if s == 1:
            yield from self._terms.items()
        else:
            for key, (a, b, c, d) in self._terms.items():
                yield key, (a * s, b * s, c * s, d * s)

    def levels(self):
        return sorted({j for j, _ in self._terms})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self._den == other._den and self._terms == other._terms
        return NotImplemented

    def __add__(self, other):
        den = math.lcm(self._den, other._den)
        out = dict(self.over(den))
        get = out.get
        for key, (a, b, c, d) in other.over(den):
            acc = get(key)
            out[key] = (a, b, c, d) if acc is None else (acc[0] + a, acc[1] + b, acc[2] + c, acc[3] + d)
        return _reduced_vector(out, den)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for j, k in sorted(self._terms):
            c = Coefficient._raw(coeff_make(*self._terms[(j, k)], self._den))
            h = "" if k == 0 else ("*hbar" if k == 1 else f"*hbar^{k}")
            zs = "" if j == 0 else ("*z" if j == 1 else f"*z^{j}")
            chunks.append(f"({c}){h}{zs}")
        return " + ".join(chunks)

    __repr__ = __str__


def apply_rho(f: QSeries, psi: FockVector) -> FockVector:
    """Left action of a t-free operator: adag -> z., a -> hbar d/dz.

    ``f`` is put over its common denominator; each term pair adds an integer
    product of numerators into the entry ``(z^j, hbar^k)`` it lands on, and
    the sums over ``den_f * den_psi`` are reduced once, as one vector.
    """
    if f.var_degree("t") > 0:
        raise DomainError("representation acts on t-free operators")
    den_f = common_denominator(f._terms)
    out = {}
    get = out.get
    for (m, n, k, _), (fa, fb, fc, fd) in numerators(f._terms, den_f):
        shift = k + n
        for (j, kh), (ya, yb, yc, yd) in psi._terms.items():
            if n > j:
                continue
            falling = math.perm(j, n)
            xa, xb, xc, xd = fa * falling, fb * falling, fc * falling, fd * falling
            ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
            cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
            cc = xa * yc + xc * ya - xb * yd - xd * yb
            cd = xa * yd + xd * ya + xb * yc + xc * yb
            key = (j - n + m, kh + shift)
            acc = get(key)
            if acc is None:
                out[key] = (ca, cb, cc, cd)
            else:
                out[key] = (acc[0] + ca, acc[1] + cb, acc[2] + cc, acc[3] + cd)
    return _reduced_vector(out, den_f * psi._den)


def inner_product(psi: FockVector, chi: FockVector) -> ScalarSeries:
    """<psi|chi> = sum_j conj(c_j) d_j j! hbar^j, exact in hbar.

    The products of numerators are summed per hbar power over
    ``den_psi * den_chi`` and each sum is reduced once.
    """
    by_level = {}
    for (j, k2), y in chi._terms.items():
        by_level.setdefault(j, []).append((k2, y))
    out = {}
    for (j, k1), (xa, xb, xc, xd) in psi._terms.items():
        right = by_level.get(j)
        if right is None:
            continue
        fact = math.factorial(j)
        # the conjugate (a, -b, c, -d), times j!
        xa, xb, xc, xd = xa * fact, -xb * fact, xc * fact, -xd * fact
        for k2, (ya, yb, yc, yd) in right:
            key = (k1 + k2 + j,)
            ca = xa * ya - xb * yb + 2 * (xc * yc - xd * yd)
            cb = xa * yb + xb * ya + 2 * (xc * yd + xd * yc)
            cc = xa * yc + xc * ya - xb * yd - xd * yb
            cd = xa * yd + xd * ya + xb * yc + xc * yb
            acc = out.get(key)
            out[key] = (ca, cb, cc, cd) if acc is None else (acc[0] + ca, acc[1] + cb, acc[2] + cc, acc[3] + cd)
    terms = reduced_over(out, psi._den * chi._den)
    if any(k < 0 for k, in terms):
        raise DomainError("inner product with negative hbar powers")
    w2 = 2 * max((k for k, in terms), default=0)
    return ScalarSeries._from_raw(terms, SIG_H, 0, w2)


def rs_perturbation(f: QSeries, level: int, order: int) -> ScalarSeries:
    """Exact Rayleigh-Schrodinger expansion of E_level for f = f0 + t g.

    f(t=0) must be exactly p^2 + q^2; the harmonic spectrum is non-degenerate,
    so the plain recursion applies.  Symbolic hbar throughout; eigenvector
    corrections may pick up negative hbar powers, the eigenvalue cannot.

    Each order k sums the residual ``R = sum_{j>=1} (f_j - E_j) psi_{k-j}``
    as integer 4-tuples keyed by ``(z power, hbar power)``, over one
    denominator ``L``: the lcm of the denominators of the vectors
    ``rho(f_j) psi_{k-j}`` (from `apply_rho`, looked up in this module at each
    call) and of the products ``den(E_j) den(psi_{k-j})``.  Each source is
    rescaled to ``L`` once: a vector's numerators, or the numerators of
    ``E_j`` before its products with ``psi_{k-j}``.  ``psi_k = -R / (2 hbar
    (m - level))`` off the level is then put over ``L`` times the lcm of its
    gaps and reduced once, as one vector.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    f0 = f.var_slice("t", 0)
    if f0 != harmonic(f0.t_cap, f0.weight_cap):
        raise DomainError("base operator must be p^2 + q^2")
    slices = [f.var_slice("t", j) for j in range(order + 1)]
    psis = [FockVector.basis(level)]
    energies = [{1: coeff_make(2 * level + 1, 0, 0, 0, 1)}]  # E_0 = hbar(2n+1)
    e_dens = [1]
    for k in range(1, order + 1):
        sources = [apply_rho(slices[j], psis[k - j]) for j in range(1, k + 1) if slices[j]]
        den = 1
        for v in sources:
            den = math.lcm(den, v._den)
        for j in range(1, k):
            den = math.lcm(den, e_dens[j] * psis[k - j]._den)
        # E_k is the level component of sum_j rho(f_j) psi_{k-j}; its
        # denominator divides den.
        acc = {}
        get = acc.get
        for v in sources:
            for key, (a, b, c, d) in v.over(den):
                x = get(key)
                acc[key] = (a, b, c, d) if x is None else (x[0] + a, x[1] + b, x[2] + c, x[3] + d)
        energies.append(reduced_over({kh: x for (m, kh), x in acc.items() if m == level}, den))
        e_dens.append(common_denominator(energies[k]))
        # acc -= E_j psi_{k-j}; E_k psi_0 cancels the level component, and
        # then (f0 - E_0) psi_k = -R fixes psi_k off the level
        for j in range(1, k + 1):
            psi = psis[k - j]
            for eh, (ea, eb, ec, ed) in numerators(energies[j], den // psi._den):
                for (m, kh), (a, b, c, d) in psi._terms.items():
                    key = (m, kh + eh)
                    x = get(key)
                    ca = ea * a - eb * b + 2 * (ec * c - ed * d)
                    cb = ea * b + eb * a + 2 * (ec * d + ed * c)
                    cc = ea * c + ec * a - eb * d - ed * b
                    cd = ea * d + ed * a + eb * c + ec * b
                    if x is None:
                        acc[key] = (-ca, -cb, -cc, -cd)
                    else:
                        acc[key] = (x[0] - ca, x[1] - cb, x[2] - cc, x[3] - cd)
        # (f0 - E_0) z^m = 2 hbar (m - level) z^m
        gaps = {}
        for (m, kh), (a, b, c, d) in acc.items():
            if a or b or c or d:
                if m == level:
                    raise AssertionError("level component of the residual did not cancel")
                gaps[m] = 2 * (m - level)
        gap_lcm = math.lcm(*gaps.values())
        scale = {m: -(gap_lcm // g) for m, g in gaps.items()}
        out = {}
        for (m, kh), (a, b, c, d) in acc.items():
            s = scale.get(m)
            if s is not None:
                out[(m, kh - 1)] = (a * s, b * s, c * s, d * s)
        psis.append(_reduced_vector(out, den * gap_lcm))
    terms = {}
    for k, e_k in enumerate(energies):
        for kh, c in e_k.items():
            if kh < 0:
                raise AssertionError("eigenvalue series picked up negative hbar powers")
            terms[(kh, k)] = c
    w2 = 2 * max((kh for kh, _ in terms), default=0)
    return ScalarSeries._from_raw(terms, SIG_HT, order, w2)


@dataclass
class FockOperator:
    """Dense numeric shadow of rho(f) in the normalized basis e_n = z^n/sqrt(n! hbar^n)."""

    dim: int
    t: float
    hbar: float
    matrix: np.ndarray = field(repr=False)

    def to_csv(self) -> str:
        rows = []
        for r in range(self.dim):
            cells = []
            for c in range(self.dim):
                v = self.matrix[r, c]
                cells.append(f"{v.real!r},{v.imag!r}")
            rows.append(",".join(cells))
        return "\n".join(rows) + "\n"


# Largest dense Fock matrix (dim^2 complex128 entries, 16 bytes each) that
# fock_matrix builds: 256 MiB, dim <= 4096.
MAX_MATRIX_BYTES = 2**28


def _check_dim(dim: int):
    if dim < 1:
        raise ValueError("dimension must be positive")
    size = 16 * dim * dim
    if size > MAX_MATRIX_BYTES:
        raise ResourceError(
            f"a {dim}x{dim} Fock matrix needs {size} bytes, over the limit of "
            f"{MAX_MATRIX_BYTES} bytes (spectrum.MAX_MATRIX_BYTES)"
        )


def fock_matrix(f: QSeries, dim: int, t: float, hbar: float) -> FockOperator:
    """Matrix elements <e_m | f e_n> at numeric parameter values.

    Raises ResourceError when the dense matrix would exceed MAX_MATRIX_BYTES.
    """
    _check_dim(dim)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    mat = np.zeros((dim, dim), dtype=complex)
    for (m, n, k, l), coef in f._terms.items():
        base = Coefficient._raw(coef).to_complex() * (t**l) * hbar ** (k + n)
        for col in range(n, dim):
            row = col - n + m
            if row >= dim:
                continue
            amp = base * math.perm(col, n) * _norm_ratio(row, col, hbar)
            mat[row, col] += amp
    return FockOperator(dim=dim, t=t, hbar=hbar, matrix=mat)


def _norm_ratio(row: int, col: int, hbar: float) -> float:
    """sqrt(row! hbar^row / (col! hbar^col)), stable for nearby indices."""
    if row == col:
        return 1.0
    lo, hi = sorted((row, col))
    prod = 1.0
    for s in range(lo + 1, hi + 1):
        prod *= s * hbar
    root = math.sqrt(prod)
    return root if row > col else 1.0 / root


@dataclass
class DiagonalizationResult:
    values: list
    converged: bool
    hermitian: bool
    dim: int


def diagonalize(f: QSeries, t: float, hbar: float, dim: int, levels: int) -> DiagonalizationResult:
    """Lowest eigenvalues of the truncated Fock matrix, with a convergence flag.

    The flag re-runs at dim+10 and requires relative drift < 1e-10 on the
    requested levels.  Non-hermitian input downgrades to a general
    eigensolver and is flagged.  Raises ResourceError, before any matrix is
    built, when the dim+10 matrix would exceed MAX_MATRIX_BYTES, and
    ValueError unless 0 <= levels <= dim.
    """
    _check_dim(dim + 10)
    if dim < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= levels <= dim:
        raise ValueError(f"levels must be between 0 and dim = {dim}, not {levels}")

    def lowest(d):
        op = fock_matrix(f, d, t, hbar)
        a = op.matrix
        herm = bool(np.max(np.abs(a - a.conj().T)) <= 1e-12 * (1.0 + np.max(np.abs(a))))
        if herm:
            vals = np.linalg.eigvalsh(a)
        else:
            vals = np.linalg.eigvals(a)
            vals = vals[np.argsort(vals.real)]
        return vals[:levels], herm

    vals, herm = lowest(dim)
    check, _ = lowest(dim + 10)
    drift = np.abs(vals - check) / np.maximum(1.0, np.abs(check))
    converged = bool(np.all(drift < 1e-10))
    out = [complex(v) if not herm else float(np.real(v)) for v in vals]
    return DiagonalizationResult(values=out, converged=converged, hermitian=herm, dim=dim)


def trace_hbar(f: QSeries, cutoff: int) -> ScalarSeries:
    """Partial hbar-trace sum_{n<=cutoff} <n|f|n> over unnormalized levels.

    <n|f|n> = pi(a^n f adag^n); level n first contributes at hbar-order n,
    so coefficients through hbar^cutoff are final.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    from fractions import Fraction

    w2 = f.max_weight2() + 2 * cutoff + 2
    work = f.with_caps(weight_cap=Fraction(w2, 2))
    ad = adag(work.t_cap, work.weight_cap)
    an = a_op(work.t_cap, work.weight_cap)
    left = one(work.t_cap, work.weight_cap)
    right = left
    total = ScalarSeries._from_raw({}, SIG_HT, work.t_cap, work.w2_cap)
    for n in range(cutoff + 1):
        if n:
            left = an * left
            right = right * ad
        total = total + pi_restriction(left * work * right)
    return total
