"""The Fock-space representation and two independent spectral oracles.

adag acts as multiplication by z and a as hbar d/dz on the polynomial module
spanned by the unnormalized vectors |n> = z^n (so <n|n> = n! hbar^n).  On top
of it sit an exact Rayleigh-Schrodinger recursion (symbolic hbar), the partial
hbar-trace (read off the same action) and a floating-point Fock-matrix
diagonalization; none of them shares code with the normal-form solver, which
is what makes the oracle-triangle tests meaningful.  Only the float
diagonalizer (`fock_matrix`, `diagonalize`) imports numpy.

Perturbation intermediates (the eigenvector corrections) are Laurent in hbar;
only the eigenvalue series is required to be polynomial, and that is asserted.

The exact operations work fraction-free and split by component, as the
product kernels do (see `_kernel`).  A `FockVector` keeps one integer term map
``{(z power, hbar power): int}`` per nonzero basis element ``1, i, sqrt2,
i*sqrt2`` (components 0..3), all over a single denominator, the lcm of its
entries' reduced denominators.  `apply_rho`, `inner_product` and each order of
`rs_perturbation` split their operands once (`_kernel.split`) and loop over
the nonzero component pairs (`_kernel.component_pairs`), one integer
multiply-add per term pair.  A rational operand, such as every vector and
energy of a real perturbation like ``q^4``, thus costs one integer product per
term pair.  Each output is reduced once: a vector by one gcd chain over its
denominator and all of its numerators (`_kernel.reduced`), a scalar series term by
term (`_kernel.joined`).  Each order of `rs_perturbation` puts all of its
contributions over one denominator and reduces the new eigenvector correction
once, as one vector, with the level gaps folded into its denominator.

The dense matrix of `fock_matrix` and `diagonalize` is limited to
MAX_MATRIX_BYTES; a larger dimension raises ResourceError (CLI exit 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import _kernel
from ._kernel import common_denominator, joined, reduced, split
from .errors import DomainError, ResourceError
from .field import Coefficient
from .series import QSeries, ScalarSeries, SIG_H, SIG_HT, harmonic, render_terms

if TYPE_CHECKING:  # numpy is imported where the float diagonalizer runs
    import numpy as np


def _reduced_vector(parts, den) -> "FockVector":
    """The FockVector of the split sums ``parts`` over ``den``, in canonical form."""
    v = FockVector()
    v._parts, v._den = reduced(parts, den)
    return v


class FockVector:
    """Finite vector sum_j c_j(hbar) z^j with exact Laurent-hbar coefficients.

    Stored split by component, as ``_parts = {component: {(j, hbar
    exponent): int}}`` with components 0..3 for ``1, i, sqrt2, i*sqrt2`` and
    only nonzero maps and entries kept, over one denominator ``_den``, the lcm
    of the entries' reduced denominators; that form is canonical, so equal
    vectors compare equal.
    """

    __slots__ = ("_parts", "_den")

    def __init__(self, components=None):
        coeffs = {}
        if components:
            for j, val in components.items():
                if isinstance(val, Coefficient):
                    val = {0: val}
                elif not isinstance(val, dict):
                    val = {0: Coefficient(val)}
                for k, c in val.items():
                    coeffs[(j, k)] = c.raw if isinstance(c, Coefficient) else Coefficient(c).raw
        self._den = common_denominator(coeffs)
        self._parts = split(coeffs, self._den)

    @classmethod
    def basis(cls, n: int) -> "FockVector":
        v = cls()
        v._parts = {0: {(n, 0): 1}}
        return v

    def component(self, j):
        """Hbar expansion of the z^j coefficient as {exponent: Coefficient}."""
        level = {x: {key: c for key, c in p.items() if key[0] == j} for x, p in self._parts.items()}
        return {k: Coefficient._raw(c) for (_, k), c in joined(level, self._den).items()}

    def add_into(self, acc, den):
        """Add the entries, as numerators over ``den`` (a multiple of ``_den``),
        into the split sums ``acc``."""
        s = den // self._den
        for x, p in self._parts.items():
            out = acc.get(x)
            if out is None:
                acc[x] = {key: c * s for key, c in p.items()}
            else:
                get = out.get
                for key, c in p.items():
                    out[key] = get(key, 0) + c * s

    def levels(self):
        return sorted({j for p in self._parts.values() for j, _ in p})

    def __bool__(self):
        return bool(self._parts)

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self._den == other._den and self._parts == other._parts
        return NotImplemented

    def __add__(self, other):
        den = math.lcm(self._den, other._den)
        out = {}
        self.add_into(out, den)
        other.add_into(out, den)
        return _reduced_vector(out, den)

    def __str__(self):
        return render_terms(joined(self._parts, self._den), ("z", "hbar"))

    __repr__ = __str__


def apply_rho(f: QSeries, psi: FockVector) -> FockVector:
    """Left action of a t-free operator: adag -> z., a -> hbar d/dz.

    ``f`` is put over its common denominator and split by component; for each
    pair of components, each term pair adds one integer product into the
    entry ``(z^j, hbar^k)`` it lands on, and the sums over ``den_f * den_psi``
    are reduced once, as one vector.
    """
    if f.var_degree("t") > 0:
        raise DomainError("representation acts on t-free operators")
    den_f = common_denominator(f._terms)
    perm = math.perm
    out = {}
    for z, w, p, q in _kernel.component_pairs(split(f._terms, den_f), psi._parts):
        acc = out.setdefault(z, {})
        get = acc.get
        for (m, n, k, _), c in p.items():
            c *= w
            shift = k + n
            for (j, kh), y in q.items():
                if n <= j:
                    key = (j - n + m, kh + shift)
                    acc[key] = get(key, 0) + c * perm(j, n) * y
    return _reduced_vector(out, den_f * psi._den)


def inner_product(psi: FockVector, chi: FockVector) -> ScalarSeries:
    """<psi|chi> = sum_j conj(c_j) d_j j! hbar^j, exact in hbar.

    The conjugation (the sign of the i and i*sqrt2 components) and ``j!`` are
    applied to ``psi`` once; the products of numerators are summed per
    component and hbar power over ``den_psi * den_chi`` and each sum is
    reduced once.
    """
    left = {}
    for x, p in psi._parts.items():
        sign = -1 if x & 1 else 1
        left[x] = [(j, k1, sign * math.factorial(j) * c) for (j, k1), c in p.items()]
    right = {}
    for y, q in chi._parts.items():
        by_level = right[y] = {}
        for (j, k2), c in q.items():
            by_level.setdefault(j, []).append((k2, c))
    out = {}
    for z, w, p, q in _kernel.component_pairs(left, right):
        acc = out.setdefault(z, {})
        get = acc.get
        for j, k1, c in p:
            row = q.get(j)
            if row is not None:
                c *= w
                for k2, y in row:
                    key = (k1 + k2 + j,)
                    acc[key] = get(key, 0) + c * y
    terms = joined(out, psi._den * chi._den)
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
    as split integer sums keyed by ``(z power, hbar power)``, over one
    denominator ``L``: the lcm of the denominators of the vectors
    ``rho(f_j) psi_{k-j}`` (from `apply_rho`, looked up in this module at each
    call) and of the products ``den(E_j) den(psi_{k-j})``.  Each source is
    rescaled to ``L`` once: a vector's numerators, or those of ``E_j``, with
    the factor of each component pair, before its products with
    ``psi_{k-j}``.  ``psi_k = -R / (2 hbar (m - level))`` off the level is
    then put over ``L`` times the lcm of its gaps and reduced once, as one
    vector.  The energies are kept split, ``(parts, den)`` keyed by hbar
    power, in the same canonical form as a vector.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    slices = f.with_caps(t_cap=order).t_slices()
    if slices[0] != harmonic(f.t_cap, f.weight_cap):
        raise DomainError("base operator must be p^2 + q^2")
    psis = [FockVector.basis(level)]
    energies = [({0: {1: 2 * level + 1}}, 1)]  # E_0 = hbar(2n+1)
    for k in range(1, order + 1):
        sources = [apply_rho(slices[j], psis[k - j]) for j in range(1, k + 1) if slices[j]]
        den = 1
        for v in sources:
            den = math.lcm(den, v._den)
        for j in range(1, k):
            den = math.lcm(den, energies[j][1] * psis[k - j]._den)
        # E_k is the level component of sum_j rho(f_j) psi_{k-j}; its
        # denominator divides den.
        acc = {}
        for v in sources:
            v.add_into(acc, den)
        energies.append(
            reduced({x: {kh: c for (m, kh), c in p.items() if m == level} for x, p in acc.items()}, den)
        )
        # acc -= E_j psi_{k-j}; E_k psi_0 cancels the level component, and
        # then (f0 - E_0) psi_k = -R fixes psi_k off the level
        for j in range(1, k + 1):
            psi = psis[k - j]
            e_parts, e_den = energies[j]
            s = -(den // (e_den * psi._den))
            for z, w, p, q in _kernel.component_pairs(e_parts, psi._parts):
                left = [(eh, c * w * s) for eh, c in p.items()]
                target = acc.setdefault(z, {})
                get = target.get
                for eh, e in left:
                    for (m, kh), c in q.items():
                        key = (m, kh + eh)
                        target[key] = get(key, 0) + e * c
        # (f0 - E_0) z^m = 2 hbar (m - level) z^m
        gaps = {}
        for p in acc.values():
            for (m, kh), c in p.items():
                if c:
                    if m == level:
                        raise AssertionError("level component of the residual did not cancel")
                    gaps[m] = 2 * (m - level)
        gap_lcm = math.lcm(*gaps.values())
        scale = {m: -(gap_lcm // g) for m, g in gaps.items()}
        out = {}
        for x, p in acc.items():
            out[x] = {(m, kh - 1): c * scale[m] for (m, kh), c in p.items() if c}
        psis.append(_reduced_vector(out, den * gap_lcm))
    terms = {}
    for k, (e_parts, e_den) in enumerate(energies):
        for kh, c in joined(e_parts, e_den).items():
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
                cells.append(f"{float(v.real)!r},{float(v.imag)!r}")
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


def _check_params(t: float, hbar: float):
    for name, value in (("t", t), ("hbar", hbar)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value!r}")
    if hbar <= 0:
        raise ValueError("hbar must be positive")


def _overflow(dim: int, t: float, hbar: float) -> ValueError:
    return ValueError(f"the {dim}x{dim} Fock matrix overflows at t = {t!r}, hbar = {hbar!r}")


def fock_matrix(f: QSeries, dim: int, t: float, hbar: float) -> FockOperator:
    """Matrix elements <e_m | f e_n> at numeric parameter values.

    Raises ResourceError when the dense matrix would exceed MAX_MATRIX_BYTES,
    and ValueError for a non-finite ``t`` or ``hbar``, a non-positive
    ``hbar``, or an entry that overflows the float range.
    """
    import numpy as np

    _check_dim(dim)
    _check_params(t, hbar)
    mat = np.zeros((dim, dim), dtype=complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            # float sums depend on their order: sorting makes the matrix a
            # function of the operator's value, not of its term order
            for (m, n, k, l), coef in sorted(f._terms.items()):
                base = Coefficient._raw(coef).to_complex() * (t**l) * hbar ** (k + n)
                for col in range(n, dim):
                    row = col - n + m
                    if row >= dim:
                        continue
                    amp = base * math.perm(col, n) * _norm_ratio(row, col, hbar)
                    mat[row, col] += amp
    except (OverflowError, FloatingPointError) as exc:
        raise _overflow(dim, t, hbar) from exc
    # float products that overflow give inf or nan without raising
    if not np.isfinite(mat).all():
        raise _overflow(dim, t, hbar)
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
    built, when the dim+10 matrix would exceed MAX_MATRIX_BYTES; ValueError,
    also before, unless 0 <= levels <= dim and ``t`` and ``hbar`` are finite
    with ``hbar > 0``, and ValueError when a matrix, or a step of the
    eigenvalue check, overflows the float range.
    """
    import numpy as np

    _check_dim(dim + 10)
    if dim < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= levels <= dim:
        raise ValueError(f"levels must be between 0 and dim = {dim}, not {levels}")
    _check_params(t, hbar)

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

    try:
        with np.errstate(over="raise", invalid="raise"):
            vals, herm = lowest(dim)
            check, _ = lowest(dim + 10)
            drift = np.abs(vals - check) / np.maximum(1.0, np.abs(check))
    except FloatingPointError as exc:
        raise _overflow(dim, t, hbar) from exc
    converged = bool(np.all(drift < 1e-10))
    out = [complex(v) if not herm else float(np.real(v)) for v in vals]
    return DiagonalizationResult(values=out, converged=converged, hermitian=herm, dim=dim)


def trace_hbar(f: QSeries, cutoff: int) -> ScalarSeries:
    """Partial hbar-trace sum_{n<=cutoff} <n|f|n> over unnormalized levels.

    Read off the Fock action: the t^l coefficient sums
    inner_product(z^n, apply_rho(f_l, z^n)) over n.  Level n first contributes
    at hbar-order n, so coefficients through hbar^cutoff are final.  The
    weight cap, f's highest weight plus cutoff + 1, holds every term.  f is
    sliced through its t degree, so the cost does not grow with its t cap.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    terms = {}
    for l, fl in enumerate(f.with_caps(t_cap=f.var_degree("t")).t_slices()):
        if fl:
            for n in range(cutoff + 1):
                zn = FockVector.basis(n)
                for (kh,), c in inner_product(zn, apply_rho(fl, zn))._terms.items():
                    _kernel.add_term(terms, (kh, l), c)
    return ScalarSeries._from_raw(terms, SIG_HT, f.t_cap, f.max_weight2() + 2 * cutoff + 2)
