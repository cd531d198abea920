"""The Fock-space representation and two independent spectral oracles.

adag acts as multiplication by z and a as hbar d/dz on the polynomial module
spanned by the unnormalized vectors |n> = z^n (so <n|n> = n! hbar^n).  On top
of it sit an exact Rayleigh-Schrodinger recursion (symbolic hbar) and a
floating-point Fock-matrix diagonalization; the two never share code with the
normal-form solver, which is what makes the oracle-triangle tests meaningful.

Perturbation intermediates (the eigenvector corrections) are Laurent in hbar;
only the eigenvalue series is required to be polynomial, and that is asserted.

The exact operations work fraction-free, like the product kernels: `apply_rho`,
`inner_product`, `FockVector.__add__` and each order of `rs_perturbation` sum
their coefficient products unreduced in one accumulator
(`_kernel._accumulate`) and reduce each output coefficient once.  The RS step
folds its division by the level gap into that one reduction.

The dense matrix of `fock_matrix` and `diagonalize` is limited to
MAX_MATRIX_BYTES; a larger dimension raises ResourceError (CLI exit 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernel import _accumulate, _reduced, coeff_make, coeff_mul_unreduced
from .algebra import pi_restriction
from .errors import DomainError, ResourceError
from .field import Coefficient, ONE
from .series import QSeries, ScalarSeries, SIG_H, SIG_HT, adag, a_op, harmonic, one


def _vector(acc) -> "FockVector":
    """The FockVector of the accumulated sums ``{(j, hbar exponent): raw}``."""
    comp = {}
    for (j, kh), c in _reduced(acc).items():
        comp.setdefault(j, {})[kh] = c
    return FockVector._from_raw(comp)


class FockVector:
    """Finite vector sum_j c_j(hbar) z^j with exact Laurent-hbar coefficients."""

    __slots__ = ("_comp",)

    def __init__(self, components=None):
        self._comp = {}
        if components:
            for j, val in components.items():
                if isinstance(val, Coefficient):
                    val = {0: val}
                elif not isinstance(val, dict):
                    val = {0: Coefficient(val)}
                entry = {}
                for k, c in val.items():
                    raw = c.raw if isinstance(c, Coefficient) else Coefficient(c).raw
                    if any(raw[:4]):
                        entry[k] = raw
                if entry:
                    self._comp[j] = entry

    @classmethod
    def basis(cls, n: int) -> "FockVector":
        v = cls()
        v._comp[n] = {0: ONE.raw}
        return v

    @classmethod
    def _from_raw(cls, comp) -> "FockVector":
        v = cls()
        v._comp = comp
        return v

    def component(self, j):
        """Hbar expansion of the z^j coefficient as {exponent: Coefficient}."""
        return {k: Coefficient._raw(c) for k, c in self._comp.get(j, {}).items()}

    def levels(self):
        return sorted(self._comp)

    def __bool__(self):
        return bool(self._comp)

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self._comp == other._comp
        return NotImplemented

    def __add__(self, other):
        acc = {}
        for vec in (self, other):
            for j, entry in vec._comp.items():
                for kh, c in entry.items():
                    _accumulate(acc, (j, kh), *c)
        return _vector(acc)

    def __str__(self):
        if not self._comp:
            return "0"
        chunks = []
        for j in self.levels():
            for k in sorted(self._comp[j]):
                c = Coefficient._raw(self._comp[j][k])
                h = "" if k == 0 else ("*hbar" if k == 1 else f"*hbar^{k}")
                zs = "" if j == 0 else ("*z" if j == 1 else f"*z^{j}")
                chunks.append(f"({c}){h}{zs}")
        return " + ".join(chunks)

    __repr__ = __str__


def apply_rho(f: QSeries, psi: FockVector) -> FockVector:
    """Left action of a t-free operator: adag -> z., a -> hbar d/dz.

    The products landing on one entry ``(z^j, hbar^k)`` are summed unreduced
    and each entry is reduced once.
    """
    if f.var_degree("t") > 0:
        raise DomainError("representation acts on t-free operators")
    acc = {}
    for (m, n, k, _), coef in f._terms.items():
        shift = k + n
        for j, entry in psi._comp.items():
            if n > j:
                continue
            falling = math.perm(j, n)
            target = j - n + m
            for kh, c in entry.items():
                a, b, cc, d, den = coeff_mul_unreduced(coef, c)
                if falling != 1:
                    a, b, cc, d = a * falling, b * falling, cc * falling, d * falling
                _accumulate(acc, (target, kh + shift), a, b, cc, d, den)
    return _vector(acc)


def inner_product(psi: FockVector, chi: FockVector) -> ScalarSeries:
    """<psi|chi> = sum_j conj(c_j) d_j j! hbar^j, exact in hbar."""
    acc = {}
    for j in psi._comp.keys() & chi._comp.keys():
        fact = math.factorial(j)
        for k1, (a1, b1, c1, d1, q1) in psi._comp[j].items():
            conj = (a1, -b1, c1, -d1, q1)
            for k2, c2 in chi._comp[j].items():
                a, b, c, d, den = coeff_mul_unreduced(conj, c2)
                _accumulate(acc, k1 + k2 + j, a * fact, b * fact, c * fact, d * fact, den)
    acc = _reduced(acc)
    if any(k < 0 for k in acc):
        raise DomainError("inner product with negative hbar powers")
    w2 = 2 * max(acc, default=0)
    return ScalarSeries._from_raw({(k,): c for k, c in acc.items()}, SIG_H, 0, w2)


def rs_perturbation(f: QSeries, level: int, order: int) -> ScalarSeries:
    """Exact Rayleigh-Schrodinger expansion of E_level for f = f0 + t g.

    f(t=0) must be exactly p^2 + q^2; the harmonic spectrum is non-degenerate,
    so the plain recursion applies.  Symbolic hbar throughout; eigenvector
    corrections may pick up negative hbar powers, the eigenvalue cannot.

    Each order k sums the residual ``R = sum_{j>=1} (f_j - E_j) psi_{k-j}``
    into one unreduced accumulator keyed by ``(z power, hbar power)``: the
    entries of ``rho(f_j) psi_{k-j}`` and the products ``E_j psi_{k-j}``,
    written out without reduction.  Each off-level entry is then reduced
    once, together with the division by the gap ``-2 hbar (m - level)``.
    """
    if level < 0:
        raise ValueError("level must be non-negative")
    f0 = f.var_slice("t", 0)
    if f0 != harmonic(f0.t_cap, f0.weight_cap):
        raise DomainError("base operator must be p^2 + q^2")
    slices = [f.var_slice("t", j) for j in range(order + 1)]
    psis = [FockVector.basis(level)]
    energies = [{1: coeff_make(2 * level + 1, 0, 0, 0, 1)}]  # E_0 = hbar(2n+1)
    for k in range(1, order + 1):
        # E_k is the level component of sum_j rho(f_j) psi_{k-j}, so that
        # E_k psi_0 cancels it in R; then (f0 - E_0) psi_k = -R fixes psi_k
        # off the level.
        acc = {}
        for j in range(1, k + 1):
            if slices[j]:
                for m, entry in apply_rho(slices[j], psis[k - j])._comp.items():
                    for kh, c in entry.items():
                        _accumulate(acc, (m, kh), *c)
        energies.append(_reduced({kh: v for (m, kh), v in acc.items() if m == level}))
        for j in range(1, k + 1):
            for eh, (ea, eb, ec, ed, eq) in energies[j].items():
                for m, entry in psis[k - j]._comp.items():
                    for kh, (a, b, c, d, q) in entry.items():
                        # acc -= E_j psi_{k-j}, the product written out unreduced
                        _accumulate(
                            acc,
                            (m, kh + eh),
                            eb * b - ea * a - 2 * (ec * c - ed * d),
                            -(ea * b + eb * a + 2 * (ec * d + ed * c)),
                            eb * d + ed * b - ea * c - ec * a,
                            -(ea * d + ed * a + eb * c + ec * b),
                            eq * q,
                        )
        comp = {}
        for (m, kh), (a, b, c, d, den) in acc.items():
            if not (a or b or c or d):
                continue
            if m == level:
                raise AssertionError("level component of the residual did not cancel")
            # (f0 - E_0) z^m = 2 hbar (m - level) z^m
            comp.setdefault(m, {})[kh - 1] = coeff_make(-a, -b, -c, -d, den * 2 * (m - level))
        psis.append(FockVector._from_raw(comp))
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
    built, when the dim+10 matrix would exceed MAX_MATRIX_BYTES.
    """
    _check_dim(dim + 10)

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
