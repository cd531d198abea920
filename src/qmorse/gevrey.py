"""Borel/Gevrey growth diagnostics for spectral coefficient sequences.

A Gevrey-1 (Borel-analytic) sequence has alpha_k ~ C k! R^-k, so the Borel
coefficients beta_k = alpha_k / k! have bounded ratio |beta_{k+1}/beta_k|
approaching 1/R.  The verdicts are heuristic by necessity (finitely many
coefficients cannot prove analyticity): ratios confined to a bounded band
read as gevrey1-consistent, a superlinear log-log ratio trend as violated,
anything else as inconclusive.  Floats appear only here and in the numeric
diagonalizer; everything upstream is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .field import Coefficient, rational_str
from .series import ScalarSeries

# the verdict thresholds of `gevrey_report`
BAND = 4.0
SLOPE_THRESHOLD = 0.5
MIN_NONZERO = 6


def _off_line(spectrum: ScalarSeries, w):
    """(l, k) of the first monomial t^l hbar^k n^j of the spectrum off the
    homogeneity line k = w l + 1, or None when every monomial is on it."""
    hi = spectrum.vars.index("hbar")
    ti = spectrum.vars.index("t")
    for exp in spectrum._terms:
        if Fraction(exp[hi]) != w * exp[ti] + 1:
            return exp[ti], exp[hi]
    return None


def homogeneity_check(spectrum: ScalarSeries, degree: int) -> bool:
    """Scaling symmetry of a degree-d perturbation: k = l(d/2 - 1) + 1.

    Every spectrum monomial t^l hbar^k n^j of a t*q^d family must sit on that
    line (the q -> sqrt(hbar) q rescaling); odd degrees force odd t-orders to
    vanish outright.
    """
    return _off_line(spectrum, Fraction(degree, 2) - 1) is None


def extract_diagonal(spectrum: ScalarSeries, level: int, w) -> list:
    """Coefficients of E_level / hbar in the combined variable lambda = t hbar^w.

    Checks homogeneity for the exponent w (monomial t^l hbar^k must have
    k = l*w + 1) and returns the exact coefficient list alpha_l.
    """
    w = Fraction(w)
    if level < 0:
        raise ValueError("level must be a non-negative integer")
    off = _off_line(spectrum, w)
    if off is not None:
        raise DomainError(
            f"homogeneity violated: t^{off[0]} hbar^{off[1]} is off the k = {w}*l + 1 line"
        )
    ni = spectrum.vars.index("n")
    ti = spectrum.vars.index("t")
    coeffs = {}
    level_c = Coefficient(level)
    for exp, c in spectrum.items():
        val = c * (level_c**exp[ni])
        coeffs[exp[ti]] = coeffs.get(exp[ti], Coefficient(0)) + val
    top = max(coeffs, default=0)
    return [coeffs.get(l, Coefficient(0)) for l in range(top + 1)]


@dataclass
class BorelReport:
    """Growth diagnostics of one coefficient sequence."""

    source: str
    window: tuple
    alphas: list = field(repr=False)            # floats
    alphas_exact: list = field(repr=False)      # rational strings or None
    borel: list = field(repr=False)             # beta_k = alpha_k / k!
    ratios: dict = field(repr=False)            # k -> |beta_{k+1}|/|beta_k|
    roots: dict = field(repr=False)             # k -> |beta_k|^(1/k)
    radius: float | None
    verdict: str
    slope: float | None

    def to_json(self):
        return {
            "format": "borel-report-v1",
            "source": self.source,
            "window": list(self.window),
            "alphas": self.alphas,
            "alphas_exact": self.alphas_exact,
            "borel": self.borel,
            "ratios": {str(k): v for k, v in sorted(self.ratios.items())},
            "roots": {str(k): v for k, v in sorted(self.roots.items())},
            "radius": self.radius,
            "slope": self.slope,
            "verdict": self.verdict,
        }


def _to_float(k, value):
    """alpha_k as a float: the real part of a coefficient with a negligible
    imaginary part, else its modulus.  ValueError when it is not finite."""
    try:
        if isinstance(value, Coefficient):
            z = value.to_complex()
            x = z.real if abs(z.imag) <= 1e-12 * (1 + abs(z.real)) else abs(z)
        else:
            x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"coefficient {k} lies outside the float range")
    return x


def _exact_str(value):
    if isinstance(value, Coefficient):
        return rational_str(value.r) if value.is_rational() else str(value)
    if isinstance(value, Fraction):
        return rational_str(value)
    return None


def gevrey_report(coeffs, window=None, *, source: str = "coefficients") -> BorelReport:
    """Borel-transform the sequence and judge its growth over the window.

    verdict = violated   iff the least-squares slope of log ratio vs log k
                          exceeds `SLOPE_THRESHOLD` (factorial-type growth
                          survives the Borel transform);
              gevrey1-consistent iff the ratios stay in a band with
                          max/min < `BAND`;
              inconclusive otherwise (including: fewer than `MIN_NONZERO`
                          nonzero terms in the window).
    The radius estimate is the reciprocal of the median ratio over the upper
    half of the window.  ValueError, naming k, for a coefficient, a Borel ratio
    or the radius outside the float range.
    """
    alphas_exact = [_exact_str(c) for c in coeffs]
    alphas = [_to_float(k, c) for k, c in enumerate(coeffs)]
    if window is None:
        window = (0, len(alphas) - 1)
    kmin, kmax = int(window[0]), int(window[1])
    if not 0 <= kmin <= kmax < len(alphas):
        raise ValueError("window out of range")
    # exact quotient, rounded once: a float k! overflows from k = 171 on
    borel = [float(Fraction(a) / math.factorial(k)) for k, a in enumerate(alphas)]
    ratios = {
        k: abs(borel[k + 1]) / abs(borel[k])
        for k in range(kmin, min(kmax, len(borel) - 2) + 1)
        if borel[k] != 0.0 and borel[k + 1] != 0.0
    }
    for k, r in ratios.items():
        if math.isinf(r):
            raise ValueError(f"Borel ratio {k} lies outside the float range")
    roots = {
        k: abs(borel[k]) ** (1.0 / k)
        for k in range(max(kmin, 1), kmax + 1)
        if borel[k] != 0.0
    }
    nonzero = sum(1 for k in range(kmin, kmax + 1) if alphas[k] != 0.0)

    radius = None
    if ratios:
        ks = sorted(ratios)
        upper = ks[len(ks) // 2 :]
        med = sorted(ratios[k] for k in upper)
        mid = med[len(med) // 2] if len(med) % 2 == 1 else 0.5 * (
            med[len(med) // 2 - 1] + med[len(med) // 2]
        )
        if mid > 0:
            radius = 1.0 / mid
            if math.isinf(radius):
                span = f"{upper[0]}..{upper[-1]}"
                raise ValueError(f"the Borel radius (ratios k = {span}) lies outside the float range")

    slope = _loglog_slope(ratios)
    if nonzero < MIN_NONZERO or len(ratios) < 2:
        verdict = "inconclusive"
    elif slope is not None and slope > SLOPE_THRESHOLD:
        verdict = "violated"
    elif max(ratios.values()) < BAND * min(ratios.values()):  # a ratio may underflow to 0
        verdict = "gevrey1-consistent"
    else:
        verdict = "inconclusive"
    return BorelReport(
        source=source,
        window=(kmin, kmax),
        alphas=alphas,
        alphas_exact=alphas_exact,
        borel=borel,
        ratios=ratios,
        roots=roots,
        radius=radius,
        verdict=verdict,
        slope=slope,
    )


def _loglog_slope(ratios):
    pts = [(math.log(k), math.log(r)) for k, r in ratios.items() if k >= 1 and r > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    if den == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / den
