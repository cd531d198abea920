"""Workloads of the qmorse benchmark: inputs, jobs, oracle checks and digests.

Each job is one user request, built the way the CLI builds it:
`parser.parse_expr` and `parser.elaborate` at weight cap 64, then
`harmonic + t_op * g`.  The seed shuffles the term-insertion order of every
input (and, in `run.py`, the job order of every pass); neither changes the
work done or a byte of the output, so one digest table serves every seed.

The engine is always reached through module attributes (`normal_form.
quantum_morse`, not a name bound at import), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from qmorse import gevrey, normal_form, parser, spectrum
from qmorse.field import Coefficient
from qmorse.series import QSeries, harmonic, t_op

WEIGHT_CAP = "64"
SYM_Q2P2 = "(q^2*p^2 + p^2*q^2)/2"

# Bender-Wu large-order law for the level-0 coefficients of p^2+q^2+t q^4:
# |alpha_k| ~ C sqrt6 pi^(-3/2) (3/2)^k Gamma(k+1/2); C = 1.9549 at k = 60.
BENDER_WU_BAND = (1.9, 2.0)


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def perturbed(expr: str, t_cap: int, rng: random.Random) -> QSeries:
    """p^2 + q^2 + t*g with g parsed from `expr`, terms inserted in shuffled order."""
    g = parser.elaborate(parser.parse_expr(expr), t_cap, WEIGHT_CAP)
    f = harmonic(t_cap, WEIGHT_CAP) + t_op(t_cap, WEIGHT_CAP) * g
    items = list(f.items())
    rng.shuffle(items)
    return QSeries(dict(items), t_cap=f.t_cap, weight_cap=f.weight_cap)


def canonical(obj) -> str:
    """The bytes the CLI prints for a JSON payload."""
    return json.dumps(obj, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coef_bits(series) -> int:
    """Largest bit length of any numerator component or denominator."""
    return max(
        (max(abs(x).bit_length() for x in c.raw) for _, c in series.items()),
        default=0,
    )


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


class Job:
    """One request: `run(clock)` does the work, timing each operation under a
    metric name; `check` compares the result with oracles (untimed);
    `output` gives the canonical JSON the digest table locks, or None."""

    name = ""

    def run(self, clock):
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError

    def output(self, result):
        return None

    def counts(self, result):
        """Exact sizes of the result, summed (terms) or maxed (bits) per pass."""
        return {}


class SpectrumJob(Job):
    """Exact spectrum through t^order, checked against Rayleigh-Schrodinger."""

    def __init__(self, label, expr, degree, order, rng):
        self.name = f"spectrum {label} N={order}"
        self.expr, self.degree, self.order = expr, degree, order
        self.f = perturbed(expr, max(order, 16), rng)
        self._rs = None

    def run(self, clock):
        with clock("solve_s"):
            return normal_form.quantum_morse(self.f, self.order)

    def check(self, result):
        if self._rs is None:
            self._rs = [spectrum.rs_perturbation(self.f, n, self.order) for n in range(3)]
        spec = result.spectrum
        for n, rs in enumerate(self._rs):
            closure = spec.eval_var("n", Coefficient(n))
            lifted = rs.lift(("n", "hbar", "t")).with_caps(
                t_cap=closure.t_cap, weight_cap=closure.weight_cap
            )
            _expect(closure == lifted, f"level {n} differs from RS")
        if self.expr == "q^4" and self.order >= 3:
            _expect(
                spec.eval_var("n", Coefficient(0)).coeff((0, 4, 3)) == Coefficient(Fraction(333, 64)),
                "level-0 t^3 coefficient is not 333/64",
            )
        _expect(gevrey.homogeneity_check(spec, self.degree), "homogeneity check failed")

    def output(self, result):
        return canonical(result.spectrum.to_json())

    def counts(self, result):
        return {
            "normal_form.u.terms": len(result.u),
            "normal_form.spectrum.terms": len(result.spectrum),
            "normal_form.spectrum.coef_bits": coef_bits(result.spectrum),
        }


class GeneratorJob(Job):
    """Solve, assemble the generator H, then check the master identity."""

    def __init__(self, expr, order, rng):
        self.name = f"normal-form {expr} N={order}"
        self.order = order
        self.f = perturbed(expr, max(order, 16), rng)

    def run(self, clock):
        with clock("solve_s"):
            result = normal_form.quantum_morse(self.f, self.order)
        with clock("generator_s"):
            result.H
        with clock("verify_s"):
            verified = result.verify()
        return result, verified

    def check(self, result):
        _expect(result[1] is True, "verify() is not True")

    def output(self, result):
        return canonical(result[0].to_json())

    def counts(self, result):
        result = result[0]
        return {
            "normal_form.u.terms": len(result.u),
            "normal_form.H.terms": len(result.H),
            "normal_form.spectrum.terms": len(result.spectrum),
            "normal_form.spectrum.coef_bits": coef_bits(result.spectrum),
        }


class RSJob(Job):
    """Exact RS series of one level; level 0 also gets the Gevrey report."""

    def __init__(self, f, level, order, window):
        self.name = f"rs q^4 n={level} N={order}"
        self.f, self.level, self.order, self.window = f, level, order, window

    def run(self, clock):
        with clock("oracle_s"):
            series = spectrum.rs_perturbation(self.f, self.level, self.order)
            report = None
            if self.level == 0:
                lifted = series.lift(("n", "hbar", "t"))
                alphas = gevrey.extract_diagonal(lifted, 0, 1)
                report = gevrey.gevrey_report(alphas, self.window, source="rs level 0")
        return series, report

    def check(self, result):
        series, report = result
        _expect(series.coeff((1, 0)) == Coefficient(2 * self.level + 1), "E_n(t=0) != hbar(2n+1)")
        if report is None:
            return
        _expect(series.coeff((4, 3)) == Coefficient(Fraction(333, 64)), "alpha_3 != 333/64")
        _expect(report.verdict == "gevrey1-consistent", f"verdict {report.verdict}")
        k1, k2 = self.window
        ratios = [report.ratios.get(k) for k in range(k1, k2 + 1)]
        _expect(all(r is not None and 1.40 <= r <= 1.55 for r in ratios), "ratio outside [1.40, 1.55]")
        _expect(report.radius is not None and 0.60 <= report.radius <= 0.75, "radius outside [0.60, 0.75]")
        k = self.order
        alpha = series.coeff((k + 1, k)).r
        log_alpha = math.log(abs(alpha.numerator)) - math.log(alpha.denominator)
        log_law = (
            0.5 * math.log(6) - 1.5 * math.log(math.pi) + k * math.log(1.5) + math.lgamma(k + 0.5)
        )
        lo, hi = BENDER_WU_BAND
        _expect(lo < math.exp(log_alpha - log_law) < hi, "alpha_N off the Bender-Wu law")

    def output(self, result):
        return canonical(result[0].to_json())

    def counts(self, result):
        return {"spectrum.rs.coef_bits": coef_bits(result[0])}


class DiagJob(Job):
    """Fock-matrix ground level, checked against the order-3 RS partial sum."""

    name = "diag q^4 dim=200"

    def __init__(self, f, t, partial_sum):
        self.f, self.t, self.partial_sum = f, t, partial_sum

    def run(self, clock):
        with clock("oracle_s"):
            return spectrum.diagonalize(self.f, self.t, 1.0, 200, 3)

    def check(self, result):
        _expect(result.hermitian and result.converged, "diagonalization not converged")
        _expect(abs(result.values[0] - self.partial_sum) < 1e-6, "ground level off the RS partial sum")


def build_workload(name: str, seed: int, reduced: bool = False) -> list:
    """The jobs of one pass.  `reduced` shrinks the orders for the harness
    tests; every oracle check still applies, but no digests are recorded."""
    rng = random.Random(seed)
    if name == "spectrum-n16":
        n = 4 if reduced else 16
        return [
            SpectrumJob("q^4", "q^4", 4, n, rng),
            SpectrumJob("sym(q^2p^2)", SYM_Q2P2, 4, n, rng),
        ]
    if name == "generator-verify":
        return [
            GeneratorJob("q^4", 3 if reduced else 10, rng),
            GeneratorJob("q^6", 2 if reduced else 6, rng),
        ]
    if name == "oracle-rs60":
        n = 40 if reduced else 60
        f = perturbed("q^4", n, rng)
        t = 0.01
        partial = 1 + 3 / 4 * t - 21 / 16 * t**2 + 333 / 64 * t**3
        window = (20, 39) if reduced else (40, 59)
        return [RSJob(f, level, n, window) for level in range(3)] + [DiagJob(f, t, partial)]
    raise ValueError(f"unknown workload {name!r}")
