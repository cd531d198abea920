"""Command-line entry point: parse expressions, dispatch, print JSON.

Exit codes: 0 success, 2 expression parse error, 3 domain error or invalid
argument value (a negative order, level or cutoff, a weight cap that is not a
non-negative half-integer, a rational option with a zero denominator, a
non-positive or non-finite hbar, a non-finite t, a Fock matrix that
overflows the float range, a coefficient file that is not a JSON list of
numbers and rational strings or holds a coefficient outside the float
range), 4 resource/cap overflow (an --order, a trace --levels
or a milnor/versal --cutoff above MAX_ORDER, the term-count guard, a Fock
matrix over spectrum.MAX_MATRIX_BYTES, memory exhausted), 5 file error (a
--coeffs file that cannot be read), 64 usage error (an unknown command or
option, a missing required option, an option value of the wrong type;
EX_USAGE).
Results go to stdout as JSON; diagnostics to stderr.

Order ceiling: every command that takes --order (flow, normal-form,
spectrum, rs, gevrey) refuses an order above MAX_ORDER = 100 with exit 4
before any work, since the cost of a solve grows steeply with the order.
The ceiling is well above the orders the benchmark runs (RS at order 60).
`trace --levels` is an hbar order too (each level widens the weight cap by
one) and has the same ceiling; `diag --levels` only counts eigenvalues and
has none, but must lie between 0 and --dim (exit 3 otherwise).  The
--cutoff of milnor and versal is a degree, and the cost of their linear
algebra also grows steeply with it, so it has the same ceiling.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import algebra, flow, gevrey, milnor, normal_form, spectrum
from ._kernel import COEFF_ONE
from .errors import DomainError, ParseError, ResourceError
from .field import Coefficient, parse_rational
from .parser import elaborate, elaborate_plane, parse_expr
from .series import (
    SIG_PLANE, QSeries, ScalarSeries, harmonic, render_terms, t_op, w2_to_str, weight_cap_to_w2,
)

DEFAULT_T_CAP = 16
DEFAULT_WEIGHT_CAP = "16"
EX_USAGE = 64
MAX_ORDER = 100


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with its usage errors on EX_USAGE, apart from parse errors (2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _caps_args(sub):
    sub.add_argument("--t-cap", type=int, default=DEFAULT_T_CAP)
    sub.add_argument("--weight-cap", default=DEFAULT_WEIGHT_CAP)


def _expr(text, t_cap, weight_cap) -> QSeries:
    return elaborate(parse_expr(text), t_cap, weight_cap)


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _float_terms(series: ScalarSeries):
    out = []
    for exp in sorted(series._terms):
        c = series.coeff(exp)
        z = c.to_complex()
        out.append({"exp": list(exp), "re": z.real, "im": z.imag})
    return out


def _rescale_t(series: ScalarSeries) -> ScalarSeries:
    """Bookkeeping substitution t -> hbar t in a scalar series."""
    wide = series.with_caps(weight_cap=Fraction(series.w2_cap + 2 * series.t_cap, 2))
    ti = wide.vars.index("t")
    hi = wide.vars.index("hbar")
    terms = {}
    for exp, c in wide._terms.items():
        new = list(exp)
        new[hi] += exp[ti]
        terms[tuple(new)] = c
    return ScalarSeries(terms, vars=wide.vars, t_cap=wide.t_cap, weight_cap=wide.weight_cap)


def _perturbed(args) -> QSeries:
    """f = p^2 + q^2 + t * g from the --perturbation expression."""
    order = getattr(args, "order", None)
    t_cap = max(order if order is not None else 0, DEFAULT_T_CAP)
    g = elaborate(parse_expr(args.perturbation), t_cap, "64")
    f0 = harmonic(t_cap, "64")
    f = f0 + t_op(t_cap, "64") * g
    return f


def cmd_binary(args):
    f = _expr(args.expr[0], args.t_cap, args.weight_cap)
    if args.command == "dagger":
        _emit(algebra.dagger(f).to_json())
        return 0
    if args.command == "borel":
        out = algebra.borel_inverse(f) if args.inverse else algebra.borel(f)
        _emit(out.to_json())
        return 0
    if args.command == "symbol":
        out = algebra.principal_symbol(f) if args.principal else algebra.total_symbol(f)
        _emit(out.to_json())
        return 0
    g = _expr(args.expr[1], args.t_cap, args.weight_cap)
    out = f * g if args.command == "mul" else algebra.commutator(f, g)
    _emit(out.to_json())
    return 0


def cmd_flow(args):
    h = _expr(args.hamiltonian, max(args.order, DEFAULT_T_CAP), args.weight_cap)
    f = _expr(args.observable, max(args.order, DEFAULT_T_CAP), args.weight_cap)
    _emit(flow.integrate_heisenberg(h, f, args.order).to_json())
    return 0


def _solve(args):
    """quantum_morse on the --perturbation family; warns on stderr when an
    explicit --weight-cap is below the cap that keeps every order exact."""
    f = _perturbed(args)
    weight_cap = _opt_weight(args.weight_cap)
    result = normal_form.quantum_morse(f, args.order, weight_cap=weight_cap)
    if weight_cap is not None:
        needed2 = int(2 * normal_form.solver_weight_cap(f, args.order))
        if weight_cap_to_w2(weight_cap) < needed2:
            sys.stderr.write(
                f"warning: --weight-cap {weight_cap} is below {w2_to_str(needed2)}, the cap"
                f" that keeps every order through t^{args.order} exact; coefficients"
                " past the cap are missing from the output\n"
            )
    return result


def cmd_normal_form(args):
    result = _solve(args)
    payload = result.to_json()
    if args.rescale_t:
        payload["spectrum"] = _rescale_t(result.spectrum).to_json()
        payload["rescaled_t"] = True
    _emit(payload)
    return 0


def cmd_spectrum(args):
    if args.level is not None and args.level < 0:
        raise ValueError("--level must be non-negative")
    result = _solve(args)
    spec = result.spectrum
    if args.level is not None:
        spec = spec.eval_var("n", Coefficient(args.level))
    if args.rescale_t:
        spec = _rescale_t(spec)
    _emit(
        {
            "format": "spectrum-v1",
            "level": args.level,
            "rescaled_t": bool(args.rescale_t),
            "series": spec.to_json(),
            "terms_float": _float_terms(spec),
        }
    )
    return 0


def cmd_rs(args):
    f = _perturbed(args)
    series = spectrum.rs_perturbation(f, args.level, args.order)
    _emit(
        {
            "format": "spectrum-v1",
            "level": args.level,
            "series": series.to_json(),
            "terms_float": _float_terms(series),
        }
    )
    return 0


def cmd_diag(args):
    f = _perturbed(args)
    if args.csv:
        op = spectrum.fock_matrix(f, args.dim, args.t, args.hbar)
        sys.stdout.write(op.to_csv())
        return 0
    result = spectrum.diagonalize(f, args.t, args.hbar, args.dim, args.levels)
    if not result.hermitian:
        sys.stderr.write("warning: operator is not hermitian at these parameters\n")
    values = [
        v if isinstance(v, float) else {"re": v.real, "im": v.imag}
        for v in result.values
    ]
    _emit(
        {
            "format": "diag-v1",
            "dim": result.dim,
            "t": args.t,
            "hbar": args.hbar,
            "values": values,
            "converged": result.converged,
            "hermitian": result.hermitian,
        }
    )
    return 0


def cmd_gevrey(args):
    if args.coeffs:
        with open(args.coeffs, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("--coeffs: the file must hold a JSON list of numbers and rational strings")
        coeffs = []
        for k, x in enumerate(data):
            if isinstance(x, bool) or not isinstance(x, (int, float, str)):
                raise ValueError(f"--coeffs: coefficient {k} is not a number or a rational string")
            try:
                coeffs.append(parse_rational(x) if isinstance(x, str) else x)
            except ValueError as exc:
                raise ValueError(f"--coeffs: coefficient {k}: {exc}") from None
        source = args.coeffs
    else:
        if not args.from_spectrum:
            raise DomainError("provide either --from-spectrum EXPR or --coeffs FILE")
        args.perturbation = args.from_spectrum
        f = _perturbed(args)
        result = normal_form.quantum_morse(f, args.order)
        g = elaborate(parse_expr(args.from_spectrum), 1, "64")
        if args.hbar_weight is not None:
            w = parse_rational(args.hbar_weight)
        else:
            w = Fraction(g.max_weight2() - 2, 2)
        coeffs = gevrey.extract_diagonal(result.spectrum, args.level, w)
        source = f"spectrum({args.from_spectrum}), level {args.level}"
    window = None
    if args.window:
        k1, _, k2 = args.window.partition(":")
        window = (int(k1), int(k2))
    report = gevrey.gevrey_report(coeffs, window, source=source)
    _emit(report.to_json())
    return 0


def cmd_trace(args):
    f = _expr(args.expr[0], args.t_cap, args.weight_cap)
    series = spectrum.trace_hbar(f, args.levels)
    _emit(
        {
            "format": "trace-v1",
            "levels": args.levels,
            "series": series.to_json(),
            "terms_float": _float_terms(series),
        }
    )
    return 0


def _plane_family(symbol, params, cutoff):
    """Base polynomial and parameter tangents of a plane family, elaborated at
    degree cutoff + 2, the most any check through the cutoff reads; the family
    must be linear in the parameters through that degree."""
    family = elaborate_plane(parse_expr(symbol), params, cutoff + 2)
    base = {}
    tangents = [dict() for _ in params]
    for exp, c in family.items():
        lam = exp[2:]
        total = sum(lam)
        if total == 0:
            base[exp[:2]] = c
        elif total == 1:
            j = lam.index(1)
            tangents[j][exp[:2]] = c
        else:
            raise DomainError("family must be linear in the parameters")
    return milnor.plane(base), [milnor.plane(t) for t in tangents]


def cmd_milnor(args):
    poly, _ = _plane_family(args.symbol, (), args.cutoff)
    dim, stabilized = milnor.milnor_number(poly, args.cutoff)
    _emit(
        {
            "format": "milnor-v1",
            "dim": dim,
            "stabilized": stabilized,
            "cutoff": args.cutoff,
        }
    )
    return 0


def cmd_versal(args):
    params = [s for s in (args.params.split(",") if args.params else []) if s]
    poly, tangents = _plane_family(args.symbol, params, args.cutoff)
    dim, basis, stabilized = milnor.versality_dimension(poly, args.cutoff)
    versal, _ = milnor.check_versal(poly, tangents, args.cutoff)
    _emit(
        {
            "format": "versal-v1",
            "dim": dim,
            "basis": [render_terms({exp: COEFF_ONE}, SIG_PLANE) for exp in basis],
            "versal": versal,
            "stabilized": stabilized,
            "cutoff": args.cutoff,
        }
    )
    return 0


def _opt_weight(value):
    return None if value in (None, "auto") else value


def build_parser():
    ap = _ArgumentParser(
        prog="qmorse",
        description="Exact normal-ordered algebra and Morse normal forms for perturbed oscillators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, nargs in (("mul", 2), ("commutator", 2), ("dagger", 1), ("borel", 1), ("symbol", 1)):
        s = sub.add_parser(name)
        s.add_argument("expr", nargs=nargs)
        _caps_args(s)
        if name == "borel":
            s.add_argument("--inverse", action="store_true")
        if name == "symbol":
            s.add_argument("--principal", action="store_true")
        s.set_defaults(fn=cmd_binary)

    s = sub.add_parser("flow")
    s.add_argument("--hamiltonian", required=True)
    s.add_argument("--observable", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--weight-cap", default=DEFAULT_WEIGHT_CAP)
    s.set_defaults(fn=cmd_flow)

    s = sub.add_parser("normal-form")
    s.add_argument("--perturbation", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--rescale-t", action="store_true")
    s.add_argument("--weight-cap", default="auto")
    s.set_defaults(fn=cmd_normal_form)

    s = sub.add_parser("spectrum")
    s.add_argument("--perturbation", required=True)
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--level", type=int, default=None)
    s.add_argument("--rescale-t", action="store_true")
    s.add_argument("--weight-cap", default="auto")
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("rs")
    s.add_argument("--perturbation", required=True)
    s.add_argument("--level", type=int, required=True)
    s.add_argument("--order", type=int, required=True)
    s.set_defaults(fn=cmd_rs)

    s = sub.add_parser("diag")
    s.add_argument("--perturbation", required=True)
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--hbar", type=float, required=True)
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--levels", type=int, default=1)
    s.add_argument("--csv", action="store_true")
    s.set_defaults(fn=cmd_diag)

    s = sub.add_parser("gevrey")
    s.add_argument("--from-spectrum", default=None, metavar="EXPR")
    s.add_argument("--coeffs", default=None, metavar="FILE")
    s.add_argument("--level", type=int, default=0)
    s.add_argument("--order", type=int, default=16)
    s.add_argument("--hbar-weight", default=None)
    s.add_argument("--window", default=None, metavar="K1:K2")
    s.set_defaults(fn=cmd_gevrey)

    s = sub.add_parser("trace")
    s.add_argument("expr", nargs=1)
    s.add_argument("--levels", type=int, required=True)
    _caps_args(s)
    s.set_defaults(fn=cmd_trace)

    s = sub.add_parser("milnor")
    s.add_argument("--symbol", required=True)
    s.add_argument("--cutoff", type=int, required=True)
    s.set_defaults(fn=cmd_milnor)

    s = sub.add_parser("versal")
    s.add_argument("--symbol", required=True)
    s.add_argument("--params", default=None)
    s.add_argument("--cutoff", type=int, required=True)
    s.set_defaults(fn=cmd_versal)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        order = getattr(args, "order", None)
        if order is not None and order > MAX_ORDER:
            raise ResourceError(f"--order {order} is above the order ceiling MAX_ORDER = {MAX_ORDER}")
        if args.command == "trace" and args.levels > MAX_ORDER:
            raise ResourceError(f"--levels {args.levels} is above the order ceiling MAX_ORDER = {MAX_ORDER}")
        cutoff = getattr(args, "cutoff", 0)
        if cutoff < 0:
            raise ValueError("--cutoff must be non-negative")
        if cutoff > MAX_ORDER:
            raise ResourceError(f"--cutoff {cutoff} is above the order ceiling MAX_ORDER = {MAX_ORDER}")
        return args.fn(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 4
    except MemoryError:
        sys.stderr.write("resource error: out of memory\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"invalid argument: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
