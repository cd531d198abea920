"""Expression grammar, elaboration, CLI wiring, exit codes, round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qmorse
from qmorse.errors import DomainError, ParseError
from qmorse.field import Coefficient, I
from qmorse.parser import MAX_NESTING, elaborate, elaborate_plane, parse_expr, tokenize
from qmorse.series import SIG_PLANE, QSeries, ScalarSeries, harmonic, hbar_op, q_op

CAPS = (4, "12")


def _elab(text):
    return elaborate(parse_expr(text), *CAPS)


def test_grammar_examples():
    assert _elab("p^2+q^2") == harmonic(*CAPS)
    f = _elab("(i/2)*hbar*ad*a")
    assert f.coeff((1, 1, 1, 0)) == I * __import__("fractions").Fraction(1, 2)
    assert _elab("p*q-q*p") == hbar_op(*CAPS).scale(-I)
    assert _elab("ad*a") == QSeries({(1, 1, 0, 0): 1}, t_cap=4, weight_cap="12")
    assert _elab("q^4") == q_op(*CAPS) ** 4
    assert _elab("3/4") == QSeries({(0, 0, 0, 0): __import__("fractions").Fraction(3, 4)}, t_cap=4, weight_cap="12")
    assert _elab("-q") == -q_op(*CAPS)
    assert _elab("2^3") == QSeries({(0, 0, 0, 0): 8}, t_cap=4, weight_cap="12")


def test_implicit_multiplication_rejected():
    for text in ("q p", "2 q", "(q)(p)", "q(p)", "2 3"):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert "implicit multiplication" in str(err.value)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("q + ")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("q ^ p")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("q + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expr("q ^ (1/2)")  # fractional power
    assert err.value.expected == ("uint",)
    with pytest.raises(ParseError) as err:
        parse_expr("q + " + "-(" * MAX_NESTING + "q" + ")" * MAX_NESTING)
    assert err.value.offset == 4 + MAX_NESTING  # the first '(' or '-' past the limit
    assert parse_expr("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == ("sym", "q")


def test_division_after_a_power():
    # after '^' only an integer literal is read: '/' stays the division operator
    assert _elab("q^3/3") == _elab("(q^3)/3") == (q_op(*CAPS) ** 3).scale(Fraction(1, 3))
    assert _elab("q^2/7") == _elab("(q^2)/7")
    assert _elab("q ^ 1/2") == _elab("q/2")
    assert _elab("2^3/4") == _elab("2")
    with pytest.raises(ParseError) as err:
        parse_expr("q^(3/2)")
    assert err.value.offset == 2 and err.value.expected == ("uint",)
    with pytest.raises(ParseError) as err:
        parse_expr("q^3/0")
    assert err.value.offset == 4


def test_power_must_be_literal():
    with pytest.raises(ParseError):
        parse_expr("q^(2)")
    with pytest.raises(ParseError):
        parse_expr("q^-1")


def test_unknown_symbol_is_domain_error():
    with pytest.raises(DomainError):
        _elab("zz + 1")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_never_crashes(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


@settings(max_examples=120, deadline=None)
@given(st.binary(max_size=30))
def test_parser_survives_arbitrary_bytes(data):
    try:
        parse_expr(data.decode("utf-8", errors="replace"))
    except ParseError:
        pass


def _l1_family(terms, degree):
    """The plane family with one parameter over {(ex, ey, e_lambda1): c}."""
    return ScalarSeries(terms, vars=("x", "y", "lambda1"), t_cap=0, weight_cap=Fraction(degree, 2))


def test_elaborate_plane():
    fam = elaborate_plane(parse_expr("p^2+q^3+l1*q"), ("l1",), 3)
    assert fam.vars == ("x", "y", "lambda1") and fam.weight_cap == Fraction(3, 2)
    assert fam == _l1_family({(0, 2, 0): 1, (3, 0, 0): 1, (1, 0, 1): 1}, 3)
    with pytest.raises(DomainError):
        elaborate_plane(parse_expr("ad*a"), (), 2)


def test_elaborate_plane_caps_degree_not_parameters():
    # the cap drops q^3 but keeps every power of the parameter
    fam = elaborate_plane(parse_expr("(l1+q)^3 + p^2"), ("l1",), 2)
    assert fam == _l1_family({(0, 0, 3): 1, (1, 0, 2): 3, (2, 0, 1): 3, (0, 2, 0): 1}, 2)
    # q and p stay the plane coordinates ahead of a parameter of the same
    # name, and a repeated name is the first parameter of that name
    fam = elaborate_plane(parse_expr("q*l1 + p"), ("q", "l1", "l1"), 2)
    assert fam.vars == ("x", "y", "lambda1", "lambda2", "lambda3")
    assert dict(fam.items()) == {(1, 0, 0, 1, 0): Coefficient(1), (0, 1, 0, 0, 0): Coefficient(1)}
    assert elaborate_plane(parse_expr("(q+p)^100000"), (), 4) == elaborate_plane(parse_expr("0"), (), 4)


def _run_cli(*argv, expect=0, module="qmorse.cli", timeout=None):
    # the child imports the same qmorse as this test, installed or not
    src = str(Path(qmorse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_cli_mul_round_trip():
    proc = _run_cli("mul", "q", "p", "--t-cap", "2", "--weight-cap", "4")
    payload = json.loads(proc.stdout)
    assert payload["format"] == "qseries-v1"
    assert QSeries.from_json(payload) == q_op(2, 4) * p_op_like()


def p_op_like():
    from qmorse.series import p_op

    return p_op(2, 4)


def test_cli_commutator():
    proc = _run_cli("commutator", "p", "q")
    payload = json.loads(proc.stdout)
    f = QSeries.from_json(payload)
    assert f == hbar_op(16, "16").scale(-I)


def test_cli_exit_codes():
    _run_cli("mul", "q p", "p", expect=2)
    _run_cli("normal-form", "--perturbation", "zz", "--order", "2", expect=3)
    _run_cli("milnor", "--symbol", "q^2+1", "--cutoff", "4", expect=3)


def test_cli_spectrum_and_rs_agree():
    a = _run_cli("spectrum", "--perturbation", "q^4", "--order", "3", "--level", "1")
    b = _run_cli("rs", "--perturbation", "q^4", "--level", "1", "--order", "3")
    sa = json.loads(a.stdout)["series"]["terms"]
    sb = json.loads(b.stdout)["series"]["terms"]
    da = {tuple(t["exp"][1:]): t["coef"] for t in sa}  # drop dead n slot
    db = {tuple(t["exp"]): t["coef"] for t in sb}
    assert da == db


def test_cli_normal_form_deterministic_bytes():
    a = _run_cli("normal-form", "--perturbation", "q^3", "--order", "4")
    b = _run_cli("normal-form", "--perturbation", "q^3", "--order", "4")
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["format"] == "normal-form-v1"
    for key in ("g", "H", "u", "u_inv", "spectrum"):
        assert payload[key]["format"] == "qseries-v1"


def test_cli_rescale_t():
    plain = json.loads(
        _run_cli("spectrum", "--perturbation", "q^2", "--order", "2").stdout
    )
    rescaled = json.loads(
        _run_cli(
            "spectrum", "--perturbation", "q^2", "--order", "2", "--rescale-t"
        ).stdout
    )
    def exps(payload):
        return sorted(tuple(t["exp"]) for t in payload["series"]["terms"])
    # t -> hbar t shifts the hbar exponent by the t order
    shifted = sorted((n, h + l, l) for (n, h, l) in exps(plain))
    assert exps(rescaled) == shifted


def test_cli_diag_csv_cells_are_numbers():
    import numpy as np
    from qmorse import spectrum
    from qmorse.series import t_op

    out = _run_cli("diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1", "--dim", "4", "--csv").stdout
    rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()]
    f = harmonic(1, "64") + t_op(1, "64") * elaborate(parse_expr("q^4"), 1, "64")
    matrix = spectrum.fock_matrix(f, 4, 0.1, 1.0).matrix
    assert rows == [[v for z in row for v in (z.real, z.imag)] for row in matrix.tolist()]


@pytest.mark.parametrize("order", [None, 40])
@pytest.mark.parametrize(
    "perturbation", ["q^4", "q", "(q^2*p^2+p^2*q^2)/2", "q^3+p^3+q^4", "t*q^2+i*q^3", "hbar*q^6"]
)
def test_perturbed_family_forms_t_g_as_a_shift(perturbation, order):
    """`cli._perturbed` forms t*g as `g.shift(t=1)`, equal in value and caps to
    the product with t at the family's t cap (16, or the order above it)."""
    import argparse

    from qmorse import cli
    from qmorse.series import t_op

    t_cap = max(order or 0, cli.DEFAULT_T_CAP)
    g = elaborate(parse_expr(perturbation), t_cap, "64")
    expected = harmonic(t_cap, "64") + t_op(t_cap, "64") * g
    got = cli._perturbed(argparse.Namespace(perturbation=perturbation, order=order))
    assert got == expected and (got.t_cap, got.w2_cap) == (expected.t_cap, expected.w2_cap)


def test_cli_diag_and_gevrey_and_versal():
    d = json.loads(
        _run_cli(
            "diag", "--perturbation", "q^4", "--t", "0.0", "--hbar", "1.0",
            "--dim", "30", "--levels", "3",
        ).stdout
    )
    assert d["hermitian"] and d["converged"]
    assert abs(d["values"][0] - 1.0) < 1e-12

    g = json.loads(
        _run_cli(
            "gevrey", "--from-spectrum", "q^4", "--level", "0", "--order", "10",
            "--window", "4:9",
        ).stdout
    )
    assert g["format"] == "borel-report-v1"
    assert g["alphas_exact"][2] == "-21/16"

    v = json.loads(
        _run_cli(
            "versal", "--symbol", "p^2+q^4+l1*q+l2*q^2", "--params", "l1,l2",
            "--cutoff", "8",
        ).stdout
    )
    assert v["versal"] and v["stabilized"] and v["dim"] == 3
    assert v["basis"] == ["1", "x", "x^2"]
    v = json.loads(
        _run_cli("versal", "--symbol", "p^3+q^5*p^2+l1*q", "--params", "l1", "--cutoff", "9").stdout
    )
    assert v["basis"][:7] == ["1", "x", "y", "x^2", "x*y", "x^3", "x^2*y"] and len(v["basis"]) == 19

    m = json.loads(_run_cli("milnor", "--symbol", "p^2+q^2", "--cutoff", "6").stdout)
    assert m["dim"] == 1 and m["stabilized"]


def test_cli_trace():
    t = json.loads(_run_cli("trace", "1", "--levels", "5").stdout)
    from qmorse.series import ScalarSeries

    series = ScalarSeries.from_json(t["series"])
    import math

    for n in range(6):
        assert series.coeff((n, 0)) == Coefficient(math.factorial(n))


def test_cli_flow():
    proc = _run_cli(
        "flow", "--hamiltonian", "ad*a", "--observable", "a", "--order", "4"
    )
    payload = json.loads(proc.stdout)
    f = QSeries.from_json(payload)
    assert f.coeff((0, 1, 0, 1)) == I


def test_tokenizer_rational_edge():
    with pytest.raises(ParseError):
        tokenize("3/")
    with pytest.raises(ParseError):
        tokenize("3/0")


def test_tokenizer_overlong_literal_is_parse_error():
    with pytest.raises(ParseError) as err:
        tokenize("q + " + "1" * 5000)
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "--perturbation", "q^4", "--order", "-1"], 3),
        (["spectrum", "--perturbation", "q^4", "--order", "4", "--level", "-1"], 3),
        (["rs", "--perturbation", "q^4", "--level", "-1", "--order", "3"], 3),
        (["rs", "--perturbation", "q^4", "--level", "0", "--order", "-1"], 3),
        (["spectrum", "--perturbation", "q^4", "--order", "3", "--weight-cap", "1/3"], 3),
        (["spectrum", "--perturbation", "q^4", "--order", "3", "--weight-cap", "-2"], 3),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "0", "--dim", "10"], 3),
        (["gevrey", "--coeffs", "{tmp}/missing.json"], 5),
        (["trace", "q^4", "--levels", "-1"], 3),
        (["spectrum", "--perturbation", "1" * 5000 + "*q^4", "--order", "2"], 2),
        (["mul", "(" * 3000 + "q" + ")" * 3000, "q"], 2),
        (["spectrum", "--perturbation", "q^4"], 64),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1", "--dim", "1000000"], 4),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1", "--dim", "5000",
          "--csv"], 4),
        (["spectrum", "--perturbation", "q^4", "--order", "100000000"], 4),
        (["trace", "q^4", "--levels", "100000000"], 4),
        (["diag", "--perturbation", "q^4", "--t", "1e308", "--hbar", "1", "--dim", "30"], 3),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1e200", "--dim", "30"], 3),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1e-100", "--dim", "5"], 3),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1e-200", "--dim", "5"], 3),
        (["diag", "--perturbation", "q^4", "--t", "nan", "--hbar", "1", "--dim", "30"], 3),
        (["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "inf", "--dim", "30",
          "--csv"], 3),
        (["mul", "q", "p", "--weight-cap", "1/0"], 3),
        (["spectrum", "--perturbation", "q^4", "--order", "2", "--weight-cap", "1/0"], 3),
        (["normal-form", "--perturbation", "q^4", "--order", "2", "--weight-cap", "1/0"], 3),
        (["flow", "--hamiltonian", "ad*a", "--observable", "a", "--order", "2",
          "--weight-cap", "1/0"], 3),
        (["trace", "q^4", "--levels", "2", "--weight-cap", "1/0"], 3),
        (["gevrey", "--from-spectrum", "q^4", "--order", "2", "--hbar-weight", "1/0"], 3),
        (["gevrey", "--from-spectrum", "q^4", "--order", "2", "--window", "3"], 3),
    ],
    ids=[
        "order", "spectrum-level", "level", "rs-order", "cap-third", "cap-negative",
        "hbar-zero", "missing-file", "levels", "long-literal",
        "deep-nesting", "usage-missing-order", "dim-huge", "dim-csv-over-limit",
        "order-huge", "levels-huge", "t-overflow", "hbar-overflow", "hbar-underflow",
        "hbar-underflow-square", "t-nan",
        "hbar-inf-csv", "mul-cap-zero-den", "spectrum-cap-zero-den",
        "normal-form-cap-zero-den", "flow-cap-zero-den", "trace-cap-zero-den",
        "gevrey-hbar-weight-zero-den", "gevrey-window-one-int",
    ],
)
def test_cli_bad_input_exits_without_traceback(argv, code, tmp_path):
    proc = _run_cli(*(a.format(tmp=tmp_path) for a in argv), expect=code)
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""
    if "100000000" in argv:
        assert "MAX_ORDER = 100" in proc.stderr
    if "--window" in argv:
        assert "K1:K2" in proc.stderr


def test_cli_term_guard_variable(monkeypatch, capsys):
    """QMORSE_TERM_GUARD caps every product's accumulators; a value that is not
    an integer of at least 1 is an invalid argument that names the variable."""
    from qmorse import cli

    for value in ("abc", "-5", "0"):
        monkeypatch.setenv("QMORSE_TERM_GUARD", value)
        assert cli.main(["mul", "q", "p"]) == 3
        assert "QMORSE_TERM_GUARD" in capsys.readouterr().err
    monkeypatch.setenv("QMORSE_TERM_GUARD", "3")
    assert cli.main(["mul", "q^3", "p^3"]) == 4
    assert "term-count guard" in capsys.readouterr().err


def test_import_fills_no_table():
    """Importing the CLI does no kernel work: the contraction rows and the
    falling table are filled on first use only.  numpy is read only by the
    float diagonalizer, so neither the import nor an exact solve loads it."""
    src = str(Path(qmorse.__file__).resolve().parents[1])
    code = (
        "import sys, qmorse.cli; from qmorse import _kernel, normal_form, parser\n"
        "print(_kernel._rows, normal_form._falling, 'numpy' in sys.modules)\n"
        "normal_form.quantum_morse(parser.elaborate(parser.parse_expr('p^2+q^2+t*q^4'), 4, '16'), 4)\n"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [(1,)] False\nFalse\n"


_BIG = "1" * 401  # overflows a float


@pytest.mark.parametrize(
    "text, index",
    [
        ("5", None),
        (_BIG, None),
        ("[1, null]", 1),
        ("[[2], 1]", 0),
        ("[1, 2, true]", 2),
        ('["1/0"]', 0),
        ('[1, "x"]', 1),
        (f"[{_BIG}]", 0),
        (f'[1, "{_BIG}"]', 1),
        ("[1e400, 2, 3]", 0),
        ("[1, NaN, 2]", 1),
    ],
    ids=[
        "number", "big-number", "null", "list-entry", "bool", "zero-den",
        "not-rational", "big-int", "big-string", "float-inf", "nan",
    ],
)
def test_gevrey_refuses_a_malformed_coefficient_file(text, index, tmp_path, capsys):
    from qmorse import cli

    path = tmp_path / "coeffs.json"
    path.write_text(text)
    assert cli.main(["gevrey", "--coeffs", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid argument: ")
    if index is not None:
        assert f"coefficient {index} " in captured.err or f"coefficient {index}:" in captured.err


@pytest.mark.parametrize(
    "coeffs",
    [[1] * 200, [1e300, 1e-300] + [1] * 8],
    ids=["k-factorial-past-float", "ratio-underflow"],
)
def test_gevrey_reads_any_finite_coefficient_file(coeffs, tmp_path, capsys):
    """k! passes the float range at k = 171, and a Borel ratio can underflow to 0."""
    from qmorse import cli

    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    assert cli.main(["gevrey", "--coeffs", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] in ("gevrey1-consistent", "violated", "inconclusive")
    assert len(report["borel"]) == len(coeffs)


@pytest.mark.parametrize(
    "coeffs, where",
    [([5e-324, 1e300] + [1] * 7, "Borel ratio 0 "), ([1e300, 1e300, 1e-20], "Borel radius (ratios k = 1..1)")],
    ids=["ratio-overflow", "radius-overflow"],
)
def test_gevrey_refuses_a_ratio_outside_the_float_range(coeffs, where, tmp_path, capsys):
    """A Borel ratio or radius that would print as Infinity exits 3 and prints nothing."""
    from qmorse import cli

    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(coeffs))
    assert cli.main(["gevrey", "--coeffs", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and where in captured.err


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_float_view_outside_the_float_range():
    """RS for q^10 at order 40 has numerators of about 1,200 bits but values
    below 1e294, so every float view is a number; at order 45 the top values
    pass the float range and their float views are null."""
    argv = ["rs", "--perturbation", "q^10", "--level", "0", "--order"]
    terms = _strict_json(_run_cli(*argv, "40").stdout)["terms_float"]
    assert len(terms) == 41 and all(t["re"] is not None and t["im"] is not None for t in terms)
    terms = _strict_json(_run_cli(*argv, "45").stdout)["terms_float"]
    nulls = [t["exp"] for t in terms if t["re"] is None]
    assert nulls == [t["exp"] for t in terms if t["im"] is None]
    assert nulls and len(nulls) < len(terms)


@pytest.mark.parametrize("command", ["flow", "normal-form", "spectrum", "rs", "gevrey"])
def test_every_order_option_has_one_ceiling(command, capsys):
    from qmorse import cli

    required = {
        "flow": ["--hamiltonian", "ad*a", "--observable", "a"],
        "rs": ["--perturbation", "q^4", "--level", "0"],
        "gevrey": ["--from-spectrum", "q^4"],
    }.get(command, ["--perturbation", "q^4"])
    assert cli.MAX_ORDER >= 60  # the RS order of the benchmark's oracle workload
    argv = [command, *required, "--order", str(cli.MAX_ORDER + 1)]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"order ceiling MAX_ORDER = {cli.MAX_ORDER}" in captured.err


@pytest.mark.parametrize("command", ["milnor", "versal"])
def test_cutoff_is_bounded_like_an_order(command, capsys):
    from qmorse import cli

    argv = [command, "--symbol", "p^2+q^4", "--cutoff"]
    assert cli.main(argv + ["-3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "invalid argument: --cutoff must be non-negative\n"
    for cutoff in (cli.MAX_ORDER + 1, 100000000):  # refused before any work
        assert cli.main(argv + [str(cutoff)]) == 4
        captured = capsys.readouterr()
        ceiling = f"the order ceiling MAX_ORDER = {cli.MAX_ORDER}"
        assert captured.out == "" and captured.err == f"resource error: --cutoff {cutoff} is above {ceiling}\n"


def test_huge_plane_power_is_capped_at_the_cutoff():
    # (q+p)^100000 and (q+p)^5 both vanish through degree 4 = cutoff + 2
    out = _run_cli("milnor", "--symbol", "(q+p)^100000", "--cutoff", "2", timeout=10).stdout
    assert out == _run_cli("milnor", "--symbol", "(q+p)^5", "--cutoff", "2").stdout
    assert json.loads(out) == {"format": "milnor-v1", "dim": 6, "stabilized": False, "cutoff": 2}


def test_family_linearity_is_checked_through_the_capped_degree(capsys):
    from qmorse import cli

    def versal(symbol, cutoff):
        code = cli.main(["versal", "--symbol", symbol, "--params", "l1", "--cutoff", str(cutoff)])
        return code, capsys.readouterr()

    # l1^2*q^10 lies above degree cutoff + 2 = 4, which no check reads
    assert versal("p^2+q^3+l1^2*q^10", 2) == versal("p^2+q^3", 2)
    code, captured = versal("p^2+q^3+l1^2*q^10", 8)
    assert code == 3 and captured.err == "domain error: family must be linear in the parameters\n"


def test_cli_maps_memory_error_to_resource_code(monkeypatch, capsys):
    from qmorse import cli, spectrum

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spectrum, "diagonalize", exhausted)
    argv = ["diag", "--perturbation", "q^4", "--t", "0.1", "--hbar", "1", "--dim", "10"]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "resource error: out of memory\n"


def test_cli_warns_when_explicit_cap_drops_orders():
    capped = _run_cli("spectrum", "--perturbation", "q^4", "--order", "3", "--weight-cap", "3")
    assert "warning: --weight-cap 3 is below 6" in capped.stderr
    assert "t^3" in capped.stderr
    exps = [t["exp"] for t in json.loads(capped.stdout)["series"]["terms"]]
    assert not any(e[2] == 3 for e in exps)  # the order the warning names is missing
    auto = _run_cli("spectrum", "--perturbation", "q^4", "--order", "3")
    assert auto.stderr == ""
    assert any(t["exp"][2] == 3 for t in json.loads(auto.stdout)["series"]["terms"])


# SHA-256 of the exact stdout bytes of commands that run the plane
# polynomials, the flow ladder and the Borel map, none of which the
# benchmark's output digests reach.
GOLDEN_STDOUT = {
    ("milnor", "--symbol", "p^2+q^4", "--cutoff", "8"):
        "6a8c6ee671d2f61657c6467cd2534c102d7e728f60e1445e3c1537656a2754ac",
    ("versal", "--symbol", "p^2+q^4+l1*q+l2*q^2", "--params", "l1,l2", "--cutoff", "8"):
        "1afcfb1022e7e2b9e167e4bfc8293eadf396c3daae44b4c8520befeff2197db2",
    ("flow", "--hamiltonian", "p^2+q^2", "--observable", "q^3", "--order", "4"):
        "62105b405da25ca9657168615b1cb6ea1881b1677c42140b72f65b13610152d1",
    ("borel", "ad*a*hbar^3"):
        "f85fc8239aaac86aaed3d6d00d723cab0f517febdc37b70d521ea1a4d50578b3",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=lambda argv: argv[0])
def test_cli_golden_stdout(argv):
    import hashlib

    out = _run_cli(*argv).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


def test_long_chains_elaborate_without_recursion():
    n = 3000
    assert elaborate(parse_expr("+".join(["q"] * n)), *CAPS) == q_op(*CAPS).scale(n)
    assert not elaborate(parse_expr("*".join(["q"] * n)), *CAPS)  # q^3000 is past the cap
    assert elaborate(parse_expr("-".join(["q"] * n)), *CAPS) == q_op(*CAPS).scale(2 - n)
    plane = elaborate_plane(parse_expr("+".join(["l1*q^2"] * n) + "-p"), ("l1",), 2)
    assert plane == _l1_family({(2, 0, 1): n, (0, 1, 0): -1}, 2)
    plane = elaborate_plane(parse_expr("*".join(["q"] * n)), (), n)
    assert plane == ScalarSeries({(n, 0): 1}, vars=SIG_PLANE, t_cap=0, weight_cap=Fraction(n, 2))


def test_cli_long_chain_exits_zero():
    proc = _run_cli("mul", "+".join(["q"] * 3000), "q")
    assert "Traceback" not in proc.stderr
    assert QSeries.from_json(json.loads(proc.stdout)) == (q_op(16, "16") ** 2).scale(3000)


def test_python_dash_m_runs_the_cli():
    proc = _run_cli("commutator", "p", "q", module="qmorse")
    assert proc.stdout == _run_cli("commutator", "p", "q").stdout
    assert _run_cli("nonsense", module="qmorse", expect=64).stdout == ""


# Fragments for the CLI fuzz: every value is cheap to act on (orders, levels,
# dims and cutoffs stay at most 3, a huge dim, order or cutoff is refused
# before any work, and a huge plane power is capped at the cutoff), so a draw
# either fails fast or runs a small job.
_SMALL_INTS = ["-2", "-1", "0", "1", "2", "3"] * 3 + ["1/2", "2.5", "x", "", "1" * 5000]
_FUZZ_EXPRS = [
    "q", "q^4", "p^2+q^2", "q^3+p^3", "ad*a", "hbar*q^2", "l1*q+q^4", "(q^2*p^2+p^2*q^2)/2",
    "q+", "q p", "(q", "$", "1/0", "q^-1", "i*sqrt2*t", "1" * 5000 + "*q",
    "+".join(["q"] * 500), "*".join(["t"] * 500), "-(" * 40 + "q" + ")" * 40,
]
_FUZZ_OPTIONS = {
    "--order": _SMALL_INTS + ["101", "100000000", "1" * 40],  # over MAX_ORDER: refused first
    "--level": _SMALL_INTS,
    "--levels": _SMALL_INTS + ["101", "100000000"],  # trace: over MAX_ORDER, refused first
    "--cutoff": _SMALL_INTS + ["101", "100000000"],  # over MAX_ORDER: refused first
    "--dim": _SMALL_INTS + ["1000000", "1" * 40],
    "--t-cap": _SMALL_INTS,
    "--weight-cap": ["auto", "0", "1/2", "3", "8", "-2", "1/3", "1/0", "x", "1" * 5000],
    "--perturbation": _FUZZ_EXPRS,
    "--symbol": _FUZZ_EXPRS + ["(q+p)^100000", "l1*(q+p)^100000"],
    "--hamiltonian": _FUZZ_EXPRS,
    "--observable": _FUZZ_EXPRS,
    "--from-spectrum": _FUZZ_EXPRS,
    "--params": ["l1", "l1,l2", "", "q", ",,"],
    "--t": ["0.1", "0", "-1", "nan", "inf", "1e308", "x"],
    "--hbar": ["1", "0.5", "0", "-1", "nan", "inf", "x"],
    "--hbar-weight": ["1", "1/2", "0", "-1", "1/0", "x"],
    "--window": ["1:3", "3:1", "0:0", "2:", "x"],
    "--coeffs": ["/nonexistent/coeffs.json", "{coeffs}"],  # {coeffs}: a malformed file
    "--inverse": None,  # flags take no value
    "--principal": None,
    "--rescale-t": None,
    "--csv": None,
}
# command: (positional expressions, required options, other options)
_CAP_OPTIONS = ("--t-cap", "--weight-cap")
_FUZZ_COMMANDS = {
    "mul": (2, (), _CAP_OPTIONS),
    "commutator": (2, (), _CAP_OPTIONS),
    "dagger": (1, (), _CAP_OPTIONS),
    "borel": (1, (), _CAP_OPTIONS + ("--inverse",)),
    "symbol": (1, (), _CAP_OPTIONS + ("--principal",)),
    "trace": (1, ("--levels",), _CAP_OPTIONS),
    "flow": (0, ("--hamiltonian", "--observable", "--order"), ("--weight-cap",)),
    "normal-form": (0, ("--perturbation", "--order"), ("--rescale-t", "--weight-cap")),
    "spectrum": (0, ("--perturbation", "--order"), ("--level", "--rescale-t", "--weight-cap")),
    "rs": (0, ("--perturbation", "--level", "--order"), ()),
    "diag": (0, ("--perturbation", "--t", "--hbar", "--dim"), ("--levels", "--csv")),
    "gevrey": (0, (), ("--from-spectrum", "--coeffs", "--level", "--hbar-weight", "--window")),
    "milnor": (0, ("--symbol", "--cutoff"), ()),
    "versal": (0, ("--symbol", "--cutoff"), ("--params",)),
    "nonsense": (0, (), ()),
}


@st.composite
def _cli_argv(draw):
    """Mostly well-formed command lines with bad values; now and then a
    missing, foreign or extra piece, or --help."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    npos, required, optional = _FUZZ_COMMANDS[command]
    npos = draw(st.sampled_from([npos] * 4 + [abs(npos - 1), npos + 1]))
    argv = [command] + [draw(st.sampled_from(_FUZZ_EXPRS)) for _ in range(npos)]
    options = [o for o in required if draw(st.integers(0, 9))]  # each dropped 1 in 10
    options += [o for o in optional if draw(st.booleans())]
    if not draw(st.integers(0, 9)):
        options.append(draw(st.sampled_from(sorted(_FUZZ_OPTIONS))))
    for option in draw(st.permutations(options)):
        values = _FUZZ_OPTIONS[option]
        argv += [option] if values is None else [option, draw(st.sampled_from(values))]
    if not draw(st.integers(0, 29)):
        argv.append("--help")
    if command == "gevrey":
        argv += ["--order", draw(st.sampled_from(_FUZZ_OPTIONS["--order"]))]  # its default, 16, is a long solve
    return argv


@pytest.fixture(scope="module")
def malformed_coeffs(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "coeffs.json"
    path.write_text('[1, 2, 1e400, "1/0", null]')
    return str(path)


@settings(max_examples=200, deadline=None)
@given(argv=_cli_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv, malformed_coeffs):
    import contextlib
    import io

    from qmorse import cli

    argv = [malformed_coeffs if a == "{coeffs}" else a for a in argv]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help (0) and usage errors (64)
            code = exc.code
    assert code in (0, 2, 3, 4, 5, 64), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--help" not in argv and "--csv" not in argv:
        _strict_json(out.getvalue())
