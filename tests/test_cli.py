"""The command-line interface: each command, determinism, and error paths."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import koszulkit
from koszulkit.cli import main
from koszulkit.parse import ParseError, parse_poly, parse_polys, parse_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ideal_file(tmp_path):
    p = tmp_path / "two_planes.ideal"
    p.write_text("ring F32003 [x,y,z,w]\nideal: x*z, x*w, y*z, y*w\n")
    return str(p)


def test_gb_command(capsys, ideal_file):
    code, out, _ = run_cli(capsys, "gb", "--ideal", ideal_file)
    assert code == 0
    assert "quadratic: True" in out


def test_gb_with_permutation(capsys, tmp_path):
    p = tmp_path / "one_syzygy.ideal"
    p.write_text("ring F32003 [a3,b3,b4,a4,x,y,z]\nideal: x*z, y*z, a3*x+b3*y, a4*x+b4*y\n")
    code, out, _ = run_cli(
        capsys, "gb", "--ideal", str(p), "--order", "deglex",
        "--perm", "a3,b3,b4,a4,x,y,z", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["quadratic"] is True and len(rec["basis"]) == 4


def test_hilbert_command_json(capsys, ideal_file):
    code, out, _ = run_cli(capsys, "hilbert", "--ideal", ideal_file, "--format", "json")
    rec = json.loads(out)
    assert rec["codim"] == 2 and rec["multiplicity"] == 2


def test_res_command(capsys, ideal_file):
    code, out, _ = run_cli(capsys, "res", "--ideal", ideal_file)
    assert code == 0
    assert "--" in out  # zero entries rendered per the table convention


def test_classify_command(capsys, ideal_file):
    code, out, _ = run_cli(capsys, "classify", "--ideal", ideal_file, "--format", "json")
    rec = json.loads(out)
    assert rec["matched_case"] == "2i" and rec["verdict"] == "certified-Koszul"


def test_classify_rejects_five_quadrics(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--ring", "ring F32003 [x,y,z,w]",
        "--gens", "x*y, x*w, (x-y)*z, z^2, x^2+z*w",
    )
    assert code == 2
    assert "5" in err


def test_koszul_command(capsys):
    code, out, _ = run_cli(
        capsys, "koszul", "--ring", "ring F32003 [x,y,a,b]",
        "--gens", "b*x, x*y, a*x-b*y, x^2-y^2", "--bound", "6", "--format", "json",
    )
    rec = json.loads(out)
    assert rec["verdict"] == "nonlinear-at"


def test_gen_and_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "w.ideal"
    code, out, _ = run_cli(capsys, "gen", "--form", "2iii", "--seed", "3", "-o", str(out_file))
    assert code == 0
    code2, out2, _ = run_cli(capsys, "classify", "--ideal", str(out_file), "--format", "json")
    rec = json.loads(out2)
    assert rec["matched_case"] == "2iii"


def test_gen_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "--form", "2iv-d", "--seed", "9", "--format", "json")
    _, out2, _ = run_cli(capsys, "gen", "--form", "2iv-d", "--seed", "9", "--format", "json")
    assert out1 == out2


def test_appendix_command(capsys):
    code, out, _ = run_cli(capsys, "appendix", "--char", "F2")
    assert code == 0
    assert "hom 4" in out and "pass" in out


def test_gq_search_command(capsys, ideal_file):
    code, out, _ = run_cli(
        capsys, "gq-search", "--ideal", ideal_file, "--trials", "1", "--format", "json"
    )
    rec = json.loads(out)
    assert rec["found"] is True


def test_error_on_missing_input(capsys):
    code, _, err = run_cli(capsys, "gb")
    assert code == 2 and "error" in err


def test_repro_single_check(capsys):
    code, out, _ = run_cli(capsys, "repro-paper", "--only", "five-quadric-example-betti")
    assert code == 0
    assert "[PASS]" in out and "1/1" in out


def test_unreadable_ideal_file_is_an_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "res", "--ideal", str(tmp_path / "missing.ideal"))
    assert code == 2 and err.startswith("error: ") and "missing.ideal" in err


@pytest.mark.parametrize("argv", [
    ("koszul", "--bound", "-1"),
    ("classify", "--bound", "-1"),
    ("res", "--maxdeg", "-2"),
])
def test_negative_bounds_are_rejected(capsys, ideal_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--ideal", ideal_file])
    assert exc.value.code == 2
    assert f"error: argument {argv[1]}: must be nonnegative" in capsys.readouterr().err


def test_zero_maxdeg_is_accepted(capsys, ideal_file):
    code, out, _ = run_cli(capsys, "res", "--ideal", ideal_file, "--maxdeg", "0", "--format", "json")
    assert code == 0 and json.loads(out)["ranks"] == [1, 4]


@pytest.mark.parametrize("decl,gens", [
    ("ring F4 [x,y]", "x^2"),
    ("ring Fp101 [x,y]", "x^2"),
    ("ring F7 [x:(1,a),y:(0,1)]", "x^2"),
    ("ring QQ [x,y]", "1/0*x^2"),
    ("ring F7 [x,y]", "1/7*x^2"),
    ("ring F7 [x,x]", "x^2"),
    ("ring F7 [x:(1,0),y:(0,0)]", "x^2"),
    ("ring F7 [x,y]", "(x+y)^40000"),
    ("ring F7 [x,y,z]", "(x+y+z)^44"),
    ("ring F32003 [x,y,z]", "(x+y+z)^43*(x+y+z)^43"),
    ("ring F32003 [x,y,z]", "(x+y+z)^43*(x+y+z)^43*(x+y+z)^43"),
])
def test_malformed_text_is_a_parse_error(capsys, decl, gens):
    with pytest.raises(ParseError):
        parse_polys(parse_ring(decl), gens)
    code, _, err = run_cli(capsys, "hilbert", "--ring", decl, "--gens", gens)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


def test_a_power_past_the_term_bound_is_refused_before_it_is_expanded(capsys):
    """(x+y)^16000 fits the packed degree fields but has 16001 terms, past
    the parser's bound of 1000: refused at once (expanding it ran for
    minutes).  Powers within the bound still parse: (x+y+z)^43 has 990
    terms, and a power of one term has one."""
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "hilbert", "--ring", "ring F32003 [x,y]", "--gens", "(x+y)^16000")
    assert code == 2 and "more than 1000 terms" in err and time.perf_counter() - start < 2
    R = parse_ring("ring F32003 [x,y,z]")
    assert len(parse_poly(R, "(x+y)^3").terms) == 4
    assert len(parse_poly(R, "(x+y+z)^43").terms) == 990
    assert parse_poly(R, "x^20000").terms == {(20000, 0, 0): 1}


def test_a_product_past_the_pair_bound_is_refused_before_it_is_multiplied(capsys):
    """Two factors of 990 terms each pass the power bound, but their product
    multiplies 980100 pairs of terms, past the bound of 10^5: refused at the
    first operator, explicit or implicit (multiplying ran for seconds, and
    every further factor multiplied the cost).  A product of 99990 pairs
    still parses."""
    for gens in ("(x+y+z)^43*(x+y+z)^43", "(x+y+z)^43 (x+y+z)^43*(x+y+z)^43"):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "hilbert", "--ring", "ring F32003 [x,y,z]", "--gens", gens)
        assert code == 2 and "more than 100000 pairs of terms at line 1, column 11" in err
        assert time.perf_counter() - start < 1
    R = parse_ring("ring F32003 [x,y,z]")
    assert len(parse_poly(R, "(x+y+z)^43*(x+y)^100").terms) == 5390


@pytest.mark.parametrize("command", ["gb", "hilbert", "res"])
def test_packed_field_overflow_is_out_of_scope_input(capsys, command):
    code, _, err = run_cli(capsys, command, "--ring", "ring F7 [x,y]", "--gens", "x^40000")
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gen", "--form", "2ii", "--field", "F15"),
    ("gen", "--form", "2ii", "--field", "Fp:abc"),
    ("appendix", "--char", "F15"),
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin on the bases 2 .. 37
    ("gb", "--ring", "ring Fp:318665857834031151167461 [x,y]", "--gens", "399165290221*x + y, 798330580441*x"),
], ids=["gen-F15", "gen-Fp:abc", "appendix-F15", "gb-psi12"])
def test_unknown_field_is_an_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err


INHOMOGENEOUS_ERRORS = {
    "hilbert": "error: Hilbert series need homogeneous input",
    "res": "error: minimal resolutions need homogeneous input",
    "classify": "error: classification expects a nondegenerate ideal generated by homogeneous quadrics; "
                "x^2 + y is not a homogeneous quadric",
}


@pytest.mark.parametrize("command", sorted(INHOMOGENEOUS_ERRORS))
def test_inhomogeneous_input_is_out_of_scope(capsys, command):
    code, out, err = run_cli(capsys, command, "--ring", "ring F7 [x,y]", "--gens", "x^2+y")
    assert code == 2 and not out and err.strip() == INHOMOGENEOUS_ERRORS[command]


F7_XY = ("--ring", "ring F7 [x,y]")

OUT_OF_SCOPE_COMMANDS = {
    "gen-nvars-negative": ("gen", "--form", "2iii", "--nvars", "-1"),
    "gen-nvars-zero": ("gen", "--form", "2iii", "--nvars", "0"),
    "gq-search-trials-negative": ("gq-search", *F7_XY, "--gens", "x^2", "--trials", "-3"),
    "gq-search-perms-zero": ("gq-search", *F7_XY, "--gens", "x^2", "--perms", "0"),
    "huge-power-of-a-sum": ("hilbert", *F7_XY, "--gens", "(x+y)^40000"),
    "power-of-a-sum-past-the-term-bound": ("hilbert", "--ring", "ring F32003 [x,y]", "--gens", "(x+y)^16000"),
    "huge-power": ("hilbert", *F7_XY, "--gens", "x^40000"),
    "product-past-the-pair-bound": ("hilbert", "--ring", "ring F32003 [x,y,z]", "--gens", "(x+y+z)^43*(x+y+z)^43"),
    "three-factor-product": ("hilbert", "--ring", "ring F32003 [x,y,z]", "--gens",
                             "(x+y+z)^43*(x+y+z)^43*(x+y+z)^43"),
    "ring-F4": ("hilbert", "--ring", "ring F4 [x,y,z]", "--gens", "x^2"),
    "zero-denominator": ("hilbert", "--ring", "ring QQ [x,y,z]", "--gens", "1/0*x*z"),
    "gen-F15": ("gen", "--form", "2ii", "--field", "F15"),
    "inhomogeneous": ("hilbert", *F7_XY, "--gens", "x^2+y"),
}


@pytest.mark.parametrize("argv", OUT_OF_SCOPE_COMMANDS.values(), ids=OUT_OF_SCOPE_COMMANDS.keys())
def test_out_of_scope_input_exits_2_in_a_fresh_process(argv):
    """The command line in a fresh interpreter on out-of-scope input: exit
    code 2 and an `error: ` report with no traceback, well inside the
    timeout (a negative --nvars and a huge power of a sum once ran forever)."""
    src = str(Path(koszulkit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "koszulkit.cli", *argv], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2 and proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
