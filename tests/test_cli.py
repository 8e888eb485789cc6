import json
import subprocess
import sys

import pytest

from lievessiot.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_riccati_n2_text(capsys):
    code, out, err = run_cli(capsys, "riccati", "--A", "[t, 1; 0, -t]", "--m", "1")
    assert code == 0
    assert out.strip() == "x' = (-2*t)*x + (-1)*x^2"


def test_riccati_record(capsys):
    code, out, _ = run_cli(capsys, "riccati", "--A", "[t, 1; 0, -t]", "--m", "1",
                           "--format", "record")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["equations"]["x"] == {"x": "-2*t", "x^2": "-1"}


def test_riccati_permute(capsys):
    # permuting the basis by (2 1) swaps the roles of the two rows/columns
    code, out, _ = run_cli(capsys, "riccati", "--A", "[0, 1; t, 0]", "--m", "1",
                           "--permute", "2,1")
    assert code == 0
    assert out.strip() == "x' = 1 + (-t)*x^2"


def test_bad_permute(capsys):
    code, _, err = run_cli(capsys, "riccati", "--A", "[0, 1; t, 0]", "--m", "1",
                           "--permute", "1,1")
    assert code == 1
    assert "error[" in err


def test_flag_n3(capsys):
    code, out, _ = run_cli(capsys, "flag", "--A", "[0, 1, 0; 0, 0, 1; t, 0, 0]")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x' = y + (-1)*x^2"
    assert lines[1] == "y' = t + (-1)*x*y"
    assert lines[2] == "z' = -y + x*z + (-1)*z^2"


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "--kind", "integral",
                           "--a", "2*t", "--b", "t^2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "check", "--kind", "integral",
                           "--a", "t", "--b", "t^2")
    assert code == 2 and out.strip() == "false"


def test_check_exponential(capsys):
    code, out, _ = run_cli(capsys, "check", "--kind", "exponential",
                           "--a", "3/(t - 1)", "--b", "(t - 1)^3")
    assert code == 0 and out.strip() == "true"


def test_check_automorphic(capsys):
    code, out, _ = run_cli(capsys, "check", "--kind", "automorphic",
                           "--A", "[0, 1; 0, 0]", "--sigma", "[1, t; 0, 1]")
    assert code == 0 and out.strip() == "true"


def test_reduce_plane_solution(capsys):
    # A = l(tau) for tau = [[1, 0], [t, 1]]; Lambda = [t] solves the Riccati
    code, out, _ = run_cli(capsys, "reduce-plane", "--A", "[0, 0; 1, 0]",
                           "--L", "[t]", "--m", "1")
    assert code == 0
    assert "solution: yes" in out


def test_reduce_plane_nonsolution_exit2(capsys):
    code, out, _ = run_cli(capsys, "reduce-plane", "--A", "[0, 1; 1, 0]",
                           "--L", "[t]", "--m", "1")
    assert code == 2
    assert "solution: NO" in out


def test_reduce_flag(capsys):
    code, out, _ = run_cli(capsys, "reduce-flag", "--A", "[0, 0; 1, 0]",
                           "--L", "[1, 0; t, 1]")
    assert code == 0
    assert "solution: yes" in out


def test_so3(capsys):
    code, out, _ = run_cli(capsys, "so3", "--a", "1", "--b", "t", "--c", "0")
    assert code == 0
    assert out.strip() == "x' = -1/2*t + (-i)*x + (-1/2*t)*x^2"


def test_so3_pushforward(capsys):
    code, out, _ = run_cli(capsys, "so3", "--a", "1", "--b", "t", "--c", "0",
                           "--check-point", "2/3,2/3,1/3")
    assert code == 0
    assert "OK" in out


def test_elliptic_add(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "add", "--g2", "4", "--g3", "-4",
                           "--P", "1,2", "--Q", "1,2")
    assert code == 0
    assert out.strip() == "-1, 2"


def test_elliptic_add_inverse_gives_infinity(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "add", "--g2", "4", "--g3", "-4",
                           "--P", "1,2", "--Q", "1,-2")
    assert code == 0
    assert out.strip() == "inf"


def test_elliptic_curve_report(capsys):
    code, out, _ = run_cli(capsys, "elliptic", "curve", "--g2", "4", "--g3", "-4")
    assert code == 0
    assert "discriminant: -368" in out


def test_elliptic_singular_curve_error(capsys):
    code, _, err = run_cli(capsys, "elliptic", "curve", "--g2", "3", "--g3", "1")
    assert code == 1
    assert "error[SingularCurve]" in err


def test_pendulum(capsys):
    code, out, _ = run_cli(capsys, "pendulum", "--h", "2")
    assert code == 0
    assert "g2 = 4/3" in out
    assert "g3 = 155/432" in out
    assert "audit OK" in out


def test_pendulum_degenerate(capsys):
    code, _, err = run_cli(capsys, "pendulum", "--h", "1")
    assert code == 1
    assert "error[DegenerateEnergy]" in err


def test_syntax_error_exit1(capsys):
    code, _, err = run_cli(capsys, "riccati", "--A", "[bogus", "--m", "1")
    assert code == 1
    assert "error[SyntaxError]" in err


@pytest.mark.parametrize("argv, missing", [
    (["--kind", "riccati", "--A", "[0, 0; 1, 0]", "--L", "[t]"], "--m"),
    (["--kind", "subalgebra", "--A", "[0, 0; 1, 0]", "--shape", "block_upper"], "--m"),
    (["--kind", "subalgebra", "--A", "[0, 0; 1, 0]"], "--shape"),
    (["--kind", "automorphic", "--A", "[0, 1; 0, 0]"], "--sigma"),
    (["--kind", "flag", "--A", "[0, 0; 1, 0]"], "--L"),
    (["--kind", "integral", "--a", "2*t"], "--b"),
    (["--kind", "weierstrass", "--a", "1", "--b", "t"], "--g2, --g3"),
])
def test_check_missing_argument_exit1(capsys, argv, missing):
    code, out, err = run_cli(capsys, "check", *argv)
    assert code == 1 and out == ""
    assert err == f"error[ToolkitError]: check {argv[0]} {argv[1]} requires {missing}\n"


def test_input_file(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("[t, 1; 0, -t]")
    code, out, _ = run_cli(capsys, "riccati", "--m", "1", "--input", str(path))
    assert code == 0
    assert out.strip() == "x' = (-2*t)*x + (-1)*x^2"


def test_record_byte_deterministic_subprocess():
    argv = [sys.executable, "-m", "lievessiot.cli", "flag",
            "--A", "[0, 1, 0; 0, 0, 1; t, 0, 0]", "--format", "record"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
