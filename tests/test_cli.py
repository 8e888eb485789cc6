import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievessiot.cli import main

from support import src_env


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


def test_permute_non_square_exit1(capsys):
    # the shape is checked before P A P^T, so no product the user never
    # asked for is named
    code, out, err = run_cli(capsys, "riccati", "--A", "[0, 1, 0; t, 0, 0]", "--m", "1",
                             "--permute", "1,2")
    assert (code, out) == (1, "")
    assert err == "error[DimensionMismatch]: automorphic field must be square\n"


def _diagonal(n: int) -> str:
    return "[" + "; ".join(", ".join("t" if i == j else "0" for j in range(n))
                           for i in range(n)) + "]"


def test_largest_matrix_parses(capsys):
    # 12 x 12 is the parser's bound; 13 x 13 is in test_malformed_input_exit1
    code, out, err = run_cli(capsys, "riccati", "--A", _diagonal(12), "--m", "1")
    assert code == 0 and err == "" and len(out.splitlines()) == 11


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


@pytest.mark.parametrize("m", ["0", "2", "3"])
def test_reduce_plane_bad_block_size_exit1(capsys, m):
    # m = 0, n and n + 1 for n = 2 fail on the block size, before any shape check
    code, out, err = run_cli(capsys, "reduce-plane", "--A", "[0, 0; 1, 0]",
                             "--L", "[t]", "--m", m)
    assert (code, out) == (1, "")
    assert err == f"error[BadBlockSize]: plane dimension {m} invalid for rank 2\n"


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
    (["check", "--kind", "riccati", "--A", "[0, 0; 1, 0]", "--L", "[t]"], "--m"),
    (["check", "--kind", "subalgebra", "--A", "[0, 0; 1, 0]", "--shape", "block_upper"], "--m"),
    (["check", "--kind", "subalgebra", "--A", "[0, 0; 1, 0]"], "--shape"),
    (["check", "--kind", "automorphic", "--A", "[0, 1; 0, 0]"], "--sigma"),
    (["check", "--kind", "flag", "--A", "[0, 0; 1, 0]"], "--L"),
    (["check", "--kind", "integral", "--a", "2*t"], "--b"),
    (["check", "--kind", "weierstrass", "--a", "1", "--b", "t"], "--g2, --g3"),
    (["elliptic", "add", "--g2", "4", "--g3", "-4", "--P", "1,2"], "--Q"),
    (["elliptic", "solve", "--g2", "4", "--g3", "-4", "--a", "1", "--b", "t"], "--point"),
    (["elliptic", "check", "--g2", "4", "--g3", "-4", "--a", "1"], "--b"),
])
def test_check_missing_argument_exit1(capsys, argv, missing):
    code, out, err = run_cli(capsys, *argv)
    command = " ".join(argv[:3] if argv[0] == "check" else argv[:2])
    assert code == 1 and out == ""
    assert err == f"error[ToolkitError]: {command} requires {missing}\n"


@pytest.mark.parametrize("argv, code", [
    (["elliptic", "add", "--g2", "4", "--g3", "-4", "--P", "1", "--Q", "1,2"], "ToolkitError"),
    (["riccati", "--A", "[0, 1; t, 0]", "--m", "1", "--permute", "a,b"], "ToolkitError"),
    (["riccati", "--A", "@/missing", "--m", "1"], "ToolkitError"),
    (["riccati", "--input", "/missing", "--m", "1"], "ToolkitError"),
    (["so3", "--a", "1", "--b", "t", "--c", "0", "--check-point", "1,0"], "ToolkitError"),
    (["so3", "--a", "1", "--b", "t", "--c", "0", "--check-point", "1,1,1"], "NotOnSphere"),
    (["riccati", "--A", "@{deep}", "--m", "1"], "LimitExceeded"),
    (["check", "--kind", "integral", "--a", "t^99999999", "--b", "t"], "LimitExceeded"),
    (["check", "--kind", "integral", "--a", "(((t^100)^100)^100)^100", "--b", "t"],
     "LimitExceeded"),
    (["check", "--kind", "integral", "--a", "((t+1)^100)^100", "--b", "t"], "LimitExceeded"),
    (["check", "--kind", "integral", "--a", "(t + 1/(t - 1))^100 * (t + 1/(t - 2))^100",
      "--b", "t"], "LimitExceeded"),
    (["riccati", "--A", _diagonal(13), "--m", "1"], "LimitExceeded"),
])
def test_malformed_input_exit1(capsys, tmp_path, argv, code):
    deep = tmp_path / "deep.txt"
    deep.write_text("[" + "(" * 3000 + "t" + ")" * 3000 + "]")
    argv = [arg.replace("{deep}", str(deep)) for arg in argv]
    if any("^" in arg for arg in argv):
        # an unbounded exponent hangs: run it where a timeout can stop it
        proc = subprocess.run([sys.executable, "-m", "lievessiot.cli", *argv],
                              capture_output=True, text=True, timeout=30, env=src_env())
        exit_code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        exit_code, out, err = run_cli(capsys, *argv)
    assert exit_code == 1 and out == ""
    assert err.startswith(f"error[{code}]: ") and err.count("\n") == 1


# Required and optional options of each subcommand, and values to give
# them: valid inputs and near misses; free text has no '^', so every
# exponent stays small.
_FUZZ_OPTIONS = {
    "riccati": (("--A", "--m"), ("--permute",)),
    "flag": (("--A",), ("--permute",)),
    "reduce-plane": (("--A", "--L", "--m"), ("--permute",)),
    "reduce-flag": (("--A", "--L"), ("--permute",)),
    "check": (("--kind",), ("--a", "--b", "--A", "--sigma", "--L", "--m", "--g2", "--g3",
                            "--shape")),
    "so3": (("--a", "--b", "--c"), ("--check-point", "--at")),
    "elliptic": (("--g2", "--g3"), ("--P", "--Q", "--a", "--b", "--point")),
    "pendulum": (("--h",), ()),
}
_MATRICES = ["[t]", "[0]", "[1, 0; t, 1]", "[0, 0; 1, 0]", "[0, 1; t, 0]", "[t, 1; 0, -t]",
             "[1, t; 0, 1]", "[0, 1, 0; 0, 0, 1; t, 0, 0]", "[1, 0, 0; t, 1, 0; 0, t, 1]",
             "@/missing"]
_EXPRESSIONS = ["0", "1", "2", "-4", "i", "t", "2*t", "t^2", "1/0", "3/(t - 1)", "(t - 1)^3"]
_POINTS = ["1,2", "1,-2", "-1,2", "inf", "1", "1,0", "2/3,2/3,1/3", "1,1,1", "3/5,4/5,0"]
_FUZZ_VALUES = {
    "--A": _MATRICES, "--L": _MATRICES, "--sigma": _MATRICES,
    "--m": ["0", "1", "2", "3", "-1"],
    "--permute": ["1,2", "2,1", "1,1", "a,b", "1,2,3", "3,1,2"],
    "--kind": ["integral", "exponential", "automorphic", "riccati", "flag", "weierstrass",
               "subalgebra"],
    "--shape": ["skew_symmetric", "upper_triangular", "block_upper", "trace_zero"],
    "--P": _POINTS, "--Q": _POINTS, "--point": _POINTS, "--check-point": _POINTS,
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    required, optional = _FUZZ_OPTIONS[command]
    argv = [command]
    if command == "elliptic":
        argv.append(draw(st.sampled_from(["curve", "add", "check", "solve"])))
    options = list(required) + draw(st.lists(st.sampled_from(optional), unique=True)
                                    if optional else st.just([]))
    values = [draw(st.sampled_from(_FUZZ_VALUES.get(option, _EXPRESSIONS))) for option in options]
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.text("t12i+-*/(),;[] ", max_size=12))
    for option, value in zip(options, values):
        argv += [option, value]
    if draw(st.booleans()):
        argv += ["--format", "record"]
    return argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_fuzz_argv())
def test_cli_argv_fuzz(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)


def test_input_file(tmp_path, capsys):
    path = tmp_path / "field.txt"
    path.write_text("[t, 1; 0, -t]")
    code, out, _ = run_cli(capsys, "riccati", "--m", "1", "--input", str(path))
    assert code == 0
    assert out.strip() == "x' = (-2*t)*x + (-1)*x^2"


def test_record_byte_deterministic_subprocess():
    argv = [sys.executable, "-m", "lievessiot.cli", "flag",
            "--A", "[0, 1, 0; 0, 0, 1; t, 0, 0]", "--format", "record"]
    env = src_env()
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
