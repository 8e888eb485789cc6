"""Golden outputs: CLI text, records, exit codes and error messages, and the
display reports, compared byte for byte with tests/golden/cli.json.

The fixture is the reference for refactors that must not change any
output.  Regenerate it only at a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lievessiot.automorphic import GroupElement, log_deriv
from lievessiot.cli import main
from lievessiot.darboux import rotation_display_report
from lievessiot.homspace import flag_display_report, plucker_coords, riccati_display_report
from lievessiot.matrix import MatK
from lievessiot.parsing import format_matrix
from lievessiot.ratfunc import RF_ONE, RF_T, RF_ZERO, Poly, RatFunc
from lievessiot.scalars import GaussianRational

FIXTURE = Path(__file__).resolve().parent / "golden" / "cli.json"

README_COMMANDS = [
    ["riccati", "--A", "[t, 1; 0, -t]", "--m", "1"],
    ["flag", "--A", "[0, 1, 0; 0, 0, 1; t, 0, 0]"],
    ["reduce-plane", "--A", "[0, 0; 1, 0]", "--L", "[t]", "--m", "1"],
    ["reduce-flag", "--A", "[0, 0; 1, 0]", "--L", "[1, 0; t, 1]"],
    ["check", "--kind", "integral", "--a", "2*t", "--b", "t^2"],
    ["check", "--kind", "exponential", "--a", "3/(t - 1)", "--b", "(t - 1)^3"],
    ["check", "--kind", "automorphic", "--A", "[0, 1; 0, 0]", "--sigma", "[1, t; 0, 1]"],
    ["so3", "--a", "1", "--b", "t", "--c", "0", "--check-point", "2/3,2/3,1/3"],
    ["elliptic", "add", "--g2", "4", "--g3", "-4", "--P", "1,2", "--Q", "1,2"],
    ["pendulum", "--h", "2"],
]

ERROR_COMMANDS = [
    ["riccati", "--A", "[0, 1; t, 0]", "--m", "1", "--permute", "1,1"],
    ["riccati", "--A", "[t, 1; 0", "--m", "1"],
    ["reduce-plane", "--A", "[0, 0; 1, 0]", "--L", "[t, 1]", "--m", "1"],
    ["reduce-plane", "--A", "[0, 0, 1; 1, 0, 0]", "--L", "[t]", "--m", "1"],
    ["reduce-flag", "--A", "[0, 0; 1, 0]", "--L", "[1, t; 0, 1]"],
    ["reduce-flag", "--A", "[0, 0, 0; 1, 0, 0; 0, 1, 0]", "--L", "[1, 0; t, 1]"],
    ["check", "--kind", "flag", "--A", "[0, 0; 1, 0]", "--L", "[2, 0; t, 1]"],
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def display_reports():
    return {"riccati_display_report": repr(riccati_display_report()),
            "flag_display_report": repr(flag_display_report()),
            "rotation_display_report": repr(rotation_display_report())}


def generated_commands(seed=20):
    """Reductions and checks on A = l(tau) for unit-lower tau of degree 1.

    Each true input (tau itself, or the chart point of its first m
    columns) comes with a false one that adds t to a single entry.
    """
    rng = random.Random(seed)

    def unipotent(n):
        def entry(i, j):
            if i == j:
                return RF_ONE
            if i < j:
                return RF_ZERO
            return RatFunc(Poly([GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                                 for _ in range(2)]))
        return MatK(n, n, [entry(i, j) for i in range(n) for j in range(n)])

    def bumped(mat, i, j):
        entries = list(mat.entries)
        entries[i * mat.cols + j] = entries[i * mat.cols + j] + RF_T
        return MatK(mat.rows, mat.cols, entries)

    commands = []
    for n in (2, 3, 4):
        tau = unipotent(n)
        a = format_matrix(log_deriv(GroupElement(tau)).matrix)
        for flag in (tau, bumped(tau, 1, 0)):
            lam = format_matrix(flag)
            commands.append(["reduce-flag", "--A", a, "--L", lam])
            commands.append(["check", "--kind", "flag", "--A", a, "--L", lam])
        for m in range(1, n):
            commands.append(["riccati", "--A", a, "--m", str(m)])
            cols = MatK(n, m, [tau[i, j] for i in range(n) for j in range(m)])
            good = plucker_coords(cols, m).Lambda
            for plane in (good, bumped(good, 0, 0)):
                lam = format_matrix(plane)
                commands.append(["reduce-plane", "--A", a, "--L", lam, "--m", str(m)])
                commands.append(["check", "--kind", "riccati", "--A", a, "--L", lam,
                                 "--m", str(m)])
    for n in (4, 5, 6):
        tau = unipotent(n)
        commands.append(["flag", "--A", format_matrix(log_deriv(GroupElement(tau)).matrix)])
    return commands


def capture():
    runs = []
    for argv in README_COMMANDS + ERROR_COMMANDS + generated_commands():
        runs.append(run_cli(argv))
        runs.append(run_cli(argv + ["--format", "record"]))
    return {"runs": runs, "reports": display_reports()}


def test_golden_cli_outputs():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for want in golden["runs"]:
        assert run_cli(want["argv"]) == want


def test_golden_display_reports():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert display_reports() == golden["reports"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(capture(), indent=1, ensure_ascii=False) + "\n",
                       encoding="utf-8")
