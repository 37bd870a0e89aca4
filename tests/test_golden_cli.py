"""Whole CLI outputs pinned byte for byte: the stdout, stderr and exit code
of every argv in ``golden_cli.json``.

After a change that means to alter an output, rewrite the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and review its diff.
"""

import contextlib
import io
import json
import pathlib
from unittest import mock

import pytest

from qweights import identities as idn
from qweights.cli import main
from qweights.poly import QPoly
from qweights.root_system import build_root_system

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    [*argv, "--format", fmt]
    for argv in (["roots", "G2"],
                 ["qanalogue", "A2", "--lambda", "1,1", "--mu=-1,-1"],
                 ["table", "B2", "--lambda", "1,1"],
                 ["cherednik", "G2", "--max-height", "3"],
                 ["gen-exponents", "B3", "--lambda", "2,0,0"],
                 ["verify", "all", "G2"])
    for fmt in ("text", "json", "csv", "latex")
] + [
    ["table", "A2", "--lambda=-1,0"],
    ["cherednik", "A2", "--max-height=-1"],
    ["gen-exponents", "A2", "--lambda", "1,0"],
    ["verify", "little-adjoint", "A3"],
    ["verify", "minuscule", "E8"],
    ["verify", "induction", "A3", "--gamma", "1,0,0"],
    ["verify", "induction", "B3", "--alpha-index", "9"],
    ["verify", "subregular", "B3", "--alpha-index", "0"],
    ["qanalogue", "E8", "--lambda", "0,0,0,0,0,0,0,2",
     "--mu", "0,0,0,0,0,0,0,0"],
    ["verify", "all", "B2", "--lambda", "0,2"],
    ["verify", "all", "G2", "--alpha-index", "0"],
] + [["roots", name, "--format", "json"] for name in ("B3", "C3", "D4", "E6", "F4")]

# run with the q-analogue that the verifiers read one too large at -alpha_3
# of B3, a short negative root, so that the adjoint verifier fails
FAULT = ["verify", "adjoint", "B3"]


def _wrong_at_minus_alpha3():
    real = idn.lusztig_q_analogue
    target = -build_root_system("B3").simple_roots[2]

    def wrong(rs, lam, mu):
        got = real(rs, lam, mu)
        return got + QPoly.one() if mu == target else got

    return mock.patch.object(idn, "lusztig_q_analogue", wrong)


def run(argv, perturbed=False) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if perturbed:
            stack.enter_context(_wrong_at_minus_alpha3())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = main(list(argv))
    return {"argv": list(argv), "perturbed": perturbed,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _capture() -> list:
    return [run(argv) for argv in COMMANDS] + [run(FAULT, perturbed=True)]


ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_command():
    assert [(e["argv"], e["perturbed"]) for e in ENTRIES] == (
        [(argv, False) for argv in COMMANDS] + [(FAULT, True)])


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"])
                         + (" (perturbed)" if e["perturbed"] else ""))
def test_output_is_byte_identical(entry):
    assert run(entry["argv"], entry["perturbed"]) == entry


def test_fault_prints_the_failed_checks():
    fault = ENTRIES[-1]
    assert fault["exit"] == 1
    assert fault["stdout"].startswith("FAIL adjoint B3")
    assert "     check='negative root' mu=(0,1,-2)" in fault["stdout"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n")
