"""Command-line interface: output formats, determinism, exit codes."""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from math import comb, prod

import pytest

import qweights
from qweights import cli, lusztig, qkostant, root_system
from qweights import identities as idn
from qweights.cli import main
from qweights.lusztig import clear_caches
from qweights.poly import QPoly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_back_rows(name, lam, out):
    # each row of a `table --format json` reads back as a mapping of int
    # coefficients, the one way the README gives, to the polynomial the
    # library answers and to the row's text; the count of rows is returned
    rs = root_system.build_root_system(name)
    lam = root_system.Weight(lam)
    rows = json.loads(out)["rows"]
    for row in rows:
        poly = QPoly({e: int(c) for e, c in row["poly"]})
        mu = root_system.Weight(tuple(row["weight"]))
        assert poly == lusztig.lusztig_q_analogue(rs, lam, mu)
        assert str(poly) == row["text"]
    return len(rows)


class TestQAnalogue:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "qanalogue", "A2", "--lambda", "1,1",
                           "--mu", "0,0")
        assert code == 0
        assert out == "1*q^1 + 1*q^2\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "qanalogue", "G2", "--lambda", "1,0",
                           "--mu", "0,0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"root_system": "G2", "lambda": [1, 0], "mu": [0, 0],
                           "poly": [[3, "1"]], "text": "1*q^3"}

    def test_json_deterministic(self, capsys):
        args = ("table", "B2", "--lambda", "0,2", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert read_back_rows("B2", (0, 2), out1) == 9

    @pytest.mark.parametrize("name, lam, count", [
        ("A2", "1,1", 7), ("G2", "1,1", 31), ("A3", "1,0,1", 13),
        ("B3", "1,0,1", 32), ("C3", "0,1,1", 62)])
    def test_json_rows_read_back(self, capsys, name, lam, count):
        code, out, _ = run(capsys, "table", name, "--lambda", lam, "--format", "json")
        assert code == 0
        assert read_back_rows(name, tuple(map(int, lam.split(","))), out) == count

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "qanalogue", "A2", "--lambda", "1,1",
                           "--mu=-1,-1", "--format", "latex")
        assert code == 0
        assert out == "$-q^{2} + q^{3} + q^{4}$\n"

    def test_huge_coordinate_is_a_usage_error(self, capsys):
        # the degree of the sum does not fit an index, so no table is built
        code, out, err = run(capsys, "qanalogue", "A2", "--lambda",
                             "99999999999999999999,0", "--mu", "0,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: input too large")

    def test_table_over_the_cell_budget_is_a_usage_error(self, capsys):
        # the box of 2*theta in E8 has 14,189,175 cells: refused from the
        # bound alone, before the orbit walk or any allocation
        clear_caches()
        t0 = time.perf_counter()
        code, out, err = run(capsys, "qanalogue", "E8",
                             "--lambda", "0,0,0,0,0,0,0,2", "--mu", "0,0,0,0,0,0,0,0")
        assert time.perf_counter() - t0 < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: input too large")
        assert "14,189,175 cells" in err
        assert f"budget of {qkostant.MAX_TABLE_CELLS:,}" in err
        assert qkostant.q_partition_cache_stats() == (0, 0)


class TestTable:
    def test_row_count_and_content(self, capsys):
        code, out, _ = run(capsys, "table", "A2", "--lambda", "1,1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 7
        zero_row = [r for r in payload["rows"] if r["weight"] == [0, 0]][0]
        assert zero_row["multiplicity"] == 2
        assert zero_row["text"] == "1*q^1 + 1*q^2"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "A2", "--lambda", "1,0",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "weight,multiplicity,q-analogue"
        assert len(lines) == 4

    def test_latex_table(self, capsys):
        code, out, _ = run(capsys, "table", "A2", "--lambda", "1,0",
                           "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{tabular}")
        assert "\\end{tabular}" in out

    def test_rejects_non_dominant(self, capsys):
        code, _, err = run(capsys, "table", "A2", "--lambda=-1,0")
        assert code == 2
        assert "dominant" in err

    def test_builds_one_kernel_table(self, capsys, monkeypatch):
        # rows are computed lowest weight first, and the box of lam - w0(lam)
        # = 2*lam = 4*theta holds every argument of every row
        builds = []
        build = qkostant.PartitionEngine._build
        monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                            lambda eng, bound: builds.append(bound) or build(eng, bound))
        clear_caches()
        code, out, _ = run(capsys, "table", "F4", "--lambda", "2,0,0,0")
        assert code == 0
        assert len(out.splitlines()) > 100
        assert builds == [(8, 12, 16, 8)]


class TestOneFormat:
    """Each format makes only its own output: no JSON payload for text, CSV
    or LaTeX, and no table row for JSON."""

    COMMANDS = [["roots", "B3"], ["table", "B2", "--lambda", "1,1"],
                ["cherednik", "G2", "--max-height", "3"]]

    @staticmethod
    def refuse(*args):
        raise AssertionError("made the output of another format")

    @pytest.mark.parametrize("argv", COMMANDS)
    @pytest.mark.parametrize("fmt", ["text", "csv", "latex"])
    def test_rows_make_no_payload(self, capsys, monkeypatch, argv, fmt):
        monkeypatch.setattr(QPoly, "json_pairs", self.refuse)
        monkeypatch.setattr(cli, "_json", self.refuse)
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_payload_makes_no_rows(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_poly_cell", self.refuse)
        monkeypatch.setattr(cli, "_render", self.refuse)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)


class TestRefusedBeforeTheWork:
    """Work sized from the input alone is refused before it is done."""

    @pytest.mark.parametrize("name,lam,box,cells", [
        # the character has 219,529 weights
        ("F4", "2,2,2,2", (32, 60, 84, 44), 7_699_725),
        # the character has 3,207,121 weights, over the orbit-point budget too
        ("E8", "0,0,0,1,0,0,0,0", (20, 30, 40, 60, 48, 36, 24, 12), 959_347_272_975),
    ])
    def test_table_over_the_cell_budget(self, capsys, monkeypatch, name, lam, box, cells):
        # lam's module box lam - w0(lam) holds every row, and its cells are
        # counted from lam alone
        def no_character(rs, lam):
            raise AssertionError("walked the character")

        for module in (cli, lusztig):
            monkeypatch.setattr(module, "character", no_character)
        clear_caches()
        start = time.perf_counter()
        code, out, err = run(capsys, "table", name, "--lambda", lam)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (f"error: input too large: the partition table for the box {box} "
                       f"needs {cells:,} cells, over the budget of 1,000,000\n")

    def test_gen_exponents_over_the_budget(self, capsys, monkeypatch):
        # B3 (2,0,0) has three exponents, 2 4 6, counted before the list is made
        cli.build_root_system("B3")  # built before the budget is cut

        def no_list(poly):
            raise AssertionError("made the exponent list")

        monkeypatch.setattr(QPoly, "exponent_multiset", no_list)
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 2)
        code, out, err = run(capsys, "gen-exponents", "B3", "--lambda", "2,0,0")
        assert code == 2 and out == ""
        assert err == ("error: input too large: the exponent multiset of (2,0,0) "
                       "reaches 3 points, over the budget of 2 orbit points\n")

    def test_huge_type(self, capsys, monkeypatch):
        # rank times the positive roots, 1000 * 500,500, from the closed form
        def no_roots(cartan):
            raise AssertionError("built the positive roots")

        monkeypatch.setattr(root_system, "_positive_roots", no_roots)
        start = time.perf_counter()
        code, out, err = run(capsys, "roots", "A1000")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("error: input too large: A1000, 500,500 positive roots of rank "
                       "1000, reaches 500,500,000 points, over the budget of 500,000 "
                       "orbit points\n")


class TestRootsAndExponents:
    def test_roots_json(self, capsys):
        code, out, _ = run(capsys, "roots", "G2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exponents"] == [1, 5]
        assert payload["coxeter_number"] == 6
        assert len(payload["positive_roots"]) == 6
        assert payload["positive_roots"][-1]["root_coords"] == [3, 2]

    def test_gen_exponents(self, capsys):
        code, out, _ = run(capsys, "gen-exponents", "G2", "--lambda", "0,1")
        assert code == 0
        assert out == "1 5\n"
        code, out, _ = run(capsys, "gen-exponents", "B3", "--lambda", "2,0,0",
                           "--format", "json")
        assert json.loads(out)["exponents"] == [2, 4, 6]

    def test_gen_exponents_needs_root_lattice(self, capsys):
        code, _, err = run(capsys, "gen-exponents", "A2", "--lambda", "1,0")
        assert code == 2


class TestCherednik:
    def test_closed_form_rows(self, capsys):
        code, out, _ = run(capsys, "cherednik", "A2", "--max-height", "3",
                           "--format", "json")
        assert code == 0
        rows = {tuple(r["root_coords"]): r for r in json.loads(out)["rows"]}
        assert rows[(0, 0)]["text"] == "1*q^0"
        assert rows[(1, 1)]["is_root"] is True
        assert rows[(1, 1)]["text"] == "-1*q^1 + 1*q^2"
        assert rows[(2, 1)]["is_root"] is False
        assert rows[(2, 1)]["text"] == "1*q^0 + -1*q^1 + -1*q^2 + 1*q^3"

    def test_negative_bound(self, capsys):
        code, _, err = run(capsys, "cherednik", "A2", "--max-height", "-1")
        assert code == 2

    @pytest.mark.parametrize("rank,bound", [(1, 0), (1, 7), (2, 5), (3, 4), (4, 3)])
    def test_cone_count(self, rank, bound):
        # the rows are the points of the cone, C(bound + rank, rank) of them
        assert len(list(cli._iter_cone(rank, bound))) == comb(bound + rank, rank)

    @pytest.mark.parametrize("name,bound", [("A1", 100_000_000), ("A2", 1000)])
    def test_refused_before_it_enumerates(self, capsys, monkeypatch, name, bound):
        # 10^8 + 1 and 501,501 rows, over the budget of 500,000
        def no_cone(rank, bound):
            raise AssertionError("enumerated the cone")

        monkeypatch.setattr(cli, "_iter_cone", no_cone)
        start = time.perf_counter()
        code, out, err = run(capsys, "cherednik", name, "--max-height", str(bound))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: input too large: the cone up to height")

    @pytest.mark.parametrize("name,rank,bound", [("A2", 2, 80), ("D5", 5, 10)])
    def test_builds_one_table(self, capsys, monkeypatch, name, rank, bound):
        # the corner (bound, ..., bound) is read first, and its box holds
        # every point of the cone
        builds = []
        build = qkostant.PartitionEngine._build
        monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                            lambda eng, box: builds.append(box) or build(eng, box))
        clear_caches()
        code, out, _ = run(capsys, "cherednik", name, "--max-height", str(bound),
                           "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + comb(bound + rank, rank)
        assert builds == [(bound,) * rank]

    def test_e8_height_5_is_not_refused(self, monkeypatch):
        # its 1,287 rows fit the budget; the cone is reached, not computed
        class Reached(Exception):
            pass

        def reached(rank, bound):
            raise Reached((rank, bound))

        assert comb(5 + 8, 8) == 1287
        monkeypatch.setattr(cli, "_iter_cone", reached)
        with pytest.raises(Reached, match=r"\(8, 5\)"):
            main(["cherednik", "E8", "--max-height", "5"])


# the flags each identity of ``verify NAME`` reads; every other flag is
# refused.  A value for each flag, valid on B2
READS = {"adjoint": (), "little-adjoint": (), "coxeter": (),
         "main": ("--lambda", "--gamma"), "minuscule": ("--lambda",),
         "height-duality": ("--lambda",),
         "induction": ("--lambda", "--gamma", "--alpha-index"),
         "subregular": ("--lambda", "--alpha-index")}
FLAGS = {"--lambda": "0,2", "--gamma": "0,-1", "--alpha-index": "1"}


class TestVerify:
    def test_all_g2(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "G2")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        names = {line.split()[1] for line in lines}
        # minuscule is skipped (G2 has none); little-adjoint runs
        assert "little-adjoint" in names
        assert "minuscule" not in names

    @pytest.mark.parametrize("name,count,cells", [
        ("G2", 5, 196), ("B3", 7, 291), ("C3", 7, 321), ("A4", 10, 411),
        ("D4", 10, 595), ("B4", 7, 1_092), ("C4", 7, 1_450), ("A5", 11, 1_343),
        ("F4", 5, 4_440), ("D5", 9, 2_755), ("E6", 7, 28_531),
    ])
    def test_all_builds_few_tables(self, capsys, monkeypatch, name, count, cells):
        # each verifier's first read is the weight whose box holds every
        # read it makes, so `verify all` from cleared caches builds these
        # tables and cells; without the callers' lowest-weight-first reads
        # a module built up to 67 tables where one sufficed
        builds = []
        build = qkostant.PartitionEngine._build
        monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                            lambda eng, box: builds.append(box) or build(eng, box))
        clear_caches()
        assert run(capsys, "verify", "all", name)[0] == 0
        assert (len(builds), sum(prod(b + 1 for b in box) for box in builds)) == (count, cells)

    def test_all_a3_includes_minuscule_skips_little(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "A3")
        assert code == 0
        names = [line.split()[1] for line in out.strip().splitlines()]
        assert "minuscule" in names
        assert "little-adjoint" not in names

    def test_single_identity_json(self, capsys):
        code, out, _ = run(capsys, "verify", "main", "B2", "--lambda", "0,2",
                           "--gamma", "1,0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "pass"
        assert payload[0]["inputs"]["lambda"] == [0, 2]

    def test_usage_errors(self, capsys):
        assert run(capsys, "verify", "little-adjoint", "A2")[0] == 2
        assert run(capsys, "verify", "minuscule", "G2")[0] == 2
        assert run(capsys, "qanalogue", "A2", "--lambda", "1,x",
                   "--mu", "0,0")[0] == 2
        assert run(capsys, "qanalogue", "A2", "--lambda", "1,1,1",
                   "--mu", "0,0")[0] == 2
        assert run(capsys, "roots", "H3")[0] == 2

    @pytest.mark.parametrize("flag,value", [("--lambda", "0,2"), ("--gamma", "0,-1"),
                                            ("--alpha-index", "0")])
    def test_all_refuses_per_identity_flags(self, capsys, monkeypatch, flag, value):
        # refused before any identity runs
        for name in [n for n in dir(idn) if n.startswith("verify_")]:
            monkeypatch.setattr(idn, name, None)
        code, out, err = run(capsys, "verify", "all", "B2", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: {flag} applies to one identity, not to all\n"

    def test_reads_names_every_identity(self):
        assert sorted(READS) == sorted(cli.IDENTITIES)

    @pytest.mark.parametrize("name,flag", [(name, flag) for name, reads in READS.items()
                                           for flag in FLAGS if flag not in reads])
    def test_one_identity_refuses_a_flag_it_does_not_read(self, capsys, monkeypatch,
                                                          name, flag):
        # refused before the identity runs
        for verifier in [n for n in dir(idn) if n.startswith("verify_")]:
            monkeypatch.setattr(idn, verifier, None)
        code, out, err = run(capsys, "verify", name, "B2", flag, FLAGS[flag])
        assert code == 2 and out == ""
        assert err == f"error: {flag} does not apply to {name}\n"

    @pytest.mark.parametrize("name", [name for name, reads in READS.items() if reads])
    def test_the_flags_an_identity_reads_still_work(self, capsys, name):
        # each flag set to the value the identity takes by default answers
        # as the run without it does
        rs = root_system.build_root_system("B2")
        theta, theta_s = rs.theta.coords, rs.theta_s.coords
        defaults = {
            "main": {"--lambda": theta, "--gamma": theta_s},
            "minuscule": {"--lambda": (0, 1)},
            "height-duality": {"--lambda": theta},
            "induction": {"--lambda": theta, "--gamma": (-rs.theta).coords,
                          "--alpha-index": 1},
            "subregular": {"--lambda": theta_s, "--alpha-index": 1},
        }[name]
        assert sorted(defaults) == sorted(READS[name])
        code, plain, _ = run(capsys, "verify", name, "B2")
        assert code == 0 and plain.startswith(f"PASS {name} B2")
        flags = [f"{flag}={value if type(value) is int else ','.join(map(str, value))}"
                 for flag, value in defaults.items()]
        assert run(capsys, "verify", name, "B2", *flags) == (0, plain, "")

    def test_verify_alpha_index(self, capsys):
        code, out, _ = run(capsys, "verify", "subregular", "C3",
                           "--lambda", "2,0,0", "--alpha-index", "1")
        assert code == 0
        assert out.startswith("PASS subregular C3")

    def test_verifiers_are_looked_up_when_run(self, capsys, monkeypatch):
        # a wrapper set on identities after import (as the benchmark tracer
        # sets one) is the verifier that the CLI calls
        called = []
        for name in [n for n in dir(idn) if n.startswith("verify_")]:
            def wrapper(*a, _name=name, _real=getattr(idn, name)):
                called.append(_name)
                return _real(*a)
            monkeypatch.setattr(idn, name, wrapper)
        assert run(capsys, "verify", "all", "G2")[0] == 0
        assert run(capsys, "verify", "minuscule", "A3")[0] == 0
        assert sorted(set(called)) == sorted(n for n in dir(idn)
                                             if n.startswith("verify_"))
        assert len(called) == 7 + 3

    @pytest.mark.parametrize("which", ["induction", "subregular"])
    @pytest.mark.parametrize("index", ["9", "-1"])
    def test_alpha_index_out_of_range(self, capsys, which, index):
        code, _, err = run(capsys, "verify", which, "B3", "--alpha-index", index)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestVerifyAllReportsWhatItCan:
    """Under ``verify all`` an identity refused for its budget is reported
    REFUSED with its error, and the others still run.  B2 under a budget of
    10 cells refuses adjoint, main and induction, whose tables need more."""

    REFUSED = ("adjoint", "main", "induction")

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(qkostant, "MAX_TABLE_CELLS", 10)
        clear_caches()
        yield
        clear_caches()

    def test_text(self, capsys):
        code, out, err = run(capsys, "verify", "all", "B2")
        assert code == 2 and err == ""
        lines = out.splitlines()
        heads = [line.split()[:2] for line in lines if not line.startswith(" ")]
        assert heads == [["REFUSED" if name in self.REFUSED else "PASS", name]
                         for name in cli.IDENTITIES]
        for name in self.REFUSED:
            at = lines.index(f"REFUSED {name} B2")
            assert lines[at + 1].startswith("     input too large: the partition table")
            assert lines[at + 1].endswith("over the budget of 10")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "B2", "--format", "json")
        assert code == 2
        payload = json.loads(out)
        refused = [r for r in payload if r["status"] == "refused"]
        assert [r["identity"] for r in refused] == list(self.REFUSED)
        for r in refused:
            assert r["root_system"] == "B2" and r["inputs"] == {} and r["failures"] == []
            assert r["details"]["error"].startswith("input too large: the partition table")
        assert all(r["status"] == "pass" for r in payload if r not in refused)

    def test_a_failure_outranks_a_refusal(self, capsys, monkeypatch):
        # the little-adjoint verifier reads a q-analogue one too large at
        # -alpha_2, a short negative root of B2
        real = idn.lusztig_q_analogue
        target = -root_system.build_root_system("B2").simple_roots[1]
        monkeypatch.setattr(idn, "lusztig_q_analogue", lambda rs, lam, mu: (
            real(rs, lam, mu) + QPoly.one() if mu == target else real(rs, lam, mu)))
        code, out, _ = run(capsys, "verify", "all", "B2")
        assert code == 1
        assert "FAIL little-adjoint B2" in out.splitlines()
        assert out.count("REFUSED ") == 3

    def test_one_identity_keeps_its_error(self, capsys):
        code, out, err = run(capsys, "verify", "adjoint", "B2")
        assert code == 2 and out == ""
        assert err.startswith("error: input too large: the partition table")


class TestGuardsAndBackend:
    def test_e8_roots_without_a_flag(self, capsys):
        code, out, _ = run(capsys, "roots", "E8", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["positive_roots"]) == 120

    def test_unsafe_flag_is_rejected(self, capsys):
        # the flag that lifted the retired Weyl-order guard, spelled in two
        # parts so that a search for it finds no live use
        flag = "--unsafe-" + "large-rank"
        assert run(capsys, "roots", "E8", flag) == (2, "", f"error: unknown flag {flag}\n")

    def test_verify_coxeter_e8(self, capsys):
        code, out, _ = run(capsys, "verify", "coxeter", "E8")
        assert code == 0
        assert out.startswith("PASS coxeter E8")

    def test_table_over_the_orbit_budget_is_a_usage_error(self, capsys, monkeypatch):
        # the orbit of (2,2) has 6 points
        clear_caches()
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 5)
        code, out, err = run(capsys, "table", "A2", "--lambda", "2,2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: input too large")
        assert "budget of 5 orbit points" in err
        assert "Traceback" not in err

    def test_backend(self, capsys):
        # the subcommand is gone (the kernel is always the pure one); it is
        # refused as a usage error that names it
        code, out, err = run(capsys, "backend")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'backend'" in err


class TestCommandLine:
    """One table, ``cli.COMMANDS`` with ``cli.FLAGS``, says what each command
    takes; ``main`` reads the line against it and returns 2 on a malformed
    one, never raising SystemExit."""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--help"],
                                      ["qanalogue", "A2", "--lambda", "1,1", "-h"], ["bogus", "-h"]])
    def test_help_lists_every_command_identity_and_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        words = set(out.replace(",", " ").replace("[", " ").replace("]", " ").split())
        names = [*cli.COMMANDS, *cli.IDENTITIES, "all", *cli.FLAGS]
        assert [name for name in names if name not in words] == []
        assert "--mu WEIGHT" in out and "[--max-height N]" in out

    def test_a_value_may_start_with_a_minus_sign(self, capsys):
        expected = (0, "-1*q^2 + 1*q^3 + 1*q^4\n", "")
        assert run(capsys, "qanalogue", "A2", "--lambda", "1,1", "--mu", "-1,-1") == expected
        assert run(capsys, "qanalogue", "A2", "--lambda=1,1", "--mu=-1,-1") == expected
        assert run(capsys, "cherednik", "A2", "--max-height", "-1") == (
            2, "", "error: --max-height must be nonnegative\n")

    def test_flags_go_anywhere_and_the_last_repeat_wins(self, capsys):
        expected = run(capsys, "qanalogue", "A2", "--lambda", "1,1", "--mu", "0,0")
        assert expected[0] == 0
        assert run(capsys, "--mu", "1,1", "qanalogue", "--format=json", "--mu=0,0", "A2",
                   "--lambda", "1,1", "--format", "text") == expected

    def test_argv_defaults_to_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["qweights", "gen-exponents", "G2", "--lambda", "0,1"])
        assert main() == 0
        assert capsys.readouterr().out == "1 5\n"

    @pytest.mark.parametrize("argv,message", [
        ([], "expected COMMAND [IDENTITY] TYPE, not ''"),
        (["roots"], "expected COMMAND [IDENTITY] TYPE, not 'roots'"),
        (["roots", "G2", "B2"], "expected COMMAND [IDENTITY] TYPE, not 'roots G2 B2'"),
        (["verify", "all"], "expected COMMAND [IDENTITY] TYPE, not 'verify all'"),
        (["verify", "bogus", "G2"], "unknown identity 'bogus'"),
        (["qanalogue", "A2", "--lambda", "1,1"], "qanalogue needs --mu WEIGHT"),
        (["qanalogue", "A2", "--lambda", "1,1", "--mu"], "qanalogue needs --mu WEIGHT"),
        # argparse took a prefix of a flag; the flag is now spelled in full
        (["cherednik", "G2", "--max", "3"], "unknown flag --max"),
        (["qanalogue", "A2", "--lam", "1,1", "--mu", "0,0"], "qanalogue needs --lambda WEIGHT"),
        (["roots", "G2", "-x"], "unknown flag -x"),
        (["roots", "G2", "--lambda", "1,0"], "--lambda does not apply to roots"),
        (["roots", "G2", "--format", "xml"],
         "roots needs --format text|json|csv|latex, not 'xml'"),
        (["cherednik", "G2", "--max-height", "x"], "cherednik needs --max-height N, not 'x'"),
        (["verify", "induction", "G2", "--alpha-index="],
         "verify needs --alpha-index N, not ''"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(shutil.which("qweights") is None,
                    reason="entry point not installed")
def test_installed_entry_point():
    out = subprocess.run(["qweights", "qanalogue", "A2", "--lambda", "1,1",
                          "--mu", "0,0"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "1*q^1 + 1*q^2\n"


def _cli_process(*argv):
    """``python -m qweights.cli argv`` in a child, on this checkout's source,
    with stdout and stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qweights.__file__).parent.parent))
    return subprocess.Popen([sys.executable, "-m", "qweights.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_a_closed_pipe_ends_quietly():
    # 368 KB of rows, more than a pipe buffer holds: the reader takes one
    # line and closes the pipe, and the command exits 1 with nothing on
    # stderr, where it printed a BrokenPipeError traceback
    proc = _cli_process("table", "G2", "--lambda", "6,6", "--format", "csv")
    assert proc.stdout.readline() == b"weight,multiplicity,q-analogue\r\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_ctrl_c_ends_quietly():
    # verify all E7 computes for seconds; SIGINT half a second in exits 130
    # with nothing on stderr, where it printed a KeyboardInterrupt traceback
    proc = _cli_process("verify", "all", "E7")
    time.sleep(0.5)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (130, b"", b"")


# 400 MB of address space: enough for the interpreter, not for the table
# that cherednik A1 --max-height 400000 builds under its cell budget
MEMORY_CAP = 400 * 2**20


def _cap_memory():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))


def _can_cap_memory() -> bool:
    # Linux enforces RLIMIT_AS; the cap must fit under the hard limit
    if not sys.platform.startswith("linux"):
        return False
    import resource
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    return hard == resource.RLIM_INFINITY or hard >= MEMORY_CAP


@pytest.mark.skipif(not _can_cap_memory(), reason="RLIMIT_AS cannot be set here")
def test_out_of_memory_exits_2():
    # the 400,001 cells fit the cell budget, but their packed digits grow
    # quadratically: under the cap the build runs out of memory, and the
    # command exits 2 with one line on stderr, no traceback.  The cap is
    # set in the child before it starts, so the case never runs without it
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qweights.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "qweights.cli", "cherednik", "A1",
                           "--max-height", "400000"], env=env, capture_output=True,
                          preexec_fn=_cap_memory, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == \
        (2, b"", b"error: input too large: out of memory\n")
