"""Property tests on random inputs: the integer weight -> root conversion
against its exact-rational view, the q-analogue at q = 1 against
Freudenthal's multiplicity, the three routes against each other, a read
of a built table against the same read on a cold context, the kernel's
seeded tables against the dense pass of ``test_qkostant``, the
cells a family table builds against its module box, the height product
criterion against polynomial cross-multiplication, and the CLI on
arbitrary argv; and that a failing property is reported under the
project's pytest settings."""

import contextlib
import io
import pathlib
import subprocess
import sys
from collections import Counter
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qweights import cli, lusztig, qkostant, root_system  # noqa: E402
from qweights.identities import _height_product_holds  # noqa: E402
from qweights.lusztig import (  # noqa: E402
    character,
    dual_weight,
    freudenthal_multiplicity,
    lusztig_q_analogue,
    q_analogue_by_induction,
    q_analogue_via_kernel,
    weyl_dimension,
)
from qweights.poly import QPoly  # noqa: E402
from qweights.qkostant import _MAX_GROWTH, PartitionEngine  # noqa: E402
from qweights.root_system import Weight, build_root_system, clear_caches  # noqa: E402
from test_qkostant import assert_matches_dense_pass, module_box  # noqa: E402

RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(4, 9),
         "E": (6, 7, 8), "F": (4,), "G": (2,)}
UP_TO_RANK_8 = [f"{t}{r}" for t, ranks in RANKS.items() for r in ranks]
UP_TO_RANK_4 = [name for name in UP_TO_RANK_8 if int(name[1:]) <= 4]


def coords(data, rank, lo, hi):
    return tuple(data.draw(st.lists(st.integers(lo, hi), min_size=rank, max_size=rank)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_root_coords_match_the_rational_view(data):
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_8)))
    c = coords(data, rs.rank, -30, 30)
    exact = rs.weight_to_root_coords(Weight(c))
    # the rational view solves cartan . x = c
    assert all(sum(a * x for a, x in zip(row, exact)) == ci
               for row, ci in zip(rs.cartan, c))
    got = rs.root_coords(c)
    if got is None:
        assert any(x.denominator != 1 for x in exact)
    else:
        assert got == exact and all(type(x) is int for x in got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_q_analogue_at_one_is_the_freudenthal_multiplicity(data):
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_4)))
    lam = Weight(coords(data, rs.rank, 0, 2))
    assume(weyl_dimension(rs, lam) <= 3000)
    # a few simple roots below lam, moved by up to one fundamental weight
    # each way, so mu may leave the module or the root lattice
    mu = lam + Weight(coords(data, rs.rank, -1, 1))
    for k, alpha in zip(coords(data, rs.rank, 0, 4), rs.simple_roots):
        mu = mu - k * alpha
    box = rs.root_coords((lam - mu).coords)
    # keep the kernel table small
    assume(box is None or min(box) < 0 or prod(b + 1 for b in box) <= 20000)
    got = lusztig_q_analogue(rs, lam, mu).evaluate(1)
    assert got == freudenthal_multiplicity(rs, lam, mu)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_three_routes_agree(data):
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_4)))
    lam = Weight(coords(data, rs.rank, 0, 2))
    assume(weyl_dimension(rs, lam) <= 3000)
    below = coords(data, rs.rank, 0, 3)
    # keep the kernel table small
    assume(prod(b + 1 for b in below) <= 20000)
    mu = lam
    for k, alpha in zip(below, rs.simple_roots):
        mu = mu - k * alpha
    got = lusztig_q_analogue(rs, lam, mu)
    assert q_analogue_by_induction(rs, lam, mu) == got
    assert q_analogue_via_kernel(rs, lam, mu) == got


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_warm_table_reads_as_a_cold_one(data):
    # once lam's module box is built, a memo miss reads the cell from mu
    # alone; mu runs over the box and one step past each side of it, on and
    # off the root lattice, so zero answers are drawn too
    rs = build_root_system(data.draw(st.sampled_from(["A2", "B2", "G2", "A3"])))
    lam = Weight(coords(data, rs.rank, 0, 2))
    box = rs.root_coords((lam + dual_weight(rs, lam)).coords)
    nu = tuple(data.draw(st.integers(-1, b + 1)) for b in box)
    mu = lam - rs.root_to_weight_basis(nu)
    if data.draw(st.booleans()):
        mu = mu + rs.fundamental_weight(data.draw(st.integers(0, rs.rank - 1)))
    wrong = Weight(mu.coords + (0,))
    answers, refusals = [], []
    for warm in (True, False):
        clear_caches()
        if warm:
            lusztig_q_analogue(rs, lam, -dual_weight(rs, lam))
        answers.append(lusztig_q_analogue(rs, lam, mu))
        with pytest.raises(ValueError) as refused:
            lusztig_q_analogue(rs, lam, wrong)
        refusals.append(str(refused.value))
    assert answers[0] == answers[1] == q_analogue_by_induction(rs, lam, mu)
    assert refusals[0] == refusals[1] == f"{wrong} is not a weight of {rs.name}"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_table_matches_dense_pass(data):
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_4)))
    lam = coords(data, rs.rank, 0, 2)
    module = module_box(rs, Weight(lam))
    # each coordinate is drawn as a cut below the module box's, so that the
    # box stays within 20,000 cells and the draws lean to large boxes; the
    # engine builds the module box instead when that is at most four times
    # as large, and the dense pass then checks it
    bound = []
    cells = 1
    for m in module:
        hi = min(m, 20_000 // cells - 1)
        b = hi - data.draw(st.integers(0, hi))
        cells *= b + 1
        bound.append(b)
    assert_matches_dense_pass(rs, lam, tuple(bound))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_family_builds_stay_under_the_growth_bound(data):
    # whatever the order of the reads at a module's weights, a family table
    # builds fewer than (1 + 1/_MAX_GROWTH) times the cells of its module box
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_4)))
    lam = Weight.zero(rs.rank)
    for i in data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=2)):
        lam = lam + rs.fundamental_weight(i)
    module = prod(b + 1 for b in rs.root_coords((lam + dual_weight(rs, lam)).coords))
    assume(module <= 60_000)
    weights = data.draw(st.permutations(list(character(rs, lam))))
    cells = []
    build = PartitionEngine._build

    def counting(eng, bound):
        cells.append(prod(b + 1 for b in bound))
        build(eng, bound)

    clear_caches()
    PartitionEngine._build = counting
    try:
        for mu in weights:
            lusztig_q_analogue(rs, lam, mu)
    finally:
        PartitionEngine._build = build
    assert sum(cells) * _MAX_GROWTH < (_MAX_GROWTH + 1) * module, cells


def product_by_cross_multiplication(counts, exps) -> bool:
    """prod (1 - q^{k+1}) / (1 - q^k) over ``counts[k]`` weights at each
    height k > 0 against prod (1 - q^{e+1}) / (1 - q) over ``exps``,
    cross-multiplied to stay polynomial."""
    one = QPoly.one()
    lhs_num = lhs_den = rhs_num = one
    for k, n in counts.items():
        if k > 0:
            lhs_num = lhs_num * (one - QPoly.q(k + 1)) ** n
            lhs_den = lhs_den * (one - QPoly.q(k)) ** n
    for e in exps:
        rhs_num = rhs_num * (one - QPoly.q(e + 1))
    rhs_den = (one - QPoly.q(1)) ** len(exps)
    return lhs_num * rhs_den == rhs_num * lhs_den


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_height_product_criterion(data):
    exps = data.draw(st.lists(st.integers(0, 6), max_size=6))
    # the counts the identity asks for, at heights 1 up; then a few moved,
    # at heights the product reads and at heights 0 and -1, which it does not
    counts = Counter({k: sum(e >= k for e in exps) for k in range(1, 7)})
    for k in data.draw(st.lists(st.integers(-1, 8), max_size=3)):
        counts[k] = max(0, counts[k] + data.draw(st.sampled_from((-1, 1))))
    assert _height_product_holds(counts, exps) == product_by_cross_multiplication(counts, exps)


# each subcommand's own flags, drawn often; any other flag, drawn now and then
OWN_FLAGS = {"roots": (), "qanalogue": ("--lambda", "--mu"), "table": ("--lambda",),
             "cherednik": ("--max-height",), "gen-exponents": ("--lambda",),
             "verify": ("--lambda", "--gamma", "--alpha-index"), "bogus": ()}


def cli_argv(data):
    command = data.draw(st.sampled_from(sorted(OWN_FLAGS)))
    argv = [command]
    if command == "verify":
        argv.append(data.draw(st.sampled_from(cli.IDENTITIES + ("all", "bogus"))))
    name = data.draw(st.sampled_from(UP_TO_RANK_4 + ["H3", "A0", "x"]))
    argv.append(name)
    rank = int(name[1:]) if name[1:].isdigit() else 2

    def weight():
        if not data.draw(st.integers(0, 7)):
            return data.draw(st.sampled_from(("x", "", "1,,0", "1.5")))
        size = data.draw(st.sampled_from((rank, rank, rank, rank - 1, rank + 1)))
        return ",".join(str(data.draw(st.integers(-1, 2))) for _ in range(size))

    def integer():
        return data.draw(st.sampled_from(("-1", "0", "1", "2", "9", "x")))

    values = {"--lambda": weight, "--mu": weight, "--gamma": weight,
              "--max-height": integer, "--alpha-index": integer,
              "--format": lambda: data.draw(st.sampled_from(
                  ("text", "json", "csv", "latex", "xml")))}
    flags = [f for f in OWN_FLAGS[command] if data.draw(st.integers(0, 3))]
    flags += data.draw(st.lists(st.sampled_from(sorted(values)), max_size=1))
    for flag in dict.fromkeys(flags):
        # --flag=value or --flag value: a value such as -1,0 is a value either way
        value = values[flag]()
        argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    # now and then an unknown flag, one positional too many, or a flag with
    # no value at the end of the line
    argv += data.draw(st.sampled_from([[]] * 5 + [["--bogus", "1"], ["--lam=1,0"], ["extra"],
                                                  ["--mu"], ["--max-height"], ["--format"]]))
    return argv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_answers_or_refuses(data):
    # every argv is answered (0), fails a verifier (1) or is refused with
    # exit 2; nothing raises, SystemExit included.  The budgets are cut
    # down so that no draw takes long, and over them an input is refused
    argv = cli_argv(data)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qkostant, "MAX_TABLE_CELLS", 20_000)
        mp.setattr(root_system, "MAX_ORBIT_POINTS", 5_000)
        mp.setattr(lusztig, "MAX_STRING_STEPS", 20_000)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue(), argv
    else:
        assert err.getvalue() == "" and out.getvalue(), argv


def test_a_failing_property_is_reported(tmp_path):
    # pytest turns warnings into errors, and Hypothesis reports a failing
    # example through libcst where it is installed, which imports the
    # deprecated mypy_extensions.TypedDict: unless pyproject.toml ignores
    # that warning, the report aborts the whole run with an INTERNALERROR
    ini = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    tmp_path.joinpath("test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ini),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed" in done.stdout, done.stdout
