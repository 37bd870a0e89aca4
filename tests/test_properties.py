"""Property tests on random inputs: the integer weight -> root conversion
against its exact-rational view, the q-analogue at q = 1 against
Freudenthal's multiplicity, the kernel's seeded tables against the dense
pass of ``test_qkostant``, and the cells a family table builds against its
module box."""

from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qweights.lusztig import (  # noqa: E402
    character,
    dual_weight,
    freudenthal_multiplicity,
    lusztig_q_analogue,
    weyl_dimension,
)
from qweights.qkostant import _MAX_GROWTH, PartitionEngine  # noqa: E402
from qweights.root_system import Weight, build_root_system, clear_caches  # noqa: E402
from test_qkostant import assert_matches_dense_pass, module_engine  # noqa: E402

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
def test_table_matches_dense_pass(data):
    rs = build_root_system(data.draw(st.sampled_from(UP_TO_RANK_4)))
    eng, module = module_engine(rs, Weight(coords(data, rs.rank, 0, 2)))
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
    assert_matches_dense_pass(eng, tuple(bound))


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
