"""Graded vector-partition kernel against a brute-force multiset enumerator,
the layered memo recursion it replaced and the dense pass it sped up."""

import itertools

import pytest

from qweights.lusztig import dual_weight
from qweights.poly import QPoly
from qweights.qkostant import (
    PartitionEngine,
    _weyl_seeds,
    _width,
    kernel_backend,
    q_partition,
    q_partition_cache_stats,
)
from qweights.root_system import Weight, build_root_system, clear_caches, context


def _engine(rs):
    """The P_q engine of rs's context, made there with no table when
    missing; ``q_partition`` makes the same engine."""
    engines = context(rs).engines
    if None not in engines:
        engines[None] = PartitionEngine(rs)
    return engines[None]


def brute_force(rs, target):
    """Count multisets of positive roots summing to target, graded by size."""
    roots = rs.positive_roots
    counts = {}

    def dfs(idx, rem, used):
        if not any(rem):
            counts[used] = counts.get(used, 0) + 1
            return
        if idx == len(roots):
            return
        j, cur = 0, rem
        while True:
            dfs(idx + 1, cur, used + j)
            nxt = tuple(a - b for a, b in zip(cur, roots[idx]))
            if any(x < 0 for x in nxt):
                break
            cur, j = nxt, j + 1

    dfs(0, target, 0)
    return QPoly(counts)


def cone(rank, bound):
    if rank == 0:
        yield ()
        return
    for head in range(bound + 1):
        for tail in cone(rank - 1, bound - head):
            yield (head,) + tail


@pytest.mark.parametrize("name,bound", [("A2", 6), ("B2", 6), ("G2", 6), ("A3", 5)])
def test_matches_brute_force(name, bound):
    rs = build_root_system(name)
    for rc in cone(rs.rank, bound):
        expected = brute_force(rs, rc)
        assert q_partition(rs, rs.root_to_weight_basis(rc)) == expected, rc
        # q = 1 is the ordinary vector partition count
        assert expected.evaluate(1) == sum(
            c for _, c in brute_force(rs, rc).terms().items())


def test_empty_partition():
    rs = build_root_system("B3")
    assert q_partition(rs, Weight.zero(3)) == 1
    assert QPoly(_engine(rs).compute((0, 0, 0))) == 1


def test_single_root_values():
    rs = build_root_system("A2")
    # alpha_1 has exactly one partition, using one root
    assert q_partition(rs, rs.simple_roots[0]) == QPoly.q()
    # alpha_1 + alpha_2: either the highest root or the two simples
    assert q_partition(rs, rs.theta) == QPoly({1: 1, 2: 1})


def test_outside_cone_is_zero():
    rs = build_root_system("A2")
    assert q_partition(rs, rs.fundamental_weight(0)).is_zero()  # not in lattice
    assert q_partition(rs, -rs.theta).is_zero()
    assert q_partition(rs, rs.root_to_weight_basis((-1, 2))).is_zero()
    assert _engine(rs).compute((-1, 2)) == {}


def test_memo_statistics_accumulate():
    clear_caches()
    rs = build_root_system("C3")
    q_partition(rs, rs.theta)
    entries1, hits1 = q_partition_cache_stats()
    assert entries1 > 0
    q_partition(rs, rs.theta + rs.theta)
    entries2, hits2 = q_partition_cache_stats()
    assert entries2 > entries1
    assert hits2 >= hits1


class MemoReference:
    """The layered memo recursion the box table replaced, kept as a reference:

        f(k, mu) = sum_{j>=0} q^j * f(k-1, mu - j*gamma_k),   f(0, 0) = 1,

    memoized on (k, mu), peeling the tallest root first.
    """

    def __init__(self, roots):
        self.roots = [tuple(int(x) for x in r) for r in roots]
        self.memo = {}

    def compute(self, mu):
        mu = tuple(int(x) for x in mu)
        if any(c < 0 for c in mu):
            return {}
        coeffs = self._f(len(self.roots), mu)
        return {e: c for e, c in enumerate(coeffs) if c}

    def _f(self, k, mu):
        if not any(mu):
            return [1]
        if k == 0:
            return []
        key = (k, mu)
        got = self.memo.get(key)
        if got is not None:
            return got
        gamma = self.roots[k - 1]
        out = []
        j = 0
        cur = mu
        while True:
            sub = self._f(k - 1, cur)
            if sub:
                need = j + len(sub)
                if len(out) < need:
                    out.extend([0] * (need - len(out)))
                for e, c in enumerate(sub):
                    if c:
                        out[e + j] += c
            nxt = tuple(a - b for a, b in zip(cur, gamma))
            if any(c < 0 for c in nxt):
                break
            cur = nxt
            j += 1
        self.memo[key] = out
        return out


def root_coords(rs, weight):
    return tuple(int(x) for x in rs.weight_to_root_coords(weight))


def box(bound):
    return itertools.product(*(range(b + 1) for b in bound))


@pytest.mark.parametrize("name,top,cells", [
    ("F4", lambda rs: rs.theta + rs.theta, 1575),
    ("E6", lambda rs: rs.theta, 432),
    ("C4", lambda rs: rs.theta + rs.theta_s, 300),
    ("G2", lambda rs: 6 * rs.rho, 589),
])
def test_every_cell_matches_reference(name, top, cells):
    rs = build_root_system(name)
    ref = MemoReference(rs.positive_roots)
    bound = root_coords(rs, top(rs))
    clear_caches()
    assert _engine(rs).compute(bound) == ref.compute(bound)
    # no coefficient in the box exceeds the largest one of the bound cell
    most = max(ref.compute(bound).values())
    for nu in box(bound):
        expected = ref.compute(nu)
        assert _engine(rs).compute(nu) == expected, nu
        assert max(expected.values()) <= most, nu
    # one seed: the width is the bits of P_1(bound), one more for the count
    # of seeds and one for the sign, so every coefficient is a balanced digit
    eng = _engine(rs)
    assert eng.width == _width(rs.positive_roots, bound) + 2
    assert most < 1 << (eng.width - 1)
    # one table answered every cell: the first lookup built it
    assert q_partition_cache_stats() == (cells, cells)


def test_rebuilds_keep_values():
    rs = build_root_system("B3")
    ref = MemoReference(rs.positive_roots)
    eng = PartitionEngine(rs)
    small = (1, 1, 1)
    targets = [small, (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2), (2, 3, 3),
               (3, 3, 3), small]
    for mu in targets:
        assert eng.compute(mu) == ref.compute(mu), mu
    # every growth rebuilt the table; only the final small target was a hit
    assert (len(eng.table), eng.hits) == (4 * 4 * 4, 1)
    for nu in box((3, 3, 3)):
        assert eng.compute(nu) == ref.compute(nu), nu


def test_scattered_targets_do_not_fill_the_union_box():
    rs = build_root_system("A4")
    ref = MemoReference(rs.positive_roots)
    clear_caches()
    for i in range(4):
        mu = tuple(6 if k == i else 0 for k in range(4))
        assert _engine(rs).compute(mu) == ref.compute(mu), mu
    # the union of the four boxes has 7**4 cells
    assert q_partition_cache_stats()[0] < 7 ** 4 // 10


def test_kernel_backend_is_pure():
    assert kernel_backend() == "pure"


def dense_pass(roots, bound, seeds):
    """The box table as the dense pass built it, kept as a reference: the
    roots in their given (ascending) order, every row of every pass walked.
    Returns (width, table)."""
    size = 1
    strides = []
    for b in reversed(bound):
        strides.append(size)
        size *= b + 1
    strides.reverse()
    width = _width(roots, bound) + len(seeds).bit_length() + 1
    f = [0] * size
    for d, sign in seeds:
        f[sum(x * s for x, s in zip(d, strides))] = sign
    *head, last = bound
    for gamma in roots:
        off = sum(x * s for x, s in zip(gamma, strides))
        bases = [0]
        for lo, hi, s in zip(gamma, head, strides):
            bases = [c + k * s for c in bases for k in range(lo, hi + 1)]
        lo = gamma[-1]
        for c in bases:
            for i in range(c + lo, c + last + 1):
                f[i] += f[i - off] << width
    return width, f


def module_engine(rs, lam):
    """An engine seeded with the Weyl numerator of lam, as ``read`` makes
    it, and the module box lam - w0(lam) in root coordinates."""
    module = root_coords(rs, lam + dual_weight(rs, lam))
    return PartitionEngine(rs, lam.coords), module


def assert_matches_dense_pass(eng, bound):
    """Read cell ``bound`` of a new engine and check the table it built,
    the exact box or (by the growth rule) the module box, against the
    dense pass on that box."""
    eng.compute(bound)
    built = eng.bound
    assert built in (bound, eng.module)
    if eng.lam is None:
        seeds = [((0,) * len(built), 1)]
    else:
        seeds = _weyl_seeds(eng.rs, eng.lam, built)
    width, table = dense_pass(eng.rs.positive_roots, built, seeds)
    assert eng.width == width
    assert eng.table == table
    return seeds


@pytest.mark.parametrize("name,lam,bound,seeds", [
    # A1: no coordinate before the last, so each pass walks one row; past
    # the module box (5,), the reflected seed at 6 alpha is in the box
    ("A1", (5,), (8,), 2),
    # the last extent is 0, so every row holds one cell
    ("B3", (1, 1, 1), (3, 4, 0), 4),
    # P_q: the one seed 1 at cell 0, no numerator
    ("C4", None, (3, 4, 4, 2), 1),
    # every other seed lies at (lam_i + 1) alpha_i or beyond, outside the box
    ("A3", (2, 2, 2), (2, 2, 2), 1),
])
def test_dense_pass_edge_cases(name, lam, bound, seeds):
    rs = build_root_system(name)
    if lam is None:
        eng = PartitionEngine(rs)
    else:
        eng, module = module_engine(rs, Weight(lam))
        assert eng.module == module
    assert len(assert_matches_dense_pass(eng, bound)) == seeds
    assert eng.bound == bound
