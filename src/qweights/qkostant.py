"""The q-analogue of the vector partition function over positive roots.

P_q(mu) = sum over multisets of positive roots with sum mu, each multiset
contributing q^(number of parts).  Equivalently the mu-coefficient of
1 / prod_{gamma > 0} (1 - q e^gamma), a product of geometric series.

So one unbounded-knapsack pass per positive root fills P_q at every point of
a box [0, bound] of root coordinates at once.  Every argument
w(lam+rho) - (mu+rho) of the alternating sum lies in the box of lam - mu, so
one table per root system, kept in the engine slot of its
``root_system.context``, answers a whole query (``alternating_sum``), and
usually the next ones.  Every weight mu of the module of lam has lam - mu in
the box of lam - w0(lam), so a caller that names that module box lets the
table grow to it at once instead of step by step.  Each cell packs its
polynomial into one int, and no coefficient in the box exceeds the largest
one of the cell at the bound, so a sum reads many cells as one plain int sum
and decodes it once.  The packed cell format is read only in this module.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import gt, mul

from .poly import QPoly
from .root_system import RootSystem, Weight, _contexts, context

# A target outside the box grows the table to the union of the two boxes
# (to the module box, when the target lies in it and that box is not too
# large either), unless the union has more than this many times the cells of
# the old box and the target's own box together: then the table is rebuilt
# for the target alone, so scattered targets such as (k,0,0,0) then
# (0,k,0,0) do not fill (k+1)^rank cells.
_MAX_GROWTH = 4


def kernel_backend() -> str:
    """Which partition kernel is live: always 'pure' (the box table)."""
    return "pure"


def _cells(bound) -> int:
    return prod(b + 1 for b in bound)


def _width(roots, bound) -> int:
    """Bits per packed coefficient that no coefficient in the box reaches.

    The coefficients of P_q(nu) are non-negative and each is at most P_1(nu),
    the number of partitions of nu.  P_1 is monotone on the box: adding a
    simple root as one more part maps the partitions of nu one-to-one into
    those of nu + alpha_i, so P_1(nu) <= P_1(bound).  A partition of bound is
    a multiset of roots inside the box whose heights add up to ht(bound), so
    P_1(bound) is at most the number of such multisets: the count below, a
    one-dimensional knapsack over heights.  The build only ever holds counts
    over a subset of the roots, which are smaller still.
    """
    n = sum(bound)
    count = [1] + [0] * n
    for gamma in roots:
        if all(g <= b for g, b in zip(gamma, bound)):
            h = sum(gamma)
            for i in range(h, n + 1):
                count[i] += count[i - h]
    return count[n].bit_length()


class PartitionEngine:
    """P_q over a box [0, bound] of root coordinates, for one root system.

    The table is flat and row-major; cell nu holds P_q(nu) packed into one
    int, ``width`` bits per coefficient: sum_j c_j * 2^(width*j).  Up to
    ``chunk`` cells add up as plain ints without a carry between fields.
    """

    __slots__ = ("roots", "bound", "strides", "width", "chunk", "table", "hits")

    def __init__(self, roots):
        self.roots = [tuple(int(x) for x in r) for r in roots]
        self.bound = None
        self.strides = ()
        self.width = 0
        self.chunk = 1
        self.table = []
        self.hits = 0

    def compute(self, mu, module=None) -> dict:
        """Sparse {exponent: coefficient} dict of P_q(mu); {} off the cone.

        ``module``, when given, is the box the caller's later targets will
        need (lam - w0(lam) for the weights of one module); a target that
        leaves the table for a point of that box grows it to the whole box
        while the growth limit allows.  The first table is always exact.
        """
        if min(mu) < 0:
            return {}
        bound = self.bound
        if bound is None:
            self._build(tuple(mu))
        elif any(map(gt, mu, bound)):
            union = tuple(map(max, mu, bound))
            limit = _MAX_GROWTH * (_cells(bound) + _cells(mu))
            if module is not None and not any(map(gt, mu, module)):
                grown = tuple(map(max, union, module))
                if _cells(grown) <= limit:
                    union = grown
            if _cells(union) > limit:
                union = tuple(mu)
            self._build(union)
        else:
            self.hits += 1
        # P_q(nu) has degree ht(nu)
        coeffs = [0] * (sum(mu) + 1)
        self._read((mu,), coeffs)
        return {e: c for e, c in enumerate(coeffs) if c}

    def alternating_sum(self, layers, module) -> dict:
        """Sparse dict of sum_d (-1)^d P_q(nu) over the points nu of layer d.

        ``layers`` is a list; layer 0 holds the single top point, and every
        other point must lie in Q_+ and in its box.  One ``compute`` sizes
        the table (``module`` is its module box, see there), then the cells
        of the even layers and those of the odd layers are added as plain
        ints, up to ``chunk`` cells at a time, and each such sum is decoded
        once.

        No field carries: every coefficient in the box is at most M, the
        largest coefficient of the cell at the bound.  Adding a simple root
        alpha_i as one more part maps the j-part partitions of nu one-to-one
        into the (j+1)-part partitions of nu + alpha_i.  Stepping up to the
        bound one simple root at a time, with h = ht(bound - nu):

            P_j(nu) <= P_{j+h}(bound) <= M.

        So a sum of chunk = (2^width - 1) // M cells keeps every
        coefficient below 2^width.
        """
        (top,) = layers[0]
        n = sum(top) + 1
        sums = ([0] * n, [0] * n)
        for e, c in self.compute(top, module).items():
            sums[0][e] = c
        self._read(chain.from_iterable(layers[2::2]), sums[0])
        self._read(chain.from_iterable(layers[1::2]), sums[1])
        return {e: p - m for e, (p, m) in enumerate(zip(*sums)) if p != m}

    def _read(self, points, acc):
        """Add the coefficients of P_q at each point, a cell of the table, to
        acc[exponent], decoding one packed sum per ``chunk`` cells."""
        table, strides, width, chunk = self.table, self.strides, self.width, self.chunk
        cells = [table[sum(map(mul, nu, strides))] for nu in points]
        mask = (1 << width) - 1
        for k in range(0, len(cells), chunk):
            packed = sum(cells[k:k + chunk])
            e = 0
            while packed:
                acc[e] += packed & mask
                packed >>= width
                e += 1

    def stats(self):
        """(table cells, lookups answered without a rebuild)."""
        return (len(self.table), self.hits)

    def _build(self, bound):
        # drop the old table first, so the two are never held together
        self.bound, self.table = None, []
        strides = []
        size = 1
        for b in reversed(bound):
            strides.append(size)
            size *= b + 1
        strides.reverse()
        width = _width(self.roots, bound)
        f = [0] * size
        f[0] = 1
        *head, last = bound
        for gamma in self.roots:
            off = sum(map(mul, gamma, strides))
            # the cells nu >= gamma, visited in increasing flat order, so
            # f[nu - gamma] already counts any number of gamma parts; each
            # base is the flat index of a row along the last coordinate
            bases = [0]
            for lo, hi, s in zip(gamma, head, strides):
                bases = [c + k * s for c in bases for k in range(lo, hi + 1)]
            lo = gamma[-1]
            for c in bases:
                for i in range(c + lo, c + last + 1):
                    f[i] += f[i - off] << width
        self.bound, self.strides, self.width, self.table = bound, strides, width, f
        # M >= 1: bound is a sum of simple roots
        top = [0] * (sum(bound) + 1)
        self._read((bound,), top)
        self.chunk = ((1 << width) - 1) // max(top)


def _engine(rs: RootSystem) -> PartitionEngine:
    ctx = context(rs)
    if ctx.engine is None:
        ctx.engine = PartitionEngine(rs.positive_roots)
    return ctx.engine


def q_partition_root_coords(rs: RootSystem, coords) -> dict:
    """Sparse coefficient dict of P_q at a root-lattice point (may be negative)."""
    return _engine(rs).compute(tuple(int(x) for x in coords))


def q_partition(rs: RootSystem, mu: Weight) -> QPoly:
    """P_q(mu) as a polynomial; the zero polynomial when mu is not in Q_+."""
    coords = rs.weight_to_root_coords(mu)
    if any(x.denominator != 1 or x < 0 for x in coords):
        return QPoly.zero()
    return QPoly(_engine(rs).compute(tuple(int(x) for x in coords)))


def q_partition_cache_stats():
    """(table cells, lookups answered without a rebuild) across all root
    systems."""
    entries = hits = 0
    for ctx in _contexts.values():
        if ctx.engine is not None:
            e, h = ctx.engine.stats()
            entries += e
            hits += h
    return (entries, hits)


def clear_partition_cache():
    """Drop the partition table of every root system."""
    for ctx in _contexts.values():
        ctx.engine = None
