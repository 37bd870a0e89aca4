"""The q-analogue of the vector partition function over positive roots.

P_q(mu) = sum over multisets of positive roots with sum mu, each multiset
contributing q^(number of parts).  Equivalently the mu-coefficient of
1 / prod_{gamma > 0} (1 - q e^gamma), a product of geometric series.

So one unbounded-knapsack pass per positive root fills P_q at every point of
a box [0, bound] of root coordinates at once.  The same pass, run on a
table seeded with a numerator N instead of the single 1 at cell 0, fills
every cell nu with the nu-coefficient of N / prod(1 - q e^gamma).  Seeded
with the Weyl numerator of a highest weight lam, a +-1 at each point
(lam+rho) - w(lam+rho) of the box (``_weyl_seeds``), cell nu is
m_lam^{lam-nu}(q), so each q-analogue of lam's module is one table cell.
This module is the one owner of what a table holds: ``PartitionEngine(rs,
lam)`` seeds itself, with the single 1 for P_q when lam is None, and knows
lam's module box lam - w0(lam) (``module_box``), which holds lam - mu for
every weight mu of the module.  A table is kept per highest weight in the
``engines`` slot of the root system's ``root_system.Context``, its only
holder: an engine refers to nothing that holds it, so dropping the context
frees its tables at once.  A target outside the table builds
its own box, or the union with the old one while that is not much larger;
lam's engine builds its whole module box instead
for a target inside it once the box is at most ``_MAX_GROWTH`` times the
cells it has already built plus those it would build now (a ski-rental
rule), so a family's builds total under 1 + 1/``_MAX_GROWTH`` times its
module box while reads stay in it, and a few small reads keep small boxes.

Every query reads through ``read``, in fundamental-weight coordinates.
When the table holds the cell, one loop over the rows of the root
system's scaled inverse Cartan matrix tests the root lattice, checks the
bound and sums the flat index, and the cell is decoded: no root-coordinate
tuple and no call of ``PartitionEngine.compute``.  Only a point of Q_+
outside the table goes to ``compute``, in root coordinates, which builds
or grows the table.

The factors of the product commute and the packed cells are exact
integers, so the passes may run in any order; they run tallest root first.
The table then stays sparse until the simple roots' passes at the end, and
a pass skips each row along the last coordinate whose source row has never
held a nonzero cell: one flag per row, set at the seeds' rows and at every
row a pass writes.  Such a row would only add zeros.

Each cell packs its polynomial into one int, a fixed number of bits per
coefficient, read back as balanced digits, so a negative coefficient
decodes exactly.  A cell is a signed sum of at most n partition values,
one per seed in the box, and each of their coefficients is at most
P_1(bound), so the width is the bits of that count (``_width``), plus those
of n, plus a sign bit.  No table has more than ``MAX_TABLE_CELLS`` cells
(a larger box raises ``root_system.BudgetError`` and changes nothing), and
neither have the tables of one context together: a build first drops the
context's least recently used tables until the new one fits.  ``read``
is the only code that makes an engine and fills ``engines``: it takes the
caller's context, or None when the root system has none yet, and puts a
new engine in it, through ``root_system.context`` when there was none,
only once its first table is built, so a refused build or a point off Q_+
registers nothing.
The packed cell format is read only in this module.
"""

from __future__ import annotations

from math import prod
from operator import add, gt, mul

from .poly import QPoly
from .root_system import BudgetError, RootSystem, Weight, _contexts, context
from .weyl import descend, dominant_representative

# A target outside the box grows the table to the union of the two boxes,
# unless the union has more than this many times the cells of the old box
# and the target's own box together: then the table is rebuilt for the
# target alone, so scattered targets such as (k,0,0,0) then (0,k,0,0) do not
# fill (k+1)^rank cells.  A target inside the module box builds that box
# instead when it has at most this many times the cells the engine has
# built so far and the cells it would build now.
_MAX_GROWTH = 4

# No table is built with more cells than this, counted from the bound before
# anything is walked or allocated, and the tables of one context hold no
# more than this together.  The box of E8 theta has 151,200 cells and
# that of E7 2*theta 165,375, at about 150 bytes a cell; the 14,189,175 cells
# of E8 2*theta are refused.
MAX_TABLE_CELLS = 1_000_000


# layerbench's session.py, oracle.py and traced_cli.py call it
def kernel_backend() -> str:
    """Which partition kernel is live: always 'pure' (the box table)."""
    return "pure"


def _cells(bound) -> int:
    return prod(b + 1 for b in bound)


def _check_cells(box) -> int:
    """The cells of the box [0, ``box``]; raise BudgetError when they are
    over ``MAX_TABLE_CELLS``."""
    size = _cells(box)
    if size > MAX_TABLE_CELLS:
        raise BudgetError(
            f"input too large: the partition table for the box {box} "
            f"needs {size:,} cells, over the budget of {MAX_TABLE_CELLS:,}")
    return size


def _limit(cells) -> int:
    """The most cells a box may have when it replaces boxes of ``cells``."""
    return min(_MAX_GROWTH * cells, MAX_TABLE_CELLS)


def _width(roots, bound) -> int:
    """Bits that hold P_1(bound), which bounds every coefficient in the box.

    The coefficients of P_q(nu) are non-negative and each is at most P_1(nu),
    the number of partitions of nu.  P_1 is monotone on the box: adding a
    simple root as one more part maps the partitions of nu one-to-one into
    those of nu + alpha_i, so P_1(nu) <= P_1(bound).  A partition of bound is
    a multiset of roots inside the box whose heights add up to ht(bound), so
    P_1(bound) is at most the number of such multisets: the count below, a
    one-dimensional knapsack over heights.
    """
    n = sum(bound)
    count = [1] + [0] * n
    for gamma in roots:
        if all(g <= b for g, b in zip(gamma, bound)):
            h = sum(gamma)
            for i in range(h, n + 1):
                count[i] += count[i - h]
    return count[n].bit_length()


def module_box(rs: RootSystem, lc) -> tuple:
    """lam - w0(lam) in root coordinates, for the dominant weight ``lc``:
    the box [0, lam - w0(lam)] holds lam - mu for every weight mu of lam's
    module.  -w0(lam) is the dominant weight in the orbit of -lam."""
    dual, _ = dominant_representative(rs, -Weight(lc))
    return rs.root_coords(tuple(map(add, lc, dual.coords)))


def _weyl_seeds(rs: RootSystem, lc, bound) -> list:
    """The seeds (d, sign(w)) of the Weyl numerator of the highest weight
    ``lc``: one at each point d = (lam+rho) - w(lam+rho) that lies in the
    box [0, bound].

    They are the depths of the regular orbit of lam+rho walked down from
    the top (``weyl.descend``), pruned to the box; layer k holds the w of
    length k, so odd layers carry the sign -1.
    """
    return [(d, -1 if k & 1 else 1)
            for k, layer in enumerate(descend(rs, tuple(map(add, lc, rs.rho.coords)), bound))
            for d in layer.values()]


class PartitionEngine:
    """The coefficients of N / prod(1 - q e^gamma) over a box [0, bound] of
    root coordinates, for one root system: N = 1 gives P_q when ``lam`` is
    None, and otherwise N is the Weyl numerator of the highest weight
    ``lam``, whose tables grow to its module box.

    An engine keeps its root system, which holds no context, and refers to
    nothing that holds it: the other tables of its context, which a build
    may drop, are handed to ``compute`` by ``read``.  The table
    is flat and row-major; cell nu holds its polynomial packed into one int,
    ``width`` bits per coefficient:
    sum_j c_j * 2^(width*j), each c_j in [-2^(width-1), 2^(width-1)).
    """

    __slots__ = ("rs", "lam", "module", "bound", "strides",
                 "width", "table", "hits", "spent")

    def __init__(self, rs: RootSystem, lam=None):
        self.rs = rs
        self.lam = lam
        # the box every later target will lie in, or None for P_q
        self.module = None if lam is None else module_box(rs, lam)
        self.bound = None
        self.strides = ()
        self.width = 0
        self.table = []
        # lookups answered without a build, and the cells of every build
        self.hits = self.spent = 0

    def compute(self, mu, engines=None) -> dict:
        """Sparse {exponent: coefficient} dict of cell mu; {} off the cone.

        A target that leaves the table builds its own box, or the union
        with the old box within the growth limit.  For a target in the
        module box, the whole box is built instead when it has at most
        ``_MAX_GROWTH`` times the cells built so far plus those of that box,
        the first table too: while the reads stay in the module box, every
        build before its own holds under a ``_MAX_GROWTH``-th of it in all.
        A box over ``MAX_TABLE_CELLS`` raises ``BudgetError`` and changes
        nothing.  Otherwise ``engines``, when given, are the tables of the
        context, least recently used first: before the build, the oldest
        of them other than this one are dropped until the new table fits
        next to the rest.
        """
        if min(mu) < 0:
            return {}
        bound = self.bound
        if bound is None or any(map(gt, mu, bound)):
            # with no table yet, the union is the target's own box
            old = bound or mu
            box = tuple(map(max, mu, old))
            if _cells(box) > _limit(_cells(old) + _cells(mu)):
                box = tuple(mu)
            if self.module is not None and not any(map(gt, mu, self.module)):
                grown = tuple(map(max, box, self.module))
                if _cells(grown) <= _limit(self.spent + _cells(box)):
                    box = grown
            size = _check_cells(box)
            if engines:
                # this engine's old table is dropped by the build, so the
                # two are never held together
                held = size + sum(len(eng.table) for eng in engines.values()
                                  if eng is not self)
                for key in list(engines):
                    if held <= MAX_TABLE_CELLS:
                        break
                    eng = engines[key]
                    if eng is not self:
                        held -= len(eng.table)
                        del engines[key]
            self._build(box)
        else:
            self.hits += 1
        return _decode(self.table[sum(map(mul, mu, self.strides))], self.width)

    def _build(self, bound):
        size = _cells(bound)
        # drop the old table first, so the two are never held together
        self.bound, self.table = None, []
        strides = []
        step = 1
        for b in reversed(bound):
            strides.append(step)
            step *= b + 1
        strides.reverse()
        rs, lam = self.rs, self.lam
        seeds = [((0,) * len(bound), 1)] if lam is None else _weyl_seeds(rs, lam, bound)
        # Every final cell is a signed sum of at most len(seeds) values of
        # P_q, whose coefficients are each at most P_1(bound) < 2^_width (see
        # there), so every |c_j| < 2^(width-1).  The packed cells are exact
        # integer arithmetic on sum_j c_j 2^(width*j), so only the final
        # cells need the bound.
        width = _width(rs.positive_roots, bound) + len(seeds).bit_length() + 1
        f = [0] * size
        # live[c] is set for the row starting at flat index c once it may
        # hold a nonzero cell; a row never set holds only zeros
        live = bytearray(size)
        for d, sign in seeds:
            i = sum(map(mul, d, strides))
            f[i] = sign
            live[i - d[-1]] = 1
        *head, last = bound
        # the factors commute, so the tallest roots go first and the table
        # stays sparse until the simple roots' passes at the end
        for gamma in sorted(rs.positive_roots, key=sum, reverse=True):
            off = sum(map(mul, gamma, strides))
            # the cells nu >= gamma, visited in increasing flat order, so
            # f[nu - gamma] already counts any number of gamma parts; each
            # base is the flat index of a row along the last coordinate
            bases = [0]
            for lo, hi, s in zip(gamma, head, strides):
                bases = [c + k * s for c in bases for k in range(lo, hi + 1)]
            lo = gamma[-1]
            # the row that row c reads from starts at c - shift
            shift = off - lo
            for c in bases:
                if live[c - shift]:
                    live[c] = 1
                    for i in range(c + lo, c + last + 1):
                        f[i] += f[i - off] << width
        self.bound, self.strides, self.width, self.table = bound, strides, width, f
        self.spent += size


def _decode(cell: int, width: int) -> dict:
    """The sparse {exponent: coefficient} dict of a packed cell."""
    out = {}
    if not cell:
        return out
    # the zero digits below the lowest nonzero one, skipped at once: a
    # nonzero balanced digit leaves a set bit inside its own field
    e = ((cell & -cell).bit_length() - 1) // width
    cell >>= e * width
    mask = (1 << width) - 1
    half = mask >> 1
    while cell:
        c = cell & mask
        cell >>= width
        if c > half:
            # a negative digit borrowed one from the next field
            c -= mask + 1
            cell += 1
        if c:
            out[e] = c
        e += 1
    return out


def read(rs: RootSystem, ctx, key, coords) -> QPoly:
    """Cell ``coords`` of the table ``ctx.engines[key]``, as a polynomial;
    zero when ``coords`` is not in Q_+.  ``key`` is None for P_q, or the
    highest weight lam, as a coordinate tuple, for lam's seeded table.

    ``ctx`` is the caller's ``root_system.Context`` of ``rs``, or None when
    it has none yet.  ``coords`` are the fundamental-weight coordinates of
    the cell: lam - mu in lam's seeded table, mu in P_q's.  When the table
    holds the cell, one loop over the rows of the scaled inverse Cartan
    matrix tests the root lattice, checks the bound and sums the flat
    index, and the cell is decoded.  Any other point of Q_+ goes to
    ``compute`` in root coordinates, which builds or grows the table; a
    missing engine, ``PartitionEngine(rs, key)``, is put in the engines
    of ``ctx``, or of ``context(rs)`` when ``ctx`` is None, only once its
    first table is built, so a refused build leaves nothing behind.  A
    point off Q_+ touches no engine and no context.  A cell read moves its
    engine to the end of ``engines``, which runs from the least to the most
    recently used: the order in which builds drop them.
    """
    engines = ctx.engines if ctx else {}
    eng = engines.get(key)
    if eng is not None and eng.bound is not None:
        index = 0
        for row, b, s in zip(rs._scaled_inv_cartan, eng.bound, eng.strides):
            x, r = divmod(sum(map(mul, row, coords)), rs._inv_scale)
            if r or x < 0:
                return QPoly._wrap({})
            if x > b:
                break
            index += x * s
        else:
            engines[key] = engines.pop(key)
            eng.hits += 1
            return QPoly._wrap(_decode(eng.table[index], eng.width))
    root = rs.root_coords(coords)
    if root is None or min(root) < 0:
        return QPoly._wrap({})
    eng = eng or PartitionEngine(rs, key)
    cell = eng.compute(root, engines)
    # in place or not, the engine goes to the end once its table is built,
    # of a context registered only now when the caller had none
    (ctx or context(rs)).engines[key] = engines.pop(key, eng)
    return QPoly._wrap(cell)


def q_partition(rs: RootSystem, mu: Weight) -> QPoly:
    """P_q(mu) as a polynomial; the zero polynomial when mu is not in Q_+."""
    rs.check_rank(mu.coords)
    return read(rs, _contexts.get(rs._key), None, mu.coords)


# layerbench's session.py and traced_cli.py call it
def q_partition_cache_stats():
    """(table cells, lookups answered without a rebuild) over every table
    of every root system: P_q and one per highest weight."""
    engines = [eng for ctx in _contexts.values() for eng in ctx.engines.values()]
    return (sum(len(eng.table) for eng in engines), sum(eng.hits for eng in engines))
