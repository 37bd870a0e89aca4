"""Simple root systems of types A–G with the static data the algorithms consume.

Conventions, fixed once and documented in the README:

* Bourbaki numbering of simple roots for every type.
* Cartan matrix entry ``A[i][j] = <alpha_j, alpha_i_check>``; the j-th column
  of A is alpha_j written in the fundamental-weight basis.
* Roots are stored in simple-root coordinates (always integer vectors);
  weights are stored in fundamental-weight coordinates (always integer
  vectors), as ``Weight``, a slotted immutable class hashed as the tuple
  ``(coords,)``.  Weight -> root coordinates is one integer core,
  ``root_coords``: a coordinate tuple times the inverse Cartan matrix scaled
  by its least common denominator, one ``divmod`` by that scale per row,
  and ``None`` off the root lattice.  The lattice test, the dominance order
  and the height read it directly; ``qkostant.read`` runs the same rows
  fused with its table's bound and strides; ``weight_to_root_coords`` is its
  exact-rational view, for callers that want the coordinates of any weight
  as ``Fraction``s, and the only code here that imports ``fractions``.
  The symmetrizer and the scaled inverse are computed in integers.
* The symmetrizer d_i is normalized so short simple roots have (a,a) = 2;
  then the coroot of a short root is the root itself.

Static data is computed once, when a ``RootSystem`` is built.  Everything
that queries fill about one root system lives in its ``Context``
(``context(rs)``), keyed by the Cartan matrix, as a string made once per
root system, in one registry; ``clear_caches`` empties it, and since
nothing in a context refers back to it, that frees every cache at once.

Nothing here grows with the order of the Weyl group.  Work that could
grow without bound is refused with a ``BudgetError`` where it happens,
against one of two budgets: ``qkostant.MAX_TABLE_CELLS`` on the cells of a
partition table, counted from its bound before it is built, and
``weyl.MAX_ORBIT_POINTS`` on the points an orbit walk, a character or the
enumeration of W holds, and on the rank times the positive roots of a type
that ``build_root_system`` would build, counted in closed form before any
root is made.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul, sub

# The number of positive roots of each type, by its rank, in closed form;
# 0 where no simple root system has that type and rank.
_POSITIVE_ROOTS = {
    "A": lambda r: r * (r + 1) // 2 if r >= 1 else 0,
    "B": lambda r: r * r if r >= 2 else 0,
    "C": lambda r: r * r if r >= 2 else 0,
    "D": lambda r: r * (r - 1) if r >= 4 else 0,
    "E": lambda r: {6: 36, 7: 63, 8: 120}.get(r, 0),
    "F": lambda r: 24 if r == 4 else 0,
    "G": lambda r: 6 if r == 2 else 0,
}


class BudgetError(ValueError):
    """The input needs more table cells or orbit points than their budget."""


class Weight:
    """Integral weight in fundamental-weight coordinates.  Immutable; equal
    only to a Weight with the same coordinates, and hashed as the tuple
    ``(coords,)``.  Weights add to and subtract from Weights of their rank."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        ints = tuple(map(int, coords))
        if ints != coords:
            bad = next(c for c in coords if int(c) != c)
            raise ValueError(f"non-integral weight coordinate {bad!r}")
        object.__setattr__(self, "coords", ints)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.coords,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"Weight(coords={self.coords!r})"

    def __add__(self, other):
        return _weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other):
        return _weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self):
        return _weight(tuple(-a for a in self.coords))

    def __mul__(self, n: int):
        return Weight(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_dominant(self) -> bool:
        return not self.coords or min(self.coords) >= 0

    def check_dominant(self):
        """Raise ValueError unless the weight is dominant."""
        if not self.is_dominant():
            raise ValueError(f"{self} is not dominant")

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _weight(coords, _new=object.__new__, _set=Weight.coords.__set__) -> Weight:
    """The Weight of a tuple of ints that the library made itself, without
    the checks of ``Weight(...)``."""
    w = _new(Weight)
    return _set(w, coords) or w  # __set__ returns None


def _standard_cartan(letter: str, rank: int):
    """Bourbaki Cartan matrix for the given simple type."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def chain(i, j):  # single bond between nodes i and j
        a[i][j] = a[j][i] = -1

    if letter in ("A", "B", "C", "F", "G"):
        for i in range(rank - 1):
            chain(i, i + 1)
    if letter == "B":  # alpha_rank short: <alpha_{r-1}, alpha_r_check> = -2
        a[rank - 1][rank - 2] = -2
    elif letter == "C":  # alpha_rank long
        a[rank - 2][rank - 1] = -2
    elif letter == "D":
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif letter == "E":
        # chain 1-3-4-5-6(-7-8), branch node 4 carries node 2
        chain(0, 2)
        for i in range(2, rank - 1):
            chain(i, i + 1)
        chain(1, 3)
    elif letter == "F":
        a[2][1] = -2  # <alpha_2, alpha_3_check> = -2; alpha_1, alpha_2 long
        a[1][2] = -1
    elif letter == "G":
        a[0][1] = -3  # alpha_1 short
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan):
    """Positive integers d_i with d_i * A[i][j] = d_j * A[j][i], min = 1."""
    rank = len(cartan)
    # d_0 starts as a multiple of every entry's product along a path of the
    # diagram, so each d_j = d_i * A[i][j] / A[j][i] below is an integer
    d = [prod(abs(x) for row in cartan for x in row if x)] + [0] * (rank - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if i != j and cartan[i][j] and not d[j]:
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                todo.append(j)
    if not all(d):
        raise ValueError("Dynkin diagram is not connected")
    lo = min(d)
    if any(x % lo for x in d):
        raise ValueError("symmetrizer is not integral")
    return tuple(x // lo for x in d)


def _positive_roots(cartan):
    """All positive roots in simple-root coordinates, sorted by height then
    lexicographically.

    They are the closure of the simple roots under the simple reflections
    that raise the height: s_i(beta) = beta - c alpha_i when
    c = <beta, alpha_i_check> < 0.  Every positive root beta that is not
    simple has some s_i(beta) positive and lower, so it is reached.
    """
    rank = len(cartan)
    todo = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(todo)
    while todo:
        beta = todo.pop()
        for i in range(rank):
            c = sum(cartan[i][j] * beta[j] for j in range(rank))
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in roots:
                    roots.add(up)
                    todo.append(up)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _invert(cartan):
    """(scale, M): the least positive integer scale for which M = scale * A^-1
    is an integer matrix, by Gauss-Jordan elimination in integers."""
    rank = len(cartan)
    aug = [list(row) + [int(j == i) for j in range(rank)] for i, row in enumerate(cartan)]
    for col in range(rank):
        piv = next(r for r in range(col, rank) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for r in range(rank):
            f = aug[r][col]
            if r != col and f:
                row = [top[col] * x - f * y for x, y in zip(aug[r], top)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    # row i is now (p_i e_i | p_i times row i of A^-1); its entries over p_i
    # in lowest terms have the denominator p_i / gcd(p_i, row)
    scale = lcm(*(row[i] // gcd(*row) for i, row in enumerate(aug)))
    return scale, tuple(tuple(x * scale // row[i] for x in row[rank:])
                        for i, row in enumerate(aug))


def _dual_partition(heights):
    """The dual partition of the height counts, ascending: the column
    lengths of the Young diagram whose rows n_1, n_2, ... count the heights
    equal to 1, 2, ....  Of the heights of the positive roots of a root
    system, reducible or not, these are its exponents."""
    counts = Counter(heights).values()
    return tuple(sorted(sum(n >= j for n in counts)
                        for j in range(1, max(counts, default=0) + 1)))


class RootSystem:
    """Immutable container for one simple root system."""

    def __init__(self, cartan, letter: str, rank: int):
        self.letter = letter
        self.rank = rank
        self.name = f"{letter}{rank}"
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        # the key of its caches in ``_contexts``: a string hashes once
        self._key = repr(self.cartan)
        # column i as its nonzero (k, a[k][i]): s_i lowers coordinate k of a
        # weight by a[k][i] times coordinate i, the one rule ``weyl`` walks by
        self.cartan_columns = tuple(
            tuple((k, row[i]) for k, row in enumerate(self.cartan) if row[i])
            for i in range(rank)
        )
        self.symmetrizer = _symmetrizer(self.cartan)
        self.positive_roots = _positive_roots(self.cartan)
        self.heights = tuple(sum(r) for r in self.positive_roots)
        self._root_index = {r: k for k, r in enumerate(self.positive_roots)}
        # the inverse Cartan matrix times its least common denominator, as ints
        self._inv_scale, self._scaled_inv_cartan = _invert(self.cartan)
        # hot(omega_i) times that denominator: column i of it, summed
        self._fund_heights = tuple(map(sum, zip(*self._scaled_inv_cartan)))

        self.exponents = _dual_partition(self.heights)
        self.coxeter_number = self.heights[-1] + 1
        self.weyl_order = prod(m + 1 for m in self.exponents)

        # one pass over the positive roots gamma: each as (its weight
        # coordinates, the coefficients of (., gamma) on weight coordinates,
        # (gamma, gamma)), Freudenthal's data that ``lusztig.character``
        # reads, and (gamma, gamma)/2: 1 for short, 2 or 3 for long
        d = self.symmetrizer
        data = []
        self.root_length = {}
        for gamma in self.positive_roots:
            gw = self.root_to_weight_basis(gamma).coords
            form = tuple(map(mul, gamma, d))
            norm = sum(map(mul, form, gw))
            if norm % 2:
                raise AssertionError(f"root {gamma} of {self.name} has odd squared length")
            data.append((gw, form, norm))
            self.root_length[gamma] = norm // 2
        self._root_data = tuple(data)
        self.short_positive_roots = tuple(
            r for r in self.positive_roots if self.root_length[r] == 1
        )
        self.short_exponents = _dual_partition(map(sum, self.short_positive_roots))

        # distinguished weights
        self.rho = Weight((1,) * rank)
        self.theta = self.root_to_weight_basis(self.positive_roots[-1])
        self.theta_root_coords = self.positive_roots[-1]
        short_dom = [r for r in self.short_positive_roots
                     if self.root_to_weight_basis(r).is_dominant()]
        if len(short_dom) != 1:
            raise AssertionError(
                f"{self.name} has {len(short_dom)} dominant short roots, expected 1"
            )
        self.theta_s_root_coords = short_dom[0]
        self.theta_s = self.root_to_weight_basis(short_dom[0])

        self.simple_roots = tuple(
            self.root_to_weight_basis(tuple(1 if j == i else 0 for j in range(rank)))
            for i in range(rank)
        )
        self._positive_root_weights = frozenset(gw for gw, _, _ in self._root_data)

    # -- basis conversion ----------------------------------------------

    def root_to_weight_basis(self, root_coords) -> Weight:
        a = self.cartan
        n = self.rank
        return Weight(tuple(
            sum(a[k][j] * root_coords[j] for j in range(n) if root_coords[j])
            for k in range(n)
        ))

    def check_rank(self, w):
        """Raise ValueError unless w, a Weight or a coordinate tuple, has one
        coordinate per simple root; either is named as a Weight prints."""
        if len(w) != self.rank:
            raise ValueError(f"{_weight(tuple(w))} is not a weight of {self.name}")

    def root_coords(self, coords):
        """Integer root coordinates of the weight with fundamental-weight
        coordinates ``coords`` (a tuple of ints), or None when it is off the
        root lattice."""
        self.check_rank(coords)
        scale = self._inv_scale
        out = []
        for row in self._scaled_inv_cartan:
            x, r = divmod(sum(map(mul, row, coords)), scale)
            if r:
                return None
            out.append(x)
        return tuple(out)

    def weight_to_root_coords(self, w: Weight) -> tuple:
        """Exact rational solution of cartan . x = coords, as Fractions
        (``fractions`` is imported on the first call)."""
        from fractions import Fraction

        self.check_rank(w)
        # scale * w lies in the root lattice, so the core returns the
        # numerators over scale
        scale = self._inv_scale
        return tuple(Fraction(x, scale)
                     for x in self.root_coords(tuple(scale * c for c in w.coords)))

    def in_root_lattice(self, w: Weight) -> bool:
        return self.root_coords(w.coords) is not None

    # -- order, height, pairing -----------------------------------------

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """True iff lam - mu is a nonnegative integer combination of simple roots."""
        self.check_rank(lam)
        self.check_rank(mu)
        diff = self.root_coords(tuple(map(sub, lam.coords, mu.coords)))
        return diff is not None and min(diff) >= 0

    def height(self, gamma: Weight) -> int:
        """Sum of simple-root coordinates; gamma must lie in Q_+."""
        coords = self.root_coords(gamma.coords)
        if coords is None or min(coords) < 0:
            raise ValueError(f"{gamma} is not a nonnegative root-lattice element")
        return sum(coords)

    def inner(self, w: Weight, root_coords) -> int:
        """Symmetrized form (w, beta) for beta given in root coordinates."""
        self.check_rank(w)
        self.check_rank(root_coords)
        d = self.symmetrizer
        return sum(root_coords[i] * d[i] * w.coords[i]
                   for i in range(self.rank) if root_coords[i] and w.coords[i])

    def pairing(self, mu: Weight, nu) -> int:
        """<mu, nu_check> for a positive root nu (Weight or root coords)."""
        if isinstance(nu, Weight):
            rc = self.root_coords(nu.coords)
            if rc is None:
                raise ValueError(f"{nu} is not a root of {self.name}")
        else:
            rc = tuple(nu)
        if rc not in self._root_index:
            raise ValueError(f"{rc} is not a positive root of {self.name}")
        # (mu, beta) / ((beta, beta) / 2): exact, since beta_check is an
        # integer sum of simple coroots and mu is integral
        return self.inner(mu, rc) // self.root_length[rc]

    def is_positive_root_weight(self, w: Weight) -> bool:
        return w.coords in self._positive_root_weights

    # -- misc -------------------------------------------------------------

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    def __repr__(self):
        return f"RootSystem({self.name})"

    def __eq__(self, other):
        return isinstance(other, RootSystem) and self.cartan == other.cartan

    def __hash__(self):
        return hash(self.cartan)


def parse_type(text: str):
    """'b3' / 'B3' / 'B_3' -> ('B', 3)."""
    t = text.strip().upper().replace("_", "")
    if len(t) < 2 or t[0] not in _POSITIVE_ROOTS or not t[1:].isdigit():
        raise ValueError(f"cannot parse root-system type {text!r}")
    letter, rank = t[0], int(t[1:])
    if not _POSITIVE_ROOTS[letter](rank):
        raise ValueError(f"no simple root system of type {letter}{rank}")
    return letter, rank


@lru_cache(maxsize=None)
def _build_cached(letter, rank):
    from .weyl import _check_points

    # each positive root holds rank coordinates and takes about rank^2
    # steps to build; the largest types that fit, A99, B79, C79 and D79,
    # build in 5.5-6.9 s on one Xeon core under Python 3.11
    count = _POSITIVE_ROOTS[letter](rank)
    _check_points(rank * count, f"{letter}{rank}, {count:,} positive roots of rank {rank},")
    return RootSystem(_standard_cartan(letter, rank), letter, rank)


def build_root_system(type_letter, rank=None) -> RootSystem:
    """Build the simple root system of the given type.

    Accepts either ("B", 3) or a single string "B3".
    """
    if rank is None and isinstance(type_letter, tuple):
        type_letter, rank = type_letter
    if rank is None:
        letter, rank = parse_type(type_letter)
    else:
        letter = type_letter.strip().upper()
        rank = int(rank)
    if letter not in _POSITIVE_ROOTS or not _POSITIVE_ROOTS[letter](rank):
        raise ValueError(f"invalid simple type {letter}{rank}")
    return _build_cached(letter, rank)


def build_dual_root_system(rs: RootSystem) -> RootSystem:
    """Root system whose roots are the coroots of ``rs`` (transposed Cartan).

    For B/C the letter swaps; F4 and G2 come back with long and short simple
    roots exchanged; simply-laced systems are unchanged.
    """
    dual_letter = {"B": "C", "C": "B"}.get(rs.letter, rs.letter)
    transposed = tuple(tuple(rs.cartan[j][i] for j in range(rs.rank))
                       for i in range(rs.rank))
    return RootSystem(transposed, dual_letter, rs.rank)


# The entries the memo of the defining sum keeps per root system.  An entry
# holds 300 bytes (an empty polynomial of A2) to 750 (the weights of B3 and
# F4 modules; tracemalloc), so a full memo holds under 8 MB.
MAX_MEMO_ENTRIES = 10_000


class Context:
    """Everything that queries fill for reuse about one root system, in one
    slot per cache; the static data lives on ``RootSystem``.

    The partition tables are filled by ``qkostant`` (P_q, under the key None)
    and ``lusztig`` (one per highest weight lam, under lam), the memo of the
    defining sum (through ``remember``) and the characters (through
    ``remember_character``) by ``lusztig``.  The context is the only holder
    of its tables, and no table refers back to it, so dropping the context
    frees them at once.  Both memos drop their oldest entries first once
    full, the tables their least recently used once their cells pass
    ``qkostant.MAX_TABLE_CELLS``.  The induction route keeps its memo for
    one call, ``weyl_elements`` rebuilds W on each call and the stabilizer
    exponents are read off the positive roots on each call, so none of
    them has a slot here.
    """

    __slots__ = ("engines", "defining", "characters", "character_weights")

    def __init__(self):
        self.engines = {}  # None or lam -> PartitionEngine
        self.defining = OrderedDict()  # (lam, mu) -> the defining sum
        self.characters = OrderedDict()  # lam -> character
        self.character_weights = 0  # the weights of the characters held

    def remember(self, key, poly):
        """Memoize the defining sum at ``key`` after a miss, dropping the
        oldest entry first when ``MAX_MEMO_ENTRIES`` are held; a hit is a
        plain read of ``defining`` and refreshes nothing."""
        if len(self.defining) >= MAX_MEMO_ENTRIES:
            self.defining.popitem(last=False)
        self.defining[key] = poly

    def remember_character(self, key, ch):
        """Memoize the character ``ch`` at ``key`` after a miss, dropping the
        oldest characters first while the weights held would pass
        ``weyl.MAX_ORBIT_POINTS``, the most that one character may hold."""
        from .weyl import MAX_ORBIT_POINTS

        self.character_weights += len(ch)
        while self.character_weights > MAX_ORBIT_POINTS:
            self.character_weights -= len(self.characters.popitem(last=False)[1])
        self.characters[key] = ch


_contexts = {}


def context(rs: RootSystem) -> Context:
    """The caches of ``rs``, shared by every root system with its Cartan matrix."""
    ctx = _contexts.get(rs._key)
    if ctx is None:
        ctx = _contexts[rs._key] = Context()
    return ctx


def clear_caches():
    """Drop every per-root-system cache: the partition tables and the
    q-analogue and character memos.

    The root systems that ``build_root_system`` hands out stay cached: they
    hold only static data, and keeping them makes each type one object.
    """
    _contexts.clear()
