"""Simple root systems of types A–G with the static data the algorithms consume.

Conventions, fixed once and documented in the README:

* A root system is made from its type name alone, such as "B3": its Cartan
  matrix is the one ``_standard_cartan`` makes for that type, so every
  root system, a dual one included, has Bourbaki numbering of its simple
  roots.
* Cartan matrix entry ``A[i][j] = <alpha_j, alpha_i_check>``; the j-th column
  of A is alpha_j written in the fundamental-weight basis.
* Roots are stored in simple-root coordinates (always integer vectors);
  weights are stored in fundamental-weight coordinates (always integer
  vectors), as ``Weight``, a slotted immutable class hashed as the tuple
  ``(coords,)``.  Weight -> root coordinates is one integer core,
  ``root_coords``: a coordinate tuple times the inverse Cartan matrix scaled
  by its least common denominator, one ``divmod`` by that scale per row,
  and ``None`` off the root lattice.  The lattice test, the dominance order
  and the height read it directly; each ``qkostant`` table keeps the same
  rows next to their products with its lam, its bound and its strides, for
  ``qkostant.read``.  ``weight_to_root_coords`` is the exact-rational view
  of ``root_coords``, for callers that want the coordinates of any weight
  as ``Fraction``s, and the only code here that imports ``fractions``.
  The symmetrizer and the scaled inverse are computed in integers.
* The symmetrizer d_i is normalized so short simple roots have (a,a) = 2;
  then the coroot of a short root is the root itself.

``RootSystem.weight`` is the one check of a weight argument of the public
API in ``lusztig``, ``identities``, ``weyl`` and ``qkostant``: each public
function hands it every weight argument, itself or through the first
public function or ``RootSystem`` method that it hands the weight to,
before any work.  It returns the argument only when it is a ``Weight`` of
the system's rank, dominant where a highest weight is asked for; any other
value, a tuple included, raises TypeError and is not converted.  The ``RootSystem`` methods that
take a weight (``dominance_leq``, ``height``, ``inner``, ``pairing``,
``in_root_lattice``, ``is_positive_root_weight`` and
``weight_to_root_coords``) read it through the same check.  A coordinate
tuple is checked for its length only where it is taken: the weight
coordinates of ``root_coords`` and the root coordinates of ``inner``.
``pairing`` takes its root only as the root coordinates of a positive
root, never as a Weight.  ``lusztig_q_analogue`` answers a memo hit
before any check, since only a checked query is remembered and only a
pair of arguments of type Weight is looked up, and after a miss checks
lam only when no table is held under lam's coordinates: a table is made
only under a lam that passed the check.

Static data is computed once, when a ``RootSystem`` is built.  Everything
that queries fill about one root system lives in its ``Context``
(``context(rs)``), keyed by the Cartan matrix, as a string made once per
root system, in one registry; ``clear_caches`` empties it, and since
nothing in a context refers back to it, that frees every cache at once.

Nothing here grows with the order of the Weyl group.  Work that could
grow without bound is refused with a ``BudgetError`` where it happens,
against one of two budgets: ``qkostant.MAX_TABLE_CELLS`` on the cells of a
partition table, counted from its bound before it is built, and
``MAX_ORBIT_POINTS`` on the points an orbit walk, a character, the
enumeration of W or the induction route's walk holds, and on the rank
times the positive roots of a type that ``RootSystem`` would build,
counted in closed form before its Cartan matrix is made.  That budget and
its check, ``_check_points``, live here, since ``RootSystem`` is the first
to count against them, and the modules above import them from here: this
module imports no other module of the package.
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


# The points one walk may hold.  The largest fundamental orbit of E8 (of
# omega_4, 483,840 points) fits: on one Xeon core under Python 3.11 its walk
# takes 5.0-5.1 s (10 microseconds a point) and holds 222 bytes a point, no
# more at its peak (tracemalloc), 132 MB of process RSS in all.
MAX_ORBIT_POINTS = 500_000


def _check_points(count: int, what: str, *args):
    """Raise BudgetError when ``what``, followed by ``args``, holds more
    than MAX_ORBIT_POINTS.  The args are put through ``str`` only then, so
    a check that passes formats nothing."""
    if count > MAX_ORBIT_POINTS:
        what = " ".join(map(str, (what, *args)))
        raise BudgetError(f"input too large: {what} reaches {count:,} points, "
                          f"over the budget of {MAX_ORBIT_POINTS:,} orbit points")


def _as_int(c):
    """int(c), or None where int refuses c: a str such as 'x', nan or inf."""
    try:
        return int(c)
    except (ValueError, OverflowError):
        return None


class Weight:
    """Integral weight in fundamental-weight coordinates.  Immutable; equal
    only to a Weight with the same coordinates, and hashed as the tuple
    ``(coords,)``.  A coordinate that is a bool raises TypeError, and one
    that is not integral ValueError.  Weights add to and subtract from
    Weights of their rank, and multiply by ints; any other operand, a bool
    included, raises TypeError."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if bool in map(type, coords):
            raise TypeError(f"a weight coordinate is an int, not a bool: {coords!r}")
        ints = tuple(map(_as_int, coords))
        if ints != coords:
            bad = next(c for c, i in zip(coords, ints) if i != c)
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
        if not isinstance(other, Weight):
            return NotImplemented
        try:
            return _weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))
        except ValueError:  # only the strict zip raises it
            raise ValueError(f"cannot add {other} to {self}: the ranks differ") from None

    def __sub__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        try:
            return _weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))
        except ValueError:
            raise ValueError(f"cannot subtract {other} from {self}: the ranks differ") from None

    def __neg__(self):
        return _weight(tuple(-a for a in self.coords))

    def __mul__(self, n: int):
        if type(n) is not int:  # a bool included
            return NotImplemented
        return _weight(tuple(n * a for a in self.coords))

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
    """Positive integers d_i with d_i * A[i][j] = d_j * A[j][i], min = 1, of
    the Cartan matrix of a simple type: its diagram is connected, so the
    walk below reaches every node, and its roots have at most two lengths in
    the ratio 2 or 3, so each d_i is a multiple of the least."""
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
    lo = min(d)
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
    """The simple root system of the type ``name``, such as "B3", "b_3" or
    "E8", as ``parse_type`` reads it, with the Bourbaki Cartan matrix of
    that type; immutable.  Anything that is not a type name raises
    ValueError, and a type whose rank times positive roots is over
    ``MAX_ORBIT_POINTS`` raises BudgetError before anything is built.
    ``build_root_system`` builds each type once and shares it."""

    def __init__(self, name: str):
        letter, rank = parse_type(name)
        # each positive root holds rank coordinates and takes about rank^2
        # steps to build; the largest types that fit, A99, B79, C79 and D79,
        # build in 5.5-6.9 s on one Xeon core under Python 3.11
        count = _POSITIVE_ROOTS[letter](rank)
        _check_points(rank * count, f"{letter}{rank}, {count:,} positive roots of rank {rank},")
        self.letter = letter
        self.rank = rank
        self.name = f"{letter}{rank}"
        self.cartan = _standard_cartan(letter, rank)
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
        # the short dominant root is the highest short root
        self.theta_s_root_coords = self.short_positive_roots[-1]
        self.theta_s = self.root_to_weight_basis(self.theta_s_root_coords)

        self.simple_roots = tuple(
            self.root_to_weight_basis(tuple(1 if j == i else 0 for j in range(rank)))
            for i in range(rank)
        )

    # -- basis conversion ----------------------------------------------

    def root_to_weight_basis(self, root_coords) -> Weight:
        a = self.cartan
        n = self.rank
        return Weight(tuple(
            sum(a[k][j] * root_coords[j] for j in range(n) if root_coords[j])
            for k in range(n)
        ))

    def weight(self, w, dominant=False) -> Weight:
        """``w`` itself, once it is checked to be a Weight of this rank, and
        dominant when ``dominant`` is true: the one check of a weight
        argument of the public API.  Any value whose type is not Weight
        raises TypeError; dominance is tested before the rank, each raising
        ValueError."""
        if type(w) is not Weight:
            raise TypeError(f"a weight of {self.name} is a Weight, not {w!r}")
        if dominant and not w.is_dominant():
            raise ValueError(f"{w} is not dominant")
        if len(w.coords) != self.rank:
            raise ValueError(f"{w} is not a weight of {self.name}")
        return w

    def root_coords(self, coords):
        """Integer root coordinates of the weight with fundamental-weight
        coordinates ``coords`` (a tuple of ints), or None when it is off the
        root lattice.  Any other type than a tuple raises TypeError; the
        ints are not checked, since every caller makes them."""
        if type(coords) is not tuple:
            raise TypeError(f"weight coordinates of {self.name} are a tuple, not {coords!r}")
        if len(coords) != self.rank:
            raise ValueError(f"{_weight(coords)} is not a weight of {self.name}")
        scale = self._inv_scale
        out = []
        for row in self._scaled_inv_cartan:
            x, r = divmod(sum(map(mul, row, coords)), scale)
            if r:
                return None
            out.append(x)
        return tuple(out)

    # layerbench/tracer.py wraps it by name, and the traced cli-verify run
    # requires its root_system.to_root_coords span
    def weight_to_root_coords(self, w: Weight) -> tuple:
        """Exact rational solution of cartan . x = coords, as Fractions
        (``fractions`` is imported on the first call)."""
        from fractions import Fraction

        # scale * w lies in the root lattice, so the core returns the
        # numerators over scale
        scale = self._inv_scale
        return tuple(Fraction(x, scale)
                     for x in self.root_coords(tuple(scale * c for c in self.weight(w).coords)))

    def in_root_lattice(self, w: Weight) -> bool:
        return self.root_coords(self.weight(w).coords) is not None

    # -- order, height, pairing -----------------------------------------

    def dominance_leq(self, mu: Weight, lam: Weight) -> bool:
        """True iff lam - mu is a nonnegative integer combination of simple roots."""
        diff = self.root_coords(tuple(map(sub, self.weight(lam).coords, self.weight(mu).coords)))
        return diff is not None and min(diff) >= 0

    def height(self, gamma: Weight) -> int:
        """Sum of simple-root coordinates; gamma must lie in Q_+."""
        coords = self.root_coords(self.weight(gamma).coords)
        if coords is None or min(coords) < 0:
            raise ValueError(f"{gamma} is not a nonnegative root-lattice element")
        return sum(coords)

    def inner(self, w: Weight, root_coords) -> int:
        """Symmetrized form (w, beta) for beta given in root coordinates, a
        tuple."""
        if type(root_coords) is not tuple:
            raise TypeError(f"root coordinates of {self.name} are a tuple, not {root_coords!r}")
        if len(root_coords) != self.rank:
            raise ValueError(f"{root_coords} are not root coordinates of {self.name}")
        d = self.symmetrizer
        coords = self.weight(w).coords
        return sum(root_coords[i] * d[i] * coords[i]
                   for i in range(self.rank) if root_coords[i] and coords[i])

    def pairing(self, mu: Weight, rc) -> int:
        """<mu, beta_check> for the positive root beta with root coordinates
        rc.  Any other rc, a Weight or a list included, is not a positive
        root; a non-tuple is refused before it is hashed."""
        if type(rc) is not tuple or rc not in self.root_length:
            raise ValueError(f"{rc} is not a positive root of {self.name}")
        # (mu, beta) / ((beta, beta) / 2): exact, since beta_check is an
        # integer sum of simple coroots and mu is integral
        return self.inner(mu, rc) // self.root_length[rc]

    def is_positive_root_weight(self, w: Weight) -> bool:
        return self.root_coords(self.weight(w).coords) in self.root_length

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
    """'b3' / 'B3' / 'B_3' -> ('B', 3); anything else, a non-string
    included, raises ValueError."""
    t = text.strip().upper().replace("_", "") if isinstance(text, str) else ""
    if len(t) < 2 or t[0] not in _POSITIVE_ROOTS or not t[1:].isdecimal():
        raise ValueError(f"cannot parse root-system type {text!r}")
    letter, rank = t[0], int(t[1:])
    if not _POSITIVE_ROOTS[letter](rank):
        raise ValueError(f"no simple root system of type {letter}{rank}")
    return letter, rank


@lru_cache(maxsize=None)
def _build_cached(letter, rank):
    return RootSystem(f"{letter}{rank}")


def build_root_system(name: str) -> RootSystem:
    """The simple root system of the type ``name``, such as "B3", "b_3" or
    "E8", as ``parse_type`` reads it.  Each type is built once and shared."""
    return _build_cached(*parse_type(name))


def build_dual_root_system(rs: RootSystem) -> RootSystem:
    """The root system of the dual type of ``rs``, whose roots are the
    coroots of ``rs``: C_n for B_n, B_n for C_n, and the type of ``rs`` for
    every other type.  It is the one ``build_root_system`` shares, in
    Bourbaki numbering like every root system here."""
    return _build_cached({"B": "C", "C": "B"}.get(rs.letter, rs.letter), rs.rank)


# The entries the memo of the defining sum keeps per root system.  An entry
# holds 300 bytes (an empty polynomial of A2) to 750 (the weights of B3 and
# F4 modules; tracemalloc), so a full memo holds under 8 MB.
MAX_MEMO_ENTRIES = 10_000


class Context:
    """Everything that queries fill for reuse about one root system, in one
    slot per cache; the static data lives on ``RootSystem``.

    The partition tables are filled only by ``qkostant.read`` (P_q, under
    the key None, and one per highest weight lam, under lam), the memo of
    the defining sum (through ``remember``) and the characters (through
    ``remember_character``) by ``lusztig``.  Only ``context`` makes and
    registers a context, and only ``clear_caches`` drops them, so the
    callers that may be the first to fill one write through ``context`` and
    leave none behind when refused.  The context is the only holder
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
        ``MAX_ORBIT_POINTS``, the most that one character may hold."""
        self.character_weights += len(ch)
        while self.character_weights > MAX_ORBIT_POINTS:
            self.character_weights -= len(self.characters.popitem(last=False)[1])
        self.characters[key] = ch


_contexts = {}


def context(rs: RootSystem) -> Context:
    """The caches of ``rs``, shared by every root system with its Cartan
    matrix: the one place that makes a context and registers it."""
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
