"""Orbits, dominant representatives, stabilizers and the Weyl group.

One rule moves a weight: s_i lowers coordinate k of a weight by
a[k][i] times coordinate i (``RootSystem.cartan_columns``), and only this
module applies it to weights.  ``descend`` walks the orbit of a dominant
point down, one length layer at a time; ``orbit`` is the union of its
layers, ``qkostant`` reads the seeds of its Weyl numerators off the same
walk, in root coordinates and pruned to a box, and ``character`` writes
each multiplicity over the layers of its dominant weight's orbit.
``dominant_representative`` walks the other way, up to the chamber, and
returns the length of the word it took, which is all
``klimyk_decompose`` needs of it.  ``enumerate_weyl``
materialises W as integer matrices on fundamental-weight coordinates, with
s_i as a row update and lengths as breadth-first depth from the identity,
which for a Coxeter group equals the reduced word length; it is a
reference for tests, so nothing keeps W.  The stabilizer polynomials and
the orbit sizes are closed forms in the exponents of a parabolic
subsystem, read off the positive roots on each call, so no walk grows
with |W| unless it is asked to hold W or a whole orbit.  Every function
here is a pure function of the root system and its arguments: this
module keeps nothing and never touches the context registry.

The points held are bounded by one budget, ``MAX_ORBIT_POINTS``, checked
before they are made: by ``orbit`` on the closed-form size of the orbit,
by ``enumerate_weyl`` on the order of W, by ``lusztig.character`` on
the dominant weights it finds and on the sum of their orbit sizes, by
``lusztig.generalized_exponents`` on the exponents it lists and by
``root_system.build_root_system`` on the rank times the positive roots.
Over it, each raises ``root_system.BudgetError``.
"""

from __future__ import annotations

from collections import namedtuple
from math import prod
from operator import mul

from .poly import QPoly
from .root_system import BudgetError, RootSystem, Weight, _dual_partition, _weight

# The points one walk may hold.  The largest fundamental orbit of E8 (of
# omega_4, 483,840 points) fits: on one Xeon core under Python 3.11 its walk
# takes 5.0-5.1 s (10 microseconds a point) and holds 222 bytes a point, no
# more at its peak (tracemalloc), 132 MB of process RSS in all.
MAX_ORBIT_POINTS = 500_000


def _check_points(count: int, what: str):
    """Raise BudgetError when ``what`` holds more than MAX_ORBIT_POINTS."""
    if count > MAX_ORBIT_POINTS:
        raise BudgetError(f"input too large: {what} reaches {count:,} points, "
                          f"over the budget of {MAX_ORBIT_POINTS:,} orbit points")


class WeylElement(namedtuple("WeylElement", "matrix length")):
    """One element of W: its matrix on fundamental-weight coordinates and
    its length."""

    __slots__ = ()

    @property
    def sign(self) -> int:
        return -1 if self.length & 1 else 1

    # layerbench/tracer.py wraps it by name, for its weyl.act span
    def act(self, w: Weight) -> Weight:
        return Weight(tuple(sum(map(mul, row, w.coords)) for row in self.matrix))


# layerbench/tracer.py wraps it by name, for its weyl.elements.count counter
def enumerate_weyl(rs: RootSystem):
    """Yield every Weyl element exactly once, in length order (BFS).  A group
    over the orbit-point budget is refused before anything is yielded."""
    _check_points(rs.weyl_order, f"the Weyl group of {rs.name}")
    ident = tuple(tuple(int(j == k) for j in range(rs.rank)) for k in range(rs.rank))
    seen = {ident}
    layer = [ident]
    depth = 0
    while layer:
        for m in layer:
            yield WeylElement(m, depth)
        nxt = []
        for m in layer:
            for i, col in enumerate(rs.cartan_columns):
                # s_i after m: row k of m loses a[k][i] times row i
                rows = list(m)
                for k, aki in col:
                    rows[k] = tuple(a - aki * b for a, b in zip(m[k], m[i]))
                m2 = tuple(rows)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        layer = nxt
        depth += 1


# layerbench/tracer.py wraps it by name, for its weyl.elements span
def weyl_elements(rs: RootSystem) -> tuple:
    """The Weyl group, materialised in length order.  Nothing keeps it: it
    is a reference for tests, rebuilt on each call."""
    got = tuple(enumerate_weyl(rs))
    if len(got) != rs.weyl_order:
        raise AssertionError(f"enumerated {len(got)} elements, expected {rs.weyl_order}")
    return got


def dominant_representative(rs: RootSystem, mu: Weight):
    """(mu_plus, length): the dominant weight mu_plus in the orbit of mu,
    and the length of the shortest w with w(mu) = mu_plus.

    Reflects at the first negative coordinate until none is left.  s_i
    lowers coordinate k by a[k][i] times coordinate i, so a step touches
    only the k with a[k][i] != 0, and the length is the number of steps.
    """
    rs.check_rank(mu)
    cur = list(mu.coords)
    cols = rs.cartan_columns
    steps = 0
    # Why the step count is the length: let N(x) be the positive roots beta
    # with <x, beta_check> < 0.  For x_i < 0, N(s_i x) = s_i(N(x) - {alpha_i}),
    # since s_i keeps the pairing and permutes the positive roots other than
    # alpha_i, so the walk takes exactly |N(mu)| steps.  Every beta in N(mu)
    # is an inversion of w, since <w(mu), w(beta)_check> = <mu, beta_check>
    # < 0 with w(mu) dominant, so |N(mu)| <= l(w); and w is a word of |N(mu)|
    # simple reflections, so l(w) <= |N(mu)|.
    while True:
        for i, c in enumerate(cur):
            if c < 0:
                break
        else:
            return _weight(tuple(cur)), steps
        for k, aki in cols[i]:
            cur[k] -= aki * c
        steps += 1


def stabilizer_poincare(rs: RootSystem, nu: Weight) -> QPoly:
    """Poincare polynomial t_nu(q) of the stabilizer of a dominant weight.

    The stabilizer is the parabolic subgroup W_J generated by the simple
    reflections fixing nu, J = {i : nu_i = 0}, and its Poincare polynomial
    is the product of [e+1]_q over the exponents e of the root subsystem on
    J (Humphreys, Reflection Groups and Coxeter Groups, 1990, 3.15): the
    dual partition of the height counts of the positive roots supported on
    J, the rule of ``RootSystem.exponents``.
    """
    out = QPoly.one()
    for e in _stabilizer_exponents(rs, nu):
        out = out * QPoly.q_int(e + 1)
    return out


def orbit_size(rs: RootSystem, nu: Weight) -> int:
    """The number of points in the orbit of a dominant weight: |W| / t_nu(1),
    with t_nu(1) the product of e+1 over the exponents of the stabilizer."""
    return rs.weyl_order // prod(e + 1 for e in _stabilizer_exponents(rs, nu))


def _stabilizer_exponents(rs: RootSystem, nu: Weight) -> tuple:
    """The exponents of the stabilizer of a dominant weight, computed from
    its coordinates on each call: nothing is kept."""
    rs.check_rank(nu)
    nu.check_dominant()
    # a positive root lies in the subsystem on J = {i : nu_i = 0} exactly
    # when every product r_i * nu_i vanishes, as no factor is negative
    return _dual_partition(h for r, h in zip(rs.positive_roots, rs.heights)
                           if not any(map(mul, r, nu.coords)))


def descend(rs: RootSystem, top, bound=None):
    """Walk the orbit of the dominant coordinate tuple ``top`` down, and
    yield it one length layer at a time: a dict from each point x of the
    layer to its depth, the root coordinates of top - x.  A point whose
    depth leaves the box [0, bound] is dropped with everything below it.

    Layer k holds the points x = w(top) whose shortest w has length k, the
    number of positive roots pairing negatively with x.  At a coordinate
    c = x[i] > 0, s_i w is one longer and still the shortest for s_i(x),
    and root coordinate i of the depth grows by c.  A point x below the
    top has some x[i] < 0 and is reached from s_i(x), one layer up, whose
    coordinate i is -x[i] > 0.  So each point lies in exactly one layer,
    and a point is looked up only in the layer that is being made.
    """
    cols = rs.cartan_columns
    layer = {tuple(top): (0,) * rs.rank}
    while layer:
        yield layer
        nxt = {}
        for x, d in layer.items():
            for i, c in enumerate(x):
                if c <= 0 or bound is not None and d[i] + c > bound[i]:
                    continue
                y = list(x)
                for k, aki in cols[i]:
                    y[k] -= aki * c
                y = tuple(y)
                if y not in nxt:
                    nxt[y] = d[:i] + (d[i] + c,) + d[i + 1:]
        layer = nxt


def orbit(rs: RootSystem, mu: Weight) -> frozenset:
    """Full Weyl orbit of a weight, walked down from its dominant point.
    Its closed-form size is counted against the orbit-point budget before
    the walk, and each point becomes one Weight."""
    top, _ = dominant_representative(rs, mu)
    _check_points(orbit_size(rs, top), f"the orbit of {mu}")
    return frozenset(_weight(x) for layer in descend(rs, top.coords) for x in layer)
