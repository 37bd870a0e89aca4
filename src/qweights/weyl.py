"""Weyl group enumeration, lengths, orbits, dominant representatives.

Elements are stored as integer matrices acting on fundamental-weight
coordinates, with lengths assigned as breadth-first depth from the identity,
which for a Coxeter group equals the reduced word length.  Materialising W
is for tests and reference sums; the hot paths walk orbits of vectors
instead (``orbit`` here, the pruned walk of the defining sum in
``lusztig``).  ``dominant_representative`` walks integer coordinates too,
one rank-one update of the point per simple reflection, and returns the
length of the word it took, which is all ``klimyk_decompose`` needs of it.
The stabilizer polynomials and the orbit sizes are closed forms in the
exponents of a parabolic subsystem, so no walk grows with |W| unless it is
asked to hold W or a whole orbit.  The materialised W is kept in the root
system's ``root_system.context``.

The points held are bounded by one budget, ``MAX_ORBIT_POINTS``, checked
where they are made: by ``orbit`` after each breadth-first layer, by
``enumerate_weyl`` on the order of W before it yields anything, and by
``lusztig.character`` on the dominant weights it finds and on the sum of
their orbit sizes, before it walks any orbit.  Over it, each raises
``root_system.BudgetError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul

from .poly import QPoly
from .root_system import BudgetError, RootSystem, Weight, _dual_partition, context

# The points one walk may hold.  The largest fundamental orbit of E8 (of
# omega_4, 483,840 points) fits: on one Xeon core under Python 3.11 its walk
# takes 6.3 s (13 microseconds a point) and holds 223 bytes a point, 361 at
# its peak (tracemalloc), 212 MB of process RSS in all.
MAX_ORBIT_POINTS = 500_000


def _check_points(count: int, what: str):
    """Raise BudgetError when ``what`` holds more than MAX_ORBIT_POINTS."""
    if count > MAX_ORBIT_POINTS:
        raise BudgetError(f"input too large: {what} reaches {count:,} points, "
                          f"over the budget of {MAX_ORBIT_POINTS:,} orbit points")


@dataclass(frozen=True)
class WeylElement:
    matrix: tuple
    length: int

    @property
    def sign(self) -> int:
        return -1 if self.length & 1 else 1

    def act(self, w: Weight) -> Weight:
        m = self.matrix
        c = w.coords
        n = len(c)
        return Weight(tuple(
            sum(m[k][j] * c[j] for j in range(n) if c[j]) for k in range(n)
        ))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def enumerate_weyl(rs: RootSystem):
    """Yield every Weyl element exactly once, in length order (BFS).  A group
    over the orbit-point budget is refused before anything is yielded."""
    _check_points(rs.weyl_order, f"the Weyl group of {rs.name}")
    gens = [rs.simple_reflection_matrix(i) for i in range(rs.rank)]
    ident = _identity(rs.rank)
    seen = {ident}
    layer = [ident]
    depth = 0
    while layer:
        for m in layer:
            yield WeylElement(m, depth)
        nxt = []
        for m in layer:
            for g in gens:
                m2 = _mat_mul(g, m)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        layer = nxt
        depth += 1


def weyl_elements(rs: RootSystem) -> tuple:
    """Fully materialized Weyl group, cached in the root system's context."""
    ctx = context(rs)
    if ctx.weyl_group is None:
        got = tuple(enumerate_weyl(rs))
        if len(got) != rs.weyl_order:
            raise AssertionError(
                f"enumerated {len(got)} elements, expected {rs.weyl_order}"
            )
        ctx.weyl_group = got
    return ctx.weyl_group


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
            return Weight(tuple(cur)), steps
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
    rs.check_rank(nu)
    if not nu.is_dominant():
        raise ValueError(f"{nu} is not dominant")
    # a positive root lies in the subsystem on J = {i : nu_i = 0} exactly
    # when every product r_i * nu_i vanishes, as no factor is negative
    return _dual_partition(h for r, h in zip(rs.positive_roots, rs.heights)
                           if not any(map(mul, r, nu.coords)))


def orbit(rs: RootSystem, mu: Weight) -> frozenset:
    """Full Weyl orbit of a weight.  The walk runs on coordinate tuples, and
    each point becomes one Weight at the end.  The points are counted
    against the orbit-point budget after each breadth-first layer."""
    rs.check_rank(mu)
    seen = {mu.coords}
    layer = [mu.coords]
    cols = rs.cartan_columns
    while layer:
        nxt = []
        for x in layer:
            for i, c in enumerate(x):
                if c == 0:
                    continue
                y = list(x)
                for k, aki in cols[i]:
                    y[k] -= aki * c
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        _check_points(len(seen), f"the orbit of {mu}")
        layer = nxt
    return frozenset(map(Weight, seen))
