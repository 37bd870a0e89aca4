"""Weyl group enumeration, lengths, orbits, dominant representatives.

Elements are stored as integer matrices acting on fundamental-weight
coordinates, with lengths assigned as breadth-first depth from the identity,
which for a Coxeter group equals the reduced word length.  Materialising W
is for tests and reference sums; the hot paths walk orbits of vectors
instead (``orbit``, ``stabilizer_poincare`` here, the defining sum in
``lusztig``).  ``dominant_representative`` walks integer coordinates too:
each simple reflection is a rank-one update of the point and of the matrix
it builds, and the length is the number of steps, so no root is pushed
through the matrix; ``inversion_count`` recomputes it for tests.  The
materialised W and the stabilizer polynomials are kept in the root system's
``root_system.context``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import QPoly
from .root_system import (RankGuardError, RootSystem, WEYL_ORDER_GUARD, Weight,
                          context)


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
    """Yield every Weyl element exactly once, in length order (BFS)."""
    if rs.weyl_order > WEYL_ORDER_GUARD and not rs.unsafe_large_rank:
        raise RankGuardError(
            f"{rs.name}: Weyl group order {rs.weyl_order} exceeds the guard"
        )
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


def inversion_count(rs: RootSystem, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    count = 0
    for r in rs.positive_roots:
        img = w.act(rs.root_to_weight_basis(r))
        if not rs.is_positive_root_weight(img):
            count += 1
    return count


def dominant_representative(rs: RootSystem, mu: Weight):
    """(mu_plus, w) with w(mu) = mu_plus dominant.

    Reflects at the first negative coordinate until none is left.  s_i
    lowers coordinate k by a[k][i] times coordinate i, and multiplying the
    matrix of w by s_i on the left subtracts a[k][i] times row i from row
    k, so a step touches only the k with a[k][i] != 0.  The length of w is
    the number of steps.
    """
    cur = list(mu.coords)
    n = len(cur)
    rows = [[int(j == k) for j in range(n)] for k in range(n)]
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
        for i in range(n):
            c = cur[i]
            if c < 0:
                break
        else:
            break
        ri = rows[i]
        for k, aki in cols[i]:
            cur[k] -= aki * c
            rows[k] = [x - aki * y for x, y in zip(rows[k], ri)]
        steps += 1
    return Weight(tuple(cur)), WeylElement(tuple(map(tuple, rows)), steps)


def longest_element(rs: RootSystem) -> WeylElement:
    _, w0 = dominant_representative(rs, -rs.rho)
    return w0


def stabilizer_poincare(rs: RootSystem, nu: Weight) -> QPoly:
    """Poincare polynomial t_nu(q) of the stabilizer of a dominant weight.

    The stabilizer is the parabolic subgroup generated by the simple
    reflections fixing nu.  It acts freely on the orbit of rho, and
    reflecting a point of that orbit at a positive coordinate raises the
    length by one, so the BFS layers of the walk count elements by length.
    Memoised in the root system's context.
    """
    if not nu.is_dominant():
        raise ValueError(f"{nu} is not dominant")
    memo = context(rs).stabilizers
    got = memo.get(nu.coords)
    if got is not None:
        return got
    gens = [i for i in range(rs.rank) if nu.coords[i] == 0]
    a = rs.cartan
    n = rs.rank
    terms = {}
    layer = {rs.rho.coords}
    depth = 0
    while layer:
        terms[depth] = len(layer)
        nxt = set()
        for x in layer:
            for i in gens:
                c = x[i]
                if c > 0:
                    nxt.add(tuple(x[k] - a[k][i] * c for k in range(n)))
        layer = nxt
        depth += 1
    got = memo[nu.coords] = QPoly(terms)
    return got


def orbit(rs: RootSystem, mu: Weight) -> frozenset:
    """Full Weyl orbit of a weight."""
    seen = {mu.coords}
    layer = [mu]
    a = rs.cartan
    n = rs.rank
    while layer:
        nxt = []
        for w in layer:
            for i in range(n):
                ci = w.coords[i]
                if ci == 0:
                    continue
                img = tuple(w.coords[k] - a[k][i] * ci for k in range(n))
                if img not in seen:
                    seen.add(img)
                    nxt.append(Weight(img))
        layer = nxt
    return frozenset(Weight(c) for c in seen)
