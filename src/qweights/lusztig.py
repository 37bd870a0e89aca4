"""q-analogues of weight multiplicities, computed three ways.

* ``lusztig_q_analogue`` — the defining alternating sum of partition values
  at w(lam+rho)-(mu+rho).  The sum is linear in the partition function, so
  for a fixed lam the whole family mu -> m_lam^mu(q) is one generating
  function, (Weyl numerator of lam) / prod_{gamma>0}(1 - q e^gamma).  Each
  lam gets one kernel table, and m_lam^mu is its cell lam - mu.
  ``qkostant`` owns what the table holds: it seeds it with the numerator,
  at the points (lam+rho) - w(lam+rho) of the orbit of lam+rho walked down
  one length layer at a time and pruned to the box, and grows it to the
  module box lam - w0(lam), which holds every weight of the module.  A
  cell has negative coefficients where mu is not dominant; the kernel
  decodes them exactly;
* ``q_analogue_by_induction`` — the reflection relation at a negative
  coordinate of the target weight, in one walk over the weights between
  mu and lam, reducing to dominant targets which fall back to the sum.
  It is a cross-check, so its memo lives for one call only.  It answers
  every query the sum answers, and more: it is refused only by the count
  of the weights its walk holds (``root_system.MAX_ORBIT_POINTS``) or by
  the sum at a dominant base case;
* ``q_analogue_via_kernel`` — convolution of ordinary weight multiplicities
  (Freudenthal) with the q-analogues at highest weight zero, which it reads
  through ``lusztig_q_analogue(rs, 0, .)``: the sum's lam = 0 table and memo.

So the routes are not disjoint: the induction reads the sum at dominant
weights, and the convolution reads the sum at lam = 0.  The induction is
the cross-check that uses no seeds on non-dominant weights: there the
reflection relation alone gives each value, so a wrong seed or sign in the
sum's tables shows as a disagreement with it.

Supporting operations: characters, tensor decomposition, stabilizer Poincare
ratios, generalized exponents, and the coefficientwise-positivity test.

The memo of the defining sum, the characters and the seeded tables are
slots of the root system's ``root_system.Context``, next to the P_q table;
``clear_caches`` (re-exported here) drops them all at once.  Both memos
are bounded: the defining sum by its entries, the characters by the
weights they hold.  A q-analogue that is refused, for its input or for
the budget of its table, leaves no context where there was none, and
so does a character refused for its input or for either of its budgets.
The induction route refused by its walk count keeps what it read from
the sum at dominant weights.
This module builds no context and no table: it looks up the context of
``rs`` in the registry, hands it (or None) and lam to ``qkostant.read``,
the only code that makes and fills the tables, and writes its memos into
it, or through ``context(rs)``, which registers a new one, when there was
none.
Freudenthal's data on each positive root is static, and ``character``
reads it from the ``RootSystem``.

Every weight argument is checked by ``RootSystem.weight``, the one check
of the public API: in each function here, or in the first public function
it hands the weight to.  Between the API call and the table cell
everything runs on integer coordinate tuples.  ``lusztig_q_analogue``
looks up the memo first, since only a valid query is ever remembered,
and only when lam and mu are both of type Weight, by their coordinates;
for any other argument, a subclass of Weight or anything else with
``coords`` included, the key is None, which misses.  After a miss it
checks lam with ``RootSystem.weight`` unless the context holds a table
under lam's coordinates: a table is built only under a lam that passed
that check, and a context belongs to one Cartan matrix.  A key of None
always checks lam, since P_q's table is held under None, so every
argument that is not a Weight meets the check and raises TypeError.  mu
is checked on every miss, and its coordinates are handed to
``qkostant.read``.  There one pass over the rows that lam's table keeps
takes mu to its cell when the table holds it, and only a point outside
the table is converted (``RootSystem.root_coords``) and handed to the
kernel to build or grow the table.  The cell is decoded in ``qkostant``
and becomes a QPoly without a second check.  ``character`` fills orbits
and Freudenthal's denominators on tuples too, and makes one Weight per
weight of the module.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mul, sub

from .poly import QPoly
from .qkostant import read
from .root_system import (BudgetError, RootSystem, Weight, _check_points, _contexts,
                          _weight, clear_caches, context)
from .weyl import descend, dominant_representative, orbit, orbit_size, stabilizer_poincare

# Freudenthal's sum for a dominant weight mu walks the string mu + k*gamma up
# each positive root gamma while it stays in the module.  No character walks
# more steps than this in all, as bounded from its dominant weights before
# any orbit is walked.  A2 (900,0), whose orbits fit the orbit-point budget,
# would walk tens of millions of steps and is refused in well under a second.
MAX_STRING_STEPS = 2_000_000


def _read_only(self, *args, **kwargs):
    raise TypeError("a WeightMultiset is read-only; copy it with dict(...)")


class WeightMultiset(dict):
    """Weights with positive integer multiplicities: an ordered dict from
    each weight to its multiplicity, in the order it was built.  Read-only,
    since ``character`` hands out its memo: every mutator raises
    ``TypeError``, and ``dict(...)`` makes a copy to change.  ``copy``,
    ``deepcopy`` and ``pickle`` rebuild it from such a copy."""

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return self.__class__, (dict(self),)

    # layerbench's oracle.check_poly reads a weight off the module as this 0
    def get(self, w: Weight, default=0) -> int:
        return super().get(w, default)

    def items(self):
        return list(super().items())

    def dominant_items(self):
        return [(w, m) for w, m in super().items() if w.is_dominant()]

    # layerbench/session.py checks the mass of each character through it
    def total_mass(self) -> int:
        return sum(self.values())


def lusztig_q_analogue(rs: RootSystem, lam: Weight, mu: Weight) -> QPoly:
    """The q-analogue of the multiplicity of mu in the highest-weight module
    of lam: the alternating Weyl-group sum of partition values at
    w(lam+rho)-(mu+rho), read as cell lam - mu of lam's seeded table."""
    # only a pair of exact Weights is looked up; anything else is refused below
    key = (lam.coords, mu.coords) if type(lam) is Weight is type(mu) else None
    # only a valid query is remembered, and only a valid one makes a context
    ctx = _contexts.get(rs._key)
    got = ctx and ctx.defining.get(key)
    if got is not None:
        return got
    # a table is built only under a lam that passed this check, and a
    # context holds the tables of one Cartan matrix, so of one rank; P_q's
    # table is held under None, so a key of None always checks lam
    if key is None or not ctx or key[0] not in ctx.engines:
        rs.weight(lam, dominant=True)
    rs.weight(mu)
    poly = read(rs, ctx, lam.coords, mu.coords)
    (ctx or context(rs)).remember(key, poly)
    return poly


def q_analogue_by_induction(rs: RootSystem, lam: Weight, mu: Weight) -> QPoly:
    """Same value as lusztig_q_analogue, by the reflection relation.

    With n = -<nu, alpha_check> > 0 for a simple alpha:
    n = 1 gives m^nu = q*m^{nu+alpha};
    n >= 2 gives m^nu = q*(m^{nu+alpha} + m^{nu+n*alpha}) - m^{nu+(n-1)*alpha}.
    One walk on an explicit stack keeps every weight it reads in one memo,
    for this call only.  A weight nu not below lam (lam - nu off Q_+) is
    zero, a dominant one comes from the defining sum, and any other from
    the relation, whose weights lie above nu, so lam - nu shrinks in every
    root coordinate.  The walk counts what it holds, memo and stack, on
    each step against ``root_system.MAX_ORBIT_POINTS``, and the defining
    sum checks the table of each dominant weight it reaches against its own
    budget.  Route 2 therefore answers every query route 1 answers, with
    the same value, and is refused only by its walk count or by route 1 at
    a dominant base case.
    """
    lc = rs.weight(lam, dominant=True).coords
    rs.weight(mu)
    memo = {}
    # the chain mu, mu+alpha, ... grows with -<mu, alpha_check>, which is
    # unbounded, so Python recursion would overflow
    stack = [mu.coords]
    while stack:
        # mu and lam are formatted into the message only on a refusal
        _check_points(len(memo) + len(stack), "the induction walk from", mu, "to", lam)
        nu = stack[-1]
        if nu in memo:
            stack.pop()
            continue
        diff = rs.root_coords(tuple(map(sub, lc, nu)))
        if diff is None or min(diff) < 0:
            memo[nu] = QPoly.zero()
        elif min(nu) >= 0:
            memo[nu] = lusztig_q_analogue(rs, lam, Weight(nu))
        else:
            i = next(k for k, c in enumerate(nu) if c < 0)
            n = -nu[i]
            alpha = rs.simple_roots[i].coords
            deps = [tuple(x + k * a for x, a in zip(nu, alpha))
                    for k in ((1,) if n == 1 else (1, n, n - 1))]
            missing = [d for d in deps if d not in memo]
            if missing:
                stack += missing
                continue
            up, *far = (memo[d] for d in deps)
            memo[nu] = QPoly.q() * (up + far[0]) - far[1] if far else QPoly.q() * up
        stack.pop()
    return memo[mu.coords]


def cherednik_coefficient(rs: RootSystem, nu: Weight) -> QPoly:
    """m_0^{-nu}(q), the kernel coefficient at a point nu of Q_+."""
    zero = Weight.zero(rs.rank)
    if not rs.dominance_leq(zero, nu):
        raise ValueError(f"{nu} is not in the positive root cone")
    return lusztig_q_analogue(rs, zero, -nu)


def q_analogue_via_kernel(rs: RootSystem, lam: Weight, mu: Weight) -> QPoly:
    """Convolution route: sum of m_lam^gamma * m_0^{mu-gamma}(q) over weights
    gamma of the module with gamma above mu."""
    rs.weight(mu)
    zero = Weight.zero(rs.rank)
    acc = {}
    for gamma, m in character(rs, lam).items():
        if not rs.dominance_leq(mu, gamma):
            continue
        ker = lusztig_q_analogue(rs, zero, mu - gamma)
        for e, c in ker.terms().items():
            acc[e] = acc.get(e, 0) + m * c
    return QPoly(acc)


# -- characters ---------------------------------------------------------


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """Dimension of the irreducible module, by the product formula."""
    num = 1
    den = 1
    lr = (rs.weight(lam, dominant=True) + rs.rho).coords
    # (lam + rho, gamma) and (rho, gamma) from Freudenthal's data on gamma
    for _, form, _ in rs._root_data:
        num *= sum(map(mul, form, lr))
        den *= sum(form)
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl dimension of {lam} in {rs.name} is not integral")
    return q


def character(rs: RootSystem, lam: Weight) -> WeightMultiset:
    """Full character: every weight with its multiplicity (Freudenthal).

    The dominant weights are found by descent from lam, taking mu - gamma
    for every positive root gamma while it stays dominant: two dominant
    weights next to each other in the dominance order differ by a positive
    root (Stembridge, "The partial order of dominant weights", 1998), so the
    descent reaches every dominant weight of the module.  They are taken by
    level ht(lam - mu) from the top, and each multiplicity, once known, is
    written onto the whole Weyl orbit of its weight, walked once, down from
    mu one length layer at a time (``weyl.descend``), so the weights are
    the union of those orbits.  Every mu + k*gamma in Freudenthal's sum for
    mu lies above mu, and so does its dominant representative, so it is
    already filled in.  The dominant weights found, and then the weights of
    the module (the sum of their orbit sizes, a closed form), are counted
    against the orbit-point budget before any orbit is walked, and so is a
    bound on the string steps of Freudenthal's sums against
    ``MAX_STRING_STEPS``: every mu + k*gamma lies below lam, so k*gamma is
    at most lam - mu in each root coordinate.  The
    result is one ordered dict, by level and then coordinates, made once
    the weights are known; only a character that is not refused is
    remembered, so a refused one leaves no context.
    """
    rs.weight(lam, dominant=True)
    ctx = _contexts.get(rs._key)
    got = ctx and ctx.characters.get(lam.coords)
    if got is not None:
        return got

    # Freudenthal's data on each positive root, static data of rs
    roots, d = rs._root_data, rs.symmetrizer
    lc = lam.coords
    found = {lc}
    todo = [lc]
    while todo:
        mu = todo.pop()
        for gw, _, _ in roots:
            nu = tuple(map(sub, mu, gw))
            if min(nu) >= 0 and nu not in found:
                found.add(nu)
                todo.append(nu)
        # lam is formatted into the message only on a refusal, not once
        # per weight popped
        _check_points(len(found), "the dominant weights of", lam)
    # the orbit size of a dominant weight depends only on its zero
    # coordinates, so it is counted once per pattern of them
    zeros = Counter(tuple(map(bool, nu)) for nu in found)
    _check_points(sum(n * orbit_size(rs, _weight(z)) for z, n in zeros.items()),
                  "the weights of", lam)
    # lam - mu in root coordinates, for the bound and Freudenthal's denominators
    depth = {mu: rs.root_coords(tuple(map(sub, lc, mu))) for mu in found}
    steps = sum(min(x // g for x, g in zip(depth[mu], gamma) if g)
                for mu in found for gamma in rs.positive_roots)
    if steps > MAX_STRING_STEPS:
        raise BudgetError(
            f"input too large: the character of {lam} walks up to {steps:,} "
            f"string steps, over the budget of {MAX_STRING_STEPS:,}")
    # ht(lam - w), up to the scale of the inverse Cartan matrix and a shift
    # that is the same for every weight, as one dot product
    height = rs._fund_heights

    def level(c):
        return (-sum(map(mul, height, c)), c)

    dominants = sorted(found, key=level)
    # the only weyl.orbit call on the table path: the traced cli-table run
    # of layerbench requires its span, so ``descend`` must not replace it
    mult = dict.fromkeys((nu.coords for nu in orbit(rs, lam)), 1)
    for mu in dominants[1:]:
        rhs = 0
        for gw, form, norm in roots:
            # (nu, gamma) along the string nu = mu + k*gamma
            pair = sum(map(mul, form, mu))
            nu = tuple(map(add, mu, gw))
            m = mult.get(nu)
            while m is not None:
                pair += norm
                rhs += pair * m
                nu = tuple(map(add, nu, gw))
                m = mult.get(nu)
        # (lam + mu + 2 rho, lam - mu)
        denom = sum(r * di * (a + b + 2) for r, di, a, b in zip(depth[mu], d, lc, mu))
        m, rem = divmod(2 * rhs, denom)
        if rem or m <= 0:
            raise AssertionError(
                f"Freudenthal step failed for {lam}, {mu} in {rs.name}: "
                f"2*{rhs} / {denom}"
            )
        for layer in descend(rs, mu):
            mult.update(dict.fromkeys(layer, m))

    # every multiplicity is positive and the orbits are disjoint
    ch = WeightMultiset({_weight(c): mult[c] for c in sorted(mult, key=level)})
    if ch.total_mass() != weyl_dimension(rs, lam):
        raise AssertionError(f"character mass mismatch for {lam} in {rs.name}")
    (ctx or context(rs)).remember_character(lc, ch)
    return ch


def freudenthal_multiplicity(rs: RootSystem, lam: Weight, mu: Weight) -> int:
    """Ordinary weight multiplicity, independent of any q-machinery."""
    rs.weight(mu)
    return character(rs, lam).get(mu)


def dual_weight(rs: RootSystem, lam: Weight) -> Weight:
    """Highest weight of the dual module: -w0(lam)."""
    rep, _ = dominant_representative(rs, -rs.weight(lam, dominant=True))
    return rep


# -- tensor decomposition and the pairing sums ---------------------------


def klimyk_decompose(rs: RootSystem, lam: Weight, gam: Weight) -> WeightMultiset:
    """Constituents of the tensor product of the lam- and gam-modules.

    For each weight mu of the first factor, gamma+mu+rho either lies on a
    reflection wall (dropped) or sorts to a strictly dominant chamber point
    with a sign; the signed counts accumulate to the multiplicities.
    """
    rs.weight(gam, dominant=True)
    rho = rs.rho
    acc = {}
    for mu, m in character(rs, lam).items():
        xi = gam + mu + rho
        xiplus, length = dominant_representative(rs, xi)
        if any(c == 0 for c in xiplus.coords):
            continue
        kappa = (xiplus - rho).coords
        acc[kappa] = acc.get(kappa, 0) + (-m if length & 1 else m)
    if any(v < 0 for v in acc.values()):
        raise AssertionError("negative constituent multiplicity")
    top = lam + gam
    order = sorted((Weight(c) for c, v in acc.items() if v),
                   key=lambda w: (rs.height(top - w), w.coords))
    return WeightMultiset({w: acc[w.coords] for w in order})


def tensor_zero_q(rs: RootSystem, lam: Weight, gam: Weight) -> QPoly:
    """The zero-weight q-analogue of the product of the dual lam-module with
    the gam-module: sum of c_nu * m_nu^0(q) over its constituents nu."""
    zero = Weight.zero(rs.rank)
    out = QPoly.zero()
    for nu, c in klimyk_decompose(rs, dual_weight(rs, lam), gam).items():
        if rs.in_root_lattice(nu):
            out = out + c * lusztig_q_analogue(rs, nu, zero)
    return out


def weighted_sum(rs: RootSystem, lam: Weight, gam: Weight) -> QPoly:
    """Sum over the weights mu of the gam-module of m_gam^mu * m_lam^mu(q)."""
    rs.weight(lam, dominant=True)
    acc = {}
    # lowest weights first, so the kernel table is sized by the largest box
    for mu, m in reversed(character(rs, gam).items()):
        if not rs.dominance_leq(mu, lam):
            continue
        for e, c in lusztig_q_analogue(rs, lam, mu).terms().items():
            acc[e] = acc.get(e, 0) + m * c
    return QPoly(acc)


def brylinski_form(rs: RootSystem, lam: Weight, gam: Weight) -> QPoly:
    """Sum over common dominant lower weights nu of
    m_lam^nu(q) * m_gam^nu(q) * t_0(q)/t_nu(q), with exact division."""
    rs.weight(gam, dominant=True)
    t0 = stabilizer_poincare(rs, Weight.zero(rs.rank))
    out = QPoly.zero()
    for nu, _ in character(rs, lam).dominant_items():
        if not rs.dominance_leq(nu, gam):
            continue
        p = lusztig_q_analogue(rs, lam, nu) * lusztig_q_analogue(rs, gam, nu)
        out = out + p * t0.exact_div(stabilizer_poincare(rs, nu))
    return out


def generalized_exponents(rs: RootSystem, lam: Weight) -> list:
    """Exponent multiset of m_lam^0(q), ascending; lam must lie in the root
    lattice (otherwise the zero weight does not occur).  A multiset of more
    than ``root_system.MAX_ORBIT_POINTS`` exponents is refused before it is
    made."""
    if not rs.in_root_lattice(rs.weight(lam, dominant=True)):
        raise ValueError(f"{lam} is not in the root lattice")
    poly = lusztig_q_analogue(rs, lam, Weight.zero(rs.rank))
    # the list holds m_lam^0(1) exponents, counted before it is made
    _check_points(sum(poly.terms().values()), "the exponent multiset of", lam)
    return poly.exponent_multiset()


def broer_nonnegativity_test(rs: RootSystem, mu: Weight) -> bool:
    """True iff <mu, nu_check> >= -1 for every positive root nu — exactly the
    weights whose q-analogue has nonnegative coefficients for every module."""
    return all(rs.pairing(mu, r) >= -1 for r in rs.positive_roots)
