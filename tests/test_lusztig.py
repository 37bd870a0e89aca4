"""Graded multiplicities: frozen values, specializations, route agreement."""

import collections
import copy
import gc
import itertools
import operator
import pathlib
import pickle
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from math import prod
from operator import gt, le, sub

import pytest

from qweights import cli, lusztig, qkostant, root_system, weyl
from qweights.identities import (
    verify_adjoint,
    verify_little_adjoint,
    verify_subregular_identity,
)
from qweights.lusztig import (
    WeightMultiset,
    broer_nonnegativity_test,
    brylinski_form,
    character,
    cherednik_coefficient,
    clear_caches,
    dual_weight,
    freudenthal_multiplicity,
    generalized_exponents,
    klimyk_decompose,
    lusztig_q_analogue,
    q_analogue_by_induction,
    q_analogue_via_kernel,
    tensor_zero_q,
    weighted_sum,
    weyl_dimension,
)
from qweights.poly import QPoly
from qweights.qkostant import q_partition, q_partition_cache_stats
from qweights.root_system import RootSystem, Weight, build_dual_root_system, build_root_system
from qweights.weyl import dominant_representative, orbit, stabilizer_poincare
from test_qkostant import read_cell


def P(pairs):
    return QPoly(dict(pairs))


A2 = build_root_system("A2")
B2 = build_root_system("B2")
B3 = build_root_system("B3")
F4 = build_root_system("F4")
G2 = build_root_system("G2")
ZERO2 = Weight((0, 0))
LAYERBENCH = pathlib.Path(__file__).resolve().parent.parent / "layerbench"


def root_coords(rs, weight):
    return tuple(int(x) for x in rs.weight_to_root_coords(weight))


@pytest.fixture
def grown(monkeypatch):
    """Each root handed to ``compute`` from here on, with whether it was a
    point of Q_+ outside its engine's table, the one case ``read`` hands
    on."""
    seen = []
    compute = qkostant.PartitionEngine.compute

    def spy(eng, root, engines):
        outside = eng.bound is None or any(map(gt, root, eng.bound))
        seen.append((root, min(root) >= 0 and outside))
        return compute(eng, root, engines)

    monkeypatch.setattr(qkostant.PartitionEngine, "compute", spy)
    return seen


@pytest.fixture
def builds(monkeypatch):
    """The bounds of the kernel tables built from here on; caches cleared."""
    bounds = []
    build = qkostant.PartitionEngine._build
    monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                        lambda eng, bound: bounds.append(bound) or build(eng, bound))
    clear_caches()
    return bounds


class TestFrozenValues:
    """Hand-checked polynomials; every entry verified by at least two of the
    three evaluation routes before being frozen here."""

    CASES = [
        # (rs, lambda, mu, polynomial as {exponent: coefficient})
        (A2, (1, 1), (0, 0), {1: 1, 2: 1}),
        (A2, (1, 1), (1, 1), {0: 1}),
        (A2, (1, 1), (-2, 1), {1: -1, 2: 1, 3: 1}),       # q^3+q^2-q
        (A2, (1, 1), (-1, -1), {2: -1, 3: 1, 4: 1}),      # q^4+q^3-q^2
        (B2, (0, 2), (0, 0), {1: 1, 3: 1}),
        (B2, (0, 2), (2, -2), {2: 1}),                    # +alpha_1, height 1
        (B2, (0, 2), (-2, 2), {1: -1, 2: 1, 4: 1}),       # q^4+q^2-q at -alpha_1
        (B2, (1, 0), (0, 0), {2: 1}),
        (G2, (0, 1), (0, 0), {1: 1, 5: 1}),
        (G2, (1, 0), (0, 0), {3: 1}),
        (G2, (1, 0), (-2, 1), {4: 1}),                    # at -alpha_1
        (G2, (1, 0), (-1, 1), {1: 1}),                    # alpha_1+alpha_2
        (G2, (1, 0), (-1, 0), {6: 1}),                    # lowest weight
    ]

    @pytest.mark.parametrize("rs,lam,mu,terms", CASES)
    def test_defining_sum(self, rs, lam, mu, terms):
        assert lusztig_q_analogue(rs, Weight(lam), Weight(mu)) == P(terms)

    def test_g2_little_adjoint_lowest_weight(self):
        # height-6 case deep below zero, via both recursive routes
        lam = G2.theta_s
        mu = -G2.theta_s
        expected = QPoly.q(6)
        assert lusztig_q_analogue(G2, lam, mu) == expected
        assert q_analogue_by_induction(G2, lam, mu) == expected

    def test_induction_deep_chain(self):
        # the chain mu, mu+alpha, ... is 1500 steps long, past Python's
        # default recursion limit
        A1 = build_root_system("A1")
        lam, mu = Weight((3000,)), Weight((-3000,))
        expected = QPoly.q(3000)
        assert lusztig_q_analogue(A1, lam, mu) == expected
        assert q_analogue_by_induction(A1, lam, mu) == expected

    def test_induction_keeps_no_memo(self):
        # the memo of non-dominant targets lives for one call: afterwards the
        # context holds only the defining sums at the dominant base cases
        clear_caches()
        got = q_analogue_by_induction(B2, B2.theta, -B2.theta)
        keys = list(root_system.context(B2).defining)
        assert keys and all(min(mu) >= 0 for _, mu in keys)
        assert got == lusztig_q_analogue(B2, B2.theta, -B2.theta)

    def test_vanishing_off_lattice_and_cone(self):
        w1, w2 = A2.fundamental_weight(0), A2.fundamental_weight(1)
        assert lusztig_q_analogue(A2, w1, w2).is_zero()
        assert lusztig_q_analogue(A2, w1, w1 + A2.theta).is_zero()
        assert q_analogue_by_induction(A2, w1, w2).is_zero()
        assert q_analogue_via_kernel(A2, w1, w2).is_zero()

    def test_requires_dominant_highest_weight(self):
        with pytest.raises(ValueError):
            lusztig_q_analogue(A2, Weight((-1, 0)), ZERO2)
        with pytest.raises(ValueError):
            q_analogue_by_induction(A2, Weight((-1, 0)), ZERO2)


class TestInductionWalk:
    """The induction route walks the weights between mu and lam once: a
    weight nu with lam - nu off Q_+ is zero, a dominant one comes from the
    defining sum, and what the walk holds is counted on each step."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """The targets of the defining-sum calls made from here on."""
        targets = []
        real = lusztig.lusztig_q_analogue

        def counting(rs, lam, mu):
            targets.append(mu.coords)
            return real(rs, lam, mu)

        monkeypatch.setattr(lusztig, "lusztig_q_analogue", counting)
        clear_caches()
        return targets

    def test_walk_stays_below_lam(self, sums):
        # A2, lam = 0, mu = (-300,0): 0 is the only dominant weight below lam,
        # so the walk makes one defining-sum call, and it reads 5,552
        # weights.  A walk that stops on ht(lam - nu) < 0 alone reads 15,899,
        # and one that reads the sum at each dominant step makes 452 calls
        rs = RootSystem("A2")
        want = lusztig_q_analogue(rs, ZERO2, Weight((-300, 0)))
        assert not want.is_zero()
        lusztig_q_analogue(rs, ZERO2, ZERO2)
        read = set()
        real = rs.root_coords
        rs.root_coords = lambda coords: read.add(coords) or real(coords)
        assert q_analogue_by_induction(rs, ZERO2, Weight((-300, 0))) == want
        assert sums == [(0, 0)]
        assert len(read) == 5552

    @pytest.mark.parametrize("rs,lam", [
        (A2, (0, 0)), (A2, (1, 1)), (B2, (0, 2)), (B2, (1, 0)), (G2, (1, 0)), (G2, (0, 1))])
    @pytest.mark.parametrize("depth", [(23, 9), (9, 23), (31, 30)])
    def test_far_targets_equal_the_defining_sum(self, rs, lam, depth):
        # mu = lam - 23*alpha_1 - 9*alpha_2 and the like, non-dominant, then
        # mu + omega_1 (off A2's root lattice) and a point above mu that is
        # not below lam
        lam = Weight(lam)
        mu = lam - depth[0] * rs.simple_roots[0] - depth[1] * rs.simple_roots[1]
        assert not mu.is_dominant()
        values = []
        for nu in (mu, mu + rs.fundamental_weight(0), mu + (depth[0] + 1) * rs.simple_roots[0]):
            clear_caches()
            values.append(q_analogue_by_induction(rs, lam, nu))
            clear_caches()
            assert values[-1] == lusztig_q_analogue(rs, lam, nu)
        # lam - nu for the last target has alpha_1-coordinate -1
        assert not values[0].is_zero() and values[2].is_zero()

    def test_route_2_answers_every_target_route_1_answers(self, monkeypatch):
        # under a budget of 60 cells, B2 targets lam - a*alpha_1 - b*alpha_2
        # around the boundary, and the same points moved off Q_+ below lam:
        # route 2 answers each one route 1 answers, with the same polynomial,
        # and reads route 1 only at dominant weights, whose boxes fit, so it
        # also answers the targets whose own box route 1 refuses
        monkeypatch.setattr(qkostant, "MAX_TABLE_CELLS", 60)
        lam = B2.theta
        answered, only_route_2 = 0, []
        for a, b in itertools.product(range(0, 16, 3), range(0, 16, 3)):
            mu = lam - a * B2.simple_roots[0] - b * B2.simple_roots[1]
            for nu in (mu, mu + B2.fundamental_weight(1), mu + (a + 1) * B2.simple_roots[0]):
                clear_caches()
                got = q_analogue_by_induction(B2, lam, nu)
                clear_caches()
                try:
                    want = lusztig_q_analogue(B2, lam, nu)
                except root_system.BudgetError as exc:
                    assert "cells, over the budget of 60" in str(exc)
                    only_route_2.append(got)
                else:
                    assert got == want, nu
                    answered += 1
        assert answered and only_route_2
        assert any(not got.is_zero() for got in only_route_2)

    def test_refused_by_its_walk_count(self, sums, monkeypatch):
        # A2 (-3000,0) lies in the box (2000,1000) below lam = 0, whose
        # 2,003,001 cells route 1 refuses.  Route 2 counts the weights its
        # memo and stack hold on each step: under a budget of 2,000 points
        # it is refused as soon as it holds more, having built no large
        # table, and it read the defining sum only at dominant weights
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 2_000)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(root_system.BudgetError,
                               match=r"^input too large: the induction walk from \(-3000,0\) "
                                     r"to \(0,0\) reaches 2,00[123] points, over the "
                                     r"budget of 2,000 orbit points$"):
                q_analogue_by_induction(A2, ZERO2, Weight((-3000, 0)))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1 and peak < 5_000_000
        assert all(min(target) >= 0 for target in sums)
        with pytest.raises(root_system.BudgetError, match="2,003,001 cells"):
            lusztig_q_analogue(A2, ZERO2, Weight((-3000, 0)))

    @pytest.mark.parametrize("name", ["E8", "B10", "D10"])
    def test_adjoint_module_beyond_route_1(self, name):
        # every weight of the adjoint module through route 2, against the
        # closed forms of identities._verify_root_module: the exponents at
        # 0, q^{h-1-ht} at each positive root and
        # ((q-1) sum q^{e_i} + q^{h-1}) q^{ht-1} at each negative one.
        # Route 1 refuses these modules: on E8 the box of 2*theta
        rs = build_root_system(name)
        theta, h = rs.theta, rs.coxeter_number
        clear_caches()
        if name == "E8":
            with pytest.raises(root_system.BudgetError,
                               match=r"box \(4, 6, 8, 12, 10, 8, 6, 4\) needs 14,189,175 cells"):
                lusztig_q_analogue(rs, theta, -theta)
        exps = QPoly(collections.Counter(rs.exponents))
        assert q_analogue_by_induction(rs, theta, Weight.zero(rs.rank)) == exps
        negative = (QPoly.q() - 1) * exps + QPoly.q(h - 1)
        for root in rs.positive_roots:
            gamma, ht = rs.root_to_weight_basis(root), sum(root)
            assert q_analogue_by_induction(rs, theta, gamma) == QPoly.q(h - 1 - ht), gamma
            assert q_analogue_by_induction(rs, theta, -gamma) == negative.shift(ht - 1), gamma
        assert len(character(rs, theta)) == 2 * len(rs.positive_roots) + 1


class TestOrbitWalkAgainstFullWeylSum:
    """The pruned orbit walk must agree with the plain alternating sum over
    every element of W, including where the answer is zero."""

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]
    )
    def test_matches_full_sum(self, name):
        rs = build_root_system(name)
        lams = {rs.theta, rs.rho, rs.theta_s}
        lams.update(rs.fundamental_weight(i) for i in range(rs.rank))
        elems = weyl.weyl_elements(rs)
        seen = {"non-dominant mu": 0, "outside Q+": 0, "off the lattice": 0}
        for lam in sorted(lams, key=lambda w: w.coords):
            top = [(w.sign, w.act(lam + rs.rho)) for w in elems]
            for mu in itertools.product(range(-2, 2), repeat=rs.rank):
                mu = Weight(mu)
                shift = mu + rs.rho
                acc = {}
                for sign, point in top:
                    for e, c in q_partition(rs, point - shift).terms().items():
                        acc[e] = acc.get(e, 0) + sign * c
                assert lusztig_q_analogue(rs, lam, mu) == QPoly(acc), (lam, mu)
                seen["non-dominant mu"] += not mu.is_dominant()
                if not rs.in_root_lattice(lam - mu):
                    seen["off the lattice"] += 1
                elif not rs.dominance_leq(mu, lam):
                    seen["outside Q+"] += 1
        # the grid is too small to leave Q+ inside the lattice for A1 and
        # A2, and G2's root lattice is its whole weight lattice
        expect = {"non-dominant mu": True,
                  "outside Q+": name not in ("A1", "A2"),
                  "off the lattice": name != "G2"}
        assert {k: v > 0 for k, v in seen.items()} == expect, seen


SWEEP = [
    ("A2", (1, 1)), ("A2", (2, 2)), ("A2", (3, 0)),
    ("B2", (0, 2)), ("B2", (2, 0)), ("B2", (1, 1)),
    ("G2", (1, 0)), ("G2", (0, 1)), ("G2", (1, 1)),
    ("A3", (1, 0, 1)), ("A3", (0, 2, 0)),
    ("B3", (1, 0, 0)), ("B3", (0, 0, 2)),
    ("C3", (0, 1, 0)), ("C3", (2, 0, 0)),
]


class TestStructuralProperties:
    @pytest.mark.parametrize("name,lam", SWEEP)
    def test_specializations_and_shape(self, name, lam):
        rs = build_root_system(name)
        lam = Weight(lam)
        ch = character(rs, lam)
        in_lattice = rs.in_root_lattice(lam)
        for mu, mult in ch.items():
            poly = lusztig_q_analogue(rs, lam, mu)
            # q = 1: ordinary multiplicity
            assert poly.evaluate(1) == mult
            assert freudenthal_multiplicity(rs, lam, mu) == mult
            # monic of degree = height of the drop
            assert poly.is_monic()
            assert poly.degree() == rs.height(lam - mu)
            # q = 0: delta function on the weight system
            assert poly.coefficient(0) == (1 if mu == lam else 0)
            # q -> q + 1 has nonnegative coefficients
            assert poly.substitute_q_plus_1().coefficients_nonnegative()
            if in_lattice != rs.in_root_lattice(mu):
                raise AssertionError("weights must stay in one coset")

    @pytest.mark.parametrize("name,lam", SWEEP[:8])
    def test_three_routes_agree(self, name, lam):
        rs = build_root_system(name)
        lam = Weight(lam)
        for mu in character(rs, lam):
            a = lusztig_q_analogue(rs, lam, mu)
            b = q_analogue_by_induction(rs, lam, mu)
            c = q_analogue_via_kernel(rs, lam, mu)
            assert a == b == c, (name, lam, mu)


class TestCharacterAndDimensions:
    DIMS = [("A2", (1, 1), 8), ("G2", (0, 1), 14), ("G2", (1, 0), 7),
            ("B3", (1, 0, 0), 7), ("B3", (0, 1, 0), 21), ("B3", (0, 0, 1), 8),
            ("C3", (1, 0, 0), 6), ("C3", (0, 1, 0), 14), ("C3", (0, 0, 1), 14),
            ("D4", (0, 1, 0, 0), 28), ("F4", (1, 0, 0, 0), 52),
            ("F4", (0, 0, 0, 1), 26), ("A3", (0, 1, 0), 6)]

    @pytest.mark.parametrize("name,lam,dim", DIMS)
    def test_weyl_dimension(self, name, lam, dim):
        rs = build_root_system(name)
        assert weyl_dimension(rs, Weight(lam)) == dim
        ch = character(rs, Weight(lam))
        assert ch.total_mass() == dim

    def test_character_orders_and_multiplicities(self):
        ch = character(A2, Weight((1, 1)))
        assert ch.get(ZERO2) == 2
        assert len(ch) == 7
        drops = [A2.height(Weight((1, 1)) - mu) for mu in ch]
        assert drops == sorted(drops)
        # B2 adjoint: 8 roots + two-dimensional zero space
        chb = character(B2, Weight((0, 2)))
        assert chb.get(Weight((0, 0))) == 2
        assert chb.total_mass() == 10

    @pytest.mark.parametrize("name,lam", [("A2", (1, 1)), ("B3", (1, 0, 1)),
                                          ("G2", (2, 1))])
    def test_character_is_one_ordered_dict(self, name, lam):
        # iteration, items() and dict() read the same weights in one order
        ch = character(build_root_system(name), Weight(lam))
        assert isinstance(ch, dict)
        assert list(ch) == [w for w, _ in ch.items()] == list(dict(ch))
        assert dict(ch) == dict(ch.items()) == ch
        assert len(ch) == len(ch.items())

    def test_weight_multiset_interface(self):
        ch = character(A2, Weight((1, 1)))
        assert Weight((1, 1)) in ch
        assert Weight((5, 5)) not in ch
        assert ch.get(Weight((5, 5))) == 0
        dom = dict(ch.dominant_items())
        assert dom == {Weight((1, 1)): 1, Weight((0, 0)): 2}
        assert isinstance(ch, WeightMultiset)


class FreudenthalReference:
    """Freudenthal's formula the way ``character`` computed it before the
    orbit fill, kept as a reference: every mu + k*gamma in the sum for mu is
    sent to its dominant representative, whose multiplicity is known.
    Returns ``character(rs, lam).items()``: (weight, multiplicity) pairs by
    level, then coordinates."""

    @staticmethod
    def support(rs, lam):
        """{coords: level} by unbroken-string descent from lam."""
        known = {lam.coords: 0}
        cur = [lam]
        lvl = 0
        while cur:
            nxt = []
            for nu in cur:
                for i, alpha in enumerate(rs.simple_roots):
                    p = 0
                    up = nu + alpha
                    while up.coords in known:
                        p += 1
                        up = up + alpha
                    if p + nu.coords[i] >= 1:
                        down = nu - alpha
                        if down.coords not in known:
                            known[down.coords] = lvl + 1
                            nxt.append(down)
            cur = nxt
            lvl += 1
        return known

    @classmethod
    def items(cls, rs, lam):
        support = cls.support(rs, lam)
        dominants = sorted(
            (Weight(c) for c in support if all(x >= 0 for x in c)),
            key=lambda w: support[w.coords],
        )
        two_rho = rs.rho + rs.rho
        mult = {lam.coords: 1}
        for mu in dominants[1:]:
            rhs = 0
            for gamma in rs.positive_roots:
                gw = rs.root_to_weight_basis(gamma)
                nu = mu + gw
                while nu.coords in support:
                    rep, _ = dominant_representative(rs, nu)
                    rhs += rs.inner(nu, gamma) * mult[rep.coords]
                    nu = nu + gw
            diff = tuple(int(x) for x in rs.weight_to_root_coords(lam - mu))
            m, rem = divmod(2 * rhs, rs.inner(lam + mu + two_rho, diff))
            assert rem == 0 and m > 0
            mult[mu.coords] = m
        entries = {nu: mult[mu.coords] for mu in dominants for nu in orbit(rs, mu)}
        order = sorted(entries, key=lambda w: (support[w.coords], w.coords))
        return [(w, entries[w]) for w in order]


class TestWrongRank:
    """A weight of another rank is an error, and nothing of it is cached."""

    @pytest.mark.parametrize("lam,mu", [((1, 1, 0), (0, 0)), ((1, 1), (0,))])
    def test_q_analogue(self, lam, mu):
        with pytest.raises(ValueError):
            lusztig_q_analogue(A2, Weight(lam), Weight(mu))
        assert (lam, mu) not in root_system.context(A2).defining

    def test_character(self):
        with pytest.raises(ValueError):
            character(A2, Weight((1,)))
        assert (1,) not in root_system.context(A2).characters

    @pytest.mark.parametrize("w", [(1, 0, 0), (1,)])
    def test_orbit(self, w):
        with pytest.raises(ValueError):
            orbit(A2, Weight(w))

    @pytest.mark.parametrize("w", [(0, 0, 5), (1,)])
    def test_stabilizer_poincare(self, w):
        with pytest.raises(ValueError):
            stabilizer_poincare(A2, Weight(w))

    @pytest.mark.parametrize("w", [(-1, 0, 0), (-1,)])
    def test_dominant_representative(self, w):
        with pytest.raises(ValueError):
            dominant_representative(A2, Weight(w))

    @pytest.mark.parametrize("lam,mu", [((1, 1, 0), (0, 0)), ((1, 1), (-1, 0, 0))])
    def test_induction(self, lam, mu):
        with pytest.raises(ValueError):
            q_analogue_by_induction(A2, Weight(lam), Weight(mu))
        assert (lam, mu) not in root_system.context(A2).defining

    @pytest.mark.parametrize("mu", [(0, 0, 0), (0,)])
    def test_freudenthal_multiplicity(self, mu):
        with pytest.raises(ValueError):
            freudenthal_multiplicity(A2, Weight((1, 1)), Weight(mu))

    @pytest.mark.parametrize("w", [(1, 0, 0), (1,)])
    def test_broer_criterion(self, w):
        with pytest.raises(ValueError):
            broer_nonnegativity_test(A2, Weight(w))


class TestCharacterAgainstFreudenthalReference:
    @pytest.mark.parametrize("name", [
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4",
        "D5", "G2", "F4",
    ])
    def test_items_match(self, name):
        rs = build_root_system(name)
        lams = {rs.theta, rs.theta_s, rs.theta + rs.theta_s}
        lams.update(rs.fundamental_weight(i) for i in range(rs.rank))
        if rs.rank <= 3:
            lams.add(rs.rho)
        for lam in sorted(lams, key=lambda w: w.coords):
            assert character(rs, lam).items() == FreudenthalReference.items(rs, lam), lam


class TestTensorAndDuality:
    def test_dual_weight(self):
        assert dual_weight(A2, Weight((1, 0))) == Weight((0, 1))
        assert dual_weight(A2, Weight((2, 1))) == Weight((1, 2))
        a3 = build_root_system("A3")
        assert dual_weight(a3, Weight((1, 0, 0))) == Weight((0, 0, 1))
        for rs in (B2, G2):
            assert dual_weight(rs, rs.theta) == rs.theta
            assert dual_weight(rs, rs.theta_s) == rs.theta_s

    def test_klimyk_small(self):
        dec = dict(klimyk_decompose(A2, Weight((1, 0)), Weight((0, 1))).items())
        assert dec == {Weight((1, 1)): 1, ZERO2: 1}
        # adjoint squared in type A2
        dec = dict(klimyk_decompose(A2, Weight((1, 1)), Weight((1, 1))).items())
        assert dec == {Weight((2, 2)): 1, Weight((3, 0)): 1, Weight((0, 3)): 1,
                       Weight((1, 1)): 2, ZERO2: 1}

    @pytest.mark.parametrize("name,lam,gam", [
        ("A2", (1, 1), (2, 0)), ("B2", (1, 0), (0, 1)),
        ("G2", (1, 0), (1, 0)), ("C3", (1, 0, 0), (0, 1, 0)),
    ])
    def test_klimyk_dimension_count(self, name, lam, gam):
        rs = build_root_system(name)
        lam, gam = Weight(lam), Weight(gam)
        dec = klimyk_decompose(rs, lam, gam)
        assert sum(c * weyl_dimension(rs, nu) for nu, c in dec.items()) == \
            weyl_dimension(rs, lam) * weyl_dimension(rs, gam)
        assert all(c > 0 for _, c in dec.items())

    def test_tensor_zero_q(self):
        w1 = A2.fundamental_weight(0)
        assert tensor_zero_q(A2, w1, w1) == P({0: 1, 1: 1, 2: 1})
        assert tensor_zero_q(A2, w1, dual_weight(A2, w1)).is_zero()

    @pytest.mark.parametrize("form", [klimyk_decompose, weighted_sum, brylinski_form])
    @pytest.mark.parametrize("lam,gam,message", [
        ((-1, 1), (1, 0), "^\\(-1,1\\) is not dominant$"),
        ((1, 0), (2, -1), "^\\(2,-1\\) is not dominant$"),
    ], ids=["lam0-gam0", "lam1-gam1"])
    def test_non_dominant_highest_weight_refused(self, form, lam, gam, message):
        # the refusal names the highest weight that is not dominant
        with pytest.raises(ValueError, match=message):
            form(A2, Weight(lam), Weight(gam))

    def test_weighted_sum_matches_brylinski(self):
        for rs, lam, gam in [(A2, Weight((1, 1)), Weight((1, 1))),
                             (B2, Weight((1, 0)), Weight((1, 0))),
                             (G2, Weight((1, 0)), Weight((0, 1)))]:
            assert weighted_sum(rs, lam, gam) == brylinski_form(rs, lam, gam)


class TestCherednikCoefficients:
    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4"])
    def test_positive_roots_closed_form(self, name):
        rs = build_root_system(name)
        for root in rs.positive_roots:
            nu = rs.root_to_weight_basis(root)
            h = sum(root)
            assert cherednik_coefficient(rs, nu) == P({h: 1, h - 1: -1})

    def test_zero_and_errors(self):
        assert cherednik_coefficient(A2, ZERO2) == 1
        with pytest.raises(ValueError):
            cherednik_coefficient(A2, -A2.theta)
        with pytest.raises(ValueError):
            cherednik_coefficient(A2, A2.fundamental_weight(0))

    def test_non_root_lattice_point(self):
        # 2 alpha_1 + alpha_2 is not a root; frozen from the defining sum
        nu = A2.root_to_weight_basis((2, 1))
        assert cherednik_coefficient(A2, nu) == P({0: 1, 1: -1, 2: -1, 3: 1})


class TestGeneralizedExponents:
    CASES = [
        ("A2", (1, 1), [1, 2]),
        ("G2", (0, 1), [1, 5]),
        ("G2", (1, 0), [3]),
        ("C3", (0, 1, 0), [2, 4]),
        ("B3", (2, 0, 0), [2, 4, 6]),
        ("G2", (2, 0), [2, 4, 6]),
        ("D4", (0, 1, 0, 0), [1, 3, 3, 5]),
        ("F4", (0, 0, 0, 1), [4, 8]),
        ("A2", (3, 0), [3]),
    ]

    @pytest.mark.parametrize("name,lam,exps", CASES)
    def test_known_exponent_lists(self, name, lam, exps):
        rs = build_root_system(name)
        assert generalized_exponents(rs, Weight(lam)) == exps

    def test_adjoint_recovers_classical_exponents(self):
        # A10, B8, C8 and D9 have Weyl groups of 10 to 93 million
        # elements, and build like every other type
        for name in ("A3", "B3", "C3", "D4", "G2", "F4", "A10", "B8", "C8", "D9"):
            rs = build_root_system(name)
            assert generalized_exponents(rs, rs.theta) == list(rs.exponents)

    def test_requires_root_lattice(self):
        with pytest.raises(ValueError):
            generalized_exponents(A2, A2.fundamental_weight(0))

    def test_e7_adjoint(self):
        # |W(E7)| is 2.9 million; the walk visits 258 orbit points
        e7 = build_root_system("E7")
        assert generalized_exponents(e7, e7.theta) == [1, 5, 7, 9, 11, 13, 17]

    def test_e7_verify_adjoint(self, builds):
        # every adjoint identity on E7; the roots are taken highest first,
        # so the table is built for theta (the zero weight), then once more
        # for the box of 2*theta (at -theta), which holds every later query
        e7 = build_root_system("E7")
        report = verify_adjoint(e7)
        assert report.passed, report.failures
        assert len(builds) <= 2

    def test_e8_adjoint(self, builds):
        # |W(E8)| is 697 million; the kernel table covers the 151,200 cells
        # of the box of theta: the first table is exact, not the module box
        e8 = build_root_system("E8")
        assert generalized_exponents(e8, e8.theta) == [1, 7, 11, 13, 17, 19, 23, 29]
        assert builds == [root_coords(e8, e8.theta)]


class TestTableGrowth:
    """The kernel table follows the query stream; the answers do not."""

    @pytest.mark.parametrize("name", ["C3", "F4"])
    def test_answers_do_not_depend_on_table_history(self, name):
        rs = build_root_system(name)
        stream = [(lam, mu) for lam in (rs.theta, rs.theta_s, rs.theta + rs.theta_s)
                  for mu in character(rs, lam)]
        random.Random(0).shuffle(stream)
        clear_caches()
        got = [lusztig_q_analogue(rs, lam, mu) for lam, mu in stream]
        for (lam, mu), poly in zip(stream, got):
            clear_caches()
            assert lusztig_q_analogue(rs, lam, mu) == poly, (name, lam, mu)

    def test_shuffled_module_grows_to_its_box(self, builds):
        # growing to the union box step by step takes 8 builds on this stream
        rs = build_root_system("F4")
        lam = rs.theta + rs.theta_s
        weights = list(character(rs, lam))
        random.Random(0).shuffle(weights)
        for mu in weights:
            lusztig_q_analogue(rs, lam, mu)
        assert len(builds) <= 4
        assert builds[-1] == root_coords(rs, lam + dual_weight(rs, lam))

    @pytest.mark.parametrize("name,short", [("F4", False), ("F4", True), ("E6", False)])
    def test_adjoint_verifiers_build_one_table(self, builds, name, short):
        # -top is asked first, so the exact box of 2 top, which holds every
        # weight of the module, is the one table built
        rs = build_root_system(name)
        verify = verify_little_adjoint if short else verify_adjoint
        top_rc = rs.theta_s_root_coords if short else rs.theta_root_coords
        assert verify(rs).passed
        assert builds == [tuple(2 * c for c in top_rc)]

    def test_module_box_respects_the_growth_limit(self, builds):
        # theta - (-alpha_1) leaves the box of theta for a point of the module
        # box 2*theta, whose 3,375 cells are more than four times the 216 + 324
        # cells of the two boxes, so the table grows to the union only
        rs = build_root_system("D6")
        lusztig_q_analogue(rs, rs.theta, Weight.zero(6))
        lusztig_q_analogue(rs, rs.theta, -rs.simple_roots[0])
        assert builds == [(1, 2, 2, 2, 1, 1), (2, 2, 2, 2, 1, 1)]

    def test_module_box_once_the_reads_have_cost_a_quarter_of_it(self, builds):
        # F4 theta + theta_s: the first read builds its exact box (1,350
        # cells), a quarter of the module box (6,10,14,8) being 2,599 cells;
        # the next read's union box (1,620) would bring the cells built to
        # 2,970, over that quarter, so it builds the module box at once,
        # where the union box would have been a third build
        rs = build_root_system("F4")
        lam = rs.theta + rs.theta_s
        for rc in ((4, 5, 8, 4), (4, 5, 8, 5)):
            lusztig_q_analogue(rs, lam, lam - rs.root_to_weight_basis(rc))
        assert builds == [(4, 5, 8, 4), (6, 10, 14, 8)]
        assert root_system.context(rs).engines[lam.coords].spent == 1_350 + 10_395

    @pytest.mark.parametrize("reads,cells", [
        # m^{-alpha}, m^0, m^alpha and m^{alpha+} of E7 theta, as `verify
        # subregular E7` reads them: the one box of theta + alpha_1
        (lambda rs: verify_subregular_identity(rs, rs.theta, 0), [5_760]),
        # E7 theta -> 0 builds the box of theta alone
        (lambda rs: lusztig_q_analogue(rs, rs.theta, Weight.zero(7)), [4_320]),
    ])
    def test_few_cell_readers_keep_their_boxes(self, builds, reads, cells):
        # the module box of E7 theta, 2 theta, has 165,375 cells: far more
        # than four times what these reads cost, so it is never built
        rs = build_root_system("E7")
        reads(rs)
        assert [prod(b + 1 for b in bound) for bound in builds] == cells

    @pytest.mark.parametrize("name,cells", [("E6", 648), ("F4", 90)])
    def test_subregular_builds_one_table(self, builds, name, cells):
        # m^{-alpha} is read first, and the box of lam + alpha holds the
        # other three reads, so `verify subregular` on its own builds one
        # table: lam is theta_s and alpha the first short simple root.  E7
        # is the first case of the test above
        rs = build_root_system(name)
        lam, i = rs.theta_s, rs.symmetrizer.index(1)
        assert verify_subregular_identity(rs, lam, i).passed
        assert builds == [root_coords(rs, lam + rs.simple_roots[i])]
        assert prod(b + 1 for b in builds[0]) == cells

    @pytest.mark.parametrize("name,weights", [
        ("E7", lambda rs: [Weight.zero(7)]),
        ("F4", lambda rs: list(character(rs, rs.theta))),
    ])
    def test_packed_sums_match_one_cell_at_a_time(self, name, weights):
        # each cell of theta's seeded table is the alternating sum of the
        # P_q cells at the orbit points the old pruned walk kept, read one
        # at a time
        rs = build_root_system(name)
        clear_caches()
        for mu in weights(rs):
            assert lusztig_q_analogue(rs, rs.theta, mu) == pruned_walk_sum(rs, rs.theta, mu), mu


# The tables (highest weight, bound) that each sum over a module builds from
# cold caches.  The sums read every term, and a read off the cone or the
# root lattice builds nothing.  brylinski_form reads m_gam^nu before
# m_lam^nu, so it builds no table of lam that its sum does not need
MODULE_SUM_BUILDS = {
    "B3": {
        "weighted_sum": [((1, 0, 0), (2, 3, 3))],
        "brylinski_form": [((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 1, 1)),
                           ((1, 0, 0), (2, 2, 2)), ((0, 1, 0), (2, 4, 4))],
        "tensor_zero_q": [((1, 1, 0), (2, 3, 3)), ((0, 0, 2), (1, 2, 3)),
                          ((1, 0, 0), (2, 2, 2))],
        "q_analogue_via_kernel": [((0, 0, 0), (2, 4, 4))],
    },
    "C3": {
        "weighted_sum": [((0, 1, 0), (3, 4, 2))],
        "brylinski_form": [((0, 1, 0), (0, 0, 0)), ((2, 0, 0), (1, 0, 0)),
                           ((0, 1, 0), (2, 4, 2)), ((2, 0, 0), (4, 4, 2))],
        "tensor_zero_q": [((2, 1, 0), (3, 4, 2)), ((1, 0, 1), (2, 3, 2)),
                          ((2, 0, 0), (2, 2, 1)), ((0, 1, 0), (2, 4, 2))],
        "q_analogue_via_kernel": [((0, 0, 0), (4, 4, 2))],
    },
    "G2": {
        "weighted_sum": [((1, 0), (5, 3))],
        "brylinski_form": [((1, 0), (0, 0)), ((0, 1), (1, 1)),
                           ((1, 0), (4, 2)), ((0, 1), (6, 4))],
        "tensor_zero_q": [((1, 1), (10, 6)), ((2, 0), (8, 4)), ((1, 0), (4, 2))],
        "q_analogue_via_kernel": [((0, 0), (6, 4))],
    },
    "F4": {
        "weighted_sum": [((0, 0, 0, 1), (3, 5, 7, 4))],
        "brylinski_form": [((0, 0, 0, 1), (0, 0, 0, 0)), ((1, 0, 0, 0), (1, 1, 1, 0)),
                           ((0, 0, 0, 1), (1, 2, 3, 2)), ((1, 0, 0, 0), (2, 3, 4, 2))],
        "tensor_zero_q": [((1, 0, 0, 1), (3, 5, 7, 4)), ((0, 0, 1, 0), (2, 4, 6, 3)),
                          ((0, 0, 0, 1), (1, 2, 3, 2))],
        "q_analogue_via_kernel": [((0, 0, 0, 0), (4, 6, 8, 4))],
    },
}


@pytest.mark.parametrize("name", sorted(MODULE_SUM_BUILDS))
def test_module_sums_build_only_on_the_cone(monkeypatch, name):
    # qkostant.read alone decides that a q-analogue is zero off the cone
    built = []
    build = qkostant.PartitionEngine._build
    monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                        lambda eng, bound: built.append((eng.lam, bound)) or build(eng, bound))
    rs = build_root_system(name)
    theta, short = rs.theta, rs.theta_s
    calls = {
        "weighted_sum": lambda: weighted_sum(rs, short, theta),
        "brylinski_form": lambda: brylinski_form(rs, theta, short),
        "tensor_zero_q": lambda: tensor_zero_q(rs, theta, short),
        "q_analogue_via_kernel": lambda: q_analogue_via_kernel(rs, theta, -theta),
    }
    got = {}
    for label, call in calls.items():
        clear_caches()
        built.clear()
        call()
        got[label] = list(built)
    assert got == MODULE_SUM_BUILDS[name]


def pruned_walk_sum(rs, lam, mu):
    """The alternating sum the way ``lusztig_q_analogue`` computed it before
    the seeded tables, kept as a reference: walk the orbit of lam+rho down
    from the top, drop a branch once its argument leaves Q_+, and add
    (-1)^depth P_q(argument) for every point kept."""
    diff = rs.weight_to_root_coords(lam - mu)
    if not all(x.denominator == 1 and x >= 0 for x in diff):
        return QPoly.zero()
    acc = QPoly.zero()
    sign = 1
    layer = {(lam + rs.rho).coords: tuple(int(x) for x in diff)}
    while layer:
        for arg in layer.values():
            acc = acc + sign * QPoly(read_cell(rs, arg))
        nxt = {}
        for x, arg in layer.items():
            for i in range(rs.rank):
                c = x[i]
                if c > 0 and arg[i] >= c:
                    y = tuple(x[k] - rs.cartan[k][i] * c for k in range(rs.rank))
                    nxt[y] = arg[:i] + (arg[i] - c,) + arg[i + 1:]
        layer = nxt
        sign = -sign
    return acc


class TestSeededTable:
    """One table per highest weight, seeded with its Weyl numerator."""

    @pytest.mark.parametrize("name", ["G2", "B3", "F4"])
    @pytest.mark.parametrize("which", ["theta", "theta_s"])
    def test_every_cell_matches_full_weyl_sum(self, name, which):
        # cell nu of lam's table is m_lam^{lam-nu}(q) for every nu of the
        # module box lam - w0(lam), not only at the weights of the module
        rs = build_root_system(name)
        lam = getattr(rs, which)
        top = lam + rs.rho
        box = root_coords(rs, lam + dual_weight(rs, lam))
        # a term whose d leaves the box is zero at every cell of it
        terms = [(w.sign, d) for w in weyl.weyl_elements(rs)
                 for d in [root_coords(rs, top - w.act(top))]
                 if all(map(le, d, box))]
        clear_caches()
        lowest = -dual_weight(rs, lam)
        lusztig_q_analogue(rs, lam, lowest)
        eng = root_system.context(rs).engines[lam.coords]
        assert eng.bound == box
        negative = 0
        for nu in itertools.product(*(range(b + 1) for b in box)):
            expected = {}
            for sign, d in terms:
                arg = tuple(map(sub, nu, d))
                for e, c in read_cell(rs, arg).items():
                    expected[e] = expected.get(e, 0) + sign * c
            # each coefficient fits a balanced digit of the table's width
            assert all(abs(c) < 1 << (eng.width - 1) for c in expected.values())
            got = read_cell(rs, nu, lam.coords)
            assert QPoly(got) == QPoly(expected), nu
            negative += any(c < 0 for c in got.values())
        # the signed decode was exercised
        assert negative > 0
        # one table answered every cell, and read it from its rows
        cells = prod(b + 1 for b in box)
        assert root_system.context(rs).engines[lam.coords] is eng
        assert (len(eng.table), eng.hits) == (cells, cells)


class TestClearCaches:
    def test_weyl_group_is_not_cached(self):
        # W is rebuilt on each call and kept by no context
        clear_caches()
        first, again = weyl.weyl_elements(A2), weyl.weyl_elements(A2)
        assert first == again and first is not again
        assert not root_system._contexts
        lusztig_q_analogue(A2, A2.theta, ZERO2)
        assert root_system._contexts
        clear_caches()
        assert not root_system._contexts
        assert lusztig_q_analogue(A2, A2.theta, ZERO2) == P({1: 1, 2: 1})

    def test_leaves_nothing_behind(self):
        routes = [
            lambda: lusztig_q_analogue(B2, B2.theta, ZERO2),
            lambda: q_analogue_by_induction(B2, B2.theta, -B2.theta),
            lambda: q_analogue_via_kernel(G2, G2.theta, ZERO2),
            lambda: character(G2, G2.theta_s),
            lambda: stabilizer_poincare(A2, ZERO2),
            lambda: weyl.weyl_elements(G2),
            lambda: q_partition(A2, A2.theta),
        ]
        clear_caches()
        first = [route() for route in routes]
        ctx = root_system.context(B2)
        assert ctx.defining and ctx.engines
        assert root_system.context(G2).characters
        assert q_partition_cache_stats()[0] > 0
        clear_caches()
        assert not root_system._contexts
        assert q_partition_cache_stats() == (0, 0)
        assert [route() for route in routes] == first

    def test_a_refused_query_makes_no_context(self):
        clear_caches()
        refused = [
            lambda: lusztig_q_analogue(A2, Weight((-1, 0)), ZERO2),
            lambda: lusztig_q_analogue(A2, A2.theta, Weight((0, 0, 0))),
            lambda: lusztig_q_analogue(A2, Weight((1, 1, 0)), ZERO2),
            lambda: character(A2, Weight((-1, 0))),
            lambda: stabilizer_poincare(A2, Weight((0, -1))),
            lambda: weyl.orbit_size(A2, Weight((0, 0, 1))),
        ]
        for query in refused:
            with pytest.raises(ValueError):
                query()
        assert not root_system._contexts

    @pytest.mark.parametrize("budget", ["orbit points", "string steps"])
    def test_a_refused_character_makes_no_context(self, monkeypatch, budget):
        # E8 omega_4 is refused for the weights its orbits hold, and G2 (6,6),
        # whose sums walk up to 3,152 string steps by the bound, under a
        # budget of 2,698, both before any walk.  Neither leaves a context
        if budget == "orbit points":
            rs, lam = build_root_system("E8"), Weight((0, 0, 0, 1, 0, 0, 0, 0))
        else:
            rs, lam = G2, Weight((6, 6))
            monkeypatch.setattr(lusztig, "MAX_STRING_STEPS", 2698)
        clear_caches()
        with pytest.raises(root_system.BudgetError, match=budget):
            character(rs, lam)
        assert not root_system._contexts

    @pytest.mark.parametrize("query", [
        # B3 (2,2,2) at its lowest weight builds the 1,575-cell module box
        lambda: lusztig_q_analogue(B3, Weight((2, 2, 2)), Weight((-2, -2, -2))),
        lambda: q_partition(F4, 2 * F4.theta),
    ])
    def test_frees_every_table_at_once(self, query):
        # no table refers back to the dict that holds it, so the tables are
        # freed by clear_caches itself, with the cyclic collector off
        clear_caches()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            query()
            built = tracemalloc.get_traced_memory()[0]
            clear_caches()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert built > 100_000
        assert left < built / 10

    @pytest.mark.parametrize("query", [
        lambda e8: lusztig_q_analogue(e8, 2 * e8.theta, Weight.zero(8)),
        lambda e8: q_partition(e8, 2 * e8.theta),
    ])
    def test_a_refused_build_registers_nothing(self, query):
        # the box of E8 2*theta has 14,189,175 cells: refused on a fresh
        # registry, it leaves no context and no engine behind
        e8 = build_root_system("E8")
        clear_caches()
        with pytest.raises(root_system.BudgetError, match="14,189,175 cells"):
            query(e8)
        assert not root_system._contexts

    def test_q_partition_off_the_cone_makes_no_context(self):
        # omega_1 is off the root lattice and -theta off Q_+: both read zero
        # and register nothing; a point of Q_+ registers one context
        clear_caches()
        assert q_partition(A2, A2.fundamental_weight(1)) == QPoly.zero()
        assert q_partition(A2, -A2.theta) == QPoly.zero()
        assert not root_system._contexts
        assert q_partition(A2, A2.theta) == P({1: 1, 2: 1})
        assert list(root_system._contexts) == [A2._key]

    def test_a_refused_read_keeps_the_tables(self, monkeypatch):
        # a read refused for its box leaves every table, its own too, as it
        # was, in the same order, and makes no engine for a new weight
        clear_caches()
        lusztig_q_analogue(B2, B2.theta, ZERO2)
        q_partition(B2, B2.theta)
        engines = root_system.context(B2).engines
        before = [(key, eng, eng.bound, eng.table) for key, eng in engines.items()]
        # under the boxes of both reads below: 4*theta and 3*theta_s
        monkeypatch.setattr(qkostant, "MAX_TABLE_CELLS", 5)
        with pytest.raises(root_system.BudgetError):
            lusztig_q_analogue(B2, B2.theta, -3 * B2.theta)
        with pytest.raises(root_system.BudgetError):
            lusztig_q_analogue(B2, 3 * B2.theta_s, ZERO2)
        assert [(key, eng, eng.bound, eng.table)
                for key, eng in engines.items()] == before

    def test_equal_cartan_matrices_share_one_context(self):
        # the context goes with the Cartan matrix alone, whatever the object
        clear_caches()
        c3 = build_root_system("C3")
        twins = [build_dual_root_system(build_root_system("B3")), RootSystem("C3")]
        assert all(root_system.context(rs) is root_system.context(c3) for rs in twins)
        assert len(root_system._contexts) == 1
        assert root_system.context(build_root_system("B3")) is not root_system.context(c3)

    def test_stats_count_every_table(self):
        # the tables of each highest weight count, next to the P_q table
        clear_caches()
        lusztig_q_analogue(B2, B2.theta, ZERO2)
        cells, hits = q_partition_cache_stats()
        assert cells > 0 and hits == 0
        lusztig_q_analogue(B2, B2.theta, B2.theta)
        assert q_partition_cache_stats() == (cells, 1)
        q_partition(B2, B2.theta)
        assert q_partition_cache_stats()[0] > cells
        clear_caches()
        assert q_partition_cache_stats() == (0, 0)

    def test_empties_partition_tables(self):
        q_partition(B2, B2.theta)
        assert q_partition_cache_stats()[0] > 0
        clear_caches()
        assert q_partition_cache_stats() == (0, 0)


class TestDefiningMemo:
    def test_memo_stays_at_its_cap(self):
        # 20,000 distinct queries off the cone build no table; the memo of
        # the defining sum keeps the newest MAX_MEMO_ENTRIES of them
        cap = root_system.MAX_MEMO_ENTRIES
        assert cap < 20_000
        clear_caches()
        memo = root_system.context(A2).defining
        keys = [(A2.theta.coords, (3 * k + 1, -k)) for k in range(20_000)]
        for lc, mc in keys:
            assert lusztig_q_analogue(A2, A2.theta, Weight(mc)).is_zero()
            assert len(memo) <= cap
        assert list(memo) == keys[-cap:]
        assert not root_system.context(A2).engines

    def test_a_hit_does_not_refresh_an_entry(self):
        # the oldest entry in insertion order goes first, even when it was
        # just read: a hit does nothing but read
        cap = root_system.MAX_MEMO_ENTRIES
        clear_caches()
        memo = root_system.context(A2).defining
        for k in range(cap):
            lusztig_q_analogue(A2, A2.theta, Weight((3 * k + 1, -k)))
        oldest = next(iter(memo))
        lusztig_q_analogue(A2, A2.theta, Weight(oldest[1]))
        assert next(iter(memo)) == oldest
        lusztig_q_analogue(A2, A2.theta, ZERO2)
        assert oldest not in memo and len(memo) == cap
        assert memo[(A2.theta.coords, (0, 0))] == P({1: 1, 2: 1})


class TestCellBudget:
    """The tables of one context hold at most MAX_TABLE_CELLS cells together;
    a build drops the least recently used tables, never its own."""

    B3 = build_root_system("B3")
    LAMS = [Weight((a, b, 2 * c)) for a in range(4) for b in range(4) for c in range(3)]

    @staticmethod
    def cells(rs):
        return sum(len(eng.table) for eng in root_system.context(rs).engines.values())

    def test_stream_stays_within_the_budget(self, monkeypatch):
        rs = self.B3
        # m_lam^0 for all 48 highest weights, then m_lam^theta, which
        # rebuilds every table dropped since
        queries = [(lam, mu) for mu in (Weight.zero(3), rs.theta) for lam in self.LAMS]
        clear_caches()
        want = [lusztig_q_analogue(rs, lam, mu) for lam, mu in queries]
        assert self.cells(rs) > 4000
        clear_caches()
        monkeypatch.setattr(qkostant, "MAX_TABLE_CELLS", 4000)
        engines = root_system.context(rs).engines
        got = []
        for lam, mu in queries:
            got.append(lusztig_q_analogue(rs, lam, mu))
            assert self.cells(rs) <= 4000
            if got[-1]:
                assert next(reversed(engines)) == lam.coords
        assert got == want
        assert len(engines) < len(self.LAMS)

    def test_drops_the_least_recently_used(self, monkeypatch):
        rs = self.B3
        zero = Weight.zero(3)
        first, second, third = Weight((1, 0, 0)), Weight((0, 1, 0)), Weight((0, 0, 2))
        clear_caches()
        sizes = {}
        for lam in (first, second, third):
            lusztig_q_analogue(rs, lam, zero)
            sizes[lam] = len(root_system.context(rs).engines[lam.coords].table)
        clear_caches()
        monkeypatch.setattr(qkostant, "MAX_TABLE_CELLS", sizes[first] + sizes[third])
        engines = root_system.context(rs).engines
        lusztig_q_analogue(rs, first, zero)
        lusztig_q_analogue(rs, second, zero)
        lusztig_q_analogue(rs, first, first)  # first is now the most recent
        lusztig_q_analogue(rs, third, zero)
        assert list(engines) == [first.coords, third.coords]


class TestCharacterBudget:
    """The dominant weights a character finds and the weights it holds are
    counted against MAX_ORBIT_POINTS; over it, nothing is memoised."""

    @pytest.mark.parametrize("budget", [6, 20])
    def test_character_over_the_budget(self, monkeypatch, budget):
        # A2 (4,4) has 13 dominant weights and 61 weights, no orbit over 6
        # points: 6 is passed by the dominant weights found, 20 by the
        # weights held
        lam = Weight((4, 4))
        clear_caches()
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", budget)
        with pytest.raises(root_system.BudgetError,
                           match=f"^input too large: .*budget of {budget} orbit"):
            character(A2, lam)
        assert lam.coords not in root_system.context(A2).characters
        monkeypatch.undo()
        assert len(character(A2, lam)) == 61

    @pytest.mark.parametrize("budget", [6, 20, None])
    def test_formats_lam_at_most_once(self, monkeypatch, budget):
        # a refusal formats lam into its message once, and an answer not at
        # all: the descent formatted it once per dominant weight it popped,
        # 166,667 times to refuse A2 (10**20, 10**20)
        lam = Weight((4, 4))
        clear_caches()
        shown = []
        show = Weight.__str__
        monkeypatch.setattr(Weight, "__str__", lambda w: shown.append(w) or show(w))
        if budget is None:
            assert len(character(A2, lam)) == 61
        else:
            monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", budget)
            with pytest.raises(root_system.BudgetError, match=r" of \(4,4\) reaches "):
                character(A2, lam)
        assert len(shown) <= 1

    def test_refused_before_any_orbit_is_walked(self, monkeypatch):
        # the weights of E8 omega_4 number 3,207,121, the sum of the orbit
        # sizes of its dominant weights, found without a walk: neither
        # lam's orbit nor the layers of any other orbit are walked
        e8 = build_root_system("E8")
        lam = e8.fundamental_weight(3)

        def no_walk(rs, mu, *bound):
            raise AssertionError(f"walked the orbit of {mu}")

        monkeypatch.setattr(lusztig, "orbit", no_walk)
        monkeypatch.setattr(lusztig, "descend", no_walk)
        with pytest.raises(root_system.BudgetError,
                           match=r"^input too large: the weights of .* 3,207,121 points"):
            character(e8, lam)
        assert lam.coords not in root_system.context(e8).characters


class TestStringBudget:
    """A bound on the string steps of Freudenthal's sums, from the dominant
    weights alone, is counted against MAX_STRING_STEPS before any orbit is
    walked; over it, nothing is memoised."""

    @pytest.mark.parametrize("budget,refused", [(3152, False), (3151, True)])
    def test_largest_benchmark_character(self, monkeypatch, budget, refused):
        # G2 (6,6), a cli-table module of the benchmark and the character
        # there that walks the most steps, walks 2,699 of them, bounded by
        # 3,152
        lam = Weight((6, 6))
        clear_caches()
        monkeypatch.setattr(lusztig, "MAX_STRING_STEPS", budget)
        if refused:
            with pytest.raises(root_system.BudgetError,
                               match="^input too large: the character of .* up to 3,152 "
                                     "string steps, over the budget of 3,151$"):
                character(G2, lam)
            assert lam.coords not in root_system.context(G2).characters
        else:
            assert len(character(G2, lam)) == 901

    @pytest.mark.parametrize("name,coords,bound", [
        ("A2", (200, 0), 417_418), ("A2", (300, 0), 1_397_650), ("G2", (20, 20), 100_406)])
    def test_bound(self, monkeypatch, name, coords, bound):
        # every mu + k*gamma on a string lies below lam, so k is at most
        # min (lam - mu)_i / gamma_i; these walk 341,683, 1,143,875 and
        # 87,670 steps
        clear_caches()
        monkeypatch.setattr(lusztig, "MAX_STRING_STEPS", 0)
        with pytest.raises(root_system.BudgetError, match=f" up to {bound:,} string steps"):
            character(build_root_system(name), Weight(coords))

    def test_refused_before_any_orbit_is_walked(self, monkeypatch):
        def no_walk(rs, mu, *bound):
            raise AssertionError(f"walked the orbit of {mu}")

        monkeypatch.setattr(lusztig, "orbit", no_walk)
        monkeypatch.setattr(lusztig, "descend", no_walk)
        clear_caches()
        with pytest.raises(root_system.BudgetError,
                           match=r"^input too large: the character of \(900,0\) walks "
                                 r"up to 37,327,950 string steps"):
            character(A2, Weight((900, 0)))

    def test_refused_in_seconds(self, capsys):
        # A2 (900,0): 406,351 weights fit the orbit-point budget, but
        # Freudenthal's sums would walk about 31 million steps
        start = time.perf_counter()
        code = cli.main(["table", "A2", "--lambda", "900,0"])
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 60
        assert code == 2 and out == ""
        assert err.startswith("error: input too large: the character of (900,0) walks")


class TestIntegerQueryPath:
    def test_no_fraction_after_the_table_is_built(self, monkeypatch):
        # a query read from a built table and a character computation run on
        # integer coordinates from the call to the cell
        rs = build_root_system("B3")
        lam = rs.theta + rs.theta_s
        clear_caches()
        lusztig_q_analogue(rs, lam, Weight.zero(3))
        hits = q_partition_cache_stats()[1]
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        got = lusztig_q_analogue(rs, lam, rs.theta_s)
        ch = character(rs, lam)
        monkeypatch.undo()
        assert made == []
        assert q_partition_cache_stats()[1] == hits + 1
        assert got.evaluate(1) == ch.get(rs.theta_s) > 0


class TestBroerCriterion:
    def test_criterion_values(self):
        # -w1 pairs >= -1 with every positive coroot in type A
        assert broer_nonnegativity_test(A2, -A2.fundamental_weight(0))
        assert broer_nonnegativity_test(A2, ZERO2)
        assert broer_nonnegativity_test(A2, A2.theta)
        # -theta pairs to -2 against theta-check
        assert not broer_nonnegativity_test(A2, -A2.theta)

    def test_negative_coefficient_matches_criterion(self):
        # mu = -theta fails the criterion and indeed shows a negative
        # coefficient below the adjoint representation
        poly = lusztig_q_analogue(A2, A2.theta, -A2.theta)
        assert poly == P({2: -1, 3: 1, 4: 1})
        assert not poly.coefficients_nonnegative()
        # mu = -w1 satisfies it; scan small lambdas
        mu = -A2.fundamental_weight(0)
        for lam in [(0, 1), (1, 2), (2, 0), (1, 1), (2, 2)]:
            lam = Weight(lam)
            if not A2.in_root_lattice(lam - mu):
                continue
            assert lusztig_q_analogue(A2, lam, mu).coefficients_nonnegative()


class CellOutside(Exception):
    """Raised by the spy on ``compute`` for a cell past the built table."""


class TestOnePassRead:
    """A read of a built table goes from lam - mu to the cell in one loop;
    every other point goes to ``root_coords`` and ``compute``, and gets the
    cell a build for that point holds at its root coordinates times the
    strides."""

    TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"]

    @staticmethod
    def around(box):
        # each root coordinate just below, inside and just past the box; a
        # long extent keeps its ends and its middle
        return itertools.product(*(
            range(-1, b + 2) if b < 5 else (-1, 0, 1, b // 2, b - 1, b, b + 1)
            for b in box))

    @pytest.mark.parametrize("name", TYPES)
    def test_matches_root_coords_then_compute(self, name, monkeypatch):
        rs = build_root_system(name)
        engine = qkostant.PartitionEngine
        compute = engine.compute
        asked = []

        def spy(eng, root, engines):
            asked.append(root)
            if eng.rows:
                # a point of Q_+ past a table that reads from its rows
                raise CellOutside(root)
            return compute(eng, root, engines)

        monkeypatch.setattr(engine, "compute", spy)
        # a weight off the root lattice, where the type has one
        shifts = [Weight.zero(rs.rank)] + [
            w for w in map(rs.fundamental_weight, range(rs.rank))
            if not rs.in_root_lattice(w)][:1]
        for lam in itertools.product(range(3), repeat=rs.rank):
            if sum(lam) > 2:
                continue
            lam = Weight(lam)
            box = root_coords(rs, lam + dual_weight(rs, lam))
            clear_caches()
            # the first table is exact: the lowest weight's box is the module's
            lusztig_q_analogue(rs, lam, -dual_weight(rs, lam))
            ctx = root_system.context(rs)
            eng = ctx.engines[lam.coords]
            assert eng.bound == box
            # warm: every point reads from the rows, and a point of Q_+ past
            # the box goes to compute
            warm = []
            for nu in self.around(box):
                for shift in shifts:
                    diff = rs.root_to_weight_basis(nu) + shift
                    mu = lam - diff
                    rc = rs.root_coords(diff.coords)
                    inside = rc is not None and min(rc) >= 0
                    asked.clear()
                    if inside and any(map(gt, rc, box)):
                        with pytest.raises(CellOutside):
                            lusztig_q_analogue(rs, lam, mu)
                        assert asked == [rc], (name, lam, mu)
                        continue
                    warm.append((mu, rc if inside else None, lusztig_q_analogue(rs, lam, mu)))
                    assert asked == [], (name, lam, mu)
            # cold: with its rows taken away, the table is read the long way:
            # a point of Q_+ goes to root_coords and compute, whose build of
            # the box (the warm table put back, not walked again) is read at
            # the point's root coordinates times the strides, and any other
            # point is zero
            state = [getattr(eng, slot) for slot in engine.__slots__]

            def rebuild(e, bound):
                assert (e, bound) == (eng, box)
                for slot, value in zip(engine.__slots__, state):
                    setattr(e, slot, value)

            with monkeypatch.context() as mp:
                mp.setattr(engine, "_build", rebuild)
                for mu, rc, got in warm:
                    eng.rows = ()
                    asked.clear()
                    assert qkostant.read(rs, ctx, lam.coords, mu.coords) == got, (name, lam, mu)
                    assert asked == ([rc] if rc else []), (name, lam, mu)

    def test_off_cone_read_keeps_the_order(self):
        # a read of a cell moves its table to the most recent end; a point
        # off Q_+ reads no cell and moves nothing
        clear_caches()
        engines = root_system.context(B2).engines
        lusztig_q_analogue(B2, B2.theta, ZERO2)
        lusztig_q_analogue(B2, B2.theta_s, ZERO2)
        assert list(engines) == [B2.theta.coords, B2.theta_s.coords]
        assert lusztig_q_analogue(B2, B2.theta, B2.theta + B2.simple_roots[0]).is_zero()
        assert lusztig_q_analogue(B2, B2.theta, Weight((0, 1))).is_zero()
        assert list(engines) == [B2.theta.coords, B2.theta_s.coords]
        assert lusztig_q_analogue(B2, B2.theta, B2.theta) == 1
        assert list(engines) == [B2.theta_s.coords, B2.theta.coords]

    def test_refusals_after_a_memo_miss(self):
        # with the table of A2 theta built and remembered queries around,
        # a miss still checks dominance and both ranks before any read
        clear_caches()
        lusztig_q_analogue(A2, A2.theta, -A2.theta)
        q_partition(A2, 2 * A2.theta)
        cases = [
            ((A2, Weight((2, -1)), ZERO2), "^\\(2,-1\\) is not dominant$"),
            ((A2, Weight((-1, 0, 0)), ZERO2), "^\\(-1,0,0\\) is not dominant$"),
            ((A2, Weight((1, 1, 0)), ZERO2), "^\\(1,1,0\\) is not a weight of A2$"),
            ((A2, A2.theta, Weight((1, 1, 0))), "^\\(1,1,0\\) is not a weight of A2$"),
            ((A2, A2.theta, Weight((1,))), "^\\(1\\) is not a weight of A2$"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                lusztig_q_analogue(*args)
        with pytest.raises(ValueError, match="^\\(1,1,0\\) is not a weight of A2$"):
            q_partition(A2, Weight((1, 1, 0)))
        with pytest.raises(ValueError, match="^\\(-1,-1\\) is not in the positive root cone$"):
            cherednik_coefficient(A2, -A2.theta)

    def test_lib_session_stream_cache_stats(self, builds, grown):
        # the seed-1 query stream of the benchmark's lib-session workload
        # makes 44 builds of 23,649 cells in all, ends with tables of 21,128
        # cells and reads 1,440 cells of a built table; the memo answers the
        # rest.  Each build was for a point of Q_+ outside its table
        sys.path.insert(0, str(LAYERBENCH))
        try:
            import oracle
        finally:
            sys.path.remove(str(LAYERBENCH))
        data = oracle.inputs("lib-session", 1)
        systems = {name: build_root_system(name) for name in data["types"]}
        for query in data["queries"]:
            rs = systems[query[1]]
            if query[0] == "char":
                character(rs, Weight(query[2]))
            else:
                lusztig_q_analogue(rs, Weight(query[2]), Weight(query[3]))
        assert q_partition_cache_stats() == (21_128, 1_440)
        assert (len(builds), sum(prod(b + 1 for b in bound) for bound in builds)) \
            == (44, 23_649)
        assert len(grown) == 44 and all(outside for _, outside in grown)

    @pytest.mark.parametrize("name", ["F4", "E6"])
    def test_verify_all_grows_tables_only(self, name, grown, capsys):
        # every identity of `verify all` reads its cells through read, and
        # hands compute only the points of Q_+ outside a table
        clear_caches()
        assert cli.main(["verify", "all", name]) == 0
        assert capsys.readouterr().out.startswith("PASS adjoint")
        assert grown and all(outside for _, outside in grown)


class TestBuiltTableRead:
    """Once lam's table is built, a memo miss skips lam's checks and reads
    the cell straight from mu; every answer and refusal is the one a cold
    context gives."""

    def test_wrong_rank_mu_reads_as_on_a_cold_context(self):
        messages = []
        for warm in (False, True):
            clear_caches()
            if warm:
                lusztig_q_analogue(A2, A2.theta, -A2.theta)
                q_partition(A2, A2.theta)
                assert set(root_system.context(A2).engines) == {A2.theta.coords, None}
            for call in (lambda mu: lusztig_q_analogue(A2, A2.theta, mu),
                         lambda mu: q_partition(A2, mu)):
                for mu in (Weight((1, 1, 0)), Weight((1,))):
                    with pytest.raises(ValueError) as refused:
                        call(mu)
                    messages.append(str(refused.value))
        assert messages[:4] == messages[4:] == [
            "(1,1,0) is not a weight of A2", "(1) is not a weight of A2"] * 2

    def test_non_dominant_lam_refused_beside_other_tables(self, builds):
        for lam in (B2.theta, B2.theta_s):
            lusztig_q_analogue(B2, lam, -lam)
        q_partition(B2, B2.theta)
        engines = root_system.context(B2).engines
        held = list(engines)
        cases = [(Weight((2, -1)), "(2,-1) is not dominant"),
                 (Weight((-1, 2)), "(-1,2) is not dominant"),
                 (Weight((0, -2)), "(0,-2) is not dominant"),
                 (Weight((1, 0, 0)), "(1,0,0) is not a weight of B2")]
        for lam, message in cases:
            for mu in (ZERO2, B2.theta, lam):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    lusztig_q_analogue(B2, lam, mu)
        assert list(engines) == held and len(builds) == 3

    @pytest.mark.parametrize("rs", [A2, B2, G2, B3], ids=str)
    def test_off_lattice_or_cone_reads_zero_and_moves_nothing(self, rs, builds):
        # lam's module box is built first, then every mu whose lam - mu lies
        # off the root lattice or has a negative root coordinate
        lam = rs.theta
        lusztig_q_analogue(rs, lam, -dual_weight(rs, lam))
        box = root_coords(rs, lam + dual_weight(rs, lam))
        engines = root_system.context(rs).engines
        held, bound = list(engines), engines[lam.coords].bound
        shifts = [w for w in map(rs.fundamental_weight, range(rs.rank))
                  if not rs.in_root_lattice(w)]
        read = 0
        for nu in itertools.product(*(range(-2, b + 3) for b in box)):
            diff = rs.root_to_weight_basis(nu)
            for shift in shifts + ([Weight.zero(rs.rank)] if min(nu) < 0 else []):
                assert lusztig_q_analogue(rs, lam, lam - diff - shift).is_zero()
                read += 1
        assert read and list(engines) == held and builds == [bound]

    def test_past_the_bound_grows_the_table(self, builds, monkeypatch):
        compute = qkostant.PartitionEngine.compute
        asked = []
        monkeypatch.setattr(qkostant.PartitionEngine, "compute",
                            lambda eng, root, engines: asked.append(root)
                            or compute(eng, root, engines))
        a1, a2 = A2.simple_roots
        # the lowest weight builds A2 theta's module box (2, 2) at once; a
        # read inside it asks compute nothing, and theta - mu = 3 alpha_1,
        # past it, grows the table to the union
        lowest = lusztig_q_analogue(A2, A2.theta, -A2.theta)
        inside = lusztig_q_analogue(A2, A2.theta, A2.theta - a1 - a2)
        assert (asked, builds) == ([(2, 2)], [(2, 2)])
        past = lusztig_q_analogue(A2, A2.theta, A2.theta - 3 * a1)
        assert (asked, builds) == ([(2, 2), (3, 0)], [(2, 2), (3, 2)])
        assert root_system.context(A2).engines[A2.theta.coords].bound == (3, 2)
        assert [lowest, inside, past] == [
            q_analogue_by_induction(A2, A2.theta, mu)
            for mu in (-A2.theta, A2.theta - a1 - a2, A2.theta - 3 * a1)]
        # P_q the same way: (1, 0) is read from the table of (2, 0), and
        # (0, 3) grows it to the union
        del asked[:], builds[:]
        assert q_partition(A2, 2 * a1) == QPoly.q() ** 2
        assert q_partition(A2, a1) == QPoly.q()
        assert asked == [(2, 0)]
        assert q_partition(A2, 3 * a2) == QPoly.q() ** 3
        assert (asked, builds) == ([(2, 0), (0, 3)], [(2, 0), (2, 3)])


class TestCharacterMemo:
    """The characters of one context hold at most MAX_ORBIT_POINTS weights
    together; the oldest go first."""

    def test_oldest_dropped_at_the_cap(self, monkeypatch):
        # A1 (k) has k + 1 weights: 30 of them hold 465, over a cap of 60
        a1 = build_root_system("A1")
        clear_caches()
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 60)
        ctx = root_system.context(a1)
        for k in range(30):
            assert len(character(a1, Weight((k,)))) == k + 1
            held = sum(map(len, ctx.characters.values()))
            assert held == ctx.character_weights <= 60
            assert next(reversed(ctx.characters)) == (k,)
        # the newest that fit: 30 + 29 weights; 28 more would pass 60
        assert list(ctx.characters) == [(28,), (29,)]

    def test_a_hit_does_not_refresh_a_character(self, monkeypatch):
        a1 = build_root_system("A1")
        clear_caches()
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 10)
        ctx = root_system.context(a1)
        first = character(a1, Weight((3,)))
        character(a1, Weight((4,)))
        assert character(a1, Weight((3,))) is first
        character(a1, Weight((1,)))
        assert list(ctx.characters) == [(4,), (1,)]


class TestReadOnlyCharacter:
    """``character`` hands out its memo, so a WeightMultiset takes no change."""

    MUTATIONS = {
        "setitem": lambda ch: ch.__setitem__(ZERO2, 5),
        "delitem": lambda ch: ch.__delitem__(ZERO2),
        "ior": lambda ch: ch.__ior__({ZERO2: 5}),
        "ior operator": lambda ch: operator.ior(ch, {ZERO2: 5}),
        "clear": lambda ch: ch.clear(),
        "pop": lambda ch: ch.pop(ZERO2),
        "popitem": lambda ch: ch.popitem(),
        "setdefault": lambda ch: ch.setdefault(Weight((5, 5)), 1),
        "update": lambda ch: ch.update({ZERO2: 5}),
    }

    @pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
    def test_a_mutation_is_refused_and_changes_nothing(self, mutate):
        clear_caches()
        ch = character(B2, B2.theta)
        before = list(ch.items())
        assert freudenthal_multiplicity(B2, B2.theta, ZERO2) == 2
        with pytest.raises(TypeError, match=r"dict\(\.\.\.\)"):
            mutate(ch)
        assert character(B2, B2.theta) is ch
        assert ch.items() == before
        assert freudenthal_multiplicity(B2, B2.theta, ZERO2) == 2

    def test_copies_and_pickles(self):
        clear_caches()
        ch = character(B2, B2.theta)
        for twin in (copy.copy(ch), copy.deepcopy(ch), pickle.loads(pickle.dumps(ch))):
            assert type(twin) is WeightMultiset and twin is not ch
            assert twin.items() == ch.items()
        mutable = dict(ch)
        mutable[ZERO2] = 5
        assert ch.get(ZERO2) == 2

    def test_a_new_multiset_from_a_character(self):
        # the fault-injection idiom of test_identities
        ch = character(A2, A2.theta)
        more = WeightMultiset({**ch, Weight((3, 0)): 1})
        assert more.get(Weight((3, 0))) == 1 and len(more) == len(ch) + 1
        assert Weight((3, 0)) not in character(A2, A2.theta)
