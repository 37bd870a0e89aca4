"""Weyl group enumeration, orbits, dominant representatives, stabilizers."""

import itertools

import pytest

from qweights import root_system, weyl
from qweights.poly import QPoly
from qweights.root_system import BudgetError, Weight, build_root_system
from qweights.weyl import (
    WeylElement,
    dominant_representative,
    enumerate_weyl,
    orbit,
    orbit_size,
    stabilizer_poincare,
    weyl_elements,
)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"])
def test_enumeration_size_and_signs(name):
    rs = build_root_system(name)
    elems = weyl_elements(rs)
    assert len(elems) == rs.weyl_order
    assert len({w.matrix for w in elems}) == rs.weyl_order
    # signs split evenly between the two values for |W| > 1
    assert sum(1 for w in elems if w.sign == 1) == rs.weyl_order // 2
    # BFS yields by increasing length
    lengths = [w.length for w in enumerate_weyl(rs)]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0 and lengths[-1] == len(rs.positive_roots)


def test_poincare_polynomial_of_whole_group():
    # sum of q^{length} equals the stabilizer series of the zero weight
    for name in ("A2", "B2", "G2", "B3"):
        rs = build_root_system(name)
        series = QPoly.zero()
        for w in weyl_elements(rs):
            series = series + QPoly.q(w.length)
        assert series == stabilizer_poincare(rs, Weight.zero(rs.rank))
        # product formula: prod over exponents of [m_i + 1]_q
        prod = QPoly.one()
        for m in rs.exponents:
            prod = prod * QPoly.q_int(m + 1)
        assert series == prod


def negative_pairings(rs, mu):
    """#{beta > 0 : <mu, beta_check> < 0}, the length of the shortest w
    taking mu to its dominant representative."""
    return sum(rs.pairing(mu, beta) < 0 for beta in rs.positive_roots)


def shortest_to(rs, top):
    """mu -> the least length of a w in W with w(mu) = top, over the orbit of
    top: w(mu) = top exactly when w^-1(top) = mu, and w^-1 has the length of
    w."""
    out = {}
    for w in weyl_elements(rs):
        mu = w.act(top)
        out[mu] = min(out.get(mu, w.length), w.length)
    return out


def test_w0_sends_minus_rho_to_rho():
    # -rho goes to rho by the longest element, of length |Phi+|, and only by
    # it; it is an involution
    for name in ("A2", "B2", "G2", "A3"):
        rs = build_root_system(name)
        rep, length = dominant_representative(rs, -rs.rho)
        assert rep == rs.rho and length == len(rs.positive_roots)
        (w0,) = [w for w in weyl_elements(rs) if w.act(-rs.rho) == rs.rho]
        assert w0.length == length
        assert w0.act(w0.act(rs.theta)) == rs.theta


def test_dominant_representative():
    rs = build_root_system("B3")
    for w in weyl_elements(rs):
        mu = w.act(rs.rho)
        rep, length = dominant_representative(rs, mu)
        assert rep == rs.rho
        # rho is regular, so w^-1, of the length of w, is the only element
        # taking mu back to rho
        assert length == w.length == negative_pairings(rs, mu)
    # dominant inputs come back unchanged with length 0
    assert dominant_representative(rs, rs.theta) == (rs.theta, 0)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_dominant_representative_on_singular_orbits(name):
    # points with nontrivial stabilizers, where many words reach the chamber
    rs = build_root_system(name)
    tops = {rs.theta, rs.theta_s}
    tops.update(rs.fundamental_weight(i) for i in range(rs.rank))
    for top in tops:
        points = orbit(rs, top)
        (dominant,) = [mu for mu in points if mu.is_dominant()]
        shortest = shortest_to(rs, top)
        assert set(shortest) == points
        for mu in points:
            rep, length = dominant_representative(rs, mu)
            assert rep == dominant == top
            assert length == negative_pairings(rs, mu) == shortest[mu]


def test_orbit_sizes():
    a2 = build_root_system("A2")
    assert len(orbit(a2, a2.fundamental_weight(0))) == 3
    assert len(orbit(a2, a2.rho)) == 6
    assert len(orbit(a2, Weight.zero(2))) == 1
    b2 = build_root_system("B2")
    assert len(orbit(b2, b2.fundamental_weight(1))) == 4
    assert len(orbit(b2, b2.fundamental_weight(0))) == 4
    g2 = build_root_system("G2")
    assert len(orbit(g2, g2.theta)) == 6
    assert len(orbit(g2, g2.theta_s)) == 6
    # orbit of theta is the set of long roots
    longs = {g2.root_to_weight_basis(r) for r in g2.positive_roots
             if g2.root_length[r] != 1}
    assert orbit(g2, g2.theta) == longs | {-w for w in longs}


def test_stabilizer_poincare_values():
    a2 = build_root_system("A2")
    # W_{w1} = {1, s2}
    assert stabilizer_poincare(a2, a2.fundamental_weight(0)) == QPoly({0: 1, 1: 1})
    # regular weight: trivial stabilizer
    assert stabilizer_poincare(a2, a2.rho) == QPoly.one()
    b3 = build_root_system("B3")
    # orbit-stabilizer: |W| = |orbit| * t_nu(1)
    for nu in (b3.theta, b3.theta_s, b3.fundamental_weight(2), Weight.zero(3)):
        t = stabilizer_poincare(b3, nu)
        assert len(orbit(b3, nu)) * t.evaluate(1) == b3.weyl_order
    with pytest.raises(ValueError):
        stabilizer_poincare(a2, Weight((-1, 0)))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_stabilizer_poincare_is_the_length_sum_over_the_stabilizer(name):
    # the closed form against sum q^l(w) over the w in W fixing nu, for every
    # face of the chamber
    rs = build_root_system(name)
    elems = weyl_elements(rs)
    for nu in itertools.product((0, 1), repeat=rs.rank):
        nu = Weight(nu)
        terms = {}
        for w in elems:
            if w.act(nu) == nu:
                terms[w.length] = terms.get(w.length, 0) + 1
        assert stabilizer_poincare(rs, nu) == QPoly(terms), nu
        # the same exponents give the orbit size, |W| / t_nu(1)
        assert orbit_size(rs, nu) == len(orbit(rs, nu)), nu


def test_stabilizer_poincare_e8():
    # no walk over the 697 million elements of W(E8)
    e8 = build_root_system("E8")
    assert stabilizer_poincare(e8, Weight.zero(8)).evaluate(1) == 696729600
    # the stabilizer of omega_8 is W(E7)
    assert stabilizer_poincare(e8, e8.fundamental_weight(7)).evaluate(1) == 2903040


class TestOrbitBudget:
    """Past MAX_ORBIT_POINTS a walk raises BudgetError and keeps nothing."""

    def test_orbit(self, monkeypatch):
        b3 = build_root_system("B3")
        # the orbit of rho has 48 points
        assert len(orbit(b3, b3.rho)) == 48
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 47)
        with pytest.raises(BudgetError, match="^input too large: .*budget of 47 orbit"):
            orbit(b3, b3.rho)
        # a smaller orbit still fits: the 12 long roots
        assert len(orbit(b3, b3.theta)) == 12

    def test_enumerate_weyl_yields_nothing(self, monkeypatch):
        b3 = build_root_system("B3")
        root_system.clear_caches()
        monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 47)
        got = []
        with pytest.raises(BudgetError, match="^input too large: .*budget of 47 orbit"):
            for w in enumerate_weyl(b3):
                got.append(w)
        assert got == []
        with pytest.raises(BudgetError):
            weyl_elements(b3)
        # nothing is kept about b3, not even an empty context
        assert not root_system._contexts

    def test_budget_is_a_value_error(self):
        # E7 is over the default budget, and the error is a usage error
        with pytest.raises(ValueError, match="2,903,040 points"):
            next(enumerate_weyl(build_root_system("E7")))


def test_weyl_element_value():
    # equal on matrix and length, signed by the parity of the length, and
    # acting on fundamental-weight coordinates by its matrix
    rs = build_root_system("B2")
    elements = weyl_elements(rs)
    assert elements == weyl_elements(rs)
    assert len(set(elements)) == rs.weyl_order
    ident, s0 = elements[0], elements[1]
    assert ident == WeylElement(((1, 0), (0, 1)), 0) != WeylElement(((1, 0), (0, 1)), 2)
    assert (ident.sign, s0.sign) == (1, -1)
    assert [w.sign for w in elements] == [(-1) ** w.length for w in elements]
    lam = Weight((2, -3))
    assert ident.act(lam) == lam
    assert s0.act(lam) == lam - 2 * rs.simple_roots[0]
    assert s0.act(s0.act(lam)) == lam
    assert repr(ident) == "WeylElement(matrix=((1, 0), (0, 1)), length=0)"


def test_simple_reflection_action():
    # the length-1 elements are the simple reflections: s_i sends omega_j to
    # omega_j - delta_ij alpha_i
    rs = build_root_system("C3")
    omegas = [rs.fundamental_weight(j) for j in range(rs.rank)]
    reflections = [w for w in weyl_elements(rs) if w.length == 1]
    assert len(reflections) == rs.rank
    assert {tuple(w.act(om) for om in omegas) for w in reflections} == {
        tuple(om - rs.simple_roots[i] if i == j else om for j, om in enumerate(omegas))
        for i in range(rs.rank)}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_descend_walks_each_point_once_at_its_length(name):
    # layer k holds the points with exactly k positive roots pairing
    # negatively, the layers are disjoint, and together they are the orbit
    rs = build_root_system(name)
    for nu in itertools.product((0, 1), repeat=rs.rank):
        layers = [set(layer) for layer in weyl.descend(rs, nu)]
        for k, layer in enumerate(layers):
            assert all(negative_pairings(rs, Weight(x)) == k for x in layer), (nu, k)
        union = set().union(*layers)
        assert sum(map(len, layers)) == len(union) == orbit_size(rs, Weight(nu)), nu
        assert {Weight(x) for x in union} == orbit(rs, Weight(nu))


def test_descend_carries_root_coordinate_depths():
    # the depth of x is top - x in root coordinates, and the bound prunes
    # every point whose depth leaves the box
    rs = build_root_system("B3")
    top = (rs.theta + rs.rho).coords
    full = {x: d for layer in weyl.descend(rs, top) for x, d in layer.items()}
    assert len(full) == rs.weyl_order
    for x, d in full.items():
        assert d == rs.root_coords(tuple(a - b for a, b in zip(top, x)))
    bound = (3, 4, 5)
    pruned = {x: d for layer in weyl.descend(rs, top, bound) for x, d in layer.items()}
    assert pruned == {x: d for x, d in full.items()
                      if all(a <= b for a, b in zip(d, bound))}


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_orbit_of_a_non_dominant_weight(name):
    rs = build_root_system(name)
    for mu in itertools.product(range(-2, 3), repeat=rs.rank):
        mu = Weight(mu)
        top, _ = dominant_representative(rs, mu)
        points = orbit(rs, mu)
        assert mu in points and points == orbit(rs, top), mu


def test_orbit_is_refused_before_it_is_walked(monkeypatch):
    # the orbit of omega_4 in E8 has 483,840 points, one over this budget
    e8 = build_root_system("E8")

    def no_walk(rs, top, bound=None):
        raise AssertionError(f"walked the orbit of {top}")

    monkeypatch.setattr(weyl, "descend", no_walk)
    monkeypatch.setattr(root_system, "MAX_ORBIT_POINTS", 483_839)
    with pytest.raises(BudgetError, match="reaches 483,840 points"):
        orbit(e8, e8.fundamental_weight(3))
