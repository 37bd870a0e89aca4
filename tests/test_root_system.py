"""Static root-system data against the classical tables."""

import copy
import pickle
import re
from math import gcd

import pytest

import qweights
from qweights import root_system
from qweights.root_system import (
    BudgetError,
    Weight,
    build_dual_root_system,
    build_root_system,
    parse_type,
)

# (type, #positive roots, exponents, coxeter number, weyl order)
CLASSICAL_TABLE = [
    ("A1", 1, [1], 2, 2),
    ("A2", 3, [1, 2], 3, 6),
    ("A3", 6, [1, 2, 3], 4, 24),
    ("A4", 10, [1, 2, 3, 4], 5, 120),
    ("B2", 4, [1, 3], 4, 8),
    ("B3", 9, [1, 3, 5], 6, 48),
    ("B4", 16, [1, 3, 5, 7], 8, 384),
    ("C3", 9, [1, 3, 5], 6, 48),
    ("C4", 16, [1, 3, 5, 7], 8, 384),
    ("D4", 12, [1, 3, 3, 5], 6, 192),
    ("D5", 20, [1, 3, 4, 5, 7], 8, 1920),
    ("E6", 36, [1, 4, 5, 7, 8, 11], 12, 51840),
    ("E7", 63, [1, 5, 7, 9, 11, 13, 17], 18, 2903040),
    ("F4", 24, [1, 5, 7, 11], 12, 1152),
    ("G2", 6, [1, 5], 6, 12),
]


@pytest.mark.parametrize("name,nroots,exps,h,worder", CLASSICAL_TABLE)
def test_classical_invariants(name, nroots, exps, h, worder):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == nroots
    assert list(rs.exponents) == exps
    assert rs.coxeter_number == h
    assert rs.weyl_order == worder
    # structural consistency of the same quantities
    assert sum(exps) == nroots                      # sum of exponents
    assert max(exps) == h - 1                       # largest exponent
    assert rs.height(rs.theta) == h - 1             # height of highest root


# |positive roots| of each type, by rank
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": lambda n: 24,
    "G": lambda n: 6,
}
UP_TO_RANK_8 = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_positive_roots_are_closed_under_simple_reflections(name):
    # s_i permutes the positive roots other than alpha_i
    rs = build_root_system(name)
    roots = set(rs.positive_roots)
    assert len(roots) == len(rs.positive_roots) == ROOT_COUNTS[rs.letter](rs.rank)
    for i in range(rs.rank):
        alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
        for beta in roots - {alpha}:
            c = sum(rs.cartan[i][j] * beta[j] for j in range(rs.rank))
            assert beta[:i] + (beta[i] - c,) + beta[i + 1:] in roots


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_fundamental_weights_pair_integrally(name):
    # <omega_i, beta_check> = (omega_i, beta) / ((beta, beta) / 2) exactly
    rs = build_root_system(name)
    for i in range(rs.rank):
        w = rs.fundamental_weight(i)
        for beta in rs.positive_roots:
            assert rs.pairing(w, beta) * rs.root_length[beta] == rs.inner(w, beta)


HIGHEST_ROOTS = {
    "A3": (1, 1, 1),
    "B3": (1, 2, 2),
    "C3": (2, 2, 1),
    "D4": (1, 2, 1, 1),
    "G2": (3, 2),
    "F4": (2, 3, 4, 2),
}

SHORT_DOMINANT_ROOTS = {
    "B2": (1, 1),
    "B3": (1, 1, 1),
    "C3": (1, 2, 1),
    "G2": (2, 1),
    "F4": (1, 2, 3, 2),
}


@pytest.mark.parametrize("name,coords", sorted(HIGHEST_ROOTS.items()))
def test_highest_root(name, coords):
    rs = build_root_system(name)
    assert rs.theta_root_coords == coords
    assert rs.theta.is_dominant()
    # every positive root is dominated by theta
    for root in rs.positive_roots:
        assert rs.dominance_leq(rs.root_to_weight_basis(root), rs.theta)


@pytest.mark.parametrize("name,coords", sorted(SHORT_DOMINANT_ROOTS.items()))
def test_short_dominant_root(name, coords):
    rs = build_root_system(name)
    assert rs.theta_s_root_coords == coords
    assert rs.theta_s.is_dominant()
    assert rs.root_length[coords] == 1
    for root in rs.short_positive_roots:
        assert rs.dominance_leq(rs.root_to_weight_basis(root), rs.theta_s)


SHORT_EXPONENTS = {"B2": [2], "B3": [3], "B4": [4], "C3": [2, 4],
                   "C4": [2, 4, 6], "F4": [4, 8], "G2": [3]}


@pytest.mark.parametrize("name,exps", sorted(SHORT_EXPONENTS.items()))
def test_short_exponents(name, exps):
    rs = build_root_system(name)
    assert list(rs.short_exponents) == exps
    # the largest short exponent is the height of the short dominant root
    assert max(exps) == sum(rs.theta_s_root_coords)


@pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_cartan_structure(name):
    rs = build_root_system(name)
    A, d = rs.cartan, rs.symmetrizer
    n = rs.rank
    for i in range(n):
        assert A[i][i] == 2
        for j in range(n):
            if i != j:
                assert A[i][j] <= 0
                assert (A[i][j] == 0) == (A[j][i] == 0)
            # d_i * <alpha_j, alpha_i^vee> is symmetric in (i, j)
            assert d[i] * A[i][j] == d[j] * A[j][i]
    # the scaled inverse Cartan matrix really inverts, in integers:
    # A . M = scale * I, and no smaller scale makes M integral
    M, scale = rs._scaled_inv_cartan, rs._inv_scale
    for i in range(n):
        for j in range(n):
            acc = sum(A[i][k] * M[k][j] for k in range(n))
            assert acc == (scale if i == j else 0)
    assert scale > 0
    assert gcd(scale, *(x for row in M for x in row)) == 1


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "F4"])
def test_basis_conversions(name):
    rs = build_root_system(name)
    for root in rs.positive_roots:
        w = rs.root_to_weight_basis(root)
        assert tuple(rs.weight_to_root_coords(w)) == root
        assert rs.in_root_lattice(w)
        assert rs.height(w) == sum(root)
        assert rs.is_positive_root_weight(w)
    assert not rs.is_positive_root_weight(rs.theta + rs.theta)
    # pairing of fundamental weights against simple coroots
    for i in range(rs.rank):
        for j in range(rs.rank):
            simple = rs.simple_roots[j]
            assert rs.pairing(rs.fundamental_weight(i), simple) == (i == j)


def test_rho_is_half_sum_of_positive_roots():
    for name in ("A3", "B2", "C3", "G2", "F4"):
        rs = build_root_system(name)
        assert rs.rho.coords == (1,) * rs.rank
        total = [0] * rs.rank
        for root in rs.positive_roots:
            for k, c in enumerate(root):
                total[k] += c
        rho_rc = rs.weight_to_root_coords(rs.rho)
        assert [2 * x for x in rho_rc] == total


def test_root_lattice_membership():
    a2 = build_root_system("A2")
    assert not a2.in_root_lattice(a2.fundamental_weight(0))
    assert a2.in_root_lattice(a2.theta)
    b2 = build_root_system("B2")
    assert not b2.in_root_lattice(b2.fundamental_weight(1))
    assert b2.in_root_lattice(b2.fundamental_weight(0))
    with pytest.raises(ValueError):
        a2.height(a2.fundamental_weight(0))


def test_dominance_order():
    rs = build_root_system("G2")
    assert rs.dominance_leq(rs.theta_s, rs.theta)
    assert not rs.dominance_leq(rs.theta, rs.theta_s)
    assert rs.dominance_leq(rs.theta, rs.theta)
    a2 = build_root_system("A2")
    w1, w2 = a2.fundamental_weight(0), a2.fundamental_weight(1)
    assert not a2.dominance_leq(w1, w2)
    assert not a2.dominance_leq(w2, w1)


def test_wrong_rank_is_rejected():
    a2 = build_root_system("A2")
    with pytest.raises(ValueError):
        Weight((1, 1)) + Weight((1, 1, 0))
    with pytest.raises(ValueError):
        Weight((1, 1)) - Weight((0,))
    with pytest.raises(ValueError):
        a2.weight_to_root_coords(Weight((1, 1, 0)))
    with pytest.raises(ValueError):
        a2.root_coords((1, 1, 0))
    with pytest.raises(ValueError):
        a2.pairing(Weight((1, 0, 0)), (1, 1))
    with pytest.raises(ValueError):
        a2.inner(Weight((1, 1, 0)), (1, 1))
    with pytest.raises(ValueError):
        a2.inner(Weight((1, 1)), (1, 1, 0))
    with pytest.raises(ValueError):
        a2.dominance_leq(Weight((0, 0)), Weight((1, 1, 0)))
    with pytest.raises(ValueError):
        a2.in_root_lattice(Weight((1, 1, 0)))


A2 = build_root_system("A2")
A2_WEIGHT = Weight((1, 1))

# every public function that takes a weight, once per weight argument, with
# the weight there replaced by w and valid arguments elsewhere
WEIGHT_TAKERS = {
    "lusztig_q_analogue(lam)": lambda w: qweights.lusztig_q_analogue(A2, w, A2_WEIGHT),
    "lusztig_q_analogue(mu)": lambda w: qweights.lusztig_q_analogue(A2, A2_WEIGHT, w),
    "q_analogue_by_induction(lam)":
        lambda w: qweights.q_analogue_by_induction(A2, w, A2_WEIGHT),
    "q_analogue_by_induction(mu)":
        lambda w: qweights.q_analogue_by_induction(A2, A2_WEIGHT, w),
    "q_analogue_via_kernel(lam)": lambda w: qweights.q_analogue_via_kernel(A2, w, A2_WEIGHT),
    "q_analogue_via_kernel(mu)": lambda w: qweights.q_analogue_via_kernel(A2, A2_WEIGHT, w),
    "cherednik_coefficient": lambda w: qweights.cherednik_coefficient(A2, w),
    "character": lambda w: qweights.character(A2, w),
    "weyl_dimension": lambda w: qweights.weyl_dimension(A2, w),
    "freudenthal_multiplicity(lam)":
        lambda w: qweights.freudenthal_multiplicity(A2, w, A2_WEIGHT),
    "freudenthal_multiplicity(mu)":
        lambda w: qweights.freudenthal_multiplicity(A2, A2_WEIGHT, w),
    "dual_weight": lambda w: qweights.dual_weight(A2, w),
    "klimyk_decompose(lam)": lambda w: qweights.klimyk_decompose(A2, w, A2_WEIGHT),
    "klimyk_decompose(gam)": lambda w: qweights.klimyk_decompose(A2, A2_WEIGHT, w),
    "tensor_zero_q(lam)": lambda w: qweights.tensor_zero_q(A2, w, Weight((1, 0))),
    "tensor_zero_q(gam)": lambda w: qweights.tensor_zero_q(A2, Weight((1, 0)), w),
    "weighted_sum(lam)": lambda w: qweights.weighted_sum(A2, w, A2_WEIGHT),
    "weighted_sum(gam)": lambda w: qweights.weighted_sum(A2, A2_WEIGHT, w),
    "brylinski_form(lam)": lambda w: qweights.brylinski_form(A2, w, A2_WEIGHT),
    "brylinski_form(gam)": lambda w: qweights.brylinski_form(A2, A2_WEIGHT, w),
    "generalized_exponents": lambda w: qweights.generalized_exponents(A2, w),
    "broer_nonnegativity_test": lambda w: qweights.broer_nonnegativity_test(A2, w),
    "q_partition": lambda w: qweights.q_partition(A2, w),
    "dominant_representative": lambda w: qweights.dominant_representative(A2, w),
    "orbit": lambda w: qweights.orbit(A2, w),
    "stabilizer_poincare": lambda w: qweights.stabilizer_poincare(A2, w),
    "is_minuscule": lambda w: qweights.is_minuscule(A2, w),
    "verify_main_identity(lam)": lambda w: qweights.verify_main_identity(A2, w, A2_WEIGHT),
    "verify_main_identity(gam)": lambda w: qweights.verify_main_identity(A2, A2_WEIGHT, w),
    "verify_minuscule": lambda w: qweights.verify_minuscule(A2, w),
    "verify_height_duality": lambda w: qweights.verify_height_duality(A2, w),
    "verify_induction_lemma(lam)":
        lambda w: qweights.verify_induction_lemma(A2, w, Weight((0, -1)), 1),
    "verify_induction_lemma(gam)":
        lambda w: qweights.verify_induction_lemma(A2, A2_WEIGHT, w, 1),
    "verify_subregular_identity": lambda w: qweights.verify_subregular_identity(A2, w, 0),
}


@pytest.mark.parametrize("name", sorted(WEIGHT_TAKERS))
@pytest.mark.parametrize("coords", [(1, 0, 0), (1,)])
def test_wrong_rank_weight_gets_the_library_refusal(name, coords):
    # a weight of another rank is refused with the library's own message,
    # never a bare zip() or index error from deep inside, and the message
    # names the weight as it was given, the way a Weight prints
    text = re.escape(str(Weight(coords)))
    with pytest.raises(ValueError, match=rf"^{text} is not a weight of A2$"):
        WEIGHT_TAKERS[name](Weight(coords))


def test_weight_arithmetic():
    a = Weight((1, -2))
    b = Weight((0, 5))
    assert (a + b).coords == (1, 3)
    assert (a - b).coords == (1, -7)
    assert (-a).coords == (-1, 2)
    assert (3 * a).coords == (3, -6)
    assert (a * 3).coords == (3, -6)
    assert list(a) == [1, -2]
    assert a[1] == -2
    assert len(a) == 2
    assert Weight.zero(3).is_zero()
    assert Weight((0, 1)).is_dominant()
    assert not a.is_dominant()
    assert str(a) == "(1,-2)"
    assert Weight((1.0, 2.0)).coords == (1, 2)
    with pytest.raises(ValueError):
        Weight((1.5, 0))


def test_weight_is_an_immutable_value():
    # hashed, compared and shown as the frozen dataclass it replaces, so set
    # and frozenset iteration orders are unchanged
    w = Weight((1, -2, 0))
    assert hash(w) == hash((w.coords,)) == hash(Weight([1, -2, 0]))
    assert w == Weight((1, -2, 0)) and w != Weight((1, -2, 1))
    assert w != (1, -2, 0) and w != ((1, -2, 0),) and (1, -2, 0) != w
    assert repr(w) == "Weight(coords=(1, -2, 0))"
    assert {w: 1}[Weight((1, -2, 0))] == 1
    with pytest.raises(AttributeError):
        w.coords = (0, 0, 0)
    with pytest.raises(AttributeError):
        w.other = 1
    with pytest.raises(AttributeError):
        del w.coords
    assert w.coords == (1, -2, 0)
    assert copy.copy(w) == w == pickle.loads(pickle.dumps(w))
    with pytest.raises(ValueError, match="non-integral weight coordinate 0.5"):
        Weight((1, 0.5))
    with pytest.raises(ValueError):
        Weight(("1", 0))


def test_parse_type():
    assert parse_type("B3") == ("B", 3)
    assert parse_type("b_3") == ("B", 3)
    assert parse_type("g2") == ("G", 2)
    for bad in ("H3", "A0", "B1", "D3", "E5", "F3", "G3", "", "B", "3B"):
        with pytest.raises(ValueError):
            parse_type(bad)
    assert build_root_system("C", 3).name == "C3"
    assert build_root_system(("C", 3)).name == "C3"


UP_TO_RANK_8 = ([f"{letter}{rank}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                 for rank in range(low, 9)] + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_per_root_data_match_their_formulas(name):
    # root_length, the positive roots as weights and Freudenthal's data come
    # from one pass over the roots; each equals its own formula
    rs = build_root_system(name)
    a, d, n = rs.cartan, rs.symmetrizer, rs.rank
    assert len(rs._root_data) == len(rs.positive_roots)
    for r, (gw, form, norm) in zip(rs.positive_roots, rs._root_data):
        assert gw == tuple(sum(a[k][j] * r[j] for j in range(n)) for k in range(n))
        # (omega_i, gamma) = d_i gamma_i
        assert form == tuple(rs.inner(rs.fundamental_weight(i), r) for i in range(n))
        assert norm == sum(r[j] * r[k] * d[k] * a[k][j] for j in range(n) for k in range(n))
        assert rs.root_length[r] * 2 == norm
    assert rs._positive_root_weights == {rs.root_to_weight_basis(r).coords
                                         for r in rs.positive_roots}


def test_e8_builds_without_a_flag():
    # static data never grows with |W|, so every type builds, and each
    # type is one object
    rs = build_root_system("E8")
    assert rs is build_root_system("e_8")
    assert len(rs.positive_roots) == 120
    assert rs.coxeter_number == 30
    assert list(rs.exponents) == [1, 7, 11, 13, 17, 19, 23, 29]
    assert rs.weyl_order == 696729600
    assert build_root_system("E7").weyl_order == 2903040
    assert build_root_system("A10").weyl_order == 39916800


def test_dual_root_system():
    b3 = build_root_system("B3")
    c3 = build_dual_root_system(b3)
    assert c3.name == "C3"
    assert build_dual_root_system(c3).cartan == b3.cartan
    # duality transposes the Cartan matrix
    for i in range(3):
        for j in range(3):
            assert c3.cartan[i][j] == b3.cartan[j][i]
    # self-dual types keep their labels
    for name in ("A3", "D4", "G2", "F4"):
        rs = build_root_system(name)
        assert build_dual_root_system(rs).name == name
    # the dual short dominant root pairs with the original highest root:
    # both have the same height complement h - hot
    f4 = build_root_system("F4")
    dual = build_dual_root_system(f4)
    assert sum(dual.theta_s_root_coords) == sum(f4.theta_s_root_coords)


def test_root_systems_are_equal_by_cartan_matrix():
    b3, c3 = build_root_system("B3"), build_root_system("C3")
    dual = build_dual_root_system(b3)
    assert dual is not c3
    assert dual == c3 and hash(dual) == hash(c3)
    assert repr(dual) == "RootSystem(C3)"
    # F4's dual has the same name, with long and short roots exchanged
    f4 = build_root_system("F4")
    assert build_dual_root_system(f4).name == "F4"
    assert build_dual_root_system(f4) != f4
    assert f4 != "F4"


UP_TO_RANK_12 = [f"{letter}{rank}" for letter in "ABCDEFG" for rank in range(1, 13)
                 if root_system._POSITIVE_ROOTS[letter](rank)]


@pytest.mark.parametrize("name", UP_TO_RANK_12)
def test_positive_root_count_in_closed_form(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == root_system._POSITIVE_ROOTS[rs.letter](rs.rank)


@pytest.mark.parametrize("letter,largest", [("A", 99), ("B", 79), ("C", 79), ("D", 79)])
def test_largest_type_that_builds(monkeypatch, letter, largest):
    # rank times the positive roots is counted against MAX_ORBIT_POINTS
    # before anything is built
    monkeypatch.setattr(root_system, "RootSystem", lambda cartan, letter, rank: rank)
    build = root_system._build_cached.__wrapped__
    assert build(letter, largest) == largest
    with pytest.raises(BudgetError, match=f"^input too large: {letter}{largest + 1}, "):
        build(letter, largest + 1)


def test_lru_cache_identity():
    assert build_root_system("A2") is build_root_system("a_2")
