"""Static root-system data against the classical tables."""

import copy
import inspect
import itertools
import operator
import pickle
import re
import time
from math import gcd
from operator import add
from types import SimpleNamespace

import pytest

import qweights
from qweights import root_system
from qweights.lusztig import lusztig_q_analogue
from qweights.poly import QPoly
from qweights.root_system import (
    BudgetError,
    RootSystem,
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


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_cartan_structure(name):
    rs = build_root_system(name)
    A, d = rs.cartan, rs.symmetrizer
    n = rs.rank
    for i in range(n):
        assert A[i][i] == 2
        # simple root i is column i of A, in the fundamental-weight basis
        assert rs.simple_roots[i] == Weight(tuple(row[i] for row in A))
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
    # pairing of fundamental weights against simple coroots, each simple
    # root given by its root coordinates
    for i in range(rs.rank):
        for j in range(rs.rank):
            simple = rs.root_coords(rs.simple_roots[j].coords)
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


def test_pairing_refuses_a_non_root():
    a2 = build_root_system("A2")
    w = a2.fundamental_weight(0)
    # 2 alpha_1 is in the root lattice, but not a root
    with pytest.raises(ValueError, match=r"\(2, 0\) is not a positive root of A2"):
        a2.pairing(w, (2, 0))
    # -theta is a root, but not a positive one
    with pytest.raises(ValueError, match=r"\(-1, -1\) is not a positive root of A2"):
        a2.pairing(w, (-1, -1))
    # a root is given by its root coordinates, never as a Weight: alpha_1
    # is the Weight (2,-1), and theta the Weight (1,1)
    assert a2.pairing(w, (1, 0)) == 1
    with pytest.raises(ValueError, match=r"^\(2,-1\) is not a positive root of A2$"):
        a2.pairing(w, a2.simple_roots[0])
    with pytest.raises(ValueError, match=r"^\(1,1\) is not a positive root of A2$"):
        a2.pairing(w, a2.theta)


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
    # both weights are named, not zip's "argument 2 is longer than argument 1"
    with pytest.raises(ValueError, match=re.escape("cannot add (1,1,0) to (1,1): the ranks differ")):
        Weight((1, 1)) + Weight((1, 1, 0))
    with pytest.raises(ValueError, match=re.escape("cannot subtract (0) from (1,1): the ranks differ")):
        Weight((1, 1)) - Weight((0,))
    with pytest.raises(ValueError, match=re.escape("cannot add (1,0,0) to (1,0): the ranks differ")):
        Weight((1, 0)) + Weight((1, 0, 0))
    with pytest.raises(ValueError, match=re.escape(
            "cannot subtract (1,0,0) from (1,0): the ranks differ")):
        Weight((1, 0)) - Weight((1, 0, 0))
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

# every RootSystem method that takes a weight, once per weight argument,
# with valid arguments elsewhere: each reads it through RootSystem.weight
METHOD_TAKERS = {
    "RootSystem.dominance_leq(mu)": lambda w: A2.dominance_leq(w, A2_WEIGHT),
    "RootSystem.dominance_leq(lam)": lambda w: A2.dominance_leq(A2_WEIGHT, w),
    "RootSystem.height": lambda w: A2.height(w),
    "RootSystem.inner": lambda w: A2.inner(w, (1, 1)),
    "RootSystem.pairing": lambda w: A2.pairing(w, (1, 1)),
    "RootSystem.in_root_lattice": lambda w: A2.in_root_lattice(w),
    "RootSystem.is_positive_root_weight": lambda w: A2.is_positive_root_weight(w),
    "RootSystem.weight_to_root_coords": lambda w: A2.weight_to_root_coords(w),
}
ALL_TAKERS = {**WEIGHT_TAKERS, **METHOD_TAKERS}


@pytest.mark.parametrize("name", sorted(ALL_TAKERS))
@pytest.mark.parametrize("coords", [(1, 0, 0), (1,)])
def test_wrong_rank_weight_gets_the_library_refusal(name, coords):
    # a weight of another rank is refused with the library's own message,
    # never a bare zip() or index error from deep inside, and the message
    # names the weight as it was given, the way a Weight prints
    text = re.escape(str(Weight(coords)))
    with pytest.raises(ValueError, match=rf"^{text} is not a weight of A2$"):
        ALL_TAKERS[name](Weight(coords))


def weight_parameters():
    """Each public function whose first parameter is a root system, with the
    names of its weight parameters: every parameter but rs and alpha_index."""
    found = {}
    for name in qweights.__all__:
        f = getattr(qweights, name)
        params = list(inspect.signature(f).parameters) if inspect.isfunction(f) else []
        if params[:1] == ["rs"]:
            found[name] = [p for p in params[1:] if p != "alpha_index"]
    return found


WEIGHT_PARAMETERS = weight_parameters()
NOT_WEIGHTS = [(1, 1), [1, 1], 1, "(1,1)", True, None]


def test_weight_parameters_are_found():
    # the sweep below reaches every public function that takes a weight
    takers = {name for name, params in WEIGHT_PARAMETERS.items() if params}
    assert len(takers) == 24
    assert {name.split("(")[0] for name in WEIGHT_TAKERS} == takers


@pytest.mark.parametrize("bad", NOT_WEIGHTS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name,param", [(name, p) for name, params in WEIGHT_PARAMETERS.items()
                                        for p in params])
def test_a_weight_parameter_refuses_what_is_not_a_weight(name, param, bad):
    # RootSystem.weight is the one check of a weight argument: anything that
    # is not a Weight raises TypeError at once, with valid arguments elsewhere
    args = {p: A2_WEIGHT for p in WEIGHT_PARAMETERS[name]}
    args["rs"] = A2
    if "alpha_index" in inspect.signature(getattr(qweights, name)).parameters:
        args["alpha_index"] = 1
    if name == "verify_induction_lemma":
        args["gam"] = Weight((0, -1))  # negative at alpha_index
    args[param] = bad
    start = time.perf_counter()
    with pytest.raises(TypeError, match=f"^a weight of A2 is a Weight, not {re.escape(repr(bad))}$"):
        getattr(qweights, name)(**args)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bad", NOT_WEIGHTS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name", sorted(METHOD_TAKERS))
def test_a_root_system_method_refuses_what_is_not_a_weight(name, bad):
    # the methods below the public API read a weight through the same check:
    # a tuple is not taken for a weight here either
    with pytest.raises(TypeError, match=f"^a weight of A2 is a Weight, not {re.escape(repr(bad))}$"):
        METHOD_TAKERS[name](bad)


def test_a_tuple_weight_is_refused_not_read_as_zero():
    # it answered 0 here, where the multiplicity of the zero weight is 2
    assert qweights.freudenthal_multiplicity(A2, A2.theta, Weight((0, 0))) == 2
    with pytest.raises(TypeError, match=re.escape("a weight of A2 is a Weight, not (0, 0)")):
        qweights.freudenthal_multiplicity(A2, A2.theta, (0, 0))


class _SubWeight(Weight):
    __slots__ = ()


# the (lam, mu) arguments at mu's coordinates, one of them not of type Weight
NOT_WEIGHT_QUERIES = {
    "lam Weight subclass": lambda mu: (_SubWeight((1, 1)), Weight(mu)),
    "lam with coords": lambda mu: (SimpleNamespace(coords=(1, 1)), Weight(mu)),
    "mu with coords": lambda mu: (A2.theta, SimpleNamespace(coords=mu)),
}


@pytest.mark.parametrize("mu", [(0, 0), (-1, -1)], ids=["memo hit", "table hit"])
@pytest.mark.parametrize("case", sorted(NOT_WEIGHT_QUERIES))
def test_the_memo_refuses_what_is_not_a_weight(case, mu):
    # a valid query fills the memo under ((1, 1), (0, 0)) and the table
    # under (1, 1); an argument that is not of type Weight but has those
    # coordinates is answered from neither, at (0, 0) or at (-1, -1), which
    # is never asked as a Weight here
    qweights.clear_caches()
    lusztig_q_analogue(A2, A2.theta, Weight((0, 0)))
    lam, mu = NOT_WEIGHT_QUERIES[case](mu)
    bad = mu if type(lam) is Weight else lam
    with pytest.raises(TypeError, match=f"^a weight of A2 is a Weight, not {re.escape(repr(bad))}$"):
        lusztig_q_analogue(A2, lam, mu)


def test_the_weight_check():
    w = Weight((1, -1))
    assert A2.weight(w) is w
    assert A2.weight(A2.theta, dominant=True) is A2.theta
    with pytest.raises(TypeError, match=re.escape("a weight of A2 is a Weight, not [1, -1]")):
        A2.weight([1, -1])
    # dominance is tested before the rank
    with pytest.raises(ValueError, match=r"^\(1,-1\) is not dominant$"):
        A2.weight(w, dominant=True)
    with pytest.raises(ValueError, match=r"^\(-1,0,0\) is not dominant$"):
        A2.weight(Weight((-1, 0, 0)), dominant=True)
    with pytest.raises(ValueError, match=r"^\(-1,0,0\) is not a weight of A2$"):
        A2.weight(Weight((-1, 0, 0)))


def test_weight_operators_refuse_foreign_operands():
    # Python's TypeError names both types, and a bool is not taken as an
    # int, as in QPoly
    w = Weight((1, 0))
    cases = [(operator.add, 3, "+", "int"), (operator.sub, (1, 0), "-", "tuple"),
             (operator.add, None, "+", "NoneType"), (operator.mul, True, "*", "bool"),
             (operator.mul, 2.0, "*", "float"), (operator.mul, w, "*", "Weight")]
    for op, other, sign, kind in cases:
        with pytest.raises(TypeError, match=re.escape(
                f"unsupported operand type(s) for {sign}: 'Weight' and '{kind}'")):
            op(w, other)
        with pytest.raises(TypeError):
            op(other, w)
    assert 2 * w == w * 2 == Weight((2, 0)) and w * -1 == -w


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


@pytest.mark.parametrize("coords,error,message", [
    ((1, 0.5), ValueError, "non-integral weight coordinate 0.5"),
    (("1", 0), ValueError, "non-integral weight coordinate '1'"),
    # int() itself refuses these three: OverflowError for inf, ValueError
    # for nan and 'x'; the message names the coordinate all the same
    ((float("inf"), 0), ValueError, "non-integral weight coordinate inf"),
    ((0, float("nan")), ValueError, "non-integral weight coordinate nan"),
    (("x", 0), ValueError, "non-integral weight coordinate 'x'"),
    # a bool is not taken as an int, as in QPoly and Weight * True
    ((True, 0), TypeError, "a weight coordinate is an int, not a bool: (True, 0)"),
    ((0, 1, False), TypeError, "a weight coordinate is an int, not a bool: (0, 1, False)"),
])
def test_a_coordinate_that_is_not_an_integer_is_refused(coords, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Weight(coords)


@pytest.mark.parametrize("call,error,message", [
    (lambda: A2.root_coords(None), TypeError, "weight coordinates of A2 are a tuple, not None"),
    (lambda: A2.root_coords([1, 1]), TypeError, "weight coordinates of A2 are a tuple, not [1, 1]"),
    (lambda: A2.root_coords((1, 0, 0)), ValueError, "(1,0,0) is not a weight of A2"),
    (lambda: A2.inner(A2.theta, 5), TypeError, "root coordinates of A2 are a tuple, not 5"),
    (lambda: A2.inner(A2.theta, [1, 1]), TypeError, "root coordinates of A2 are a tuple, not [1, 1]"),
    (lambda: A2.inner(A2.theta, (1, 1, 0)), ValueError, "(1, 1, 0) are not root coordinates of A2"),
    (lambda: A2.pairing(A2.theta, [1, 1]), ValueError, "[1, 1] is not a positive root of A2"),
    (lambda: A2.pairing(A2.theta, None), ValueError, "None is not a positive root of A2"),
])
def test_root_coordinates_that_are_not_a_tuple_are_refused(call, error, message):
    # these raised unhashable type: 'list' and len()'s TypeError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_parse_type():
    assert parse_type("B3") == ("B", 3)
    assert parse_type("b_3") == ("B", 3)
    assert parse_type("g2") == ("G", 2)
    for bad in ("H3", "A0", "B1", "D3", "E5", "F3", "G3", "", "B", "3B"):
        with pytest.raises(ValueError):
            parse_type(bad)
    # one input form, a type name: a letter and a rank, or a tuple of them,
    # is refused
    assert build_root_system("c_3").name == "C3"
    for args in (("C", 3), ("B", 3.7)):
        with pytest.raises(TypeError):
            build_root_system(*args)
    for bad in (("C", 3), 3, None, b"B3", "B³"):
        with pytest.raises(ValueError, match="cannot parse root-system type"):
            parse_type(bad)
    with pytest.raises(ValueError, match=r"cannot parse root-system type \('C', 3\)"):
        build_root_system(("C", 3))


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
    # the short dominant root is the one dominant short root
    assert [r for r in rs.short_positive_roots
            if rs.root_to_weight_basis(r).is_dominant()] == [rs.theta_s_root_coords]
    # the weights of the positive roots, and no other weight of the sums
    # of two of them, their negatives, zero and twice each
    roots = set(rs.positive_roots)
    weights = {r: rs.root_to_weight_basis(r) for r in rs.positive_roots}
    zero = Weight.zero(n)
    for w in weights.values():
        assert rs.is_positive_root_weight(w)
        assert not rs.is_positive_root_weight(-w) and not rs.is_positive_root_weight(w + w)
    assert not rs.is_positive_root_weight(zero)
    for r, s in itertools.combinations(rs.positive_roots, 2):
        summed = tuple(map(add, r, s))
        assert rs.is_positive_root_weight(weights[r] + weights[s]) == (summed in roots)


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
    fresh = RootSystem("C3")
    assert fresh is not c3
    assert fresh == c3 and hash(fresh) == hash(c3)
    assert fresh != b3
    assert repr(fresh) == "RootSystem(C3)"
    # a dual is the shared system of the dual type: F4's is F4 itself
    assert build_dual_root_system(b3) is c3
    f4 = build_root_system("F4")
    assert build_dual_root_system(f4) is f4
    assert f4 != "F4"


def test_a_root_system_is_made_from_a_type_name():
    assert RootSystem("b_3") == build_root_system("B3")
    assert RootSystem("b_3").name == "B3"
    # a Cartan matrix is not a type name: the affine A1 matrix, which
    # never finished building as a matrix, is refused at once
    start = time.perf_counter()
    for bad in (((2, -2), (-2, 2)), ((2, -1), (-1, 2)), "Z2", "A0", None):
        with pytest.raises(ValueError, match="root-system type|no simple root system"):
            RootSystem(bad)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(TypeError):
        RootSystem(((2, -1), (-1, 2)), "A", 2)


def _dual_name(name):
    return {"B": "C", "C": "B"}.get(name[0], name[0]) + name[1:]


@pytest.mark.parametrize("name", UP_TO_RANK_8)
def test_dual_is_the_shared_system_of_the_dual_type(name):
    rs = build_root_system(name)
    dual = build_dual_root_system(rs)
    assert dual is build_root_system(_dual_name(name))
    assert build_dual_root_system(RootSystem(name)) is dual
    # its Cartan matrix is the transpose of rs's, with the nodes reversed
    # for F4 and G2, whose Bourbaki numbering puts the long roots first
    n = rs.rank
    p = (lambda i: n - 1 - i) if rs.letter in "FG" else (lambda i: i)
    for i in range(n):
        for j in range(n):
            assert dual.cartan[i][j] == rs.cartan[p(j)][p(i)]


@pytest.mark.parametrize("name,m0", [("F4", {4: 1, 8: 1}), ("G2", {3: 1})])
def test_zero_weight_at_the_dual_short_dominant_root(name, m0):
    # the long-root half of the Coxeter ratio: m^0 at the short dominant
    # root of the dual system, the same as when the dual of F4 and G2 was
    # the transposed matrix, with long and short roots exchanged
    dual = build_dual_root_system(build_root_system(name))
    got = lusztig_q_analogue(dual, dual.theta_s, Weight.zero(dual.rank))
    assert got == QPoly(m0)


UP_TO_RANK_12 = [f"{letter}{rank}" for letter in "ABCDEFG" for rank in range(1, 13)
                 if root_system._POSITIVE_ROOTS[letter](rank)]


@pytest.mark.parametrize("name", UP_TO_RANK_12)
def test_positive_root_count_in_closed_form(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == root_system._POSITIVE_ROOTS[rs.letter](rs.rank)


# every type up to rank 12, and the largest rank of each letter that the
# orbit-point budget admits
CARTAN_TYPES = UP_TO_RANK_12 + ["A99", "B79", "C79", "D79"]


def _bareiss_det(matrix):
    """The determinant of an integer matrix by Bareiss's fraction-free
    elimination, without pivoting: each pivot is a leading principal minor,
    so asserting it positive also checks that the matrix is positive
    definite, as the Cartan matrix of a finite type is."""
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(len(m) - 1):
        assert m[k][k] > 0
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


# det A, the index of the root lattice in the weight lattice
CONNECTION_INDEX = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                    "D": lambda n: 4, "E": {6: 3, 7: 2, 8: 1}.get,
                    "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("name", CARTAN_TYPES)
def test_standard_cartan_is_a_symmetrizable_tree(name):
    letter, rank = parse_type(name)
    A, d = root_system._standard_cartan(letter, rank)
    assert len(A) == len(d) == rank and all(len(row) == rank for row in A)
    assert all(A[i][i] == 2 for i in range(rank))
    assert min(d) == 1
    assert all(d[i] * A[i][j] == d[j] * A[j][i] for i in range(rank) for j in range(rank))
    # rank - 1 bonds that reach every node from node 0: a tree
    bonds = [(i, j) for i in range(rank) for j in range(i + 1, rank) if A[i][j]]
    assert len(bonds) == rank - 1
    reached = {0}
    for _ in range(rank):
        reached |= {j for i, j in bonds if i in reached} | {i for i, j in bonds if j in reached}
    assert reached == set(range(rank))
    assert _bareiss_det(A) == CONNECTION_INDEX[letter](rank)
    if letter == "C":  # C_n's matrix is B_n's transposed
        assert A == tuple(zip(*root_system._standard_cartan("B", rank)[0]))


@pytest.mark.parametrize("letter,largest", [("A", 99), ("B", 79), ("C", 79), ("D", 79)])
def test_largest_type_that_builds(monkeypatch, letter, largest):
    # rank times the positive roots is counted against MAX_ORBIT_POINTS
    # before the Cartan matrix is made
    class Made(Exception):
        pass

    made = []

    def cartan(letter, rank):
        made.append(f"{letter}{rank}")
        raise Made  # past the count: no root of the large type is built

    monkeypatch.setattr(root_system, "_standard_cartan", cartan)
    with pytest.raises(Made):
        RootSystem(f"{letter}{largest}")
    assert made == [f"{letter}{largest}"]
    for build in (RootSystem, build_root_system):
        with pytest.raises(BudgetError, match=f"^input too large: {letter}{largest + 1}, "):
            build(f"{letter}{largest + 1}")
    assert made == [f"{letter}{largest}"]


def test_lru_cache_identity():
    assert build_root_system("A2") is build_root_system("a_2")
