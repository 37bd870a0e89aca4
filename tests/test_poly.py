"""Exact sparse polynomial arithmetic."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from qweights.poly import InexactDivisionError, QPoly


def P(**kw):
    # P(q0=1, q2=-3) -> 1 - 3q^2
    return QPoly({int(k[1:]): v for k, v in kw.items()})


class TestConstruction:
    def test_zero_terms_dropped(self):
        assert QPoly({0: 1, 3: 0}) == QPoly({0: 1})
        assert QPoly({2: 0}).is_zero()

    def test_mapping_only(self):
        # one input form: a mapping (or nothing); pairs go through dict()
        assert QPoly() == QPoly({}) == QPoly.zero()
        assert QPoly(dict([(1, 2), (0, -1)])) == P(q0=-1, q1=2)
        # anything else is named in a TypeError, not an AttributeError on
        # its missing ``items``
        for terms in ([(1, 2), (0, -1)], [(0, 1)], "1", 3, QPoly.one):
            with pytest.raises(TypeError, match=re.escape(
                    f"QPoly takes a mapping of exponents to coefficients, not {terms!r}")):
                QPoly(terms)

    @pytest.mark.parametrize("terms", [
        {0: 0.5}, {1.5: 2}, {0: 2.0}, {2.0: 1}, {0: Fraction(1, 2)}, {Fraction(2): 1},
        {0: True}, {True: 2}, {0: True, True: 2}, {0.5: 0}])
    def test_only_int_terms(self, terms):
        # a float, a Fraction or a bool never enters the exact arithmetic,
        # even with a zero coefficient that would be dropped
        with pytest.raises(TypeError, match="int exponents and coefficients"):
            QPoly(terms)

    @pytest.mark.parametrize("k", [0.5, 1.0, Fraction(1, 2), True, False])
    def test_only_int_shifts(self, k):
        with pytest.raises(TypeError, match="shifts by an int"):
            QPoly.one().shift(k)

    @pytest.mark.parametrize("n", [1.5, 2.0, Fraction(2), True, False])
    def test_only_int_powers(self, n):
        # True would be q^1 and 1.5 would fail inside the square-and-multiply
        # loop; each is refused by name before any product
        with pytest.raises(TypeError, match=re.escape(f"int exponent, not {n!r}")):
            QPoly.q() ** n

    @pytest.mark.parametrize("h", [1.5, 3.0, Fraction(3), True, False])
    def test_only_int_q_integers(self, h):
        # [True] would be 1 and [False] 0
        with pytest.raises(TypeError, match=re.escape(f"int h, not {h!r}")):
            QPoly.q_int(h)

    def test_a_bool_is_not_an_int_operand(self):
        # the constructor's rule holds for the operators: a bool is refused
        # where an int is taken, and equal to no polynomial
        one = QPoly.one()
        for op in (lambda: one + True, lambda: True - one, lambda: one * True):
            with pytest.raises(TypeError):
                op()
        assert one != True and one == 1  # noqa: E712

    def test_factories(self):
        assert QPoly.zero().is_zero()
        assert QPoly.one() == 1
        assert QPoly.q() == QPoly({1: 1})
        assert QPoly.q(3) == QPoly({3: 1})
        assert QPoly.q(2, -5) == QPoly({2: -5})

    def test_q_int_is_geometric_sum(self):
        assert QPoly.q_int(1) == 1
        assert QPoly.q_int(4) == P(q0=1, q1=1, q2=1, q3=1)
        # (1-q^h)/(1-q) recomputed by exact division
        h = 7
        num = QPoly.one() - QPoly.q(h)
        den = QPoly.one() - QPoly.q()
        assert num.exact_div(den) == QPoly.q_int(h)
        assert QPoly.q_int(0) == 0
        # [h] = (1 - q^h)/(1 - q) is -q^-2 - q^-1 at h = -2, not a polynomial
        for h in (-1, -2):
            with pytest.raises(ValueError, match="negative"):
                QPoly.q_int(h)

    def test_int_equality(self):
        assert QPoly({0: 7}) == 7
        assert QPoly.zero() == 0
        assert QPoly({1: 1}) != 1


class TestArithmetic:
    def test_add_sub(self):
        a = P(q0=1, q2=3)
        b = P(q2=-3, q5=2)
        assert a + b == P(q0=1, q5=2)
        assert a - a == 0
        assert 1 + QPoly.q() == P(q0=1, q1=1)
        assert 1 - QPoly.q() == P(q0=1, q1=-1)
        assert -P(q1=2) == P(q1=-2)

    def test_sub_refuses_a_string(self):
        with pytest.raises(TypeError):
            "a" - QPoly.one()
        with pytest.raises(TypeError):
            QPoly.one() - "a"

    def test_mul(self):
        assert P(q0=1, q1=1) * P(q0=1, q1=-1) == P(q0=1, q2=-1)
        assert P(q1=2) * 3 == P(q1=6)
        assert 3 * P(q1=2) == P(q1=6)
        assert P(q1=1) * QPoly.zero() == 0

    def test_pow(self):
        assert P(q0=1, q1=1) ** 0 == 1
        assert P(q0=1, q1=1) ** 2 == P(q0=1, q1=2, q2=1)
        assert P(q0=1, q1=1) ** 5 == P(q0=1, q1=5, q2=10, q3=10, q4=5, q5=1)
        with pytest.raises(ValueError):
            P(q1=1) ** -1

    def test_shift_laurent(self):
        assert P(q2=1).shift(-2) == 1
        assert P(q0=1).shift(-1) == QPoly({-1: 1})
        assert P(q1=1, q3=1).shift(2) == P(q3=1, q5=1)

    def test_random_ring_axioms(self):
        rng = random.Random(11)

        def rand_poly():
            return QPoly({rng.randint(0, 6): rng.randint(-9, 9)
                          for _ in range(rng.randint(0, 5))})

        for _ in range(200):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b).evaluate(5) == a.evaluate(5) * b.evaluate(5)
            assert (a + b).evaluate(-3) == a.evaluate(-3) + b.evaluate(-3)


class TestQueries:
    def test_degree_min_exponent(self):
        assert QPoly.zero().degree() is None
        assert QPoly.zero().min_exponent() is None
        p = P(q1=-1, q4=2)
        assert p.degree() == 4
        assert p.min_exponent() == 1

    def test_coefficient(self):
        p = P(q1=-1, q4=2)
        assert p.coefficient(1) == -1
        assert p.coefficient(4) == 2
        assert p.coefficient(2) == 0

    def test_is_monic(self):
        assert P(q1=-1, q4=1).is_monic()
        assert not P(q4=2).is_monic()
        assert not QPoly.zero().is_monic()

    def test_coefficients_nonnegative(self):
        assert P(q0=1, q3=2).coefficients_nonnegative()
        assert QPoly.zero().coefficients_nonnegative()
        assert not P(q0=1, q3=-2).coefficients_nonnegative()

    def test_exponent_multiset(self):
        assert P(q1=2, q3=1).exponent_multiset() == [1, 1, 3]
        assert QPoly.zero().exponent_multiset() == []
        with pytest.raises(ValueError):
            P(q1=-1).exponent_multiset()


class TestDivision:
    def test_exact(self):
        a = P(q0=1, q1=2, q2=1)
        b = P(q0=1, q1=1)
        assert a.exact_div(b) == b

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            P(q0=1, q1=1, q2=1).exact_div(P(q0=1, q1=1))

    def test_constant_remainder_raises(self):
        # the leading coefficient does not divide: 1 / 2 leaves a remainder
        with pytest.raises(InexactDivisionError, match="not divisible by 2"):
            QPoly.one().exact_div(QPoly({0: 2}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P(q1=1).exact_div(QPoly.zero())

    def test_int_divisor(self):
        # an int divides as the constant polynomial it equals
        assert P(q0=2, q1=4).exact_div(2) == P(q0=1, q1=2)
        assert QPoly.one().exact_div(-1) == -1
        with pytest.raises(InexactDivisionError, match="not divisible by 2"):
            QPoly.one().exact_div(2)
        with pytest.raises(ZeroDivisionError):
            QPoly.one().exact_div(0)

    @pytest.mark.parametrize("d", ["x", 2.0, Fraction(2), True, None])
    def test_other_divisor_refused(self, d):
        with pytest.raises(TypeError, match=re.escape(f"QPoly or an int, not {d!r}")):
            QPoly.one().exact_div(d)

    def test_zero_dividend(self):
        assert QPoly.zero().exact_div(P(q1=1)) == 0

    def test_laurent_shifts_normalized(self):
        # q^3 / q = q^2 even when written with negative-exponent factors
        assert P(q3=1).exact_div(P(q1=1)) == P(q2=1)
        lhs = QPoly({-1: 1, 1: 1})
        assert lhs.exact_div(QPoly({-1: 1})) == P(q0=1, q2=1)

    def test_random_products_divide_back(self):
        rng = random.Random(5)
        for _ in range(200):
            a = QPoly({rng.randint(0, 5): rng.randint(-6, 6)
                       for _ in range(rng.randint(1, 4))})
            b = QPoly({rng.randint(0, 5): rng.randint(-6, 6)
                       for _ in range(rng.randint(1, 4))})
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a


class TestEvaluation:
    def test_integer_points(self):
        p = P(q0=1, q2=-3)
        assert p.evaluate(0) == 1
        assert p.evaluate(1) == -2
        assert p.evaluate(2) == -11

    def test_fraction_points(self):
        p = P(q1=1)
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 2)
        assert QPoly({-1: 1}).evaluate(Fraction(1, 2)) == 2

    def test_zero_at_negative_exponent(self):
        with pytest.raises(ValueError):
            QPoly({-1: 1}).evaluate(0)

    def test_substitute_q_plus_1(self):
        assert P(q2=1).substitute_q_plus_1() == P(q0=1, q1=2, q2=1)
        assert QPoly.zero().substitute_q_plus_1() == 0
        p = P(q1=-1, q2=1, q3=1)  # q^3+q^2-q at q+1: (q+1)^3+(q+1)^2-(q+1)
        got = p.substitute_q_plus_1()
        assert got.evaluate(0) == p.evaluate(1)
        assert got.evaluate(1) == p.evaluate(2)
        with pytest.raises(ValueError):
            QPoly({-1: 1}).substitute_q_plus_1()


    def test_substitute_q_plus_1_by_binomials(self):
        # c q^e at q+1 is the sum of c * C(e, k) q^k
        rng = random.Random(7)
        for _ in range(200):
            terms = {e: rng.randint(-9, 9) for e in rng.sample(range(12), rng.randint(0, 6))}
            expected = {}
            for e, c in terms.items():
                for k in range(e + 1):
                    expected[k] = expected.get(k, 0) + c * comb(e, k)
            assert QPoly(terms).substitute_q_plus_1() == QPoly(expected)


class TestCanonicalForms:
    def test_str_is_frozen_format(self):
        assert str(QPoly.zero()) == "0"
        assert str(P(q0=1)) == "1*q^0"
        assert str(P(q3=1, q1=-1)) == "-1*q^1 + 1*q^3"
        assert str(QPoly({-2: 5})) == "5*q^-2"

    def test_repr(self):
        assert repr(QPoly.one()) == "QPoly('1*q^0')"
        assert repr(QPoly.zero()) == "QPoly('0')"

    def test_json_roundtrip(self):
        p = P(q1=-1, q4=12345678901234567890)
        pairs = p.json_pairs()
        assert pairs == [[1, "-1"], [4, "12345678901234567890"]]
        # read back as the README says: a mapping of int coefficients
        assert QPoly({e: int(c) for e, c in pairs}) == p

    @pytest.mark.parametrize("p", [
        QPoly.zero(), P(q0=2), P(q1=-1, q2=1, q3=1), QPoly({-1: 3}),
        QPoly({-3: -1, 2: 1}), P(q0=-(10 ** 30), q7=10 ** 30)])
    def test_json_pairs_read_back_as_a_mapping(self, p):
        # the two writers agree term by term, and the JSON pairs are the
        # whole polynomial: the mapping they give is p again
        pairs = p.json_pairs()
        assert str(p) == (" + ".join(f"{c}*q^{e}" for e, c in pairs) or "0")
        assert QPoly({e: int(c) for e, c in pairs}) == p

    def test_hashable(self):
        assert len({P(q1=1), P(q1=1), P(q2=1)}) == 2

    def test_a_constant_hashes_as_the_int_it_equals(self):
        # a == b must give hash(a) == hash(b), across QPoly and int too
        assert QPoly.one() == 1 and len({QPoly.one(), 1}) == 1
        assert {1: "a"}.get(QPoly.one()) == "a"
        assert hash(QPoly.zero()) == hash(0)
        assert hash(P(q0=-7)) == hash(-7)
        assert len({P(q1=1), 1, 0, QPoly.zero()}) == 3

    def test_bool(self):
        assert not QPoly.zero()
        assert P(q1=1)


class TestBigCoefficients:
    def test_huge_integers_stay_exact(self):
        big = 10 ** 40
        p = QPoly({0: big, 1: -big})
        assert (p * p).coefficient(1) == -2 * big * big
        assert p.evaluate(1) == 0
