"""Exact sparse Laurent polynomials in one variable q over the integers.

A polynomial is stored as a mapping {exponent: coefficient} with no zero
coefficients; the zero polynomial is the empty mapping.  Exponents may be
negative, coefficients are arbitrary-precision Python ints.  Values are
immutable after construction and safe to share.
"""

from __future__ import annotations


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder where exactness was required."""


def _coerce(value):
    if isinstance(value, QPoly):
        return value
    if type(value) is int:
        return QPoly({0: value})
    return NotImplemented


class QPoly:
    """Sparse integer Laurent polynomial in q."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """The polynomial of the mapping ``terms`` {exponent: coefficient},
        zero coefficients dropped, or the zero polynomial.  An exponent or
        coefficient that is not an int (a bool, a float, a Fraction) raises
        TypeError, and so does a ``terms`` that is not a mapping."""
        try:
            items = () if terms is None else terms.items()
        except AttributeError:
            raise TypeError(f"QPoly takes a mapping of exponents to coefficients, "
                            f"not {terms!r}") from None
        self._terms = {e: c for e, c in items if c}
        for e, c in items:
            if type(e) is not int or type(c) is not int:
                raise TypeError(f"QPoly takes int exponents and coefficients, not {e!r}: {c!r}")

    @classmethod
    def _wrap(cls, terms: dict) -> "QPoly":
        """The polynomial of ``terms`` as they are, with no copy and no check:
        a dict with no zero coefficient that nothing else will change."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def q(cls, exponent: int = 1, coefficient: int = 1) -> "QPoly":
        """The monomial coefficient * q^exponent."""
        return cls({exponent: coefficient})

    @classmethod
    def q_int(cls, h: int) -> "QPoly":
        """The q-integer [h] = 1 + q + ... + q^(h-1), for h >= 0; [h] of a
        negative h is a Laurent polynomial, so it is refused, and an h that
        is not an int (a bool, a float) raises TypeError."""
        if type(h) is not int:
            raise TypeError(f"q-integer [h] takes an int h, not {h!r}")
        if h < 0:
            raise ValueError(f"q-integer [{h}] of a negative h")
        return cls({e: 1 for e in range(h)})

    # -- inspection ---------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self):
        """Top exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def min_exponent(self):
        return min(self._terms) if self._terms else None

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def is_monic(self) -> bool:
        return bool(self._terms) and self._terms[max(self._terms)] == 1

    def coefficients_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._terms.values())

    def exponent_multiset(self) -> list:
        """Ascending list of exponents, each repeated by its coefficient.

        Requires all coefficients nonnegative.
        """
        if not self.coefficients_nonnegative():
            raise ValueError(f"negative coefficient in {self}")
        out = []
        for e in sorted(self._terms):
            out.extend([e] * self._terms[e])
        return out

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            c0 = terms.get(e, 0) + c
            if c0:
                terms[e] = c0
            elif e in terms:
                del terms[e]
        return QPoly._wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is int:
            return QPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, QPoly):
            return NotImplemented
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return QPoly._wrap({e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n for an int n >= 0; an n that is not an int (a bool, a
        float) raises TypeError."""
        if type(n) is not int:
            raise TypeError(f"QPoly powers take an int exponent, not {n!r}")
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k (k may be negative: Laurent shift); a k that is
        not an int raises TypeError."""
        if type(k) is not int:
            raise TypeError(f"QPoly shifts by an int, not {k!r}")
        return QPoly._wrap({e + k: c for e, c in self._terms.items()})

    def exact_div(self, divisor: "QPoly") -> "QPoly":
        """Exact quotient self / divisor; InexactDivisionError if it does not
        divide.  An int divides as a constant polynomial, and any other
        divisor that is not a QPoly raises TypeError."""
        given, divisor = divisor, _coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError(f"QPoly divides by a QPoly or an int, not {given!r}")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return QPoly.zero()
        # Normalise both to honest polynomials, divide, and shift back.
        sa, sb = self.min_exponent(), divisor.min_exponent()
        rem = self.shift(-sa).terms()
        den = divisor.shift(-sb)._terms
        dd = max(den)
        lead = den[dd]
        quot = {}
        while rem:
            dr = max(rem)
            if dr < dd:
                raise InexactDivisionError(f"{self} is not divisible by {divisor}")
            c, r = divmod(rem[dr], lead)
            if r:
                raise InexactDivisionError(f"{self} is not divisible by {divisor}")
            quot[dr - dd] = c
            for e, ce in den.items():
                e2 = dr - dd + e
                c2 = rem.get(e2, 0) - c * ce
                if c2:
                    rem[e2] = c2
                elif e2 in rem:
                    del rem[e2]
        return QPoly(quot).shift(sa - sb)

    # -- specialisations ----------------------------------------------

    def evaluate(self, n):
        """Exact value at q = n (int or Fraction result); ``fractions`` is
        imported on the first call with n != 0."""
        if n == 0:
            if any(e < 0 for e in self._terms):
                raise ValueError("evaluation at 0 with negative exponents")
            return self._terms.get(0, 0)
        from fractions import Fraction

        total = Fraction(0)
        for e, c in self._terms.items():
            total += c * Fraction(n) ** e
        return int(total) if total.denominator == 1 else total

    def substitute_q_plus_1(self) -> "QPoly":
        """The polynomial p(q+1), expanded by Horner's rule from the top
        degree down.  Requires no negative exponents."""
        if any(e < 0 for e in self._terms):
            raise ValueError("q+1 substitution undefined for Laurent terms")
        out, step = QPoly.zero(), QPoly({0: 1, 1: 1})
        for e in range(max(self._terms, default=-1), -1, -1):
            out = out * step + self._terms.get(e, 0)
        return out

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as the int it equals, as ``==`` requires
        t = self._terms
        return hash(t.get(0, 0)) if t.keys() <= {0} else hash(frozenset(t.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- serialisation ------------------------------------------------

    def __str__(self):
        """Canonical text: ascending exponents, e.g. '-1*q^1 + 1*q^3'."""
        if not self._terms:
            return "0"
        return " + ".join(f"{self._terms[e]}*q^{e}" for e in sorted(self._terms))

    def __repr__(self):
        return f"QPoly('{self}')"

    def json_pairs(self) -> list:
        """JSON form: [[exponent, coefficient-as-string], ...], ascending."""
        return [[e, str(self._terms[e])] for e in sorted(self._terms)]
