"""Mechanical verification of the closed-form identities.

Every verifier computes both sides independently — closed form from static
root-system data on one side, the alternating-sum engine on the other — and
returns a structured Report rather than raising on mismatch.  A failure entry
always carries the offending input and both polynomials, stringified.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product as iproduct
from math import gcd, prod

from .lusztig import (
    brylinski_form,
    character,
    generalized_exponents,
    lusztig_q_analogue,
    tensor_zero_q,
    weighted_sum,
)
from .poly import QPoly
from .root_system import (RootSystem, Weight, _check_points, _dual_partition,
                          build_dual_root_system)
from .weyl import dominant_representative, orbit, stabilizer_poincare


class Report(namedtuple("Report", "identity root_system inputs status failures details")):
    """The outcome of one verifier: its inputs, "pass" or "fail" (or
    "refused", with the budget's error in details, from ``verify all``), the
    failed checks and details."""

    __slots__ = ()

    def __new__(cls, identity: str, root_system: str, inputs: dict, status: str,
                failures: list = None, details: dict = None):
        return super().__new__(cls, identity, root_system, inputs, status,
                               [] if failures is None else failures,
                               {} if details is None else details)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def _report(identity, rs, inputs, failures, details=None) -> Report:
    return Report(identity, rs.name, inputs, "fail" if failures else "pass",
                  failures, details)


def _mismatch(failures, check, mu, expected, actual):
    failures.append(
        {"check": check, "mu": str(mu), "expected": str(expected), "actual": str(actual)}
    )


def _expect(failures, check, mu, expected: QPoly, actual: QPoly):
    if expected != actual:
        _mismatch(failures, check, mu, expected, actual)


def _qh(rs) -> QPoly:
    return QPoly.q_int(rs.coxeter_number)


# -- adjoint and little adjoint ------------------------------------------


def verify_adjoint(rs: RootSystem) -> Report:
    """All q-analogues of the adjoint module against their closed forms,
    plus both displayed sum formulas."""
    failures = _verify_root_module(rs, rs.theta, rs.theta_root_coords,
                                   rs.positive_roots, rs.exponents, "")
    return _report("adjoint", rs, {}, failures, {"exponents": list(rs.exponents)})


def verify_little_adjoint(rs: RootSystem) -> Report:
    """All q-analogues of the short-dominant-root module against their closed
    forms.  Only meaningful when two root lengths exist."""
    if all(d == 1 for d in rs.symmetrizer):
        raise ValueError(
            f"{rs.name} has a single root length; the adjoint verifier covers it"
        )
    exps = rs.short_exponents
    roots = rs.short_positive_roots
    failures = _verify_root_module(rs, rs.theta_s, rs.theta_s_root_coords,
                                   roots, exps, "short ")
    ell = len([r for r in roots if sum(r) == 1])
    return _report(
        "little-adjoint", rs, {},
        failures,
        {"short_exponents": list(exps), "short_simple_count": ell},
    )


def _verify_root_module(rs: RootSystem, top: Weight, top_rc, roots, exps,
                        label: str) -> list:
    """The failures of the module of a dominant root ``top`` (root
    coordinates ``top_rc``), whose weights are zero and the roots ``roots``
    with their negatives, against the closed forms in the exponents
    ``exps``; ``label`` ("" or "short ") names the roots in the checks.

    The adjoint module is the case top = theta with every root: there
    hot(theta) = h - 1, and the simple roots among them number the rank, so
    the duality of its exponents and the shifted zero-weight polynomial
    hold by themselves.

    The weighted sum over the module is read first, though checked last:
    it reads the lowest weight -top first, and the box of 2 top holds
    every weight of the module, so the module builds one kernel table.
    """
    failures = []
    zero = Weight.zero(rs.rank)
    h = rs.coxeter_number
    hot_top = sum(top_rc)
    ell = len([r for r in roots if sum(r) == 1])

    # sum of q^e with multiplicity (exponents can repeat, e.g. D4)
    m0_closed = QPoly(Counter(exps))
    weighted = weighted_sum(rs, top, top)
    m0 = lusztig_q_analogue(rs, top, zero)
    _expect(failures, f"zero-weight {label}exponents", zero, m0_closed, m0)
    if sorted(m0.exponent_multiset() if m0.coefficients_nonnegative() else []) != list(exps):
        _mismatch(failures, f"exponents are dual to {label}height counts", zero,
                  list(exps), m0)

    neg_simple_closed = (QPoly.q() - 1) * m0_closed + QPoly.q(hot_top)
    plain_sum = m0
    for root in reversed(roots):
        mu = rs.root_to_weight_basis(root)
        hot = sum(root)
        got = lusztig_q_analogue(rs, top, mu)
        _expect(failures, f"positive {label}root", mu, QPoly.q(hot_top - hot), got)
        got_neg = lusztig_q_analogue(rs, top, -mu)
        _expect(
            failures,
            f"negative {label}root",
            -mu,
            neg_simple_closed.shift(hot - 1),
            got_neg,
        )
        plain_sum = plain_sum + got + got_neg

    # the q^{hot}-shifted zero-weight polynomial must stay a polynomial
    shifted = m0.shift(hot_top - h)
    if shifted.min_exponent() is not None and shifted.min_exponent() < 0:
        _mismatch(failures, "shifted zero-weight polynomial", zero,
                  "no negative exponents", shifted)

    plain_closed = m0_closed * (m0_closed - ell + 1) + m0_closed.shift(hot_top - h) * _qh(rs)
    _expect(failures, "plain sum over all weights", "all", plain_closed, plain_sum)

    weighted_closed = m0_closed * m0_closed + m0_closed.shift(hot_top - h) * _qh(rs)
    _expect(failures, "weighted sum over all weights", "all", weighted_closed, weighted)
    return failures


# -- the four-way identity ------------------------------------------------


def verify_main_identity(rs: RootSystem, lam: Weight, gam: Weight) -> Report:
    """Four expressions for the pairing of two characters must agree:
    both weighted sums, the zero-weight analogue of the dual tensor product,
    and the stabilizer-weighted dominant sum."""
    a = weighted_sum(rs, lam, gam)
    b = weighted_sum(rs, gam, lam)
    c = tensor_zero_q(rs, lam, gam)
    d = brylinski_form(rs, lam, gam)
    failures = []
    for name, val in (("swapped weighted sum", b),
                      ("tensor zero-weight analogue", c),
                      ("stabilizer-weighted form", d)):
        if val != a:
            _mismatch(failures, name, f"lambda={lam}, gamma={gam}", a, val)
    return _report(
        "main", rs,
        {"lambda": list(lam.coords), "gamma": list(gam.coords)},
        failures,
        {"value": str(a)},
    )


def is_minuscule(rs: RootSystem, lam: Weight) -> bool:
    """Nonzero dominant weight whose weight system is one Weyl orbit: the
    ones that pair to 1 with the highest coroot, the coroot of theta_s."""
    return (rs.weight(lam).is_dominant() and not lam.is_zero()
            and rs.pairing(lam, rs.theta_s_root_coords) == 1)


def verify_minuscule(rs: RootSystem, lam: Weight) -> Report:
    """Every q-analogue a pure power, and the plain sum a stabilizer ratio."""
    if not is_minuscule(rs, lam):
        raise ValueError(f"{lam} is not minuscule in {rs.name}")
    failures = []
    total = QPoly.zero()
    power_sum = QPoly.zero()
    # deepest first: the lowest weight -lam*, whose box sizes the table for
    # every query here
    for mu in sorted(orbit(rs, lam), key=lambda w: (-rs.height(lam - w), w.coords)):
        hot = rs.height(lam - mu)
        got = lusztig_q_analogue(rs, lam, mu)
        _expect(failures, "pure power", mu, QPoly.q(hot), got)
        total = total + got
        power_sum = power_sum + QPoly.q(hot)
    t0 = stabilizer_poincare(rs, Weight.zero(rs.rank))
    ratio = t0.exact_div(stabilizer_poincare(rs, lam))
    _expect(failures, "plain sum equals stabilizer ratio", lam, ratio, total)
    _expect(failures, "plain sum equals height powers", lam, power_sum, total)
    return _report("minuscule", rs, {"lambda": list(lam.coords)}, failures,
                   {"sum": str(total)})


def verify_coxeter_identity(rs: RootSystem) -> Report:
    """Stabilizer ratios for the two dominant roots expressed through
    zero-weight q-analogues; the long-root version runs in the dual system."""
    failures = []
    t0 = stabilizer_poincare(rs, Weight.zero(rs.rank))
    dual = build_dual_root_system(rs)
    # both halves are m^0 at the short dominant root theta_s of a system,
    # shifted by ht(theta_s) - h and times [h]_q: for theta_s the system is
    # rs, for theta the dual system, whose theta_s is the coroot of theta
    for check, root, system in (("short dominant root ratio", rs.theta_s, rs),
                                ("highest root ratio via dual system", rs.theta, dual)):
        lhs = t0.exact_div(stabilizer_poincare(rs, root))
        m0 = lusztig_q_analogue(system, system.theta_s, Weight.zero(system.rank))
        rhs = m0.shift(sum(system.theta_s_root_coords) - system.coxeter_number) * _qh(system)
        _expect(failures, check, root, rhs, lhs)
    return _report("coxeter", rs, {}, failures, {"dual_system": dual.name})


# -- height duality -------------------------------------------------------


def _height_counts(rs: RootSystem, ch) -> Counter:
    """The multiplicities of the character ``ch`` summed by height; every
    weight of ``ch`` lies in the root lattice, so the count at height 0 is
    the dimension of the fixed space of a principal nilpotent."""
    counts = Counter()
    for nu, m in ch.items():
        counts[sum(rs.root_coords(nu.coords))] += m
    return counts


def _height_product_holds(counts, exps) -> bool:
    """Whether prod (1 - q^{ht nu + 1}) / (1 - q^{ht nu}) over the positive
    weights nu, ``counts[k]`` of them at height k, equals
    prod (1 - q^{e + 1}) / (1 - q) over the exponents ``exps``.

    Both sides are products of powers of 1 - q^j, j >= 1, and these are
    multiplicatively independent: the cyclotomic factor Phi_j divides
    1 - q^i only for j | i, so the largest j with a nonzero power would
    leave Phi_j on one side alone.  Comparing the powers of 1 - q^j from
    j = 1 up, the identity holds exactly when every height k >= 1 has as
    many positive weights as there are exponents e >= k.
    """
    top = max([*counts, *exps, 0])
    return all(counts[k] == sum(e >= k for e in exps) for k in range(1, top + 1))


def _is_root_multiple(rs: RootSystem, w: Weight) -> bool:
    # through the Fraction view: the traced cli-verify run of layerbench
    # requires its root_system.to_root_coords span
    rc = rs.weight_to_root_coords(w)
    if any(x.denominator != 1 for x in rc):
        return False
    ints = [int(x) for x in rc]
    g = gcd(*ints)
    if g == 0:
        return True
    root = tuple(x // g for x in ints)
    # root_length holds the positive roots, so a vector of mixed signs
    # matches neither it nor its negation
    return root in rs.root_length or tuple(-x for x in root) in rs.root_length


def verify_height_duality(rs: RootSystem, lam: Weight) -> Report:
    """When the zero-weight space has the same dimension as the fixed space
    of a principal nilpotent, the positive weights are graded by height like
    a union of strings, and the telescoping product identity holds."""
    if not rs.in_root_lattice(rs.weight(lam, dominant=True)):
        raise ValueError(f"{lam} is not in the root lattice")
    ch = character(rs, lam)
    counts = _height_counts(rs, ch)
    dim_torus_fixed = ch.get(Weight.zero(rs.rank))
    dim_principal_fixed = counts[0]
    hypothesis = dim_torus_fixed == dim_principal_fixed
    details = {
        "hypothesis_holds": hypothesis,
        "dim_zero_weight_space": dim_torus_fixed,
        "dim_principal_fixed_space": dim_principal_fixed,
    }
    failures = []
    if hypothesis:
        # (i) the zero weight alone has height zero, so the weights split as
        # positive / zero / negative height; every nonzero weight is a
        # multiple of a root
        for nu in ch:
            if not nu.is_zero() and not _is_root_multiple(rs, nu):
                _mismatch(failures, "weight is a multiple of a root", nu,
                          "k * root", str(nu))
        # (ii) the telescoping product over the positive weights, decided on
        # their count at each height
        exps = generalized_exponents(rs, lam)
        if not _height_product_holds(counts, exps):
            _mismatch(failures, "height product identity", lam,
                      "equal cross-products", "mismatch")
        dual_part = list(_dual_partition(k for k in counts.elements() if k > 0))
        # only the trivial module has the exponent 0 (m_lam^0(0) = delta)
        if dual_part != [e for e in exps if e]:
            _mismatch(failures, "exponents dual to height counts", lam,
                      dual_part, exps)
        details["generalized_exponents"] = exps
    return _report("height-duality", rs, {"lambda": list(lam.coords)},
                   failures, details)


def classify_principal_pairs(systems, height_bound: int):
    """Scan every dominant root-lattice weight with 0 < hot(lambda) <= bound
    and keep the pairs satisfying the fixed-space dimension hypothesis.  A
    root system with more than ``root_system.MAX_ORBIT_POINTS`` candidate
    weights is refused before its scan computes any character, and a bound
    that is not an int (a bool, a float, a str) raises TypeError."""
    if type(height_bound) is not int:
        raise TypeError(f"a height bound is an int, not {height_bound!r}")
    found = []
    for rs in systems:
        ranges = [range(height_bound * rs._inv_scale // h + 1)
                  for h in rs._fund_heights]
        _check_points(prod(map(len, ranges)),
                      f"the {rs.name} candidate weights up to height {height_bound}")
        for coords in iproduct(*ranges):
            rc = rs.root_coords(coords)
            if rc is None or not 0 < sum(rc) <= height_bound:
                continue
            lam = Weight(coords)
            ch = character(rs, lam)
            if ch.get(Weight.zero(rs.rank)) == _height_counts(rs, ch)[0]:
                found.append((rs, lam))
    return sorted(found, key=lambda p: (p[0].name, p[1].coords))


# -- pointwise recurrences -------------------------------------------------


def _check_alpha_index(rs: RootSystem, alpha_index: int):
    """Refuse an index that is not an int (a bool, a float, a str) with
    TypeError, and one off 0..rank-1 with ValueError."""
    if type(alpha_index) is not int:
        raise TypeError(f"a simple root index is an int, not {alpha_index!r}")
    if not 0 <= alpha_index < rs.rank:
        raise ValueError(f"simple root index {alpha_index} is not in "
                         f"0..{rs.rank - 1} for {rs.name}")


def verify_induction_lemma(rs: RootSystem, lam: Weight, gam: Weight,
                           alpha_index: int) -> Report:
    """The four-term reflection relation, all terms from the defining sum."""
    rs.weight(gam)
    _check_alpha_index(rs, alpha_index)
    n = -gam.coords[alpha_index]
    if n <= 0:
        raise ValueError(
            f"<gamma, alpha_check> = {-n} is not negative at index {alpha_index}"
        )
    alpha = rs.simple_roots[alpha_index]
    s_gam = gam + n * alpha
    lhs = lusztig_q_analogue(rs, lam, gam) + lusztig_q_analogue(rs, lam, s_gam - alpha)
    rhs = QPoly.q() * (
        lusztig_q_analogue(rs, lam, gam + alpha) + lusztig_q_analogue(rs, lam, s_gam)
    )
    failures = []
    _expect(failures, "reflection relation", gam, rhs, lhs)
    return _report(
        "induction", rs,
        {"lambda": list(lam.coords), "gamma": list(gam.coords),
         "alpha_index": alpha_index},
        failures,
    )


def verify_subregular_identity(rs: RootSystem, lam: Weight,
                               alpha_index: int) -> Report:
    """q * m^alpha = q^{hot(alpha+)} * m^{alpha+} for a short simple root,
    and nonnegativity of the subregular Poincare series m^0 - q*m^alpha."""
    if not rs.in_root_lattice(rs.weight(lam, dominant=True)):
        raise ValueError(f"{lam} is not in the root lattice")
    _check_alpha_index(rs, alpha_index)
    simple_rc = tuple(1 if j == alpha_index else 0 for j in range(rs.rank))
    if rs.root_length[simple_rc] != 1:
        raise ValueError(f"simple root {alpha_index} is not short in {rs.name}")
    alpha = rs.simple_roots[alpha_index]
    alpha_plus, _ = dominant_representative(rs, alpha)
    hot_plus = rs.height(alpha_plus)
    zero = Weight.zero(rs.rank)

    # m^{-alpha} first: the box of lam + alpha holds all four reads
    m_neg = lusztig_q_analogue(rs, lam, -alpha)
    m0 = lusztig_q_analogue(rs, lam, zero)
    m_alpha = lusztig_q_analogue(rs, lam, alpha)
    m_plus = lusztig_q_analogue(rs, lam, alpha_plus)

    failures = []
    _expect(failures, "orbit transport", alpha,
            m_plus.shift(hot_plus), m_alpha.shift(1))
    poincare = m0 - m_alpha.shift(1)
    _expect(failures, "crossing zero", -alpha, m0.shift(1) - m_neg, poincare)
    if not poincare.coefficients_nonnegative():
        _mismatch(failures, "subregular series nonnegative", lam,
                  "nonnegative coefficients", poincare)
    return _report(
        "subregular", rs,
        {"lambda": list(lam.coords), "alpha_index": alpha_index},
        failures,
        {"poincare_series": str(poincare)},
    )
