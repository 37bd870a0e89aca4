"""Every type against Kostant's harmonic series.

The harmonic polynomials H on g hold V(lam) with graded multiplicity
m_lam^0(q) (Kostant's S(g) = H (x) S(g)^G, with Hesselink's grading), and
S(g)^G is free on generators of the degrees d_i, so

    sum over lam of dim V(lam) * m_lam^0(q) = prod (1 - q^d_i) / (1 - q)^dim g.

The weights of the degree-k part of S(g) are sums of k roots, so only the
dominant lam in the root lattice with lam <= k*theta reach q^k, and the
identity is checked exactly up to q^K on the finitely many lam <= K*theta.

Only m_lam^0 comes from the library (``lusztig_q_analogue``).  The degrees
are written out here, and the dimensions come from the Weyl dimension
formula computed here, on root lengths read off the Cartan matrix.  The lam
are enumerated from the Cartan matrix and the positive roots alone, which
``tests/test_root_system.py`` pins.
"""

import itertools
from fractions import Fraction
from math import comb

import pytest

from qweights.lusztig import lusztig_q_analogue
from qweights.root_system import Weight, build_root_system

DEGREES = {
    "G2": (2, 6),
    "B3": (2, 4, 6),
    "C3": (2, 4, 6),
    "D4": (2, 4, 4, 6),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
}

# the degree K reached per type, about 5 s in all; E7 at K = 2 takes over
# half of it, in the table of 2*theta (165,375 cells), and E8 at K = 2 is
# refused (14,189,175 cells)
CASES = [("G2", 8), ("B3", 5), ("C3", 5), ("D4", 5), ("F4", 4), ("E6", 3), ("E7", 2)]


def root_norms(cartan):
    """(alpha_i, alpha_i) for each simple root, up to one common factor:
    cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) is
    symmetric once each row is scaled by (alpha_i, alpha_i)."""
    n = len(cartan)
    norms = {0: Fraction(1)}
    while len(norms) < n:
        for i, j in itertools.product(range(n), repeat=2):
            if i in norms and j not in norms and cartan[i][j]:
                norms[j] = norms[i] * cartan[i][j] / cartan[j][i]
    return [norms[i] for i in range(n)]


def weyl_dimension(cartan, roots, lam):
    """prod over the positive roots alpha of (lam+rho, alpha^v) / (rho, alpha^v),
    with lam in fundamental-weight coordinates and each alpha in root
    coordinates; rho = (1, ..., 1)."""
    n, norms = len(cartan), root_norms(cartan)
    out = Fraction(1)
    for alpha in roots:
        # (w, alpha) = sum of alpha_j w_j (alpha_j, alpha_j) / 2 for w in
        # weight coordinates; the common factor 2 / (alpha, alpha) of
        # (lam+rho, alpha^v) and (rho, alpha^v) cancels
        out *= (sum(alpha[j] * (lam[j] + 1) * norms[j] for j in range(n))
                / sum(alpha[j] * norms[j] for j in range(n)))
    assert out.denominator == 1
    return int(out)


def dominant_below(cartan, roots, k):
    """The dominant weights of the root lattice that are <= k * theta, in
    fundamental-weight coordinates: theta is the tallest positive root, and
    a dominant weight of the root lattice has root coordinates >= 0."""
    n = len(cartan)
    theta = max(roots, key=sum)
    for c in itertools.product(*(range(k * t + 1) for t in theta)):
        lam = tuple(sum(cartan[i][j] * c[j] for j in range(n)) for i in range(n))
        if min(lam) >= 0:
            yield lam


def harmonic_series(degrees, dim, top):
    """prod (1 - q^d) / (1 - q)^dim up to q^top, as a list of coefficients."""
    num = [1] + [0] * top
    for d in degrees:
        num = [num[k] - (num[k - d] if k >= d else 0) for k in range(top + 1)]
    # 1 / (1 - q)^dim has the coefficient C(dim + k - 1, k) at q^k
    return [sum(num[j] * comb(dim + k - j - 1, k - j) for j in range(k + 1))
            for k in range(top + 1)]


@pytest.mark.parametrize("name, top", CASES)
def test_harmonic_series(name, top):
    rs = build_root_system(name)
    cartan, roots = rs.cartan, rs.positive_roots
    degrees = DEGREES[name]
    # the degrees fit the root data: sum (d_i - 1) = |Phi+|
    assert len(degrees) == len(cartan) and sum(d - 1 for d in degrees) == len(roots)
    zero = Weight((0,) * len(cartan))
    lhs = [0] * (top + 1)
    for lam in dominant_below(cartan, roots, top):
        m = lusztig_q_analogue(rs, Weight(lam), zero)
        dim = weyl_dimension(cartan, roots, lam)
        for k in range(top + 1):
            lhs[k] += dim * m.coefficient(k)
    assert lhs == harmonic_series(degrees, len(cartan) + 2 * len(roots), top)


def test_weyl_dimension_by_hand():
    # G2: the 7- and 14-dimensional modules; B3: the spin module is 8-dim
    g2, b3 = build_root_system("G2"), build_root_system("B3")
    assert weyl_dimension(g2.cartan, g2.positive_roots, (1, 0)) == 7
    assert weyl_dimension(g2.cartan, g2.positive_roots, (0, 1)) == 14
    assert weyl_dimension(b3.cartan, b3.positive_roots, (0, 0, 1)) == 8
    assert weyl_dimension(b3.cartan, b3.positive_roots, (1, 0, 0)) == 7
