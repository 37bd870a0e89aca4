"""Type A against Kostka–Foulkes polynomials computed by charge.

In type A_{n-1}, m_lam^mu(q) for dominant mu is the Kostka–Foulkes
polynomial K_{lam,mu}(q) (Lusztig 1983; Kato 1982), which is the sum of
q^charge(T) over the semistandard tableaux T of shape lam and content mu
(Lascoux–Schützenberger 1978), lam and mu read as partitions of one size.
The tableaux and their charge are computed here from scratch: the oracle
shares no code with any route of the library, and its only cost is the
number of tableaux, so it reaches ranks whose Weyl group no walk could.
"""

import itertools
from collections import Counter

import pytest

from qweights import root_system
from qweights.lusztig import lusztig_q_analogue
from qweights.poly import QPoly
from qweights.root_system import Weight, build_root_system


def partition(coords, size=None):
    """The partition with n = rank + 1 parts of the sl_n weight with
    fundamental-weight coordinates ``coords``, padded by full columns to
    ``size`` boxes (which must differ from its own by a multiple of n)."""
    parts = list(itertools.accumulate(reversed(coords)))[::-1] + [0]
    if size is not None:
        pad, rem = divmod(size - sum(parts), len(parts))
        assert rem == 0 and pad >= 0
        parts = [p + pad for p in parts]
    return tuple(parts)


def partitions(size, parts, largest=None):
    """Every partition of ``size`` into at most ``parts`` parts, each at
    most ``largest``, as a tuple of exactly ``parts`` parts."""
    largest = size if largest is None else largest
    if parts == 0:
        if size == 0:
            yield ()
        return
    for first in range(min(size, largest), -1, -1):
        if first * parts < size:
            break
        for rest in partitions(size - first, parts - 1, first):
            yield (first,) + rest


def reading_words(shape, content):
    """The row reading words (rows bottom to top, each left to right) of
    the semistandard tableaux of ``shape`` and ``content``: letter k fills
    a horizontal strip of content[k-1] boxes."""
    n = len(shape)

    def strips(inner, k):
        if k == len(content):
            if inner == shape:
                yield [inner]
            return
        # a horizontal strip: row i grows to at most the old length of row i-1
        caps = [shape[0]] + [min(shape[i], inner[i - 1]) for i in range(1, n)]
        ranges = [range(inner[i], caps[i] + 1) for i in range(n)]
        for outer in itertools.product(*ranges):
            if sum(outer) - sum(inner) == content[k]:
                for rest in strips(outer, k + 1):
                    yield [inner] + rest

    for chain in strips((0,) * n, 0):
        rows = [[k + 1 for k in range(len(content))
                 for _ in range(chain[k][i], chain[k + 1][i])] for i in range(n)]
        yield [letter for row in reversed(rows) for letter in row]


def charge(word):
    """Lascoux–Schützenberger charge of a word of partition content: the
    sum of the charges of its standard subwords.  Each subword takes the
    letters 1, 2, ... scanning leftwards from the right end, cyclically;
    the index of a letter is the number of wraps before it was found."""
    word = list(word)
    total = 0
    while word:
        pos, index, taken = len(word), 0, set()
        for letter in range(1, max(word) + 1):
            left = [j for j in range(pos - 1, -1, -1) if word[j] == letter]
            if left:
                pos = left[0]
            else:
                index += 1
                pos = max(j for j, c in enumerate(word) if c == letter)
            taken.add(pos)
            total += index
        word = [c for j, c in enumerate(word) if j not in taken]
    return total


def kostka_foulkes(shape, content) -> QPoly:
    return QPoly(Counter(map(charge, reading_words(shape, content))))


def test_charge_by_hand():
    # the tableaux 12/3 and 13/2 read 312 and 213, of charge 2 and 1
    assert charge([3, 1, 2]) == 2 and charge([2, 1, 3]) == 1
    # the standard subwords of 211 are 21 and 1, both of charge 0
    assert charge([2, 1, 1]) == 0
    assert kostka_foulkes((2, 1, 0), (1, 1, 1)) == QPoly({1: 1, 2: 1})
    # K_{(n),(1^n)}(q) = q^{n(n-1)/2}
    assert kostka_foulkes((4, 0, 0, 0), (1, 1, 1, 1)) == QPoly({6: 1})
    # K_{lam,mu}(1) is the Kostka number: 2 for (3,2) and (2,2,1)
    assert kostka_foulkes((3, 2, 0), (2, 2, 1)).evaluate(1) == 2


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_every_small_module(rank):
    # every lam with coordinates <= 2 and every dominant mu of its size,
    # whether below lam or not
    rs = build_root_system(f"A{rank}")
    root_system.clear_caches()
    pairs = below = 0
    for lc in itertools.product(range(3), repeat=rank):
        lam = partition(lc)
        for mu in partitions(sum(lam), rank + 1):
            mc = tuple(a - b for a, b in zip(mu, mu[1:]))
            got = lusztig_q_analogue(rs, Weight(lc), Weight(mc))
            assert got == kostka_foulkes(lam, mu), (lc, mc)
            pairs += 1
            below += not got.is_zero()
    # below: the pairs with mu a weight of the module, 1,103 on A2-A4
    assert (pairs, below) == {1: (4, 4), 2: (29, 20), 3: (293, 128),
                              4: (3451, 955)}[rank]


@pytest.mark.parametrize("name,lam,mu", [
    ("A8", (1, 0, 0, 0, 0, 0, 0, 1), (0,) * 8),
    ("A9", (2, 0, 0, 0, 0, 0, 0, 0, 2), (0,) * 9),
    ("A9", (0, 1, 0, 0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_high_rank(name, lam, mu):
    # |W(A9)| = 3,628,800 is over the orbit-point budget, so no reference
    # walk of W reaches these
    rs = build_root_system(name)
    shape = partition(lam)
    want = kostka_foulkes(shape, partition(mu, sum(shape)))
    assert lusztig_q_analogue(rs, Weight(lam), Weight(mu)) == want
    assert not want.is_zero()
