"""Property checks of factorization over odd prime fields, where the
distinct-degree gcds are batched over blocks of degrees, and over the F_(2^e)
above F_2, where every product and division runs on grouped bit masks.

The batched loop, and the packed loop over F_2 and the F_(2^e) above it, are
compared with the per-degree loop of helpers. The construction search is compared
with the first candidate that a Ben-Or test on the schoolbook arithmetic of
helpers.ReferencePolys accepts. Factors are certified by multiplying back and by a
separate Ben-Or loop: over F_(2^e) one on ReferencePolys, since helpers'
ben_or_is_irreducible calls upoly.powmod and upoly.gcd, the code under test.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly import upoly
from addpoly.ffield import prime_field
from addpoly.frobjordan import rational_jordan_form
from addpoly.upoly import UPoly, factor, random_upoly, squarefree_decomposition
from corpus import tower
from helpers import (
    ReferencePolys,
    ben_or_is_irreducible,
    per_degree_distinct_degree,
    random_additive,
    tuple_reference,
)

ODD_PRIMES = (3, 5, 7, 13)
# F_4, F_16 and F_(2^32) over F_2 as towers (p, e, k), with the largest degree factored (the
# reference Ben-Or loop takes one tuple product per coefficient pair, 67 us on F_(2^32)), and
# F_16 over F_4, whose char-2 equal-degree trace runs on UPolys rather than grouped bit masks
CHAR2_FIELDS = {"F4": ((2, 1, 2), 24), "F16": ((2, 4, 1), 12), "F2^32": ((2, 32, 1), 4), "F16/F4": ((2, 2, 2), 8)}
B = upoly._BLOCK
# planted factor degrees: small ones, both sides of the first two block boundaries
PLANTED_DEGREES = (1, 2, 3, B - 1, B, B + 1, B + 3, 2 * B, 2 * B + 1)

derandomized = settings(max_examples=25)


def random_irreducible(field, degree, rng):
    while True:
        u = random_upoly(field, degree, rng)
        if ben_or_is_irreducible(u):
            return u


def planted(field, degrees, cofactor_degree, seed):
    """The squarefree part of random irreducibles of the given degrees times a
    random monic cofactor."""
    rng = random.Random(seed)
    u = random_upoly(field, cofactor_degree, rng)
    for d in degrees:
        u = u * random_irreducible(field, d, rng)
    w = UPoly.one(field)
    for part, _ in squarefree_decomposition(u):
        w = w * part
    return w


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_batched_distinct_degree_yields_the_per_degree_pairs(p):
    field = prime_field(p)

    @derandomized
    @given(st.lists(st.sampled_from(PLANTED_DEGREES), max_size=4), st.integers(0, 24), st.integers(0, 2**32))
    @example([B, B + 1], 0, 1)  # factors either side of the first block boundary
    @example([2 * B, 2 * B + 1], 0, 2)  # and of the second
    @example([B + 3, B + 4], 0, 3)  # B + 3 found in the short last block, B + 4 left over
    @example([1, 2, B + 3, B + 4], 0, 4)  # the short last block after factors in the first
    @example([], 0, 5)  # a cofactor of degree 0: nothing to split
    @example([B - 1, B - 1, B, B], 0, 6)  # two factors each of two degrees in one block
    @example([1, 2, 3], 2 * B, 7)  # w splits three times in the first block, the loop goes on after it
    @example([2, 2, B], 2 * B + 1, 8)  # two factors of one degree, one at the block's end, then more
    def check(degrees, cofactor_degree, seed):
        w = planted(field, degrees, cofactor_degree, seed)
        assert list(upoly._distinct_degree(w)) == list(per_degree_distinct_degree(w))

    check()


WIDE_PRIME = 2**31 - 1  # slots too wide to fold on the int: each reduction cuts the slots apart


def test_distinct_degree_over_a_prime_with_wide_slots():
    field = prime_field(WIDE_PRIME)

    @settings(max_examples=8)
    @given(st.lists(st.integers(1, 4), max_size=3), st.integers(0, 6), st.integers(0, 2**32))
    @example([1, 1, 2], 4, 9)  # two linear factors found at once, then a split at degree 2
    @example([], 0, 10)
    def check(degrees, cofactor_degree, seed):
        w = planted(field, degrees, cofactor_degree, seed)
        assert list(upoly._distinct_degree(w)) == list(per_degree_distinct_degree(w))

    check()


@pytest.mark.parametrize("p", ODD_PRIMES + (WIDE_PRIME,))
def test_is_irreducible_agrees_with_the_reference_ben_or_loop(p):
    # Ben-Or is the same loop with blocks of one degree: irreducible, reducible and non-squarefree u
    field = prime_field(p)

    @settings(max_examples=15)
    @given(st.integers(1, 12 if p < WIDE_PRIME else 5), st.integers(0, 2), st.integers(0, 2**32))
    def check(degree, squared_degree, seed):
        rng = random.Random(seed)
        square = random_upoly(field, squared_degree, rng)
        u = random_upoly(field, degree, rng) * square * square
        assert upoly.is_irreducible(u) == ben_or_is_irreducible(u)

    check()


# the largest planted and cofactor degree over F_2, the fields of CHAR2_FIELDS and the oracle's
# F_(4^7), the extension of degree 7 of (2, 1, 2), packed through its flat coordinates; F_16 over
# F_4 is not packed and runs the per-degree UPoly loop
PACKED_PLANTS = {
    "F2": ((2, 1, 1), 12), "F4": ((2, 1, 2), 8), "F16": ((2, 4, 1), 5), "F2^32": ((2, 32, 1), 3),
    "F16/F4": ((2, 2, 2), 4), "F4^7": ((2, 1, 2, 7), 4),
}


@pytest.mark.parametrize("name", PACKED_PLANTS)
def test_packed_distinct_degree_yields_the_per_degree_pairs(name):
    key, top = PACKED_PLANTS[name]
    field = tower(*key[:3]).extension(key[3]) if len(key) > 3 else tower(*key).fq

    @settings(max_examples=15)
    @given(st.lists(st.integers(1, top), max_size=3), st.integers(0, top), st.integers(0, 2**32))
    @example([], 0, 1)  # a cofactor of degree 0: nothing to split
    @example([1, 3], 0, 2)  # only planted factors
    @example([2, 2], 0, 3)  # two factors of one degree
    @example([top, top], 1, 4)  # two of the largest degree, found at the loop's last degree
    def check(degrees, cofactor_degree, seed):
        w = planted(field, degrees, cofactor_degree, seed)
        assert list(upoly._distinct_degree(w)) == list(per_degree_distinct_degree(w))

    check()


def lexicographic_first_irreducible(reference, degree):
    """The first monic candidate of the given degree, a_0 the most significant digit of its
    index, that the reference Ben-Or test accepts, as a list of element indices."""
    size = reference.field.size
    for index in range(0 if degree == 1 else size ** (degree - 1), size**degree):
        digits = [index // size**i % size for i in range(degree)]
        if reference.is_irreducible(digits[::-1] + [1]):
            return digits[::-1] + [1]


@pytest.mark.parametrize(
    "key, max_degree",
    [((2, 1, 1), 40), ((2, 1, 2), 6), ((2, 4, 1), 6), ((3, 1, 1), 8), ((5, 1, 1), 5), ((3, 2, 1), 4), ((2, 2, 2), 4)],
    ids=["F2", "F4", "F16", "F3", "F5", "F9", "F16-over-F4"],
)
def test_construction_search_finds_the_reference_first_irreducible(key, max_degree):
    field, reference = tower(*key).fq, ReferencePolys(tuple_reference(tower(*key)))
    for degree in range(1, max_degree + 1):
        found = upoly.irreducible_polynomial(field, degree)
        assert [field.to_index(c) for c in found.coeffs] == lexicographic_first_irreducible(reference, degree)


@pytest.mark.parametrize("p", ODD_PRIMES + tuple(CHAR2_FIELDS))
def test_factor_multiplies_back_into_irreducibles(p):
    if p in ODD_PRIMES:
        field, max_degree, examples, is_irreducible = prime_field(p), 60, 25, ben_or_is_irreducible
    else:
        key, max_degree = CHAR2_FIELDS[p]
        field, examples, reference = tower(*key).fq, 8, ReferencePolys(tuple_reference(tower(*key)))

        def is_irreducible(u):
            return reference.is_irreducible(list(u.coeffs))

    @settings(max_examples=examples)
    @given(st.integers(1, max_degree), st.integers(0, 3), st.integers(0, 2**32))
    def check(degree, squared_degree, seed):
        rng = random.Random(seed)
        square = random_upoly(field, squared_degree, rng)
        u = random_upoly(field, degree, rng) * square * square
        product = UPoly.one(field)
        for irr, mult in factor(u):
            assert irr.is_monic and is_irreducible(irr)
            product = product * irr**mult
        assert product == u

    check()


@pytest.mark.parametrize("tw", [(3, 1, 1), (5, 1, 1)])
def test_species_dimension_is_the_exponent(tw):
    tr = tower(*tw)

    @derandomized
    @given(st.integers(1, 48), st.integers(0, 2**32))
    def check(n, seed):
        f = random_additive(tr, n, random.Random(seed))
        assert rational_jordan_form(f).dimension() == n

    check()


@pytest.mark.parametrize(
    "u, degrees, bound",
    [
        # factors of degrees 7, 39 and 50: one gcd per degree made 41 calls, one
        # per block of degrees makes 8
        (random_upoly(prime_field(3), 96, random.Random(0)), [7, 39, 50], 16),
        # y^64 + 1, two factors of degree 32 in one block (25..32): 36 calls per degree,
        # more than 10 if the split tried every degree of that block, 6 when it tries only 32
        (UPoly(prime_field(5), [1] + [0] * 63 + [1]), [32, 32], 10),
    ],
    ids=["random-f3", "y64+1-f5"],
)
def test_factor_batches_its_euclid_calls(monkeypatch, u, degrees, bound):
    # every Euclid over odd p, the squarefree split's, distinct- and equal-degree splitting's, is one
    # _slot_gcd on slot ints
    calls = []
    slot_gcd = upoly._slot_gcd
    monkeypatch.setattr(upoly, "_slot_gcd", lambda *args: calls.append(args) or slot_gcd(*args))
    assert sorted(irr.degree for irr, _ in factor(u)) == degrees
    assert len(calls) <= bound
