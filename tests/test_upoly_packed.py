"""Property checks of the packed prime-field products and divisions in upoly.

Every expected value comes from plain-int schoolbook arithmetic mod p, which
shares nothing with the bit-mask and Kronecker-slot code under test.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly.ffield import prime_field
from addpoly.upoly import UPoly

PRIMES = (2, 3, 5, 2**31 - 1)
MAX_DEGREE = 300

derandomized = settings(derandomize=True, database=None, max_examples=12, deadline=None)


def coefficient_lists(p, min_degree=-1):
    """Coefficient lists of degree min_degree..MAX_DEGREE; -1 is the zero polynomial."""
    return st.integers(min_degree, MAX_DEGREE).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1)
    )


def divisor_lists(p):
    """Nonzero divisors, constants among them as often as anything else."""
    nonzero = st.integers(1, p - 1)
    constant = nonzero.map(lambda c: [c])
    general = st.tuples(coefficient_lists(p), nonzero).map(lambda t: t[0] + [t[1]])
    return st.one_of(constant, general)


def strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def convolve(p, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(c % p for c in out)


def add(p, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return strip((x + y) % p for x, y in zip(a, b))


@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_plain_convolution(p):
    field = prime_field(p)

    @derandomized
    @given(coefficient_lists(p), coefficient_lists(p))
    @example([], [])
    @example([], [1])
    @example([p - 1] * (MAX_DEGREE + 1), [p - 1] * (MAX_DEGREE + 1))
    def check(a, b):
        got = UPoly(field, a) * UPoly(field, b)
        assert got.coeffs == convolve(p, strip(a), strip(b))

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_is_euclidean_division(p):
    field = prime_field(p)

    @derandomized
    @given(coefficient_lists(p), divisor_lists(p))
    @example([], [1])
    @example([p - 1] * (MAX_DEGREE + 1), [p - 1])
    @example([p - 1] * (MAX_DEGREE + 1), [1] * MAX_DEGREE + [p - 1])
    def check(a, b):
        q, r = divmod(UPoly(field, a), UPoly(field, b))
        assert add(p, convolve(p, q.coeffs, strip(b)), r.coeffs) == strip(a)
        assert r.degree < len(strip(b)) - 1
        assert all(0 <= c < p for c in q.coeffs + r.coeffs)

    check()
