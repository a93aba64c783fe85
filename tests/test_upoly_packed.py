"""Property checks of the packed prime-field products, divisions, gcds and
modular powers in upoly.

Every expected value comes from plain-int schoolbook arithmetic mod p, which
shares nothing with the bit-mask, Kronecker-slot and Barrett code under test.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly.ffield import prime_field
from addpoly.upoly import UPoly, gcd, powmod

PRIMES = (2, 3, 5, 2**31 - 1)
# gcd and powmod also run on primes with two-byte slots (7, 13, 17)
EUCLID_PRIMES = (2, 3, 5, 7, 13, 17, 2**31 - 1)
MAX_DEGREE = 300
EUCLID_DEGREE = 40

derandomized = settings(derandomize=True, database=None, max_examples=12, deadline=None)


def coefficient_lists(p, min_degree=-1, max_degree=MAX_DEGREE):
    """Coefficient lists of degree min_degree..max_degree; -1 is the zero polynomial."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1)
    )


def divisor_lists(p, max_degree=MAX_DEGREE + 1):
    """Nonzero divisors of degree up to max_degree, constants among them as often as anything else."""
    nonzero = st.integers(1, p - 1)
    constant = nonzero.map(lambda c: [c])
    general = st.tuples(coefficient_lists(p, max_degree=max_degree - 1), nonzero).map(lambda t: t[0] + [t[1]])
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


def remainder(p, a, b):
    """a mod b by schoolbook long division, b nonzero with no trailing zeros."""
    rem, inv = list(strip(a)), pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        c, shift = rem[-1] * inv % p, len(rem) - len(b)
        for i, x in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * x) % p
        rem = list(strip(rem))
    return tuple(rem)


def monic_gcd(p, a, b):
    a, b = strip(a), strip(b)
    while b:
        a, b = b, remainder(p, a, b)
    inv = pow(a[-1], p - 2, p) if a else 0
    return tuple(x * inv % p for x in a)


def power_mod(p, a, n, m):
    result, a = (1,), remainder(p, a, m)
    while n:
        if n & 1:
            result = remainder(p, convolve(p, result, a), m)
        a = remainder(p, convolve(p, a, a), m)
        n >>= 1
    return result


@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_plain_convolution(p):
    field = prime_field(p)

    @derandomized
    @given(coefficient_lists(p), coefficient_lists(p))
    @example([], [])
    @example([], [1])
    @example([p - 1] * (MAX_DEGREE + 1), [p - 1] * (MAX_DEGREE + 1))
    @example([p - 1] * (255 // (p - 1) ** 2), [p - 1] * MAX_DEGREE)  # the fullest one-byte slots
    @example([p - 1] * (255 // (p - 1) ** 2 + 1), [p - 1] * MAX_DEGREE)  # the first that need two
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


def test_long_division_by_a_power_of_y_keeps_every_slot_below_its_bound():
    # dividing all-(p-1) by y^m adds c * p to every slot under each of its m
    # quotient terms: the largest slot sums any division of these lengths makes
    for p in (3, 5, 7, 13, 17, 131, 2**31 - 1):
        field, m = prime_field(p), 1200
        a = UPoly(field, [p - 1] * (2 * m))
        q, r = divmod(a, UPoly(field, [0] * m + [1]))
        assert q.coeffs == (p - 1,) * m and r.coeffs == (p - 1,) * m


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_gcd_matches_plain_euclid(p):
    field = prime_field(p)
    general = coefficient_lists(p, max_degree=EUCLID_DEGREE)
    # a common factor makes nontrivial gcds as likely as coprime pairs
    common = st.tuples(general, general, divisor_lists(p, EUCLID_DEGREE // 2))
    multiples = common.map(lambda t: (convolve(p, t[0], t[2]), convolve(p, t[1], t[2])))
    pairs = st.one_of(st.tuples(general, general), multiples)

    @derandomized
    @given(pairs)
    @example(([], []))
    @example(([], [2 % p, 1]))
    @example(([p - 1], []))
    @example(([1, 1], [1, 2 % p, 1, 1]))
    @example(([p - 1] * (EUCLID_DEGREE + 1), [p - 1] * EUCLID_DEGREE))
    def check(ab):
        a, b = ab
        got = gcd(UPoly(field, a), UPoly(field, b))
        assert got.coeffs == monic_gcd(p, a, b)
        assert got == gcd(UPoly(field, b), UPoly(field, a))

    check()


@pytest.mark.parametrize("p", EUCLID_PRIMES)
def test_powmod_matches_plain_square_and_multiply(p):
    field = prime_field(p)

    @derandomized
    @given(coefficient_lists(p, max_degree=EUCLID_DEGREE), st.integers(0, 1 << 20), divisor_lists(p, 24))
    @example([], 5, [1, 1])
    @example([1, 2 % p], 0, [1, 1])
    @example([p - 1] * 3, 7, [p - 1, p - 1])
    @example([p - 1] * 4, 11, [1, 0, p - 1])
    @example([p - 1] * 30, 3, [p - 1] * 25)
    def check(a, n, m):
        if len(strip(m)) < 2:  # a modulus of degree 0 is refused
            return
        got = powmod(UPoly(field, a), n, UPoly(field, m))
        assert got.coeffs == power_mod(p, a, n, strip(m))

    check()


@pytest.mark.parametrize("p,d", [(3, 63), (3, 64), (7, 7), (7, 8)], ids=["63", "64", "f7-7", "f7-8"])
def test_powmod_slot_width_at_its_boundary_over_f3(p, d):
    # one byte holds d (p-1)^2 through degree 63 over F_3 and degree 7 over F_7; 64 and 8 need two
    field = prime_field(p)
    a, m = [p - 1] * d, [p - 1] * (d + 1)
    for n in (2, 3, 6):
        assert powmod(UPoly(field, a), n, UPoly(field, m)).coeffs == power_mod(p, a, n, m)
