"""Property checks of the packed products, divisions, gcds and modular powers in
upoly over prime fields, over the F_(2^e) above F_2 and over the char-2 levels
that multiply in flat coordinates (gf2x), and of the products and divisions over
the other non-prime fields.

Over F_p every expected value comes from plain-int schoolbook arithmetic mod p,
which shares nothing with the bit-mask, Kronecker-slot and Barrett code under
test. Over F_4, F_9, F_16 (over F_4 and over F_2), F_(2^32), F_(4^7) and F_(4^15)
it comes from schoolbook arithmetic on helpers.TupleExtensionField, which shares
nothing with gf2x's grouped bit masks, ffield's flat coordinates, upoly._product
and upoly._divide.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly.ffield import prime_field
from addpoly.gf2x import mask_divmod, mask_mod
from addpoly.upoly import UPoly, _divide, gcd
from corpus import tower
from helpers import ReferencePolys, powmod, tuple_reference

PRIMES = (2, 3, 5, 2**31 - 1)
# F_q of these towers (p, e, k), or its extension of degree E (p, e, k, E): F_4, F_9, F_16
# over F_4 and over F_2, F_(2^32), and the oracle's F_(4^7) and F_(4^15) of the verify jobs over
# (2, 1, 2) and (2, 2, 1); all but F_9 and F_16 over F_4 are packed as grouped bit masks, the
# last two through their flat coordinates
EXTENSIONS = {
    "F4": (2, 1, 2), "F9": (3, 1, 2), "F16": (2, 2, 2), "F2^4": (2, 4, 1), "F2^32": (2, 32, 1),
    "F4^7": (2, 1, 2, 7), "F4^15": (2, 2, 1, 15),
}
# the reference's tuple product takes 0.2 ms on F_(4^7) and 0.4 ms on F_(4^15)
FLAT_LEVELS = ("F4^7", "F4^15")
EXTENSION_DEGREE, FLAT_DEGREE = 16, 4
# gcd and powmod also run on primes with two-byte slots (7, 13, 17), and on the packed F_(2^e)
EUCLID_PRIMES = (2, 3, 5, 7, 13, 17, 2**31 - 1)
EUCLID_EXTENSIONS = ("F4", "F2^4", "F2^32") + FLAT_LEVELS
MAX_DEGREE = 300
EUCLID_DEGREE = 40
# F_3, F_9 over F_3 and F_13: odd levels with byte-slot tables, F_13's elements near the nibble
# bound; their towers' r-power twists are x -> x^3 on F_9 and the identity on a prime field
BYTE_DIVISION = {"F3": (3, 1, 1), "F9": (3, 1, 2), "F13": (13, 1, 1)}
# over F_(2^e) the reference takes one tuple product per coefficient pair (67 us on F_(2^32))
EXTENSION_EUCLID_DEGREE = 6

derandomized = settings(max_examples=12)


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


def level(name):
    """The field of EXTENSIONS[name] and its helpers.TupleExtensionField."""
    key = EXTENSIONS[name]
    tw = tower(*key[:3])
    top = tw.extension(key[3]) if len(key) > 3 else None
    return top or tw.fq, tuple_reference(tw, top)


def arithmetic(p):
    """(field, largest degree drawn, product, sum) for a prime p or a name in EXTENSIONS:
    the reference product and sum take and return coefficient lists of element indices."""
    if p in PRIMES:
        return prime_field(p), MAX_DEGREE, lambda a, b: convolve(p, a, b), lambda a, b: add(p, a, b)
    field, ref = level(p)  # the same construction polynomials, so an element is its index

    def product(a, b):
        a, b = [ref.from_index(c) for c in a], [ref.from_index(c) for c in b]
        out = [ref.zero] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = ref.add(out[i + j], ref.mul(x, y))
        return strip(map(ref.to_index, out))

    def plus(a, b):
        n = max(len(a), len(b))
        a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
        return strip(ref.to_index(ref.add(ref.from_index(x), ref.from_index(y))) for x, y in zip(a, b))

    return field, FLAT_DEGREE if p in FLAT_LEVELS else EXTENSION_DEGREE, product, plus


def remainder(p, a, b):
    """a mod b by schoolbook long division, b nonzero with no trailing zeros."""
    rem, inv = list(strip(a)), pow(b[-1], p - 2, p)
    while len(rem) >= len(b):
        c, shift = rem[-1] * inv % p, len(rem) - len(b)
        for i, x in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * x) % p
        while rem and not rem[-1]:
            rem.pop()
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


@pytest.mark.parametrize("p", PRIMES + tuple(EXTENSIONS))
def test_product_matches_plain_convolution(p):
    field, degree, product, _ = arithmetic(p)
    size, top = field.size, field.size - 1

    @derandomized
    @given(coefficient_lists(size, max_degree=degree), coefficient_lists(size, max_degree=degree))
    @example([], [])
    @example([], [1])
    @example([top] * (degree + 1), [top] * (degree + 1))
    @example([top] * (255 // top**2), [top] * degree)  # over F_p, the fullest one-byte slots
    @example([top] * (255 // top**2 + 1), [top] * degree)  # and the first that need two
    def check(a, b):
        got = UPoly(field, a) * UPoly(field, b)
        assert got.coeffs == product(strip(a), strip(b))

    check()


@pytest.mark.parametrize("p", PRIMES + tuple(EXTENSIONS))
def test_divmod_is_euclidean_division(p):
    field, degree, product, plus = arithmetic(p)
    size, top = field.size, field.size - 1

    @derandomized
    @given(coefficient_lists(size, max_degree=degree), divisor_lists(size, degree + 1))
    @example([], [1])
    @example([top] * (degree + 1), [top])
    @example([top] * (degree + 1), [1] * degree + [top])
    def check(a, b):
        q, r = divmod(UPoly(field, a), UPoly(field, b))
        assert plus(product(q.coeffs, strip(b)), r.coeffs) == strip(a)
        assert r.degree < len(strip(b)) - 1
        assert all(0 <= c < size for c in q.coeffs + r.coeffs)

    check()


def test_long_division_by_a_power_of_y_keeps_every_slot_below_its_bound():
    # dividing all-(p-1) by y^m adds c * p to every slot under each of its m
    # quotient terms: the largest slot sums any division of these lengths makes
    for p in (3, 5, 7, 13, 17, 131, 2**31 - 1):
        field, m = prime_field(p), 1200
        a = UPoly(field, [p - 1] * (2 * m))
        q, r = divmod(a, UPoly(field, [0] * m + [1]))
        assert q.coeffs == (p - 1,) * m and r.coeffs == (p - 1,) * m


def euclid_arithmetic(p):
    """(field, size, largest degree drawn, product, monic gcd, power mod) for a prime p or a
    name in EUCLID_EXTENSIONS, the references on coefficient lists of element indices."""
    if p in EUCLID_PRIMES:
        return prime_field(p), p, EUCLID_DEGREE, partial(convolve, p), partial(monic_gcd, p), partial(power_mod, p)
    field, ref = level(p)
    ref = ReferencePolys(ref)
    degree = FLAT_DEGREE if p in FLAT_LEVELS else EXTENSION_EUCLID_DEGREE
    return field, ref.field.size, degree, ref.product, ref.monic_gcd, ref.power_mod


@pytest.mark.parametrize("p", EUCLID_PRIMES + EUCLID_EXTENSIONS)
def test_gcd_matches_plain_euclid(p):
    field, size, degree, product, reference_gcd, _ = euclid_arithmetic(p)
    top = size - 1
    general = coefficient_lists(size, max_degree=degree)
    # a common factor makes nontrivial gcds as likely as coprime pairs
    common = st.tuples(general, general, divisor_lists(size, degree // 2))
    multiples = common.map(lambda t: (product(t[0], t[2]), product(t[1], t[2])))
    pairs = st.one_of(st.tuples(general, general), multiples)
    # dividing all-(p-1) of this length by (p-1)(1 + y) takes more nonzero quotient terms than
    # fit between two reductions of gcd's slots, which hold p^3: 42 terms in the one-byte slots
    # of F_3, 1560 and 240 in the two-byte slots of F_7 and F_17
    long = {3: 90, 7: 3130, 17: 490}.get(p, degree + 1)

    @derandomized
    @given(pairs)
    @example(([], []))
    @example(([], [2 % size, 1]))
    @example(([top], []))
    @example(([1, 1], [1, 2 % size, 1, 1]))
    @example(([top] * (degree + 1), [top] * degree))
    @example(([top] * long, [top] * 2))
    @example(([top] * (long + 1), [top] * 2))
    def check(ab):
        a, b = ab
        got = gcd(UPoly(field, a), UPoly(field, b))
        assert list(got.coeffs) == list(reference_gcd(a, b))
        assert got == gcd(UPoly(field, b), UPoly(field, a))

    check()


@pytest.mark.parametrize("p", EUCLID_PRIMES + EUCLID_EXTENSIONS)
def test_powmod_matches_plain_square_and_multiply(p):
    field, size, degree, _, _, reference_power = euclid_arithmetic(p)
    top = size - 1
    # over F_(2^e): exponents up to 2^8 and moduli of degree up to 5 keep the reference quick
    small = p in EUCLID_EXTENSIONS

    @derandomized
    @given(
        coefficient_lists(size, max_degree=degree),
        st.integers(0, 1 << (8 if small else 20)),
        divisor_lists(size, 5 if small else 24),
    )
    @example([], 5, [1, 1])
    @example([1, 2 % size], 0, [1, 1])
    @example([top] * 3, 7, [top, top])
    @example([top] * 4, 11, [1, 0, top])
    @example([top] * (7 if small else 30), 3, [top] * (6 if small else 25))
    def check(a, n, m):
        if len(strip(m)) < 2:  # a modulus of degree 0 is refused
            return
        got = powmod(UPoly(field, a), n, UPoly(field, m))
        assert list(got.coeffs) == list(reference_power(a, n, strip(m)))

    check()


BOUNDARIES = [(3, 63), (3, 64), (7, 7), (7, 8), (5, 15), (5, 16), (17, 255), (17, 256)]


@pytest.mark.parametrize("p,d", BOUNDARIES, ids=["63", "64", "f7-7", "f7-8", "f5-15", "f5-16", "f17-255", "f17-256"])
def test_powmod_slot_width_at_its_boundary_over_f3(p, d):
    # one byte holds d (p-1)^2 through degree 63 over F_3, 7 over F_7 and 15 over F_5; 64, 8 and 16
    # need two, which hold it over F_17 through degree 255; 256 needs three (still 3 * 17 < 256)
    field = prime_field(p)
    a, m = [p - 1] * d, [p - 1] * (d + 1)
    for n in (2, 3, 6):
        assert powmod(UPoly(field, a), n, UPoly(field, m)).coeffs == power_mod(p, a, n, m)


@pytest.mark.parametrize("skew", [False, True], ids=["one-twist", "r-power-twists"])
@pytest.mark.parametrize("name", BYTE_DIVISION)
def test_byte_slot_division_matches_schoolbook(name, skew):
    tw = tower(*BYTE_DIVISION[name])
    field, ref = tw.fq, ReferencePolys(tuple_reference(tw))
    assert field.scales and field.diffs  # _divide takes upoly._byte_divider
    (r, order), top = (tw.r, tw.sigma_r_order(field)) if skew else (1, 1), field.size - 1

    @derandomized
    @given(coefficient_lists(field.size, max_degree=40), divisor_lists(field.size, 20))
    @example([top] * 41, [top] * 21)
    @example([top] * 41, [1, top])
    @example([top] * 5, [top] * 9)  # shorter than the divisor: no quotient
    def check(a, b):
        twists = [[field.pow(c, r**s) for c in b] for s in range(order)]
        quot, rem = _divide(field, a, twists)
        assert (list(strip(quot)), list(strip(rem))) == ref.skew_divmod(a, b, r)

    check()


@derandomized
@given(st.integers(1, 1 << 300), st.integers(0, 1 << 600))
@example(1, 0)
@example(1, (1 << 600) - 1)  # every bit a quotient term
@example(0b111, 0b11)  # shorter than the divisor
def test_mask_mod_is_the_remainder_of_mask_divmod(b, a):
    assert mask_mod(b, a) == mask_divmod(b, a)[1]


def test_gcd_over_f3_unpacks_once(monkeypatch):
    # Euclid over odd p keeps every remainder on slot ints: a degree-96 gcd converts slot ints
    # to coefficients once, at the end
    import random

    from addpoly import upoly

    rng, field = random.Random(26), prime_field(3)
    lists = [[rng.randrange(3) for _ in range(n)] + [1] for n in (40, 56, 56)]
    a, b = (UPoly(field, lists[0]) * UPoly(field, c) for c in lists[1:])
    assert a.degree == b.degree == 96
    calls, real = [], upoly._unpack
    monkeypatch.setattr(upoly, "_unpack", lambda *args: calls.append(args[2]) or real(*args))
    got = gcd(a, b)
    assert len(calls) == 1
    assert got.coeffs == monic_gcd(3, a.coeffs, b.coeffs) and got.degree >= 40
