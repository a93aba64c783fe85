"""The int field kernel agrees with the tuple reference on every operation.

`helpers.TupleExtensionField` keeps each element as a coefficient tuple over
the level below and multiplies by schoolbook with reduction; it shares no
table or packing code with `ffield.ExtensionField`. Both are built from the
same construction polynomials, and an element's int is the reference's
`to_index`, so every result is compared as an int. The levels lie on both
sides of `ffield.TABLE_SIZE`: F_4, F_16 (over F_4), F_8, F_81 (over F_9) and
F_729 use tables. Above the tables every level multiplies in flat F_p
coordinates. Over a prime base these are its own digits: F_(2^32) as bit
masks whose products fold their high bits through gf2x's byte tables, and
by upoly's Barrett product F_(3^13), F_(3^26), F_(5^7) and F_(7^7) in
one-byte slots (7 * 6^2 = 252),
F_(7^8) (8 * 6^2 = 288), F_(17^3) and F_(37^2) in wider slots. Over a
non-prime base they are reached by F_p-linear
maps: F_(2^16) over F_256 and the oracle's F_(4^15) and F_(4^7) by byte
tables, F_(81^3), F_(9^4) and F_(37^4) over F_(37^2) by packed column sums.
Odd p <= 36 adds in byte slots; F_(37^2) and F_(37^4) add digit by digit.
Samples come from fixed seeds.

The field laws above the tables are also checked on Hypothesis draws,
derandomized so that every run draws the same elements. The byte-slot tables
of F_3 to F_13 and F_9 are checked exhaustively against the field's own mul,
pow and sub.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addpoly import upoly
from addpoly.ffield import TABLE_SIZE
from corpus import tower
from helpers import TupleExtensionField

LEVELS = [
    ((2, 1, 2), 1),
    ((2, 2, 2), 1),
    ((2, 1, 3), 1),
    ((3, 2, 2), 1),
    ((3, 1, 6), 1),
    ((2, 32, 1), 1),
    ((2, 8, 2), 1),
    ((2, 2, 1), 15),
    ((3, 1, 1), 13),
    ((3, 1, 1), 26),
    ((5, 1, 1), 7),
    ((3, 2, 2), 3),
    ((17, 1, 1), 3),
    ((37, 1, 1), 2),
    ((2, 1, 2), 7),
    ((3, 2, 1), 4),
    ((37, 2, 2), 1),
    ((7, 1, 1), 7),
    ((7, 1, 1), 8),
]
ABOVE_TABLES = [(key, ext) for key, ext in LEVELS if key[0] ** (key[1] * key[2] * ext) > TABLE_SIZE]


def _levels(key, ext_degree):
    """The tower, the level under test, and its tuple reference."""
    tw = tower(*key)
    chain = [tw.fr, tw.fq, tw.extension(ext_degree)]
    ref = tw.fp
    for level in chain:
        if level.size == ref.size:
            continue
        ref = TupleExtensionField(ref, [ref.from_index(c) for c in level.modulus])
    return tw, chain[-1], ref


def _samples(level, rng, count):
    return [0, 1, level.size - 1] + [rng.randrange(level.size) for _ in range(count)]


@pytest.mark.parametrize("key,ext_degree", LEVELS)
def test_kernel_matches_tuple_reference(key, ext_degree):
    tw, level, ref = _levels(key, ext_degree)
    rng = random.Random(f"kernel:{key}:{ext_degree}")
    big = level.size > TABLE_SIZE
    xs = _samples(level, rng, 12 if big else 40)
    ys = _samples(level, rng, len(xs) - 3)
    R, I = ref.from_index, ref.to_index
    for x, y in zip(xs, ys):
        assert level.to_index(x) == x == I(R(x)) and level.from_index(x) == x
        assert level.mul(x, y) == I(ref.mul(R(x), R(y)))
        assert level.add(x, y) == I(ref.add(R(x), R(y)))
        assert level.sub(x, y) == I(ref.sub(R(x), R(y)))
        assert level.neg(x) == I(ref.neg(R(x)))
        assert level.encode(x) == ref.encode(R(x))
        assert level.decode(ref.encode(R(x))) == x
        for n in (0, 1, 2, 5, level.size + 3):
            assert level.pow(x, n) == I(ref.pow(R(x), n))
        for i in (1, -1, 2):
            j = i % tw.sigma_r_order(level)
            assert tw.frob_r(level, x, i) == I(ref.pow(R(x), tw.r**j))
    for x in [x for x in xs if x][: 3 if big else None]:
        assert level.inv(x) == I(ref.inv(R(x)))
        assert level.pow(x, -2) == I(ref.pow(R(x), -2))
        assert level.div(1, x) == level.inv(x)


def test_levels_lie_on_both_sides_of_the_table_threshold():
    sizes = [_levels(key, ext_degree)[1].size for key, ext_degree in LEVELS]
    assert min(sizes) <= TABLE_SIZE < max(sizes)
    assert sorted(s <= TABLE_SIZE for s in sizes) == [False] * 13 + [True] * 6


@pytest.mark.parametrize("key,ext_degree", ABOVE_TABLES)
def test_flat_coordinates_are_a_basis_of_powers_of_an_irreducible(key, ext_degree):
    tw, level, ref = _levels(key, ext_degree)
    to, back, flat = level._flat
    xs = _samples(level, random.Random(f"flat:{key}:{ext_degree}"), 20)
    assert [back(to(x)) for x in xs] == xs
    minpoly = upoly.UPoly(tw.fp, flat.modulus)
    assert minpoly.degree == level.dim and upoly.is_irreducible(minpoly)
    assert flat.base is tw.fp and flat.size == level.size
    assert to(1) == back(1) == 1
    if level.base.size == level.char:
        assert flat is level and [to(x) for x in xs] == xs == [back(x) for x in xs]
    else:
        # in the tuple reference, flat coordinate i stands for theta^i, and M(theta) = 0
        theta, powers = ref.from_index(back(level.char)), [ref.one]
        for _ in range(level.dim):
            powers.append(ref.mul(powers[-1], theta))
        assert [ref.to_index(t) for t in powers[:-1]] == [back(level.char**i) for i in range(level.dim)]
        value = ref.zero
        for c, t in zip(flat.modulus, powers):
            value = ref.add(value, ref.mul(ref.from_int(c), t))
        assert value == ref.zero


LAW_LEVELS = [((2, 2, 1), 15), ((2, 1, 2), 7), ((3, 2, 1), 4), ((2, 32, 1), 1)]


@pytest.mark.parametrize("key,ext_degree", LAW_LEVELS)
def test_field_laws_above_the_tables(key, ext_degree):
    tw, level, _ = _levels(key, ext_degree)
    element = st.integers(0, level.size - 1)

    def frob(x):
        return tw.frob_r(level, x, 1)

    @settings(max_examples=15)
    @given(element, element, element)
    def laws(a, b, c):
        mul, add = level.mul, level.add
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert a == 0 or mul(a, level.inv(a)) == 1
        assert frob(add(a, b)) == add(frob(a), frob(b))
        assert frob(mul(a, b)) == mul(frob(a), frob(b))

    laws()


@pytest.mark.parametrize("key,ext_degree", LEVELS)
def test_random_draws_match_the_reference(key, ext_degree):
    """One rng.randrange(p) per F_p digit, low digit first, as the tuples drew them."""
    _, level, ref = _levels(key, ext_degree)
    ours, theirs = random.Random(7), random.Random(7)
    assert [level.random(ours) for _ in range(20)] == [ref.to_index(ref.random(theirs)) for _ in range(20)]
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("key,ext_degree", [((17, 1, 1), 3), ((7, 1, 1), 8), ((37, 1, 1), 2)])
def test_products_above_the_tables_build_no_polynomial_objects(key, ext_degree, monkeypatch):
    """A product over a prime base stays on packed ints: no UPoly per product."""
    _, level, _ = _levels(key, ext_degree)
    rng = random.Random(f"guard:{key}:{ext_degree}")
    pairs = [(rng.randrange(level.size), rng.randrange(level.size)) for _ in range(50)]
    built, init = [], upoly.UPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(upoly.UPoly, "__init__", counting_init)
    for a, b in pairs:
        level.mul(a, b)
    assert len(built) == 0


def test_zero_has_no_inverse_on_either_side_of_the_threshold():
    for key, ext_degree in ((2, 2, 2), 1), ((2, 32, 1), 1), ((3, 1, 6), 1):
        _, level, _ = _levels(key, ext_degree)
        for op in (level.inv, lambda x: level.div(1, x), lambda x: level.pow(x, -1)):
            with pytest.raises(ZeroDivisionError):
                op(0)


# F_3, F_5, F_7, F_9 (over F_3), F_11 and F_13: every odd level with byte-slot tables
ODD_BYTE_LEVELS = [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (11, 1, 1), (13, 1, 1)]


@pytest.mark.parametrize("key", ODD_BYTE_LEVELS)
def test_odd_byte_tables_match_the_field_on_every_pair(key):
    level = tower(*key).fq
    elements = range(level.size)
    assert len(level.scales) == level.size and len(level.frobs) == level.dim
    for c, x in product(elements, elements):
        assert level.scales[c][x] == level.mul(c, x)
    for j, x in product(range(level.dim), elements):
        assert level.frobs[j][x] == level.pow(x, level.char**j)
    for a, b in product(elements, elements):
        assert level.diffs[a + 16 * b] == level.sub(a, b)
    rng = random.Random(f"slots:{key}")
    u, v = ([rng.randrange(level.size) for _ in range(40)] for _ in range(2))
    ints = [int.from_bytes(bytes(w), "little") for w in (u, v)]
    assert list(level.slot_sub(*ints).to_bytes(40, "little")) == [level.sub(a, b) for a, b in zip(u, v)]


@pytest.mark.parametrize("key", [(17, 1, 1), (5, 1, 2), (3, 1, 3), (3, 2, 2)])
def test_odd_levels_above_16_elements_keep_no_byte_tables(key):
    level = tower(*key).fq  # F_17, F_25, F_27 and F_81 divide and eliminate on lists
    assert level.size > 16
    assert level.scales is level.frobs is level.diffs is None


def _power_by_products(level, a, n):
    """a^n from level.mul alone: n taken mod size - 1 for a != 0 (Fermat), so that a negative n
    needs no inverse; then a multiplied in m times for small m, else the product of the
    a^(2^i), each made by i repeated squarings, over the set bits i of m."""
    if not a:
        if n < 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 if n == 0 else 0
    m, result = n % (level.size - 1), 1
    if m <= 64:
        for _ in range(m):
            result = level.mul(result, a)
        return result
    for bit in bin(m)[:1:-1]:
        if bit == "1":
            result = level.mul(result, a)
        a = level.mul(a, a)
    return result


# the flat levels whose powers run left to right on their own products: F_(2^32), F_(3^13),
# F_(9^4) through its flat F_(3^8), and the flat F_(2^30) under the oracle's F_(4^15)
POW_LEVELS = {"F2^32": ((2, 32, 1), 1, False), "F3^13": ((3, 1, 1), 13, False), "F9^4": ((3, 2, 4), 1, False)}
POW_LEVELS["F2^30 under F4^15"] = ((2, 2, 1), 15, True)


@pytest.mark.parametrize("name", sorted(POW_LEVELS))
def test_left_to_right_powers_match_repeated_multiplication(name):
    key, ext_degree, flat = POW_LEVELS[name]
    tw, level, _ = _levels(key, ext_degree)
    if flat:
        level = level._flat[2]
    assert level._flat[2].pow == level._flat[2]._pow_poly  # powers on a flat level over F_p
    rng = random.Random(f"pow:{name}")
    exponents = (0, 1, 2, 3, tw.r, tw.q, level.size - 2, 10**30 + 7, -1, -5)
    for a in [0, 1, level.size - 1] + [rng.randrange(level.size) for _ in range(6)]:
        for n in exponents:
            if not a and n < 0:
                with pytest.raises(ZeroDivisionError):
                    level.pow(a, n)
            else:
                assert level.pow(a, n) == _power_by_products(level, a, n), (a, n)


def test_a_square_on_f_2_32_is_one_product(monkeypatch):
    level = tower(2, 32, 1).fr
    calls, mul = [], level.mul

    def counting_mul(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(level, "mul", counting_mul)
    a = random.Random("square").randrange(2, level.size)
    assert level.pow(a, 2) == mul(a, a)
    assert calls == [(a, a)]
