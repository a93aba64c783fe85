import random
from itertools import product

import pytest

from addpoly.errors import InputError, NotInSubfield
from addpoly.ffield import MR_BOUND, is_prime, tower_create
from corpus import tower


def brute_irreducible_quadratic(p):
    """Independent oracle: first monic quadratic over F_p without a root,
    coefficients enumerated low-to-high."""
    for a0, a1 in product(range(p), repeat=2):
        if all((x * x + a1 * x + a0) % p for x in range(p)):
            return [a0, a1, 1]
    raise AssertionError


def test_prime_field_tower():
    tw = tower(2, 1, 1)
    assert tw.r == 2 and tw.q == 2
    assert tw.m_r.encode() == [0, 1]
    assert tw.m_q.encode() == [0, 1]
    assert tw.fq is tw.fp


def test_f4_unique_quadratic():
    tw = tower(2, 1, 2)
    assert tw.m_q.encode() == [1, 1, 1]  # z^2 + z + 1, the only irreducible quadratic


def test_f9_lex_smallest_quadratic():
    tw = tower(3, 2, 1)
    assert tw.m_r.encode() == brute_irreducible_quadratic(3)
    assert tw.m_r.encode() == [1, 0, 1]


def test_f16_over_f4_construction():
    # first irreducible quadratic over F_4 in lex order is y^2 + g*y + 1
    tw = tower(2, 2, 2)
    fr = tw.fr
    encoded = tw.m_q.encode()
    assert encoded == [[1, 0], [0, 1], [1, 0]]
    # independent root-check oracle over all of F_4
    a0, a1 = fr.decode(encoded[0]), fr.decode(encoded[1])
    for x in fr.elements():
        val = fr.add(fr.add(fr.mul(x, x), fr.mul(a1, x)), a0)
        assert val != fr.zero


def test_frobenius_on_f4_generator():
    tw = tower(2, 1, 2)
    g = tw.fq.from_index(2)
    assert tw.fq.pow(g, 2) == tw.fq.add(g, tw.fq.one)  # g^2 = g + 1


def test_frobenius_q_is_identity_exhaustive():
    for args in [(2, 1, 2), (2, 2, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        tw = tower(*args)
        assert tw.q <= 256
        for x in tw.fq.elements():
            assert tw.fq.pow(x, tw.q) == x


def test_frobenius_of_zero():
    tw = tower(2, 1, 2)
    for s in (2, 4, 8):
        assert tw.fq.pow(tw.fq.zero, s) == tw.fq.zero


def test_frobenius_p_is_additive():
    rng = random.Random(1)
    for args in [(2, 1, 2), (3, 2, 1), (5, 1, 2)]:
        tw = tower(*args)
        for _ in range(50):
            x, y = tw.fq.random(rng), tw.fq.random(rng)
            lhs = tw.fq.pow(tw.fq.add(x, y), tw.p)
            rhs = tw.fq.add(tw.fq.pow(x, tw.p), tw.fq.pow(y, tw.p))
            assert lhs == rhs


def test_subfield_coerce_examples():
    tw = tower(2, 1, 2)
    one, g = tw.fq.one, tw.fq.from_index(2)
    assert tw.coerce_q_to_r(one) == 1
    with pytest.raises(NotInSubfield):
        tw.coerce_q_to_r(g)
    assert tw.coerce_q_to_r(tw.fq.add(g, g)) == 0


def test_coerce_embed_roundtrip_exhaustive():
    for args in [(2, 1, 2), (3, 2, 1), (2, 2, 2), (2, 1, 3)]:
        tw = tower(*args)
        assert tw.r <= 256
        for x in tw.fr.elements():
            assert tw.coerce_q_to_r(x) == x  # embedding F_r into F_q is the identity


def test_field_axioms_sampled():
    rng = random.Random(2)
    for args in [(2, 1, 2), (3, 2, 1), (2, 2, 2), (7, 1, 1)]:
        tw = tower(*args)
        f = tw.fq
        for _ in range(40):
            a, b, c = f.random(rng), f.random(rng), f.random(rng)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == f.zero
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one


def test_division_by_zero():
    tw = tower(3, 2, 1)
    with pytest.raises(ZeroDivisionError):
        tw.fq.inv(tw.fq.zero)
    with pytest.raises(ZeroDivisionError):
        tower(2, 1, 1).fq.inv(0)


def test_encodings_roundtrip():
    for args in [(2, 1, 2), (3, 2, 1), (2, 2, 2)]:
        tw = tower(*args)
        for x in tw.fq.elements():
            assert tw.fq.decode(tw.fq.encode(x)) == x
    # the canonical example: g+1 in F_4 over F_2 encodes as [1, 1]
    tw = tower(2, 1, 2)
    g = tw.fq.from_index(2)
    assert tw.fq.encode(tw.fq.add(g, tw.fq.one)) == [1, 1]


def test_decode_rejects_malformed():
    tw = tower(2, 1, 2)
    with pytest.raises(InputError):
        tw.fq.decode([1])  # wrong length
    with pytest.raises(InputError):
        tw.fq.decode([1, 2])  # coordinate out of range
    with pytest.raises(InputError):
        tw.fq.decode(1)  # not a list


def test_tower_create_errors():
    with pytest.raises(InputError):
        tower_create(4, 1, 1)  # p not prime
    with pytest.raises(InputError):
        tower_create(2, 2, 1, m_r=[1, 0, 1])  # y^2+1 = (y+1)^2 is reducible
    with pytest.raises(InputError):
        tower_create(2, 2, 1, m_r=[1, 1, 0, 1])  # degree mismatch
    with pytest.raises(InputError):
        tower_create(2, 0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: tower_create(2, True, 2),
        lambda: tower_create(3, 1, True),
        lambda: tower_create(2.0, 1, 1),
        lambda: tower_create(2, 1, 2).extension(True),
    ],
    ids=["e-bool", "k-bool", "p-float", "extension-bool"],
)
def test_tower_create_refuses_bools_and_floats(build):
    # bool is a subclass of int and 2.0 passes is_prime: p and the degrees must be exact ints
    with pytest.raises(InputError):
        build()


def test_is_prime_on_primes_past_the_trial_divisors():
    assert is_prime(41) and is_prime(2**61 - 1)
    assert not is_prime(41 * 43) and not is_prime(151 * 751 * 28351)
    # a strong pseudoprime to every base tried, so the test refuses it rather than call it prime
    assert MR_BOUND == 399165290221 * 798330580441
    with pytest.raises(InputError, match=str(MR_BOUND)):
        is_prime(MR_BOUND)


def test_construction_polynomial_overrides():
    # an explicit valid override is honored verbatim
    tw = tower_create(2, 1, 3, m_q=[1, 1, 0, 1])  # y^3 + y + 1, irreducible
    assert tw.m_q.encode() == [1, 1, 0, 1]
    assert tw.q == 8
    # arithmetic still satisfies x^q = x
    for x in tw.fq.elements():
        assert tw.fq.pow(x, 8) == x


def test_extension_field_for_oracle():
    tw = tower(2, 1, 2)
    ext = tw.extension(2)  # F_16 over F_4
    assert ext.size == 16
    assert tw.extension(1) is tw.fq
    # flatten/unflatten round trip through F_r coordinates
    for i in range(16):
        x = ext.from_index(i)
        assert tw.from_r_coords(ext, tw.r_coords(ext, x)) == x
