import random
import time

import pytest

from addpoly.errors import InputError, InternalInconsistency, Overflow
from addpoly.upoly import (
    UPoly,
    _equal_degree,
    factor,
    gcd,
    irreducible_polynomial,
    is_irreducible,
    order_of_y_mod,
    powmod,
    random_upoly,
    roots,
    squarefree_decomposition,
)
from corpus import tower
from helpers import ben_or_is_irreducible


def upoly(tw_field, *idxs):
    return UPoly(tw_field, [tw_field.from_index(i) for i in idxs])


F2 = tower(2, 1, 1).fr
F3 = tower(3, 1, 1).fr


def test_factor_examples():
    # y^3 - 1 = (y+1)(y^2+y+1) over F_2
    got = factor(upoly(F2, 1, 0, 0, 1))
    assert got == [(upoly(F2, 1, 1), 1), (upoly(F2, 1, 1, 1), 1)]
    # y^2 = y * y
    assert factor(upoly(F2, 0, 0, 1)) == [(upoly(F2, 0, 1), 2)]
    # y^4 + 1 = (y+1)^4 in characteristic 2
    assert factor(upoly(F2, 1, 0, 0, 0, 1)) == [(upoly(F2, 1, 1), 4)]


def test_factor_zero_errors():
    with pytest.raises(InputError):
        factor(UPoly.zero(F2))


def test_factor_reexpansion_and_determinism():
    fields = [F2, F3, tower(2, 2, 1).fr]
    rng = random.Random(11)
    for trial in range(500):
        field = fields[trial % 3]
        u = random_upoly(field, rng.randrange(1, 13), rng, monic=False)
        fac = factor(u)
        again = factor(u)
        assert fac == again
        prod = UPoly(field, [u.lc])
        for poly, mult in fac:
            assert poly.is_monic and is_irreducible(poly)
            prod = prod * poly**mult
        assert prod == u


def test_factor_over_odd_extension_field():
    # equal-degree splitting in odd characteristic over a proper extension
    F9 = tower(3, 2, 1).fr
    rng = random.Random(13)
    for trial in range(40):
        u = random_upoly(F9, rng.randrange(1, 8), rng, monic=False)
        prod = UPoly(F9, [u.lc])
        for poly, mult in factor(u):
            assert poly.is_monic and is_irreducible(poly)
            prod = prod * poly**mult
        assert prod == u


def test_is_irreducible_examples():
    assert is_irreducible(upoly(F2, 1, 1, 1))  # y^2+y+1 over F_2
    assert not is_irreducible(upoly(F2, 1, 0, 1))  # (y+1)^2
    # y^2 + 1 over F_3: exhaustive root-check oracle, then the fast test
    u = upoly(F3, 1, 0, 1)
    assert all(u.evaluate(a) != F3.zero for a in F3.elements())
    assert is_irreducible(u)
    with pytest.raises(InputError):
        is_irreducible(UPoly.one(F2))


@pytest.mark.parametrize("field, max_degree", [(F3, 5), (tower(2, 2, 1).fr, 3)], ids=["F3", "F4"])
def test_is_irreducible_agrees_with_a_separate_ben_or_loop(field, max_degree):
    # every monic polynomial up to max_degree, the non-squarefree ones included
    for degree in range(1, max_degree + 1):
        for index in range(field.size**degree):
            low = [field.from_index(index // field.size**i % field.size) for i in range(degree)]
            u = UPoly(field, low + [field.one])
            assert is_irreducible(u) == ben_or_is_irreducible(u), u


def test_order_of_y_examples():
    assert order_of_y_mod(upoly(F2, 1, 1)) == 1  # y = 1 mod y+1
    assert order_of_y_mod(upoly(F2, 1, 1, 1)) == 3
    # (y+1)^2 = y^2+1: y^2 = 1 mod u but y != 1; verified by direct division
    u = upoly(F2, 1, 0, 1)
    assert (upoly(F2, 0, 0, 1) - UPoly.one(F2)) % u == UPoly.zero(F2)
    assert order_of_y_mod(u) == 2
    with pytest.raises(InputError):
        order_of_y_mod(upoly(F2, 0, 1))  # divisible by y
    with pytest.raises(Overflow):
        order_of_y_mod(upoly(F2, 1, 1, 1), cap=2)


def test_divmod_roundtrip_random():
    rng = random.Random(3)
    for field in (F2, F3, tower(2, 2, 1).fr):
        for _ in range(100):
            a = random_upoly(field, rng.randrange(0, 10), rng, monic=False)
            b = random_upoly(field, rng.randrange(0, 6), rng, monic=False)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_gcd_and_powmod():
    u = upoly(F2, 1, 1) * upoly(F2, 1, 1, 1)
    v = upoly(F2, 1, 1) * upoly(F2, 0, 1)
    assert gcd(u, v) == upoly(F2, 1, 1)
    mod = upoly(F2, 1, 1, 1)
    assert powmod(UPoly.y(F2), 4, mod) == UPoly.y(F2)  # y^4 = y in F_4 = F_2[y]/(y^2+y+1)


@pytest.mark.parametrize(
    "roots_, extra, d",
    [((), [2, 0, 1], 1), ((0, 1, 2, 3), [1], 2)],
    ids=["irreducible-quadratic-at-d1", "linear-factors-at-d2"],
)
def test_equal_degree_refuses_a_part_that_is_not_of_degree_d(roots_, extra, d):
    # y^2 + 2 over F_5 never splits at d = 1; y(y+1)(y+2)(y+3) at d = 2 splits into odd degrees
    F5 = tower(5, 1, 1).fr
    g = UPoly(F5, extra)
    for a in roots_:
        g = g * UPoly(F5, [-a % 5, 1])
    start = time.perf_counter()
    with pytest.raises(InternalInconsistency):
        _equal_degree(g, d, random.Random(0))
    assert time.perf_counter() - start < 1


def test_squarefree_decomposition_mixed():
    u = upoly(F2, 1, 1) ** 6 * upoly(F2, 1, 1, 1) ** 2 * upoly(F2, 0, 1)
    parts = dict((m, p) for p, m in squarefree_decomposition(u))
    prod = UPoly.one(F2)
    for poly, mult in squarefree_decomposition(u):
        prod = prod * poly**mult
    assert prod == u
    assert parts[6] == upoly(F2, 1, 1)
    assert parts[1] == upoly(F2, 0, 1)


def test_derivative_and_eval():
    u = upoly(F3, 1, 2, 0, 1)  # y^3 + 2y + 1
    du = u.derivative()
    assert du == upoly(F3, 2)  # 3y^2 + 2 = 2 over F_3
    assert u.evaluate(F3.from_index(1)) == F3.from_index(1)


def test_roots_enumeration():
    u = upoly(F3, 1, 0, 1)  # no roots over F_3
    assert roots(u) == []
    v = upoly(F3, 2, 0, 1)  # y^2 + 2 = y^2 - 1 = (y-1)(y+1)
    assert sorted(F3.to_index(a) for a in roots(v)) == [1, 2]


def test_irreducible_polynomial_lex():
    assert irreducible_polynomial(F2, 1) == upoly(F2, 0, 1)
    assert irreducible_polynomial(F2, 2) == upoly(F2, 1, 1, 1)
    # (1,0,1,1) precedes (1,1,0,1) low-to-high; y^3+y^2+1 has no roots in F_2
    assert irreducible_polynomial(F2, 3) == upoly(F2, 1, 0, 1, 1)


def test_karatsuba_threshold_consistency():
    rng = random.Random(5)
    for _ in range(10):
        a = random_upoly(F3, 70, rng)
        b = random_upoly(F3, 45, rng)
        prod = a * b
        # compare against an independent convolution
        out = [0] * (a.degree + b.degree + 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] = (out[i + j] + x * y) % 3
        assert list(prod.coeffs) == out
