import random

import pytest

from addpoly.additive import (
    AdditivePoly,
    central_to_upoly,
    compose,
    evaluate,
    gcrc,
    minimal_central_left_component,
    projective_part,
    right_divmod,
    strip_inseparable,
    subadditive_image,
    upoly_to_central,
)
from addpoly.errors import InputError, NotCentral
from addpoly.upoly import UPoly, random_upoly
from corpus import additive, all_monic_squarefree, tower, x_rpow_plus_x
from helpers import brute_components, is_central, left_divmod, random_additive, substitute, to_dense

T2 = tower(2, 1, 1)
T4 = tower(2, 1, 2)
T44 = tower(2, 2, 1)


def upoly_of(field, *idxs):
    return UPoly(field, [field.from_index(i) for i in idxs])


def test_compose_examples():
    # x^r o x^r = x^(r^2)
    assert compose(additive(T2, 0, 1), additive(T2, 0, 1)) == additive(T2, 0, 0, 1)
    # (x^2+x) o (x^2+x) = x^4 + x over F_2
    f = additive(T2, 1, 1)
    assert compose(f, f) == additive(T2, 1, 0, 1)
    # x is the identity on both sides
    g = additive(T4, 2, 3, 1)
    x = AdditivePoly.identity(T4)
    assert compose(x, g) == g and compose(g, x) == g


def test_additive_json_roundtrip():
    rng = random.Random(61)
    for tw in (T2, T4, T44):
        for _ in range(10):
            f = random_additive(tw, rng.randrange(0, 5), rng, monic=False, squarefree=False)
            assert AdditivePoly.from_json(tw, f.to_json()) == f
    with pytest.raises(InputError):
        AdditivePoly.from_json(T4, {"r_exp": 2, "coeffs": [[1, 0]]})


def test_compose_matches_dense_substitution():
    # the skew product must agree with plain polynomial composition
    rng = random.Random(53)
    for tw in (T2, T4, T44):
        for _ in range(20):
            g = random_additive(tw, rng.randrange(0, 3), rng, monic=False, squarefree=False)
            h = random_additive(tw, rng.randrange(0, 3), rng, monic=False, squarefree=False)
            assert to_dense(compose(g, h)) == substitute(to_dense(g), to_dense(h))


def test_evaluate_matches_dense_evaluation():
    rng = random.Random(59)
    for tw in (T4, T44):
        for _ in range(20):
            f = random_additive(tw, rng.randrange(0, 4), rng, monic=False, squarefree=False)
            a = tw.fq.random(rng)
            assert evaluate(f, a) == to_dense(f).evaluate(a)


def test_compose_associative_sampled():
    rng = random.Random(17)
    for tw in (T2, T4, T44):
        for _ in range(67):
            a = random_additive(tw, rng.randrange(0, 4), rng, monic=False, squarefree=False)
            b = random_additive(tw, rng.randrange(0, 4), rng, monic=False, squarefree=False)
            c = random_additive(tw, rng.randrange(0, 4), rng, monic=False, squarefree=False)
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3), (2, 1, 256)])
def test_list_twists_are_the_r_power_frobenius_iterated(shape):
    # F_81, F_512 and F_(2^256) have no byte tables, so twist s is twist s - 1 raised to r
    from addpoly.additive import _twists

    tw = tower(*shape)
    fq, r, order = tw.fq, tw.r, tw.sigma_r_order(tw.fq)
    assert not fq.frobs
    rng = random.Random(sum(shape))
    coeffs = [fq.random(rng) for _ in range(4)]
    twists = _twists(tw, coeffs, order + 2)  # no more than the order: then they repeat
    assert twists == [[fq.pow(c, r**s) for c in coeffs] for s in range(order)]


def test_right_divmod_examples():
    f, h = additive(T2, 1, 0, 1), additive(T2, 1, 1)
    g, rem = right_divmod(f, h)
    assert g == additive(T2, 1, 1) and rem.is_zero
    g, rem = right_divmod(h, h)
    assert g == AdditivePoly.identity(T2) and rem.is_zero
    # f = x^2+x, h = x^2: quotient x, remainder x; certified by recomposition
    f, h = additive(T2, 1, 1), additive(T2, 0, 1)
    g, rem = right_divmod(f, h)
    assert g == AdditivePoly.identity(T2) and rem == AdditivePoly.identity(T2)
    assert compose(g, h) + rem == f
    with pytest.raises(ZeroDivisionError):
        right_divmod(f, AdditivePoly.zero(T2))


def test_right_divmod_roundtrip_random():
    rng = random.Random(23)
    towers = (T2, T4, T44, tower(3, 1, 1))
    for trial in range(500):
        tw = towers[trial % len(towers)]
        f = random_additive(tw, rng.randrange(0, 7), rng, monic=False, squarefree=False)
        h = random_additive(tw, rng.randrange(0, 5), rng, monic=False, squarefree=False)
        if h.is_zero:
            continue
        g, rem = right_divmod(f, h)
        assert compose(g, h) + rem == f
        assert rem.exponent < h.exponent


def test_left_divmod_roundtrip_random():
    rng = random.Random(29)
    towers = (T2, T4, T44)
    for trial in range(200):
        tw = towers[trial % len(towers)]
        f = random_additive(tw, rng.randrange(0, 7), rng, monic=False, squarefree=False)
        h = random_additive(tw, rng.randrange(0, 5), rng, monic=False, squarefree=False)
        if h.is_zero:
            continue
        g, rem = left_divmod(f, h)
        assert compose(h, g) + rem == f
        assert rem.exponent < h.exponent


def test_divisibility_matches_dense_polynomials():
    # zero skew remainder iff plain polynomial divisibility, on small exhaustive sets
    for tw in (T2, T4):
        for f in all_monic_squarefree(tw, 2):
            for h in all_monic_squarefree(tw, 1):
                skew_divides = right_divmod(f, h)[1].is_zero
                dense_divides = (to_dense(f) % to_dense(h)).is_zero
                assert skew_divides == dense_divides


def test_gcrc_examples():
    f = additive(T4, 2, 3, 1)
    assert gcrc(f, f) == f.monic()
    assert gcrc(additive(T2, 1, 0, 1), additive(T2, 1, 1)) == additive(T2, 1, 1)
    assert gcrc(additive(T2, 1, 1), additive(T2, 0, 1)) == AdditivePoly.identity(T2)
    with pytest.raises(InputError):
        gcrc(AdditivePoly.zero(T2), AdditivePoly.zero(T2))


def test_mclc_central_input_is_fixed():
    f = x_rpow_plus_x(T4, 2)  # x^4 + x, already central
    fstar = minimal_central_left_component(f)
    assert fstar == f
    assert central_to_upoly(fstar) == upoly_of(T4.fr, 1, 1)


def test_mclc_of_x2_plus_gx():
    g_elt = T4.fq.from_index(2)
    f = AdditivePoly(T4, (g_elt, T4.fq.one))
    fstar = minimal_central_left_component(f)
    assert fstar == x_rpow_plus_x(T4, 2)
    # direct expansion: (x^2 + g^2 x) o (x^2 + g x) = x^4 + x
    left = AdditivePoly(T4, (T4.fq.mul(g_elt, g_elt), T4.fq.one))
    assert compose(left, f) == x_rpow_plus_x(T4, 2)


def test_mclc_of_x16_plus_x():
    f = x_rpow_plus_x(T4, 4)
    fstar = minimal_central_left_component(f)
    assert fstar == f
    assert central_to_upoly(fstar) == upoly_of(T4.fr, 1, 0, 1)  # y^2 + 1 = (y+1)^2


def test_mclc_minimality_exhaustive_small():
    # no proper monic central left component of smaller exponent, k*n <= 8
    from itertools import product as iproduct

    for tw in (T4, T44):
        for n in (1, 2):
            for f in all_monic_squarefree(tw, n):
                fstar = minimal_central_left_component(f)
                assert right_divmod(fstar, f)[1].is_zero
                assert is_central(fstar)
                kq = tw.k
                for deg in range(0, fstar.exponent // kq):
                    for idxs in iproduct(range(tw.fr.size), repeat=deg):
                        u = UPoly(tw.fr, [tw.fr.from_index(i) for i in idxs] + [tw.fr.one])
                        cand = upoly_to_central(tw, u)
                        assert not right_divmod(cand, f)[1].is_zero


def test_mclc_rejects_bad_inputs():
    with pytest.raises(InputError):
        minimal_central_left_component(additive(T2, 1, 1).scale(T2.fq.zero))
    with pytest.raises(InputError):
        minimal_central_left_component(additive(T2, 0, 1))  # not squarefree
    g_elt = T4.fq.from_index(2)
    with pytest.raises(InputError):
        minimal_central_left_component(AdditivePoly(T4, (T4.fq.one, g_elt)))  # not monic


def test_tau_examples():
    # coefficient transport both ways
    assert central_to_upoly(x_rpow_plus_x(T4, 2)) == upoly_of(T4.fr, 1, 1)
    assert upoly_to_central(T4, upoly_of(T4.fr, 1, 0, 1)) == x_rpow_plus_x(T4, 4)
    with pytest.raises(NotCentral):
        central_to_upoly(additive(T4, 1, 1))  # support at x^2 is not a q-power
    with pytest.raises(NotCentral):
        central_to_upoly(additive(T4, 1, 0, 2))  # coefficient g is not in F_2


def test_tau_is_ring_isomorphism():
    c = x_rpow_plus_x(T4, 2)
    assert central_to_upoly(compose(c, c)) == central_to_upoly(c) * central_to_upoly(c)
    rng = random.Random(31)
    for tw in (T4, T44, T2):
        for _ in range(67):
            u = random_upoly(tw.fr, rng.randrange(0, 4), rng, monic=False)
            v = random_upoly(tw.fr, rng.randrange(0, 4), rng, monic=False)
            a, b = upoly_to_central(tw, u), upoly_to_central(tw, v)
            assert central_to_upoly(compose(a, b)) == u * v
            assert upoly_to_central(tw, u * v) == compose(a, b)


def test_strip_inseparable():
    f = additive(T2, 1, 1)
    assert strip_inseparable(f) == (0, f)
    # x^4 + x^2 = x^2 o (x^2 + x)
    assert strip_inseparable(additive(T2, 0, 1, 1)) == (1, additive(T2, 1, 1))
    assert strip_inseparable(additive(T2, 0, 0, 0, 0, 1)) == (4, AdditivePoly.identity(T2))
    # coefficients are r^m-th roots of the shifted ones, non-prime case
    g_elt = T44.fq.from_index(2)
    fbar = compose(AdditivePoly(T44, (T44.fq.zero, T44.fq.one)), AdditivePoly(T44, (g_elt, T44.fq.one)))
    m, f = strip_inseparable(fbar)
    assert m == 1 and f == AdditivePoly(T44, (g_elt, T44.fq.one))


def test_projective_and_subadditive():
    # r=4, t=3: the projective image of x^16 + x is x^5 + 1
    f = x_rpow_plus_x(T44, 2)
    assert projective_part(f, 3) == upoly_of(T44.fq, 1, 0, 0, 0, 0, 1)
    with pytest.raises(InputError):
        projective_part(f, 2)  # 2 does not divide r-1 = 3
    # rho_1 is the identity reparametrization: x * pi_1(f) is f as a plain polynomial
    rng = random.Random(37)
    for tw in (T2, T4):
        for _ in range(10):
            f = random_additive(tw, rng.randrange(1, 5), rng)
            assert subadditive_image(f, 1) == to_dense(f)
    # r=2 forces t=1 only: exponents (2^i - 1)
    assert projective_part(additive(T2, 1, 1), 1) == upoly_of(T2.fq, 1, 1)


def test_subadditive_intertwines_with_xt():
    # rho_t(f) o x^t = x^t o f as plain polynomials
    f = x_rpow_plus_x(T44, 2)
    t = 3
    rho = subadditive_image(f, t)
    xt = UPoly(T44.fq, [T44.fq.zero] * t + [T44.fq.one])
    assert substitute(rho, xt) == substitute(to_dense(f), UPoly.y(T44.fq)) ** t


def test_evaluate_examples():
    assert evaluate(additive(T2, 1, 1), T2.fq.one) == T2.fq.zero
    g_elt = T4.fq.from_index(2)
    f = AdditivePoly(T4, (g_elt, T4.fq.one))
    assert evaluate(f, g_elt) == T4.fq.zero
    rng = random.Random(41)
    for _ in range(20):
        f = random_additive(T4, 3, rng)
        assert evaluate(f, T4.fq.zero) == T4.fq.zero
        a, b = T4.fq.random(rng), T4.fq.random(rng)
        assert evaluate(f, T4.fq.add(a, b)) == T4.fq.add(evaluate(f, a), evaluate(f, b))


def test_component_bijection_with_projective_factors():
    # over F_4 with r = 4, t = 3: right components of exponent d correspond
    # exactly to monic factors of the projective image having projective shape
    from addpoly.errors import ExtensionTooLarge
    from addpoly.oracle import root_space

    rng = random.Random(43)
    polys = list(all_monic_squarefree(T44, 1))
    while len(polys) < 9:
        f = random_additive(T44, rng.choice((2, 3)), rng)
        try:
            root_space(f, max_ext=8)  # keep the sample inside desk-scale extensions
        except ExtensionTooLarge:
            continue
        polys.append(f)
    for f in polys:
        pf = projective_part(f, 3)
        for d in range(f.exponent + 1):
            brute = brute_components(root_space(f), d)
            images = set()
            for h in brute:
                ph = projective_part(h, 3)
                assert (pf % ph).is_zero
                images.add(ph)
            assert len(images) == len(brute)
            # conversely, every candidate with dividing projective image is a component
            from itertools import product as iproduct

            count = 0
            size = T44.fq.size
            for idxs in iproduct(range(size), repeat=d):
                h = AdditivePoly(
                    T44, [T44.fq.from_index(i) for i in idxs] + [T44.fq.one]
                )
                if h.is_squarefree or d == 0:
                    ph = projective_part(h, 3)
                    if not ph.is_zero and (pf % ph).is_zero:
                        count += 1
                        assert right_divmod(f, h)[1].is_zero
            assert count == len(brute)
