import random
from itertools import product

import pytest

from addpoly import frobjordan
from addpoly.additive import AdditivePoly, central_to_upoly, compose, minimal_central_left_component
from addpoly.errors import ExtensionTooLarge, InputError, InternalInconsistency
from addpoly.frobjordan import (
    RationalJordanForm,
    Species,
    _nullity_sequence,
    lambdas_from_nullities,
    rational_jordan_form,
)
from addpoly.oracle import minpoly_of_matrix, root_space, species_from_matrix
from addpoly.upoly import UPoly, factor
from corpus import additive, all_monic_squarefree, audit_towers, tower, x_rpow_plus_x
from helpers import (
    block_matrix,
    companion_matrix,
    jordan_block,
    nullity_sequence,
    nullity_sequence_by_powers,
    random_additive,
    realize_species,
)

T2 = tower(2, 1, 1)
T4 = tower(2, 1, 2)
F2 = T2.fr
F3 = tower(3, 1, 1).fr


def upoly_of(field, *idxs):
    return UPoly(field, [field.from_index(i) for i in idxs])


def test_species_canonicalization():
    s = Species.make([(1, (2, 0, 1, 0)), (1, (1,)), (2, (1,))])
    assert s.entries == ((1, (1,)), (1, (2, 0, 1)), (2, (1,)))
    assert s.dimension() == 1 + (2 + 3) + 2
    with pytest.raises(InputError):
        Species.make([(1, (0, 0))])


def test_rjf_of_x4_plus_x_over_f4():
    form = rational_jordan_form(x_rpow_plus_x(T4, 2))
    assert form.species == Species.make([(1, (2,))])
    assert form.nullities == ((0, 2, 2),)


def test_rjf_of_x16_plus_x_over_f4():
    form = rational_jordan_form(x_rpow_plus_x(T4, 4))
    assert form.species == Species.make([(1, (0, 2))])
    assert form.nullities == ((0, 2, 4, 4),)
    [(u, orders)] = form.blocks
    assert u == upoly_of(F2, 1, 1) and orders == (2, 2)


def test_rjf_of_x2_plus_gx():
    f = AdditivePoly(T4, (T4.fq.from_index(2), T4.fq.one))
    form = rational_jordan_form(f)
    assert form.species == Species.make([(1, (1,))])


def test_rjf_rejects_bad_inputs():
    with pytest.raises(InputError):
        rational_jordan_form(additive(T2, 0, 1))  # not squarefree
    with pytest.raises(InputError):
        rational_jordan_form(AdditivePoly.identity(T2))  # exponent 0


def test_nullity_sequence_contract():
    f = x_rpow_plus_x(T4, 4)
    u = upoly_of(F2, 1, 1)
    assert nullity_sequence(f, u, 2) == [0, 2, 4, 4]
    with pytest.raises(InputError):
        nullity_sequence(f, u, 1)  # wrong multiplicity
    with pytest.raises(InputError):
        nullity_sequence(f, upoly_of(F2, 1, 1, 1), 1)  # not an eigenfactor
    f44 = x_rpow_plus_x(T4, 2)
    assert nullity_sequence(f44, u, 1) == [0, 2, 2]


def _peel_cases():
    """(f, whether some eigenfactor of f has multiplicity >= 2) for the peeled nullity test."""
    g = T4.fq.from_index(2)  # the generator of F_4, not in F_2
    for n in (8, 16):
        yield AdditivePoly(T4, [g] + [T4.fq.zero] * (n - 1) + [T4.fq.one]), True  # x^(2^n) + g x
    yield x_rpow_plus_x(T4, 12), True  # x^(q^6) + x, central: (y + 1)^2 (y^2 + y + 1)^2
    t322 = tower(3, 2, 2)
    minus_one = t322.fq.neg(t322.fq.one)
    yield AdditivePoly(t322, [minus_one] + [t322.fq.zero] * 5 + [t322.fq.one]), True  # x^(q^3) - x: (y - 1)^3
    for shape, n in (((3, 2, 2), 8), ((2, 2, 2), 16), ((2, 1, 2), 24), ((3, 1, 2), 12), ((2, 1, 3), 12)):
        for seed in range(3):
            yield random_additive(tower(*shape), n, random.Random(seed)), False


def test_peeled_nullities_match_the_powers_of_each_eigenfactor():
    for f, repeated in _peel_cases():
        mults = []
        for u, mult in factor(central_to_upoly(minimal_central_left_component(f))):
            assert _nullity_sequence(f, u, mult) == nullity_sequence_by_powers(f, u, mult), (f, u, mult)
            mults.append(mult)
        assert not repeated or max(mults) >= 2


def test_peel_rejects_a_gcrc_that_is_not_a_right_component(monkeypatch):
    # h + x has h's exponent and leading coefficient, so h / (h + x) leaves the remainder -x
    monkeypatch.setattr(frobjordan, "gcrc", lambda h, big_u: h + AdditivePoly.identity(h.tower))
    with pytest.raises(InternalInconsistency, match="not a right component"):
        _nullity_sequence(x_rpow_plus_x(T4, 4), upoly_of(F2, 1, 1), 2)
    f = x_rpow_plus_x(tower(2, 2, 2), 48)  # a random f of this tower is cyclic and runs no peel
    assert central_to_upoly(minimal_central_left_component(f)).degree < f.exponent
    with pytest.raises(InternalInconsistency, match="not a right component"):
        rational_jordan_form(f)


def test_lambdas_from_nullities():
    assert lambdas_from_nullities((0, 2, 4, 4), 1) == [0, 2]
    assert lambdas_from_nullities((0, 2, 2), 1) == [2]
    assert lambdas_from_nullities((0, 2, 2), 2) == [1]
    from addpoly.errors import InternalInconsistency

    with pytest.raises(InternalInconsistency):
        lambdas_from_nullities((0, 3, 4, 4), 2)  # non-integral division


def test_companion_and_jordan_blocks():
    assert companion_matrix(upoly_of(F3, 1, 0, 1)) != []
    # u = y - a: 1x1 block (a)
    a = F3.from_index(2)
    assert companion_matrix(UPoly(F3, (F3.neg(a), F3.one))) == [[a]]
    # companion of y^2+y+1 over F_2: columns (0,1)^T and (-a0,-a1)^T = (1,1)^T
    assert companion_matrix(upoly_of(F2, 1, 1, 1)) == [[0, 1], [1, 1]]
    # order-2 block for y+1 over F_2 is the classic Jordan block
    assert jordan_block(upoly_of(F2, 1, 1), 2) == [[1, 1], [0, 1]]


def test_block_matrix_layout():
    form = realize_species(F2, Species.make([(1, (0, 1)), (2, (1,))]))
    mat = block_matrix(form)
    assert len(mat) == 4
    assert species_from_matrix(F2, mat) == form.species


def test_ddf_insufficiency_witness():
    # two forms with equal minimal polynomial but distinct species
    a, b = F3.from_index(1), F3.from_index(2)
    mat_a = [[0] * 4 for _ in range(4)]
    mat_b = [[0] * 4 for _ in range(4)]
    for i, v in enumerate((a, a, a, b)):
        mat_a[i][i] = v
    for i, v in enumerate((a, a, b, b)):
        mat_b[i][i] = v
    assert minpoly_of_matrix(F3, mat_a) == minpoly_of_matrix(F3, mat_b)
    sa = species_from_matrix(F3, mat_a)
    sb = species_from_matrix(F3, mat_b)
    assert sa == Species.make([(1, (3,)), (1, (1,))])
    assert sb == Species.make([(1, (2,)), (1, (2,))])
    assert sa != sb


def _reachable_corpus(max_n=3):
    for tw in audit_towers():
        bound = 16 // (tw.e * tw.k)
        for n in range(1, max_n + 1):
            for f in all_monic_squarefree(tw, n):
                try:
                    space = root_space(f, max_ext=bound)
                except ExtensionTooLarge:
                    continue
                yield tw, f, space


def test_minimal_polynomial_identity_on_corpus():
    count = 0
    for tw, f, space in _reachable_corpus(max_n=2):
        tau = central_to_upoly(minimal_central_left_component(f))
        assert minpoly_of_matrix(tw.fr, space.frobenius_matrix) == tau
        form = rational_jordan_form(f)
        assert form.minimal_polynomial() == tau
        count += 1
    assert count > 20


def test_species_agreement_and_dimension_audit():
    for tw, f, space in _reachable_corpus(max_n=2):
        form = rational_jordan_form(f)
        assert form.dimension() == f.exponent
        assert species_from_matrix(tw.fr, space.frobenius_matrix) == form.species


def _k1_cases():
    for p, e in ((2, 1), (3, 1), (2, 2)):
        tw = tower(p, e, 1)
        for n in range(1, 5):
            yield from all_monic_squarefree(tw, n)
    for n in range(1, 65):
        yield x_rpow_plus_x(T2, n)


def test_skew_path_agrees_with_the_k1_read_off():
    # At k = 1, rational_jordan_form skips mclc and the gcrc nullities; the
    # skew algorithm must still give f* = f and the closed-form nullities.
    checked = 0
    for f in _k1_cases():
        tau = UPoly(f.tower.fr, f.coeffs)
        assert central_to_upoly(minimal_central_left_component(f)) == tau
        for u, mult in factor(tau):
            closed = [u.degree * min(j, mult) for j in range(mult + 2)]
            assert _nullity_sequence(f, u, mult) == closed, (f, u, mult)
        checked += 1
    assert checked == 15 + 80 + 255 + 64


def _skew_cases():
    """Random f, x^(r^n) + x and g o g over every tower of the skew property suites (all k > 1)."""
    from test_skew_properties import SKEW_TOWERS

    for shape in SKEW_TOWERS:
        tw = tower(*shape)
        yield from (random_additive(tw, n, random.Random(seed)) for n in range(1, 9) for seed in range(4))
        yield from (x_rpow_plus_x(tw, n) for n in range(1, 9))
        for n, seed in product(range(1, 5), range(2)):
            g = random_additive(tw, n, random.Random(seed))
            yield compose(g, g)


def test_peel_agrees_with_the_cyclic_read_off_at_k_above_1():
    # deg tau(f*) = n makes the root space cyclic, and rational_jordan_form reads its nullities
    # off the factorization of tau(f*); the peel must give the same sequences. Every other f peels.
    cyclic, repeated, peeled = 0, 0, 0
    for f in _skew_cases():
        tau = central_to_upoly(minimal_central_left_component(f))
        factors = factor(tau)
        nullities = tuple(tuple(_nullity_sequence(f, u, mult)) for u, mult in factors)
        assert rational_jordan_form(f).nullities == nullities, f
        if tau.degree == f.exponent:
            closed = tuple(tuple(u.degree * min(j, mult) for j in range(mult + 2)) for u, mult in factors)
            assert nullities == closed, f
            cyclic += 1
            repeated += max(mult for _, mult in factors) >= 2
        else:
            peeled += 1
    assert (cyclic, repeated, peeled) == (508, 162, 68)


def test_oracle_agrees_on_cyclic_root_spaces_at_k_above_1():
    checked, long_blocks = 0, 0
    for shape in ((2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)):
        tw = tower(*shape)
        for n, seed in product(range(1, 5), range(4)):
            f = random_additive(tw, n, random.Random(seed))
            if central_to_upoly(minimal_central_left_component(f)).degree < n:
                continue
            try:
                space = root_space(f, max_ext=16 // (tw.e * tw.k))
            except ExtensionTooLarge:
                continue
            form = rational_jordan_form(f)
            assert species_from_matrix(tw.fr, space.frobenius_matrix) == form.species, f
            checked += 1
            long_blocks += max(orders[0] for _, orders in form.blocks) >= 2
    assert (checked, long_blocks) == (44, 11)
