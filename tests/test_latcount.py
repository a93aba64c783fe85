import time
from math import comb

import pytest

from addpoly.additive import AdditivePoly, compose
from addpoly.errors import BudgetExceeded, InputError
from addpoly.frobjordan import Species, rational_jordan_form
from addpoly.latcount import (
    CHAIN_STATE_BUDGET,
    _chains,
    _sub_signatures,
    count_chains,
    count_lines,
    count_right_components,
    generating_function,
    mhat,
    ore_criterion_count,
    q_bracket,
)
from corpus import additive, all_monic_squarefree, tower, x_rpow_plus_x
from helpers import chains_by_recursion, depth_counts, partitions, quotient_species, signatures

T2 = tower(2, 1, 1)
T4 = tower(2, 1, 2)

# the eight similarity classes in dimension 3, with line and chain counts
TABLE_DIM3 = [
    ([(1, (3,))], lambda r: r * r + r + 1, lambda r: (r * r + r + 1) * (r + 1)),
    ([(1, (0, 1)), (1, (1,))], lambda r: 2, lambda r: 3),
    ([(1, (0, 0, 1))], lambda r: 1, lambda r: 1),
    ([(1, (1, 1))], lambda r: r + 1, lambda r: 2 * r + 1),
    ([(1, (2,)), (1, (1,))], lambda r: r + 2, lambda r: 3 * (r + 1)),
    ([(3, (1,))], lambda r: 0, lambda r: 1),
    ([(1, (1,)), (2, (1,))], lambda r: 1, lambda r: 2),
    ([(1, (1,)), (1, (1,)), (1, (1,))], lambda r: 3, lambda r: 6),
]


def test_q_bracket():
    assert q_bracket(3, 2) == 7
    assert q_bracket(1, 17) == 1
    assert q_bracket(2, 4) == 5
    assert q_bracket(0, 3) == 0
    with pytest.raises(InputError):
        q_bracket(-1, 2)


def test_count_lines_examples():
    assert count_lines(Species.make([(1, (3,))]), 2) == 7
    assert count_lines(Species.make([(3, (1,))]), 5) == 0
    assert count_lines(Species.make([(1, (1,)), (2, (1,))]), 7) == 1


def test_generating_function_examples():
    assert list(generating_function(Species.make([(1, (3,))]), 2)) == [1, 7, 7, 1]
    assert list(generating_function(Species.make([(2, (1,))]), 3)) == [1, 0, 1]
    assert list(generating_function(Species.make([(1, (1, 1))]), 2)) == [1, 3, 3, 1]


def test_generating_function_dimension_8_and_base_16():
    # two Jordan blocks of size 4 over GF(2), and one eigenfactor counted over GF(16)
    two_blocks_of_4 = generating_function(Species.make([(1, (0, 0, 0, 2))]), 2)
    assert list(two_blocks_of_4) == [1, 3, 7, 15, 31, 15, 7, 3, 1]
    assert list(generating_function(Species.make([(4, (1,))]), 2)) == [1, 0, 0, 0, 1]


def test_count_chains_examples():
    assert count_chains(Species.make([(1, (3,))]), 2) == 21
    assert count_chains(Species.make([(1, (0, 0, 1))]), 7) == 1
    assert count_chains(Species.make([(1, (2,)), (2, (2,))]), 2) == 90
    assert count_chains(Species.make([(1, (0, 0, 0, 2))]), 2) == 543
    # the dimension-72 species of x^(2^72) + x over the tower (2, 1, 3)
    x72 = Species.make([(1, (0,) * 7 + (3,)), (2, (0,) * 7 + (3,))])
    assert x72.dimension() == 72
    assert count_chains(x72, 2) == 7038908264385229280728265630682285852609473894962500


def test_depth_and_quotient():
    assert depth_counts((1, 1), 1, 3) == 3
    assert depth_counts((1, 1), 2, 3) == 1
    assert quotient_species((1, 1), 2) == (2,)
    assert depth_counts((0, 2), 1, 2) == 0
    assert quotient_species((2, 1), 1) == (1, 1)
    with pytest.raises(InputError):
        quotient_species((0, 2), 1)


def box(order, blocks):
    """The signature of `blocks` Jordan blocks, all of one order."""
    return (0,) * (order - 1) + (blocks,)


def test_chain_walk_equals_the_recursion_up_to_dimension_12():
    for dim in range(13):
        for lam in signatures(dim):
            for base in (2, 3, 4, 9):
                assert _chains(lam, base) == chains_by_recursion(lam, base), (lam, base)


@pytest.mark.parametrize("b", [2, 3])
def test_two_blocks_of_one_order(b):
    # closed forms in b for two blocks of order E over F_b (fitted to counts at several b),
    # pinned as polynomials rather than taken from the walk or the recursion
    for order, expected in (
        (2, (b + 1) * (2 * b + 1)),
        (3, (b + 1) * (5 * b**2 + 4 * b + 1)),
        (4, (b + 1) * (14 * b**3 + 14 * b**2 + 6 * b + 1)),
    ):
        assert count_chains(Species.make([(1, box(order, 2))]), b) == expected


def test_sub_signatures_count_the_states_the_recursion_memoizes():
    assert _sub_signatures(()) == 1
    for order in range(1, 10):
        for blocks in range(6):
            assert _sub_signatures(box(order, blocks)) == comb(order + blocks, blocks)
    for dim in range(9):
        for lam in signatures(dim):
            chains_by_recursion.cache_clear()
            chains_by_recursion(lam, 2)
            assert _sub_signatures(lam) == chains_by_recursion.cache_info().currsize, lam


def test_count_chains_refuses_past_its_state_budget_before_walking(monkeypatch):
    import addpoly.latcount as latcount

    def no_walk(lam, base):
        raise AssertionError("the walk ran past its budget")

    monkeypatch.setattr(latcount, "_chains", no_walk)
    # eight blocks of order 16: C(24, 8) = 735471 sub-signatures
    with pytest.raises(BudgetExceeded) as refused:
        count_chains(Species.make([(1, box(16, 8))]), 2)
    assert (refused.value.budget, refused.value.limit, refused.value.requested) == ("chain states", CHAIN_STATE_BUDGET, 735471)
    # the states add up over eigenfactors: one of C(22, 6) is admitted, two are refused
    assert 2 * comb(22, 6) > CHAIN_STATE_BUDGET >= comb(22, 6)
    with pytest.raises(BudgetExceeded):
        count_chains(Species.make([(1, box(16, 6)), (2, box(16, 6))]), 2)
    monkeypatch.setattr(latcount, "_chains", lambda lam, base: 1)
    assert count_chains(Species.make([(1, box(16, 6))]), 2) == 1


def test_table_dim3_sweep():
    for r in (2, 3):
        for items, lines_fn, chains_fn in TABLE_DIM3:
            species = Species.make(items)
            assert count_lines(species, r) == lines_fn(r)
            assert count_chains(species, r) == chains_fn(r)
            # a degree-3 eigenfactor counts over GF(r^3)
            g = generating_function(species, r)
            assert g[1] == g[2] == lines_fn(r)
            assert g[0] == g[3] == 1


def test_count_right_components_edges():
    f = x_rpow_plus_x(T4, 4)
    assert count_right_components(f, -1) == 0
    assert count_right_components(f, 0) == 1
    assert count_right_components(f, 4) == 1
    assert count_right_components(f, 5) == 0
    assert count_right_components(f, 1) == 3  # species {(1;0,2)}: [2]_2 = 3


def test_count_right_components_general_examples():
    fbar = additive(T2, 0, 1, 1)  # x^4 + x^2
    assert count_right_components(fbar, 1) == 2
    assert count_right_components(fbar, 2) == 1
    # above exponent everything is empty
    assert count_right_components(fbar, 3) == 0
    assert count_right_components(fbar, -1) == 0


def test_count_right_components_general_brute_crosscheck():
    # enumerate exponent-d monic right components of x^4 + x^2 directly
    from itertools import product

    from addpoly.additive import right_divmod

    fbar = additive(T2, 0, 1, 1)
    for d in (0, 1, 2, 3):
        count = 0
        for idxs in product(range(2), repeat=d):
            h = AdditivePoly(T2, [T2.fq.from_index(i) for i in idxs] + [T2.fq.one])
            if right_divmod(fbar, h)[1].is_zero:
                count += 1
        assert count == count_right_components(fbar, d)


def test_partitions_and_mhat():
    assert sorted(partitions(4)) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert mhat(0, 2) == {0}
    assert mhat(2, 5) == {0, 1, 2, 6}
    assert mhat(3, 2) == {0, 1, 2, 3, 4, 7}


def test_mhat_is_the_set_of_bracket_sums_of_partitions():
    for r in (2, 3, 4, 8):
        listed = {0}
        for n in range(21):
            listed |= {sum(q_bracket(j, r) for j in part) for part in partitions(n)}
            assert mhat(n, r) == listed, (n, r)


def test_mhat_partition_budget_refuses_from_n_42():
    assert len(mhat(41, 2)) > 0
    with pytest.raises(BudgetExceeded):
        mhat(42, 2)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        mhat(10**9, 2)
    assert time.perf_counter() - start < 1


def test_mhat_contains_all_line_counts_exhaustive():
    # every achievable exponent-1 component count lies in the superset,
    # over both q = 2 and q = 4 with r = 2, for every exponent up to 4
    for tw in (T2, T4):
        for n in range(1, 5):
            allowed = mhat(n, 2)
            for f in all_monic_squarefree(tw, n):
                assert count_right_components(f, 1) in allowed


def test_ore_criterion_examples():
    t44 = tower(2, 2, 1)
    f = x_rpow_plus_x(t44, 2)  # x^16 + x with r = 4
    assert ore_criterion_count(f) == 1
    assert ore_criterion_count(f) == count_right_components(f, 1)
    # a square has no exponent-1 components other than ... none squarefree here:
    # f = x^4 + x^2 + x over F_2 has pi_1 = x^3 + x + 1 with no roots in F_2*
    f = additive(T2, 1, 1, 1)
    assert ore_criterion_count(f) == 0
    assert count_right_components(f, 1) == 0


def test_ore_criterion_matches_species_lines():
    for tw in (T2, T4):
        for n in range(1, 5):
            for f in all_monic_squarefree(tw, n):
                assert ore_criterion_count(f) == count_right_components(f, 1)


def test_generating_function_palindrome_on_pipeline():
    for tw in (T2, T4):
        for n in range(1, 5):
            for f in all_monic_squarefree(tw, n):
                species = rational_jordan_form(f).species
                g = generating_function(species, tw.r)
                assert list(g) == list(reversed(g))
                assert g[0] == g[species.dimension()] == 1
