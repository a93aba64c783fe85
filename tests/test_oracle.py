import io
import json
import random
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly import linalg, oracle
from addpoly.additive import (
    AdditivePoly,
    central_to_upoly,
    compose,
    evaluate,
    minimal_central_left_component,
    right_divmod,
    upoly_to_central,
)
from addpoly.cli import main
from addpoly.errors import BudgetExceeded, ExtensionTooLarge, InputError
from addpoly.ffield import TABLE_SIZE
from addpoly.frobjordan import Species
from addpoly.gf2x import packed
from addpoly.latcount import (
    count_chains,
    count_right_components,
    generating_function,
)
from addpoly.oracle import (
    gaussian_binomial,
    invariant_subspaces,
    maximal_chains_brute,
    right_components_brute,
    right_components_by_division,
    root_space,
    species_from_matrix,
)
from addpoly.upoly import UPoly
from corpus import additive, all_monic, all_monic_squarefree, audit_towers, tower, x_rpow_plus_x
from helpers import (
    block_matrix,
    brute_components,
    companion_matrix,
    krylov_closure,
    minimal_invariant_subspaces_by_closures,
    order_of_y_mod,
    realize_species,
)

T2 = tower(2, 1, 1)
T4 = tower(2, 1, 2)
F2 = T2.fr
F3 = tower(3, 1, 1).fr


def upoly_of(field, *idxs):
    return UPoly(field, [field.from_index(i) for i in idxs])


def diag(field, *idxs):
    vals = [field.from_index(i) for i in idxs]
    n = len(vals)
    mat = [[field.zero] * n for _ in range(n)]
    for i, v in enumerate(vals):
        mat[i][i] = v
    return mat


def test_root_space_of_x4_plus_x():
    space = root_space(x_rpow_plus_x(T4, 2))
    assert space.ext_degree == 1
    assert len(space.basis) == 2
    assert space.frobenius_matrix == ((1, 0), (0, 1))


def test_root_space_of_x2_plus_gx():
    g = T4.fq.from_index(2)
    f = AdditivePoly(T4, (g, T4.fq.one))
    space = root_space(f)
    assert space.ext_degree == 1
    assert space.basis == (g,)
    assert space.frobenius_matrix == ((1,),)


def test_root_space_extension_degrees_and_cap():
    # additive images of primitive polynomials split only in huge extensions
    prim3 = upoly_of(F2, 1, 1, 0, 1)  # y^3+y+1, order 7
    assert order_of_y_mod(prim3, cap=100) == 7
    space = root_space(upoly_to_central(T2, prim3), max_ext=32)
    assert space.ext_degree == 7
    assert root_space(upoly_to_central(T2, prim3), max_ext=7).ext_degree == 7  # the cap is inclusive
    with pytest.raises(ExtensionTooLarge):
        root_space(upoly_to_central(T2, prim3), max_ext=6)

    prim5 = upoly_of(F2, 1, 0, 1, 0, 0, 1)  # y^5+y^2+1, order 31
    assert order_of_y_mod(prim5, cap=100) == 31
    assert root_space(upoly_to_central(T2, prim5), max_ext=32).ext_degree == 31

    prim6 = upoly_of(F2, 1, 1, 0, 0, 0, 0, 1)  # y^6+y+1, order 63
    assert order_of_y_mod(prim6, cap=100) == 63
    with pytest.raises(ExtensionTooLarge) as refused:
        root_space(upoly_to_central(T2, prim6), max_ext=32)
    assert (refused.value.budget, refused.value.limit, refused.value.requested) == ("max_ext", 32, 33)


def test_order_of_y_examples():
    assert order_of_y_mod(upoly_of(F2, 1, 1)) == 1  # y = 1 mod y+1
    assert order_of_y_mod(upoly_of(F2, 1, 1, 1)) == 3
    # (y+1)^2 = y^2+1: y^2 = 1 mod u but y != 1; verified by direct division
    u = upoly_of(F2, 1, 0, 1)
    assert (upoly_of(F2, 0, 0, 1) - UPoly.one(F2)) % u == UPoly.zero(F2)
    assert order_of_y_mod(u) == 2
    with pytest.raises(InputError):
        order_of_y_mod(upoly_of(F2, 0, 1))  # divisible by y
    with pytest.raises(BudgetExceeded):
        order_of_y_mod(upoly_of(F2, 1, 1, 1), cap=2)


@pytest.mark.parametrize(
    "key, coeffs",
    [((2, 1, 1), (1, 1, 0, 1)), ((3, 1, 1), (2, 1, 1)), ((2, 1, 2), (3, 0, 3, 1)), ((2, 2, 2), (1, 3, 1))],
)
def test_root_space_computes_no_central_component_at_any_k(monkeypatch, key, coeffs):
    # E comes from right division by f alone: neither mclc nor tau(f*) is computed, under any
    # name a module of the package binds them to
    f = additive(tower(*key), *coeffs)
    order = order_of_y_mod(central_to_upoly(minimal_central_left_component(f)))
    calls = []
    for name, module in list(sys.modules.items()):
        for attr in ("minimal_central_left_component", "central_to_upoly"):
            if name.startswith("addpoly") and hasattr(module, attr):
                wrapped = getattr(module, attr)
                monkeypatch.setattr(module, attr, lambda g, wrapped=wrapped: calls.append(g) or wrapped(g))
    assert root_space(f).ext_degree == order > 1
    assert calls == []


def test_root_space_degree_is_the_order_of_y_on_the_audit_corpus():
    # within the cap E is the order of y modulo tau(f*); past it both refuse
    checked = 0
    for tw in audit_towers():
        cap = 16 // (tw.e * tw.k)
        for n in (1, 2, 3):
            for f in all_monic_squarefree(tw, n):
                try:
                    order = order_of_y_mod(central_to_upoly(minimal_central_left_component(f)), cap=cap)
                except BudgetExceeded:
                    with pytest.raises(ExtensionTooLarge):
                        root_space(f, max_ext=cap)
                    continue
                assert root_space(f, max_ext=cap).ext_degree == order, f
                checked += 1
    assert checked == 93


@pytest.mark.parametrize("key", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 2)])
def test_root_space_of_x_is_zero_in_the_ground_field(key):
    space = root_space(AdditivePoly.identity(tower(*key)))
    assert space.ext_degree == 1
    assert space.basis == () and space.frobenius_matrix == ()


def test_invariant_subspaces_examples():
    eye2 = diag(F2, 1, 1)
    assert len(invariant_subspaces(F2, eye2, 1)) == 3
    # single nilpotent Jordan block of order 3: only <e1>
    nil3 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    subs = invariant_subspaces(F2, nil3, 1)
    assert subs == [((1, 0, 0),)]
    # diag(a, a, b) over F_3: r + 2 = 5 invariant lines
    assert len(invariant_subspaces(F3, diag(F3, 1, 1, 2), 1)) == 5
    assert gaussian_binomial(3, 1, 3) == 13


def test_right_components_brute_examples():
    f = x_rpow_plus_x(T4, 2)
    assert brute_components(root_space(f), 0) == [AdditivePoly.identity(T4)]
    comps = brute_components(root_space(f), 1)
    assert len(comps) == 3
    for h in comps:
        assert h.is_monic and h.exponent == 1
    g = T4.fq.from_index(2)
    f = AdditivePoly(T4, (g, T4.fq.one))
    assert brute_components(root_space(f), 1) == [f]


@pytest.mark.parametrize("key, coeffs, ext_degree", [((2, 2, 1), (2, 0, 2, 1), 15), ((2, 1, 2), (3, 0, 3, 1), 7)])
def test_root_product_over_a_packed_flat_level_is_f(key, coeffs, ext_degree):
    # the product over all roots of f is f; these roots lie in F_(4^15) and F_(4^7), char-2
    # levels above the tables over F_4, whose products run on gf2x's flat coordinates
    f = additive(tower(*key), *coeffs)
    space = root_space(f)
    assert space.ext_degree == ext_degree and space.field.size > TABLE_SIZE and space.field.base.size == 4
    assert packed(space.field) is not None
    assert right_components_brute(space, 3, invariant_subspaces(space.tower.fr, space.frobenius_matrix, 3)) == [f]


def test_roots_of_components_are_subspaces():
    # psi and phi are mutually inverse: the root sets of the exponent-d
    # components are exactly the element sets of the invariant d-subspaces
    f = x_rpow_plus_x(T4, 4)
    assert brute_components(root_space(f), 4) == [f]
    space = root_space(f)
    for d in (1, 2, 3):
        subspace_sets = set()
        for sub in invariant_subspaces(T4.fr, space.frobenius_matrix, d):
            elems = []
            for coeffs in product(list(T4.fr.elements()), repeat=d):
                acc = space.field.zero
                for c, row in zip(coeffs, sub):
                    if c != T4.fr.zero:
                        vec = [T4.fr.mul(c, x) for x in row]
                        for v, alpha in zip(vec, space.basis):
                            if v != T4.fr.zero:
                                acc = space.field.add(
                                    acc, space.field.mul(v, alpha)
                                )
                elems.append(acc)
            subspace_sets.add(frozenset(elems))
        root_sets = set()
        for h in brute_components(space, d):
            roots = frozenset(
                alpha
                for alpha in _space_elements(space)
                if evaluate(h, alpha, space.field) == space.field.zero
            )
            assert len(roots) == 2**d  # squarefree: r^d distinct roots
            root_sets.add(roots)
        assert root_sets == subspace_sets


def _space_elements(space):
    tw = space.tower
    out = []
    for coeffs in product(list(tw.fr.elements()), repeat=len(space.basis)):
        acc = space.field.zero
        for c, alpha in zip(coeffs, space.basis):
            if c != tw.fr.zero:
                acc = space.field.add(acc, space.field.mul(c, alpha))
        out.append(acc)
    return out


def test_maximal_chains_examples():
    assert maximal_chains_brute(F2, diag(F2, 1, 1)) == 3
    assert maximal_chains_brute(F2, diag(F2, 1, 1, 1)) == 21
    assert maximal_chains_brute(F2, companion_matrix(upoly_of(F2, 1, 1, 0, 1))) == 1


def test_species_from_matrix_examples():
    assert species_from_matrix(F3, diag(F3, 1, 1, 1)) == Species.make([(1, (3,))])
    assert species_from_matrix(F3, diag(F3, 1, 1, 1, 2)) == Species.make([(1, (3,)), (1, (1,))])
    assert species_from_matrix(F3, diag(F3, 1, 1, 2, 2)) == Species.make([(1, (2,)), (1, (2,))])
    jb = [[1, 1], [0, 1]]
    assert species_from_matrix(F2, jb) == Species.make([(1, (0, 1))])


def _species_of_dimension(n):
    """All abstract species multisets of total dimension n."""

    def signatures(weight):
        for m in range(1, weight + 1):
            if weight % m:
                continue
            target = weight // m
            for lam in _lambda_vectors(target):
                yield (m, lam)

    def _lambda_vectors(target):
        # all (lambda_1..lambda_k) with sum j*lambda_j = target and lambda_k > 0
        def rec(rest, j):
            if rest == 0:
                yield ()
                return
            if j > rest:
                return
            for lam_j in range(0, rest // j + 1):
                for tail in rec(rest - j * lam_j, j + 1):
                    yield (lam_j,) + tail

        for vec in rec(target, 1):
            trimmed = list(vec)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            if trimmed:
                yield tuple(trimmed)

    def multisets(weight, pool):
        if weight == 0:
            yield ()
            return
        for i, sig in enumerate(pool):
            m, lam = sig
            w = m * sum(j * l for j, l in enumerate(lam, start=1))
            if w <= weight:
                for rest in multisets(weight - w, pool[i:]):
                    yield (sig,) + rest

    pool = sorted(set(sig for w in range(1, n + 1) for sig in signatures(w)))
    seen = set()
    for ms in multisets(n, pool):
        key = tuple(sorted(ms))
        if key not in seen:
            seen.add(key)
            yield key


def test_chain_counts_match_brute_force_lattice_walk():
    # every realizable species of dimension <= 5 over r in {2, 3}
    checked = 0
    for r in (2, 3):
        field = F2 if r == 2 else F3
        for dim in range(1, 6):
            for entries in _species_of_dimension(dim):
                species = Species.make(entries)
                try:
                    form = realize_species(field, species)
                except InputError:
                    continue  # not enough irreducibles over this field
                mat = block_matrix(form)
                assert maximal_chains_brute(field, mat) == count_chains(species, r)
                assert [len(invariant_subspaces(field, mat, d)) for d in range(dim + 1)] == list(
                    generating_function(species, r)
                )
                checked += 1
    assert checked > 60


F4 = tower(2, 2, 1).fr
MINIMALITY_FIELDS = {2: F2, 3: F3, 4: F4}
COMPANION_F2 = companion_matrix(upoly_of(F2, 1, 1, 0, 1))


@st.composite
def _square_matrices(draw):
    q = draw(st.sampled_from(sorted(MINIMALITY_FIELDS)))
    n = draw(st.integers(1, 4))
    return q, draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=100)
@given(_square_matrices())
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # the identity: every line is minimal
@example((3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))  # a Jordan block: one minimal line
@example((2, COMPANION_F2))  # y^3 + y + 1 irreducible: the whole space is simple
@example((3, diag(F3, 1, 1, 2)))  # two eigenspaces, lines of the plane and one more
def test_minimal_subspaces_match_recomputed_closures(case):
    q, mat = case
    field = MINIMALITY_FIELDS[q]
    minimal = [tuple(map(tuple, rows)) for rows, _ in oracle._minimal_invariant_subspaces(field, mat)]
    assert len(minimal) == len(set(minimal))
    assert set(minimal) == minimal_invariant_subspaces_by_closures(field, mat)


def test_cyclic_closure_rows_are_their_own_rref():
    rng = random.Random("closure")
    for field in (F2, F3, F4):
        for n in (1, 2, 3, 4):
            mats = [[[rng.randrange(field.size) for _ in range(n)] for _ in range(n)] for _ in range(8)]
            for mat in mats + [diag(field, *[1] * n)]:
                for vec in oracle._projective_points(field, n):
                    rows, pivots = oracle._cyclic_closure(field, mat, vec)
                    assert (rows, pivots) == linalg.rref(field, rows) == krylov_closure(field, mat, vec)


@pytest.mark.parametrize(
    "q, mat",
    [(2, COMPANION_F2), (3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]), (3, diag(F3, 1, 1, 2)), (4, [[0, 1], [1, 1]])],
)
def test_minimal_subspaces_compute_one_closure_per_point(monkeypatch, q, mat):
    field, calls, closure = MINIMALITY_FIELDS[q], [], oracle._cyclic_closure

    def counting_closure(*args):
        calls.append(1)
        return closure(*args)

    monkeypatch.setattr(oracle, "_cyclic_closure", counting_closure)
    oracle._minimal_invariant_subspaces(field, mat)
    assert len(calls) == (q ** len(mat) - 1) // (q - 1)


@pytest.mark.parametrize(
    "field, entries",
    [(F2, [(1, (7,))]), (F3, [(1, (5,)), (1, (1,))]), (F3, [(1, (1, 2))])],
    ids=["(1;(7))/F2", "(1;(5))+(1;(1))/F3", "(1;(1,2))/F3"],
)
def test_chain_walk_on_rich_lattices(field, entries):
    # many invariant subspaces per level: the closure table's largest savings
    species = Species.make(entries)
    assert maximal_chains_brute(field, block_matrix(realize_species(field, species))) == count_chains(species, field.size)


def test_bijection_audit_small_corpus():
    # component/subspace counts agree for every reachable f with small n
    for tw in (T2, T4):
        for n in (1, 2):
            for f in all_monic_squarefree(tw, n):
                try:
                    space = root_space(f, max_ext=8)
                except ExtensionTooLarge:
                    continue
                for d in range(n + 1):
                    subs = invariant_subspaces(tw.fr, space.frobenius_matrix, d)
                    brute = right_components_brute(space, d, subs)
                    assert len(set(brute)) == len(subs)


def test_division_oracle_examples(monkeypatch):
    fbar = additive(T2, 0, 1, 1)  # x^4 + x^2: components x, x^2, x^2 + x, x^4 + x^2
    assert [len(right_components_by_division(fbar, d)) for d in range(-1, 4)] == [0, 1, 2, 1, 0]
    assert right_components_by_division(fbar, 2) == [fbar]
    f = x_rpow_plus_x(T4, 2)
    assert right_components_by_division(f, 1) == brute_components(root_space(f), 1)
    monkeypatch.setattr(oracle, "DEFAULT_ENUM_BUDGET", 255)
    with pytest.raises(BudgetExceeded):
        right_components_by_division(x_rpow_plus_x(T4, 8), 4)


def test_division_oracle_on_dimension_8_species():
    # x^(2^8) + x over F_4, species (1; 0,0,0,2)
    f = x_rpow_plus_x(T4, 8)
    g = [1, 3, 7, 15, 31, 15, 7, 3, 1]
    assert [len(right_components_by_division(f, d)) for d in range(6)] == g[:6]
    assert [count_right_components(f, d) for d in range(9)] == g


def test_division_oracle_matches_squarefree_counts():
    for tw in (T2, T4, tower(3, 1, 1)):
        for n in range(4):
            for f in all_monic_squarefree(tw, n):
                for d in range(n + 1):
                    assert len(right_components_by_division(f, d)) == count_right_components(f, d)


def _chains_by_division(f, memo):
    """Maximal chains of right components of a monic f: the sum, over the minimal right
    components h of f (no right component of f but x right-divides h), of the chains of the
    left quotient g, f = g o h."""
    if f.exponent < 1:
        return 1
    if f not in memo:
        found = [h for d in range(1, f.exponent + 1) for h in right_components_by_division(f, d)]
        minimal = [h for h in found if not any(right_divmod(h, u)[1].is_zero for u in found if u.exponent < h.exponent)]
        memo[f] = sum(_chains_by_division(right_divmod(f, h)[0], memo) for h in minimal)
    return memo[f]


def _cli(monkeypatch, capsys, argv, f):
    tw = f.tower
    job = {"p": tw.p, "e": tw.e, "k": tw.k, "f": f.to_json()}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("key", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)], ids=str)
def test_count_of_every_monic_f_agrees_with_trial_division(monkeypatch, capsys, key):
    # fbar = x^(r^m) o f for up to three squarefree f of each exponent n <= 3 (f = x at n = 0)
    # and m <= 2: count --all and count-general give the chains and g_d that division finds
    tw, rng, memo = tower(*key), random.Random(33), {}
    for n in range(4):
        pool = list(all_monic_squarefree(tw, n))
        for f in rng.sample(pool, min(3, len(pool))):
            for m in range(3):
                fbar = compose(additive(tw, *[0] * m, 1), f)
                g = [len(right_components_by_division(fbar, d)) for d in range(n + m + 1)]
                payload = _cli(monkeypatch, capsys, ["count", "--all"], fbar)
                assert (payload["chains"], payload["g"]) == (_chains_by_division(fbar, memo), g), (key, m, f)
                assert payload["lines"] == (g[1] if g[1:] else 0)
                if m:
                    assert [1, [0] * (m - 1) + [1]] in payload["species"]
                for d in range(n + m + 1):
                    assert _cli(monkeypatch, capsys, ["count-general", "--d", str(d)], fbar)["count"] == g[d]


def test_oracle_minimal_polynomial_shares_no_elimination_with_mclc(monkeypatch):
    # mclc reads tau(f*) off SpanTracker's packed rows (bits over F_2, byte slots over F_3 and
    # F_4); the oracle's minimal polynomial and species, which verify checks it against, must not
    cases = []
    for field in (F2, F3, T4.fq, tower(17, 1, 1).fr):
        for species in (Species.make([(1, (0, 1)), (2, (1,))]), Species.make([(1, (2, 1))])):
            form = realize_species(field, species)
            cases.append((field, block_matrix(form), form.minimal_polynomial().encode(), species))

    def refuse(self, vec):
        raise AssertionError("the oracle ran SpanTracker")

    monkeypatch.setattr(linalg.SpanTracker, "add", refuse)
    for field, mat, minpoly, species in cases:
        assert oracle.minpoly_of_matrix(field, mat).encode() == minpoly
        assert species_from_matrix(field, mat) == species


def test_division_oracle_matches_general_counts():
    # every monic f, squarefree or not, with q^n <= 27
    for tw in (T2, T4, tower(3, 1, 1), tower(2, 2, 1)):
        n = 0
        while tw.fq.size**n <= 27:
            for f in all_monic(tw, n):
                for d in range(n + 2):
                    assert len(right_components_by_division(f, d)) == count_right_components(f, d)
            n += 1
