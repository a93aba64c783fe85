"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either pinned from an authoritative table, an
exhaustive brute-force recount, or a closed form evaluated independently;
tolerances are exact integers throughout, with wall-clock ceilings where
stated.
"""

import json
import random
import time

from addpoly.additive import (
    central_to_upoly,
    compose,
    minimal_central_left_component,
    right_divmod,
    upoly_to_central,
)
from addpoly.cli import main
from addpoly.errors import ExtensionTooLarge
from addpoly.frobjordan import Species, rational_jordan_form
from addpoly.latcount import (
    count_chains,
    count_lines,
    count_right_components,
    generating_function,
    mhat,
    ore_criterion_count,
)
from addpoly.oracle import minpoly_of_matrix, right_components_by_division, root_space
from addpoly.upoly import UPoly, factor, is_irreducible, random_upoly
from corpus import all_monic_squarefree, audit_towers, tower, x_rpow_plus_x
from helpers import brute_components, random_additive


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def _cli(tmp_path, name, job, argv):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--input", str(path)])
    return code, json.loads(buf.getvalue())


def _f4_jobspec(m):
    coeffs = [[1, 0]] + [[0, 0]] * (m - 1) + [[1, 0]]
    return {"p": 2, "e": 1, "k": 2, "f": {"r_exp": 1, "coeffs": coeffs}}


def test_criterion_1_complete_decomposition_counts(tmp_path):
    t0 = time.perf_counter()
    expected = {2: 3, 4: 15, 6: 90, 8: 543}
    for m, want in expected.items():
        code, payload = _cli(tmp_path, f"c1_{m}.json", _f4_jobspec(m), ["count"])
        assert code == 0
        assert payload["chains"] == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"chain counts 3, 15, 90, 543 for x^(2^m)+x over F_4[x;2] in {elapsed:.3f}s")


def test_criterion_2_dimension3_table_sweep():
    t0 = time.perf_counter()
    rows = [
        ([(1, (3,))], lambda r: r * r + r + 1, lambda r: (r * r + r + 1) * (r + 1)),
        ([(1, (0, 1)), (1, (1,))], lambda r: 2, lambda r: 3),
        ([(1, (0, 0, 1))], lambda r: 1, lambda r: 1),
        ([(1, (1, 1))], lambda r: r + 1, lambda r: 2 * r + 1),
        ([(1, (2,)), (1, (1,))], lambda r: r + 2, lambda r: 3 * (r + 1)),
        ([(3, (1,))], lambda r: 0, lambda r: 1),
        ([(1, (1,)), (2, (1,))], lambda r: 1, lambda r: 2),
        ([(1, (1,)), (1, (1,)), (1, (1,))], lambda r: 3, lambda r: 6),
    ]
    for r in (2, 3):
        for items, lines_fn, chains_fn in rows:
            species = Species.make(items)
            g = generating_function(species, r)
            assert count_lines(species, r) == lines_fn(r) == g[1] == g[2]
            assert count_chains(species, r) == chains_fn(r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"all eight dimension-3 rows match for r in (2, 3) in {elapsed:.3f}s")


def _reachable_corpus(skipped=None):
    """(tower, f, root space) for each corpus instance within the extension cap; the
    instances past it are appended to skipped."""
    for tw in audit_towers():
        ext_cap = 16 // (tw.e * tw.k)
        assert tw.q ** 3 <= 4096  # exhaustive enumeration is in range throughout
        for n in (1, 2, 3):
            for f in all_monic_squarefree(tw, n):
                try:
                    space = root_space(f, max_ext=ext_cap)
                except ExtensionTooLarge:
                    if skipped is not None:
                        skipped.append((tw, f))
                    continue
                yield tw, f, space


def test_criterion_3_bijection_audit():
    t0 = time.perf_counter()
    audited, skipped = 0, []
    for tw, f, space in _reachable_corpus(skipped):
        for d in range(f.exponent + 1):
            fast = count_right_components(f, d)
            brute = len(brute_components(space, d))
            assert fast == brute, (tw, f, d, fast, brute)
        audited += 1
    # past the extension cap, trial division needs no root space: q^d <= 4096 candidates
    for tw, f in skipped:
        for d in range(f.exponent + 1):
            fast = count_right_components(f, d)
            divided = len(right_components_by_division(f, d))
            assert fast == divided, (tw, f, d, fast, divided)
    elapsed = time.perf_counter() - t0
    assert audited >= 90  # 93 of the 133 corpus instances stay within the extension bound
    assert audited + len(skipped) == 133
    assert elapsed < 60.0
    _report(
        3,
        f"component counts match brute force on {audited} instances and trial division on"
        f" the other {len(skipped)} in {elapsed:.1f}s",
    )


def test_criterion_4_minimal_polynomial_identity():
    checked = 0
    for tw, f, space in _reachable_corpus():
        fast = central_to_upoly(minimal_central_left_component(f))
        oracle_mp = minpoly_of_matrix(tw.fr, space.frobenius_matrix)
        assert fast == oracle_mp
        checked += 1
    _report(4, f"central image equals the Frobenius minimal polynomial on {checked} instances")


# the published closed forms for the first seven achievable-count supersets,
# one polynomial-in-r expression per partition (so sizes are 1,2,4,7,12,19,30)
SYMBOLIC_MHAT_ADDITIONS = {
    0: [lambda r: 0],
    1: [lambda r: 1],
    2: [lambda r: 2, lambda r: r + 1],
    3: [lambda r: 3, lambda r: r + 2, lambda r: r * r + r + 1],
    4: [
        lambda r: 4,
        lambda r: r + 3,
        lambda r: 2 * r + 2,
        lambda r: r**2 + r + 2,
        lambda r: r**3 + r**2 + r + 1,
    ],
    5: [
        lambda r: 5,
        lambda r: r + 4,
        lambda r: 2 * r + 3,
        lambda r: r**2 + r + 3,
        lambda r: r**2 + 2 * r + 2,
        lambda r: r**3 + r**2 + r + 2,
        lambda r: r**4 + r**3 + r**2 + r + 1,
    ],
    6: [
        lambda r: 6,
        lambda r: r + 5,
        lambda r: 2 * r + 4,
        lambda r: 3 * r + 3,
        lambda r: r**2 + r + 4,
        lambda r: r**2 + 2 * r + 3,
        lambda r: 2 * r**2 + 2 * r + 2,
        lambda r: r**3 + r**2 + r + 3,
        lambda r: r**3 + r**2 + 2 * r + 2,
        lambda r: r**4 + r**3 + r**2 + r + 2,
        lambda r: r**5 + r**4 + r**3 + r**2 + r + 1,
    ],
}

PARTITION_COUNTS = [1, 2, 4, 7, 12, 19, 30]


def test_criterion_5_achievable_count_supersets():
    symbolic = []
    for n in range(7):
        symbolic.extend(SYMBOLIC_MHAT_ADDITIONS[n])
        assert len(symbolic) == PARTITION_COUNTS[n]
        for r in (2, 3, 4):
            expected = {fn(r) for fn in symbolic}
            assert mhat(n, r) == expected
        # at a collision-free base the size equals the partition count
        assert len(mhat(n, 8)) == PARTITION_COUNTS[n]
    _report(5, "mhat matches the published lists at r in (2, 3, 4) for n <= 6")


def test_criterion_6_ore_criterion():
    checked = 0
    for tw in audit_towers():
        for n in (1, 2, 3):
            for f in all_monic_squarefree(tw, n):
                assert ore_criterion_count(f) == count_right_components(f, 1)
                checked += 1
    _report(6, f"projective-root count equals the exponent-1 component count on {checked} instances")


def test_criterion_7_polynomial_scaling(tmp_path):
    budgets = {64: 5.0, 256: 120.0}
    times = {}
    for n, budget in budgets.items():
        job = {
            "p": 2,
            "e": 1,
            "k": 1,
            "f": {"r_exp": 1, "coeffs": [1] + [0] * (n - 1) + [1]},
        }
        t0 = time.perf_counter()
        code, payload = _cli(tmp_path, f"c7_{n}.json", job, ["species"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        lam = payload["species"][0][1]
        assert len(lam) == n and lam[-1] == 1 and sum(lam) == 1  # one block of order n
        assert elapsed < budget
        times[n] = elapsed
    _report(
        7,
        "species of x^(2^n)+x over F_2 in "
        + ", ".join(f"{t:.2f}s (n={n})" for n, t in sorted(times.items()))
        + " while deg f = 2^256",
    )


def test_skew_path_scaling_with_a_coefficient_outside_f_r(tmp_path):
    # x^(2^n) + g x over F_4[x;2], g = [0, 1] the generator of F_4: g is not in
    # F_2, so the species still comes from mclc, factorization and gcrc nullities
    budgets = {64: 5.0, 256: 120.0}
    for n, budget in budgets.items():
        coeffs = [[0, 1]] + [[0, 0]] * (n - 1) + [[1, 0]]
        job = {"p": 2, "e": 1, "k": 2, "f": {"r_exp": 1, "coeffs": coeffs}}
        t0 = time.perf_counter()
        code, payload = _cli(tmp_path, f"skew_{n}.json", job, ["species"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert payload["species"] == [[2, [0] * (n // 2 - 1) + [1]]]
        assert elapsed < budget


def test_criterion_8_property_suites():
    rng = random.Random(2024)

    # generating-function palindrome and endpoints across the corpus
    gf_checked = 0
    for tw in (tower(2, 1, 1), tower(2, 1, 2)):
        for n in (1, 2, 3, 4):
            for f in all_monic_squarefree(tw, n):
                species = rational_jordan_form(f).species
                g = generating_function(species, tw.r)
                assert list(g) == list(reversed(g))
                assert g[0] == g[species.dimension()] == 1
                gf_checked += 1

    # transport map is a ring isomorphism on 200 seeded central pairs
    towers = (tower(2, 1, 2), tower(2, 2, 1), tower(3, 1, 2))
    for trial in range(200):
        tw = towers[trial % len(towers)]
        u = random_upoly(tw.fr, rng.randrange(0, 4), rng, monic=False)
        v = random_upoly(tw.fr, rng.randrange(0, 4), rng, monic=False)
        assert central_to_upoly(compose(upoly_to_central(tw, u), upoly_to_central(tw, v))) == u * v

    # right division round-trips on 500 seeded pairs
    div_towers = (tower(2, 1, 1), tower(2, 1, 2), tower(2, 2, 1), tower(3, 1, 1))
    done = 0
    while done < 500:
        tw = div_towers[done % len(div_towers)]
        f = random_additive(tw, rng.randrange(0, 7), rng, monic=False, squarefree=False)
        h = random_additive(tw, rng.randrange(0, 5), rng, monic=False, squarefree=False)
        if h.is_zero:
            continue
        g, rem = right_divmod(f, h)
        assert compose(g, h) + rem == f and rem.exponent < h.exponent
        done += 1

    # factorization re-expands exactly on 500 seeded polynomials
    fac_fields = (tower(2, 1, 1).fr, tower(3, 1, 1).fr, tower(2, 2, 1).fr)
    for trial in range(500):
        field = fac_fields[trial % len(fac_fields)]
        u = random_upoly(field, rng.randrange(1, 13), rng, monic=False)
        prod = UPoly(field, [u.coeffs[-1]])
        for poly, mult in factor(u):
            assert poly.is_monic and is_irreducible(poly)
            prod = prod * poly**mult
        assert prod == u

    _report(8, f"property suites green: {gf_checked} generating functions, 200 + 500 + 500 trials")
