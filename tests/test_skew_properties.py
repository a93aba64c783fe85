"""Property checks of the skew-ring kernel: packed span tracking, the ring
laws of compose, right division, gcrc, and the species read from them.

The packed SpanTracker is compared with the list elimination of
linalg.echelon_insert on the same vectors, row operations taken entry by
entry with the field's sub and mul; divisions are certified by recomposition
with compose.
"""

import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from addpoly import additive
from addpoly.additive import AdditivePoly, compose, gcrc, minimal_central_left_component, right_divmod
from addpoly.frobjordan import rational_jordan_form
from addpoly.latcount import generating_function
from addpoly.linalg import SpanTracker, echelon_insert
from corpus import tower
from helpers import gcrc_by_division, random_additive

F2, F3, F9, F13 = tower(2, 1, 1).fr, tower(3, 1, 1).fr, tower(3, 2, 1).fr, tower(13, 1, 1).fr
TRACKER_FIELDS = (F2, tower(2, 2, 1).fr, tower(2, 4, 1).fr, tower(2, 8, 1).fr, F3, F9, F13)
# (2,4,2) has F_q = F_256, every byte a field element; (2,3,3) has F_q = F_512, on list rows.
# F_q is flat over a non-prime base in (2,2,7), F_(4^7) over F_4, and (3,2,4), F_(9^4) over
# F_9; (2,1,9) has F_q = F_512 over F_2, whose mclc rows are its F_2 coordinates (r_coords).
# (13,1,2) and (5,1,2) divide on lists over F_169 and F_25 but track byte rows over F_13 and
# F_5; (3,2,1) and (13,1,1) take byte slots throughout, over F_9 and F_13 (nibble values up to 12).
SKEW_TOWERS = (
    (2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 4, 2), (2, 3, 3), (3, 1, 2), (3, 2, 2), (2, 2, 7), (3, 2, 4), (2, 1, 9),
    (13, 1, 2), (5, 1, 2),
)
LAW_TOWERS = ((2, 1, 2), (2, 2, 2), (2, 4, 2), (2, 3, 3), (3, 1, 2), (2, 2, 7), (3, 2, 4), (2, 1, 9), (3, 2, 1), (13, 1, 1))
# gcrc packs F_4, F_16 and F_256 of char 2 and F_3, F_9 and F_13 into byte slots; F_81 of (3,2,2)
# and F_512 of (2,3,3) divide by right_divmod on lists.
GCRC_TOWERS = ((2, 1, 2), (2, 2, 2), (2, 4, 2), (3, 1, 1), (3, 1, 2), (13, 1, 1), (3, 2, 2), (2, 3, 3))
MAX_EXPONENT = 9

derandomized = settings(max_examples=40)


def list_arithmetic(field):
    """The field as echelon_insert uses it, with a vec_submul of one sub and one mul per entry,
    so the expected rows share no byte-slot code with SpanTracker."""

    def vec_submul(u, c, v):
        return [field.sub(a, field.mul(c, b)) for a, b in zip(u, v)]

    return SimpleNamespace(zero=0, one=1, neg=field.neg, inv=field.inv, vec_submul=vec_submul)


def tracker_cases():
    """(field, width, vectors), a few more vectors than the width: packed as bits over F_2, as
    byte slots over F_4, F_16, F_3, F_9 and F_13, and as bytes filling whole slots over F_256."""

    def case(field, width):
        vector = st.lists(st.integers(0, field.size - 1), min_size=width, max_size=width)
        return st.tuples(st.just(field), st.just(width), st.lists(vector, max_size=width + 3))

    return st.tuples(st.sampled_from(TRACKER_FIELDS), st.integers(1, 16)).flatmap(lambda fw: case(*fw))


@derandomized
@given(tracker_cases(), st.booleans())
@example((F2, 3, [[0, 0, 0], [1, 0, 1], [1, 0, 1], [0, 1, 0]]), False)  # a zero vector first: dependent at once
@example((F2, 4, [[0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 1]]), True)
@example((F2, 1, [[1], [1], [1]]), False)
@example((TRACKER_FIELDS[1], 2, [[1, 2], [2, 3]]), True)  # over F_4, [2, 3] = 2 * [1, 2]
@example((TRACKER_FIELDS[2], 3, [[0, 7, 9], [5, 0, 15], [5, 7, 6], [1, 1, 1]]), False)
@example((F3, 2, [[1, 2], [2, 1], [0, 1]]), True)  # [2, 1] = 2 * [1, 2]
@example((F9, 3, [[8, 1, 3], [0, 8, 8], [2, 5, 8]]), False)  # [2, 5, 8] = 5 * [8, 1, 3]
@example((F13, 3, [[1, 2, 3], [12, 12, 12], [12, 11, 10], [7, 0, 5]]), True)  # 12 * [1, 2, 3] third
def test_packed_tracker_matches_list_elimination(case, as_ints):
    field, width, vectors = case
    bits = 1 if field.size == 2 else 8  # per slot
    packed, arithmetic = SpanTracker(field, width), list_arithmetic(field)
    rows, pivots = [], []
    for count, vec in enumerate(vectors):
        # the list tracker: each insertion carries the unit vector of its index
        for row in rows:
            row.append(0)
        rem = echelon_insert(arithmetic, rows, pivots, vec + [0] * count + [1], width=width)
        expected = None if rem is None else rem[width:]
        assert packed.add(sum(c << bits * j for j, c in enumerate(vec)) if as_ints else vec) == expected
        assert packed.pivots == pivots
        unpacked = [[row >> bits * j & (1 << bits) - 1 for j in range(width + count + 1)] for row in packed.rows]
        assert unpacked == rows


def skew_pairs(max_exponent=MAX_EXPONENT):
    """(tower, f, h) with h nonzero; f may be zero and may be shorter than h."""

    def pair(shape):
        size = tower(*shape).fq.size
        coeffs = st.lists(st.integers(0, size - 1), max_size=max_exponent + 1)
        top = st.integers(1, size - 1)
        divisor = st.tuples(st.lists(st.integers(0, size - 1), max_size=max_exponent), top)
        return st.tuples(st.just(shape), coeffs, divisor.map(lambda t: t[0] + [t[1]]))

    return st.sampled_from(SKEW_TOWERS).flatmap(pair)


def poly(shape, indices):
    tw = tower(*shape)
    return AdditivePoly(tw, [tw.fq.from_index(i) for i in indices])


def skew_triples(max_exponent=5):
    """(tower, a, b, c) over LAW_TOWERS; any of them may be zero."""

    def triple(shape):
        coeffs = st.lists(st.integers(0, tower(*shape).fq.size - 1), max_size=max_exponent + 1)
        return st.tuples(st.just(shape), coeffs, coeffs, coeffs)

    return st.sampled_from(LAW_TOWERS).flatmap(triple)


@derandomized
@given(skew_triples())
@example(((2, 2, 2), [], [3, 1], [2]))
@example(((3, 1, 2), [0, 4, 0, 8], [7, 1, 5], [1, 2, 3, 4, 5, 6]))
@example(((2, 2, 7), [1, 9999, 0, 4], [3, 0, 16000], [2, 16383]))
@example(((3, 2, 4), [5, 6000, 1], [42, 1, 6560], [3, 3]))
@example(((2, 1, 9), [0, 511, 2], [300, 1], [7, 8, 9, 10]))
@example(((3, 2, 1), [8, 0, 7, 1], [5, 8], [8, 8, 8]))
@example(((13, 1, 1), [12, 11, 0, 3], [12, 12], [1, 0, 12]))
def test_compose_obeys_the_ring_laws(case):
    shape, *coeffs = case
    a, b, c = (poly(shape, cs) for cs in coeffs)
    x = AdditivePoly.identity(a.tower)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, b + c) == compose(a, b) + compose(a, c)
    assert compose(a + b, c) == compose(a, c) + compose(b, c)
    assert compose(x, a) == a == compose(a, x)


@derandomized
@given(st.sampled_from(LAW_TOWERS), st.integers(1, 24), st.integers(0, 2**32))
@example((2, 2, 7), 12, 7)
@example((3, 2, 4), 12, 7)
@example((2, 1, 9), 24, 7)
@example((3, 2, 1), 16, 7)
@example((13, 1, 1), 12, 7)
def test_species_has_dimension_n_and_a_palindromic_generating_function(shape, n, seed):
    tw = tower(*shape)
    species = rational_jordan_form(random_additive(tw, n, random.Random(seed))).species
    assert species.dimension() == n
    g = list(generating_function(species, tw.r))
    assert g == g[::-1] and len(g) == n + 1 and g[0] == 1


@derandomized
@given(skew_pairs())
@example(((2, 1, 2), [1, 2, 3], [1, 0, 0, 0, 1]))  # n < m
@example(((3, 2, 2), [5, 0, 7, 1], [4]))  # h of exponent 0
@example(((2, 2, 2), [], [3, 1]))
@example(((2, 2, 7), [16383, 5, 0, 9000, 1, 77], [12345, 2, 1]))
@example(((3, 2, 4), [6560, 1, 2, 3000, 0, 4], [100, 6000]))
@example(((2, 1, 9), [511, 3, 0, 200, 1, 5, 6], [7, 300, 1]))
@example(((13, 1, 2), [168, 12, 0, 155, 1, 77, 168], [168, 13, 168]))
@example(((5, 1, 2), [24, 5, 0, 24, 1, 20, 3], [24, 24, 1]))
def test_right_divmod_round_trip(case):
    shape, fs, hs = case
    f, h = poly(shape, fs), poly(shape, hs)
    g, rem = right_divmod(f, h)
    assert compose(g, h) + rem == f
    assert rem.exponent < h.exponent


@derandomized
@given(skew_pairs(max_exponent=5), st.lists(st.integers(0, 80), min_size=1, max_size=4))
@example(((2, 1, 2), [], [1]), [0, 1])
@example(((13, 1, 2), [168, 12, 1], [5, 168]), [168, 12, 40])
@example(((5, 1, 2), [24, 0, 1], [24, 24]), [24, 3, 24])
def test_gcrc_divides_both_inputs(case, common):
    shape, fs, hs = case
    size = tower(*shape).fq.size
    c = poly(shape, [i % size for i in common[:-1]] + [1 + common[-1] % (size - 1)])
    a, b = compose(poly(shape, fs), c), compose(poly(shape, hs), c)
    if a.is_zero and b.is_zero:
        return
    d = gcrc(a, b)
    assert d.is_monic
    for x in (a, b):
        assert right_divmod(x, d)[1].is_zero
    assert right_divmod(d, c)[1].is_zero  # every common right component divides the greatest


def gcrc_cases(max_exponent=5):
    """(tower, f, g, c) over GCRC_TOWERS: the test takes f o c and g o c, so c is a common right
    component; f and g may be zero, c is not."""

    def case(shape):
        size = tower(*shape).fq.size
        coeffs = st.lists(st.integers(0, size - 1), max_size=max_exponent + 1)
        common = st.tuples(st.lists(st.integers(0, size - 1), max_size=max_exponent), st.integers(1, size - 1))
        return st.tuples(st.just(shape), coeffs, coeffs, common.map(lambda t: t[0] + [t[1]]))

    return st.sampled_from(GCRC_TOWERS).flatmap(case)


@derandomized
@given(gcrc_cases())
@example(((2, 2, 2), [], [3, 1, 7], [5, 1]))  # one operand zero
@example(((3, 1, 2), [4, 1], [2, 0, 5, 8, 1], [7, 1]))  # the second operand longer
@example(((2, 4, 2), [200, 3, 1], [17, 255, 9], [1]))  # equal exponents
@example(((13, 1, 1), [1, 1], [5, 1], [1]))  # coprime: x^13 + x and x^13 + 5 x, gcrc x
@example(((2, 3, 3), [1, 1], [5, 1], [1]))  # coprime over F_512, on lists
@example(((3, 2, 2), [6, 0, 1], [1], [40, 2, 1]))  # the first a right multiple of the second
@example(((3, 1, 1), [1], [2, 1, 0, 1], [1, 2, 1]))  # the second a right multiple of the first
def test_gcrc_matches_division_at_every_step(case):
    shape, fs, gs, cs = case
    c = poly(shape, cs)
    f, g = compose(poly(shape, fs), c), compose(poly(shape, gs), c)
    if f.is_zero and g.is_zero:
        return
    assert gcrc(f, g) == gcrc_by_division(f, g) == gcrc(g, f)


def test_mclc_twists_its_divisor_once(monkeypatch):
    """f's Frobenius twists are taken once per mclc and once by its final check; over F_4 they
    are translates through the byte table of x -> x^2, so no power is taken at all."""
    tw = tower(2, 1, 2)
    fq, n, k = tw.fq, 32, tw.k
    f = random_additive(tw, n, random.Random(13))
    calls, twisted = [], []
    pow_, twists_ = fq.pow, additive._twists
    monkeypatch.setattr(fq, "pow", lambda a, e: calls.append(e) or pow_(a, e))
    monkeypatch.setattr(additive, "_twists", lambda tw, cs, count: twisted.append(cs) or twists_(tw, cs, count))
    fstar = minimal_central_left_component(f)
    assert fstar.exponent // k > 2  # enough divisions that a rebuild per division would show
    assert len(calls) <= 2 * (k - 1) * (n + 1)
    assert twisted == [f.coeffs, f.coeffs]
