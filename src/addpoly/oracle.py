"""Brute-force ground truth at desk scale.

Everything the fast paths avoid is done explicitly here, each step once: root spaces
are materialized inside a concrete extension field, whose degree comes from right
division alone; the Frobenius becomes an explicit matrix, invariant subspaces are
enumerated one reduced echelon form at a time (one row set per pivot pattern, its free
entries rewritten), chain walks close each projective point once, and right components
are rebuilt as literal root products (on gf2x's packed ints where it has a kernel) or
found by trial division. All of it is gated by explicit budgets; BudgetExceeded is an
expected, typed outcome, never a correctness escape hatch.
"""

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, count, product

from . import linalg, upoly
from .additive import AdditivePoly, evaluate, right_divmod
from .errors import (
    DescentFailure,
    ExtensionTooLarge,
    InputError,
    InternalInconsistency,
    admit,
)
from .frobjordan import Species, lambdas_from_nullities
from .gf2x import packed
from .latcount import gaussian_binomial
from .upoly import UPoly

DEFAULT_MAX_EXT = 32
MAX_EXT_LIMIT = 64  # the extension field grows fast past this
DEFAULT_ENUM_BUDGET = 1 << 21
DEFAULT_POINT_BUDGET = 1 << 20
ROOT_SPACE_BUDGET = 192  # [F_(q^E) : F_r], the side of root_space's dense kernel
ROOT_PRODUCT_BUDGET = 1 << 8  # linear factors multiplied for one d, over all its subspaces


@dataclass(frozen=True)
class RootSpace:
    """Explicit root space: extension degree, F_r-basis, and the Frobenius matrix.

    basis[j] is an element of F_(q^E); frobenius_matrix column j holds the
    coordinates of sigma_q(basis[j]) in that basis.
    """

    tower: object
    poly: object
    ext_degree: int
    field: object
    basis: tuple
    frobenius_matrix: tuple


def root_space(f, max_ext=DEFAULT_MAX_EXT):
    """Materialize V_f inside F_(q^E), E the period of x^(q^i) mod f.

    V_f lies in F_(q^E) iff f right-divides x^(q^E) - x (O. Ore, Trans. AMS 35, 1933). So E counts
    the steps that take x mod f back to itself, each a right division by f of x^q o rem, which is
    rem moved up k places since the q-power fixes F_q. The kernel of f as an F_r-linear map on
    F_(q^E) is extracted by Gaussian elimination and must have dimension equal to the exponent of
    f. A cap max_ext outside 1..MAX_EXT_LIMIT is an input error. An E past max_ext, and a kernel
    side E * k past ROOT_SPACE_BUDGET, are refused before the extension is built.
    """
    if not 1 <= max_ext <= MAX_EXT_LIMIT:
        raise InputError(f"max_ext {max_ext} is outside 1..{MAX_EXT_LIMIT}")
    if not f.is_monic or not f.is_squarefree:
        raise InputError("input must be monic squarefree")
    tower = f.tower
    fr = tower.fr
    n = f.exponent
    start = rem = right_divmod(AdditivePoly.identity(tower), f)[1]
    for ext_degree in count(1):
        admit("max_ext", max_ext, ext_degree, ExtensionTooLarge)
        rem = right_divmod(AdditivePoly(tower, (tower.fq.zero,) * tower.k + rem.coeffs), f)[1]
        if rem == start:
            break
    dim = ext_degree * tower.k  # [F_(q^E) : F_r]
    admit("root space", ROOT_SPACE_BUDGET, dim)
    field = tower.extension(ext_degree)
    images = []
    for t in range(dim):
        unit = [fr.zero] * dim
        unit[t] = fr.one
        alpha = tower.from_r_coords(field, unit)
        images.append(tower.r_coords(field, evaluate(f, alpha, field)))
    # kernel of the map alpha -> f(alpha); columns index the domain basis
    mat = [[images[t][s] for t in range(dim)] for s in range(dim)]
    ker = linalg.kernel(fr, mat)
    if len(ker) != n:
        raise InternalInconsistency(f"kernel dimension {len(ker)} differs from exponent {n}")
    rows, pivots = linalg.rref(fr, ker)
    basis = tuple(tower.from_r_coords(field, row) for row in rows)
    for alpha in basis:
        if evaluate(f, alpha, field) != field.zero:
            raise InternalInconsistency("basis element is not a root")
    cols = []
    for alpha in basis:
        image = tower.r_coords(field, field.pow(alpha, tower.q))
        coords = linalg.span_coords(fr, image, rows, pivots)
        if coords is None:
            raise InternalInconsistency("Frobenius image left the root space")
        cols.append(coords)
    frob = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return RootSpace(tower, f, ext_degree, field, basis, frob)


def invariant_subspaces(field, mat, d):
    """All d-dimensional invariant subspaces, one canonical echelon basis each.

    Enumerates every reduced echelon form (pivot columns, then free entries
    in field order) and keeps the bases whose rows map back into the row
    span; the enumeration size b^(d(n-d))-ish is checked against the budget
    first.
    """
    n = len(mat)
    if d < 0 or d > n:
        return []
    if d == 0:
        return [()]
    admit("subspaces", DEFAULT_ENUM_BUDGET, gaussian_binomial(n, d, field.size))
    elements, cols = list(field.elements()), list(zip(*mat))  # cols[j]: the image of unit vector j
    out = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        rows = [[field.zero] * n for _ in range(d)]  # one basis per pivot pattern; only free entries change
        for i, p in enumerate(pivots):
            rows[i][p] = field.one
        for values in product(elements, repeat=len(free)):
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            if _is_invariant(field, cols, rows, pivots):
                out.append(tuple(tuple(r) for r in rows))
    return out


def _is_invariant(field, cols, rows, pivots):
    for row, p in zip(rows, pivots):
        image = cols[p]  # the image of an echelon row: its pivot entry is one, the entries before it zero
        for j in range(p + 1, len(row)):
            if row[j] != field.zero:
                image = field.vec_submul(image, field.neg(row[j]), cols[j])
        if any(c != field.zero for c in linalg.reduce_vector(field, image, rows, pivots)):
            return False
    return True


def right_components_brute(space, d, subspaces):
    """The exponent-d right components of space.poly from the given invariant d-subspaces.

    For each subspace W (a basis from invariant_subspaces), expands prod_(alpha in W) (x - alpha)
    over the extension by a balanced product tree (von zur Gathen, Gerhard, Modern Computer
    Algebra, 10.1), checks that only r-power exponents survive and that every coefficient
    descends to F_q, and certifies the result by an exact right division. The r^d roots of
    one subspace and the roots of all of them are each admitted against a budget first.
    """
    f, tower, field, r = space.poly, space.tower, space.field, space.tower.r
    admit("roots", DEFAULT_ENUM_BUDGET, r**d)
    admit("root products", ROOT_PRODUCT_BUDGET, len(subspaces) * r**d)
    fq, elements, kernel = tower.fq, list(tower.fr.elements()) if d else (), packed(field)  # F_r may not fit in memory
    leaf, mul = (kernel.pack, kernel.mul) if kernel else (partial(UPoly, field), UPoly.__mul__)
    components = []
    for sub in subspaces:
        # F_r elements are elements of the extension, so a combination is a plain sum
        gens = [_combination(field, row, space.basis) for row in sub]
        roots = (_combination(field, cs, gens) for cs in product(elements, repeat=d))
        layer = [leaf((field.neg(alpha), field.one)) for alpha in roots]  # packed once where gf2x has a kernel
        while len(layer) > 1:
            layer = [mul(a, b) for a, b in zip(layer[::2], layer[1::2])] + layer[len(layer) // 2 * 2 :]
        skew = [fq.zero] * (d + 1)
        for i, c in enumerate(kernel.unpack(layer[0]) if kernel else layer[0].coeffs):
            if c == field.zero:
                continue
            exp = _r_power_index(i, r, d)
            if exp is None:
                raise DescentFailure(f"root product has support at degree {i}")
            if c >= fq.size:  # F_q is the set of elements below q
                raise DescentFailure("root product coefficient is not in F_q")
            skew[exp] = c
        h = AdditivePoly(tower, skew)
        if not right_divmod(f, h)[1].is_zero:
            raise DescentFailure("reconstructed component does not divide on the right")
        components.append(h)
    components.sort(key=lambda h: tuple(fq.to_index(c) for c in h.coeffs))
    return components


def _combination(field, coeffs, elements):
    acc = field.zero
    for c, alpha in zip(coeffs, elements):
        acc = field.add(acc, field.mul(c, alpha))
    return acc


def right_components_by_division(f, d):
    """All monic right components of exponent d, found by trial division.

    Tries each of the q^d monic h of exponent d and keeps those that
    right-divide f exactly. Needs no root space, extension field or
    lattice, and accepts non-squarefree f.
    """
    fq = f.tower.fq
    if d < 0 or d > f.exponent:
        return []
    admit("trial divisions", DEFAULT_ENUM_BUDGET, fq.size**d)
    out = []
    for low in product(list(fq.elements()) if d else (), repeat=d):  # F_q may not fit in memory
        h = AdditivePoly(f.tower, low + (fq.one,))
        if right_divmod(f, h)[1].is_zero:
            out.append(h)
    return out


def _r_power_index(i, r, d):
    for e in range(d + 1):
        if r**e == i:
            return e
    return None


def maximal_chains_brute(field, mat):
    """Count saturated chains of invariant subspaces from 0 to the full space.

    Walks the lattice by quotienting out one minimal invariant subspace at a
    time and memoizes on the literal quotient matrices. A closure is minimal
    when each of its points closes to all of it: each projective point's cyclic
    closure is computed once, and its dimension looked up in a byte table.
    Chain lengths are asserted equal along the way.
    """
    memo = {}

    def key(m):
        return tuple(tuple(field.to_index(c) for c in row) for row in m)

    def rec(m):
        n = len(m)
        if n == 0:
            return 1, 0
        k = key(m)
        if k in memo:
            return memo[k]
        admit("chain walk", DEFAULT_POINT_BUDGET, field.size**n)
        total = 0
        depth = None
        for sub in _minimal_invariant_subspaces(field, m):
            count, sub_depth = rec(_quotient_matrix(field, m, sub))
            if depth is None:
                depth = sub_depth + 1
            elif depth != sub_depth + 1:
                raise InternalInconsistency("maximal chains of unequal length")
            total += count
        if depth is None:
            raise InternalInconsistency("no minimal invariant subspace found")
        memo[k] = (total, depth)
        return memo[k]

    return rec([list(row) for row in mat])[0]


def _projective_points(field, n):
    elements = list(field.elements())
    for pivot in range(n):
        for tail in product(elements, repeat=n - pivot - 1):
            yield [field.zero] * pivot + [field.one] + list(tail)


def _cyclic_closure(field, mat, vec):
    rows, pivots, stack = [], [], [vec]
    while stack:
        if linalg.echelon_insert(field, rows, pivots, stack.pop()) is None:
            stack.append(linalg.mat_vec(field, mat, rows[-1]))
    return [row for _, row in sorted(zip(pivots, rows))], sorted(pivots)  # echelon_insert left them reduced


def _minimal_invariant_subspaces(field, mat):
    n, q = len(mat), field.size
    closures, dims = {}, bytearray(q**n)  # dims[base-q index of a point]: its closure's dimension
    for point in _projective_points(field, n):
        rows, pivots = _cyclic_closure(field, mat, point)
        dims[reduce(lambda x, c: x * q + c, point, 0)] = len(rows)
        k = tuple(tuple(field.to_index(c) for c in row) for row in rows)
        closures.setdefault(k, (rows, pivots))
    minimal = []
    for rows, pivots in closures.values():
        if len(rows) == 1 or _is_simple(field, rows, dims):
            minimal.append((rows, pivots))
    return minimal


def _is_simple(field, rows, dims):
    dim, q = len(rows), field.size
    for point in _projective_points(field, dim):
        w = [field.zero] * len(rows[0])
        for c, row in zip(point, rows):
            if c != field.zero:
                w = [field.add(a, field.mul(c, b)) for a, b in zip(w, row)]
        if dims[reduce(lambda x, c: x * q + c, w, 0)] != dim:  # w is normalized: rows are reduced
            return False
    return True


def _quotient_matrix(field, mat, sub):
    rows, pivots = sub
    n = len(mat)
    nonpiv = [j for j in range(n) if j not in pivots]
    cols = []
    for j in nonpiv:
        image = linalg.mat_vec(field, mat, [field.one if t == j else field.zero for t in range(n)])
        image = linalg.reduce_vector(field, image, rows, pivots)
        cols.append([image[t] for t in nonpiv])
    return [[cols[j][i] for j in range(len(nonpiv))] for i in range(len(nonpiv))]


def minpoly_of_matrix(field, mat):
    """Minimal polynomial via per-basis-vector Krylov closures and lcm."""
    n = len(mat)
    result = UPoly.one(field)
    for t in range(n):
        unit = [field.one if i == t else field.zero for i in range(n)]
        part = UPoly(field, linalg.vector_minpoly_coeffs(field, mat, unit))
        g = upoly.gcd(result, part)
        result = (result * part) // g
        if result.degree == n:
            break
    return result.monic()


def species_from_matrix(field, mat):
    """Species read directly off a matrix: factor the minimal polynomial and
    take second differences of the nullity sequences of eigenfactor powers."""
    n = len(mat)
    if n == 0:
        return Species(())
    minpoly = minpoly_of_matrix(field, mat)
    items = []
    for u, mult in upoly.factor(minpoly):
        u_at = _poly_at_matrix(field, u, mat)
        nu = [0]
        power = linalg.identity(field, n)
        for _ in range(mult + 1):
            power = linalg.mat_mul(field, power, u_at)
            nu.append(n - linalg.rank(field, power))
        items.append((u.degree, lambdas_from_nullities(nu, u.degree)))
    species = Species.make(items)
    if species.dimension() != n:
        raise InternalInconsistency(
            f"species dimension {species.dimension()} differs from matrix size {n}"
        )
    return species


def _poly_at_matrix(field, poly, mat):
    n = len(mat)
    acc = [[field.zero] * n for _ in range(n)]
    for c in reversed(poly.coeffs):
        acc = linalg.mat_mul(field, acc, mat)
        for i in range(n):
            acc[i][i] = field.add(acc[i][i], c)
    return acc
