"""Exact counting of invariant subspaces, chains, and right components.

Every count is a closed form over the species: line counts are sums of
q-brackets, maximal-chain counts a memoized recursion over quotient
species, and full subspace generating functions Birkhoff's count of the
submodules of one eigenfactor over the field of size r^m, recombined by
the z -> z^m substitution and polynomial multiplication. All counts are
arbitrary-precision integers.
"""

from functools import lru_cache

from . import upoly
from .additive import projective_part, strip_inseparable
from .errors import InputError, InternalInconsistency
from .frobjordan import rational_jordan_form

Partition = tuple  # weakly decreasing positive integers


def q_bracket(n, b):
    """[n]_b = (b^n - 1)/(b - 1), the number of lines in an n-space over GF(b)."""
    if n < 0 or b < 2:
        raise InputError("q_bracket needs n >= 0 and base >= 2")
    return (b**n - 1) // (b - 1)


def gaussian_binomial(n, d, b):
    """Number of d-dimensional subspaces of an n-space over a size-b field."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= b ** (n - i) - 1
        den *= b ** (i + 1) - 1
    return num // den


def partitions(m, _max=None):
    """Unordered partitions of m as weakly decreasing tuples."""
    if m == 0:
        yield ()
        return
    top = m if _max is None else min(m, _max)
    for first in range(top, 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def mhat(n, r):
    """Superset of the achievable counts of exponent-1 right components.

    Built by closing {0} under bracket sums of partitions of every i <= n;
    values that coincide numerically at this r are merged.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    out = {0}
    for i in range(1, n + 1):
        for part in partitions(i):
            out.add(sum(q_bracket(j, r) for j in part))
    return out


def count_lines(species, r):
    """Invariant lines: sum of [s_i]_r over the degree-one signatures only."""
    total = 0
    for m, lam in species:
        if m == 1:
            total += q_bracket(sum(lam), r)
    return total


class GeneratingFunction:
    """Coefficients g_0..g_n counting invariant subspaces by dimension."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    def __getitem__(self, d):
        return self.coeffs[d]

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, GeneratingFunction) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"GeneratingFunction({list(self.coeffs)})"

    def to_json(self):
        return list(self.coeffs)


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _submodule_counts(lam, b):
    """Invariant-subspace counts by dimension for one eigenfactor.

    The eigenfactor is a torsion module over F_b[[t]] of type mu, where
    lam_j blocks have size j; its conjugate is mu'_i = lam_i + lam_(i+1) + ...
    Birkhoff's formula counts the submodules of type nu <= mu as
    prod_i b^(nu'_(i+1) (mu'_i - nu'_i)) [mu'_i - nu'_(i+1) choose nu'_i - nu'_(i+1)]_b.
    The sum over all weakly decreasing nu' runs from the last column down,
    keyed by nu'_(i+1), each state holding its counts by |nu| so far.
    """
    conj = [sum(lam[i:]) for i in range(len(lam))]
    dim = sum(conj)
    states = {0: [1] + [0] * dim}
    for top in reversed(conj):
        nxt = {}
        for below, counts in states.items():
            for v in range(below, top + 1):
                w = b ** (below * (top - v)) * gaussian_binomial(top - below, v - below, b)
                acc = nxt.setdefault(v, [0] * (dim + 1))
                for s, c in enumerate(counts):
                    if c:
                        acc[s + v] += w * c
        states = nxt
    return [sum(col) for col in zip(*states.values())]


def generating_function(species, r):
    """Invariant-subspace counts by dimension for a species over GF(r).

    Each eigenfactor of degree m contributes its submodule counts over the
    field of size r^m (Birkhoff's closed form), with z replaced by z^m; the
    per-eigenfactor polynomials are then multiplied.
    """
    g = [1]
    for m, lam in species:
        gi = _submodule_counts(lam, r**m)
        if gi != gi[::-1] or gi[0] != 1:
            raise InternalInconsistency(f"per-eigenfactor counts {gi} are not palindromic")
        spaced = [0] * (m * (len(gi) - 1) + 1)
        for d, c in enumerate(gi):
            spaced[m * d] = c
        g = _poly_mul_int(g, spaced)
    if g != g[::-1] or g[0] != 1:
        raise InternalInconsistency(f"generating function {g} is not palindromic")
    return GeneratingFunction(g)


def depth_counts(lam, i, base):
    """Number of minimal invariant subspaces of depth i: base^(lam_(i+1)+..) * [lam_i]_base."""
    lam = tuple(lam)
    if not 1 <= i <= len(lam):
        raise InputError(f"depth {i} out of range for {lam}")
    return base ** sum(lam[i:]) * q_bracket(lam[i - 1], base)


def quotient_species(lam, i):
    """Signature after quotienting by a depth-i minimal subspace, trailing zeros trimmed."""
    lam = list(lam)
    if not 1 <= i <= len(lam) or lam[i - 1] < 1:
        raise InputError(f"no depth-{i} subspace for signature {lam}")
    if i == 1:
        lam[0] -= 1
    else:
        lam[i - 2] += 1
        lam[i - 1] -= 1
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


@lru_cache(maxsize=None)
def _chains(entries, r):
    if not entries:
        return 1
    total = 0
    seen = set()
    for idx, (m, lam) in enumerate(entries):
        if (m, lam) in seen:
            continue  # identical signatures contribute identically
        seen.add((m, lam))
        mult = entries.count((m, lam))
        rest = list(entries)
        rest.remove((m, lam))
        base = r**m
        for i in range(1, len(lam) + 1):
            if lam[i - 1] == 0:
                continue
            count = depth_counts(lam, i, base)
            qlam = quotient_species(lam, i)
            child = rest + ([(m, qlam)] if qlam else [])
            total += mult * count * _chains(tuple(sorted(child)), r)
    return total


def count_chains(species, r):
    """Number of maximal chains of invariant subspaces (complete decompositions).

    Memoized recursion over species multisets: each step quotients by one
    minimal invariant subspace, whose count depends on its depth, with
    bracket base r^m for an eigenfactor of degree m.
    """
    return _chains(tuple(species), r)


def count_right_components(f, d, seed=0):
    """Number of monic right components of exponent d of a monic squarefree f.

    Zero outside 0 <= d <= n; closed forms serve d in {0, 1, n-1, n}; other
    dimensions read g_d off the generating function.
    """
    if not f.is_monic or not f.is_squarefree:
        raise InputError("input must be monic squarefree")
    n = f.exponent
    if d < 0 or d > n:
        return 0
    if d in (0, n):
        return 1
    species = rational_jordan_form(f, seed).species
    return count_from_species(species, f.tower.r, d)


def count_from_species(species, r, d):
    """Right-component count for a known species: closed forms at the edges,
    the generating function in between."""
    n = species.dimension()
    if d < 0 or d > n:
        return 0
    if d in (0, n):
        return 1
    if d == 1 or d == n - 1:  # the lattice is self-dual, so g_(n-1) = g_1
        return count_lines(species, r)
    return generating_function(species, r)[d]


def count_right_components_general(f_general, d, seed=0):
    """Right-component count for an arbitrary monic additive polynomial.

    Strips the inseparable part x^(r^m) and sums the squarefree counts over
    the window d-m..d; empty above exponent n + m.
    """
    m, f = strip_inseparable(f_general)
    if d < 0:
        return 0
    n = f.exponent
    total = 0
    for i in range(max(0, d - m), min(d, n) + 1):
        total += count_right_components(f, i, seed=seed)
    return total


def ore_criterion_count(f, dense_cap=None):
    """Exponent-1 component count via roots of the projective image.

    Counts a in F_q* with projective_part(f, r-1)(a) = 0; each such root
    corresponds to the right component x^r - a x. Agrees with
    count_right_components(f, 1).
    """
    if not f.is_monic or not f.is_squarefree:
        raise InputError("input must be monic squarefree")
    tower = f.tower
    kwargs = {} if dense_cap is None else {"dense_cap": dense_cap}
    pi = projective_part(f, tower.r - 1, **kwargs)
    zero = tower.fq.zero
    return sum(1 for a in upoly.roots(pi) if a != zero)
