"""Exact counting of invariant subspaces, chains, and right components.

Every count is read from the species, which species_of gives for every
monic f: the inseparable part x^(r^m) is one more block, of order m. Line
counts are sums of q-brackets, and full subspace generating functions
Birkhoff's count of the submodules of one eigenfactor over the field of size
r^m, recombined by the z -> z^m substitution and polynomial multiplication.
Maximal-chain counts have no closed form: they are a multinomial times
per-eigenfactor chain counts, each a walk over the quotient signatures,
admitted against CHAIN_STATE_BUDGET. All counts are arbitrary-precision
integers.
"""

from itertools import accumulate
from math import comb

from . import upoly
from .additive import projective_part, strip_inseparable
from .errors import InputError, InternalInconsistency, admit
from .frobjordan import Species, rational_jordan_form

MHAT_PARTITION_BUDGET = 1 << 18
CHAIN_STATE_BUDGET = 1 << 17


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


def mhat(n, r):
    """Superset of the achievable counts of exponent-1 right components: the bracket
    sums of the partitions of every i <= n. More than MHAT_PARTITION_BUDGET
    partitions, counted by Euler's pentagonal recurrence, raise BudgetExceeded
    first. sums[i] adds a part j to each sum over i - j; compositions give the
    same set as partitions.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    p = [1]  # p[i] = number of partitions of i
    for i in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= i:
            sign = 1 if k % 2 else -1
            total += sign * p[i - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= i:
                total += sign * p[i - k * (3 * k + 1) // 2]
            k += 1
        p.append(total)
        admit("partitions", MHAT_PARTITION_BUDGET, sum(p) - 1)
    brackets = [q_bracket(j, r) for j in range(n + 1)]
    sums = [{0}]
    for i in range(1, n + 1):
        sums.append({s + brackets[j] for j in range(1, i + 1) for s in sums[i - j]})
    return set().union(*sums)


def count_lines(species, r):
    """Invariant lines: sum of [s_i]_r over the degree-one signatures only."""
    total = 0
    for m, lam in species:
        if m == 1:
            total += q_bracket(sum(lam), r)
    return total


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
    return tuple(g)


def _sub_signatures(lam):
    """Number of signatures mu <= lam, the states of the chain walk from lam: the
    partitions inside the one whose parts are lam's block orders, C(E + k, k) for k
    blocks of order E. ways[v] counts the choices of the parts so far ending in v."""
    ways = [0] * len(lam) + [1]
    for order in range(len(lam), 0, -1):
        for _ in range(lam[order - 1]):
            ways = list(accumulate(reversed(ways)))[::-1][: order + 1]
    return sum(ways)


def _chains(lam, base):
    """Maximal chains of submodules of one eigenfactor of signature lam over GF(base).

    A maximal chain quotients by one minimal submodule at a time. Those of
    depth i number base^(lam_(i+1)+..) [lam_i]_base, and each turns one block
    of order i into one of order i - 1. The walk carries the chain counts of
    one layer of quotient signatures, all as long as lam, to the next.
    """
    layer = {tuple(lam): 1}
    for _ in range(sum(j * c for j, c in enumerate(lam, start=1))):
        below = {}
        for mu, chains in layer.items():
            above = 0  # blocks of order > i
            for i in range(len(mu), 0, -1):
                c = mu[i - 1]
                if c:
                    nu = list(mu)
                    nu[i - 1] -= 1
                    if i > 1:
                        nu[i - 2] += 1
                    nu = tuple(nu)
                    below[nu] = below.get(nu, 0) + chains * base**above * q_bracket(c, base)
                above += c
        layer = below
    return layer[(0,) * len(lam)]


def count_chains(species, r):
    """Number of maximal chains of invariant subspaces (complete decompositions).

    The lattice is the product of its per-eigenfactor lattices, and a maximal
    chain of a product is a shuffle of maximal chains of the factors. So the
    count is the multinomial (sum l_i)! / prod l_i! of the composition lengths
    l_i = sum_j j lambda_j, times the chains of each eigenfactor over GF(r^m).
    Those have no product formula, so more than CHAIN_STATE_BUDGET states of
    their walks in all raise BudgetExceeded before any walk.
    """
    admit("chain states", CHAIN_STATE_BUDGET, sum(_sub_signatures(lam) for _, lam in species))
    total, length = 1, 0
    for m, lam in species:
        li = sum(j * c for j, c in enumerate(lam, start=1))
        length += li
        total *= comb(length, li) * _chains(lam, r**m)
    return total


def species_of(f):
    """The species that counts a monic f = x^(r^m) o f_0, f_0 squarefree: that of f_0 (none for
    f_0 = x) plus, for m > 0, one entry of one block of order m. x^(r^m) is normal in F_q[x; r]
    (Ore 1933), so the lattice of f is f_0's times a chain of length m, which is that entry's."""
    m, f0 = strip_inseparable(f)
    entries = rational_jordan_form(f0).species.entries if f0.exponent else ()
    return Species.make(entries + (((1, [0] * (m - 1) + [1]),) if m else ()))


def count_right_components(f, d):
    """Number of monic right components of exponent d of a monic f, read from species_of(f)."""
    return count_from_species(species_of(f), f.tower.r, d)


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


def ore_criterion_count(f):
    """Exponent-1 component count via roots of the projective image.

    Counts a in F_q* with projective_part(f, r-1)(a) = 0; each such root
    corresponds to the right component x^r - a x. Agrees with
    count_right_components(f, 1).
    """
    if not f.is_monic or not f.is_squarefree:
        raise InputError("input must be monic squarefree")
    tower = f.tower
    pi = projective_part(f, tower.r - 1)
    zero = tower.fq.zero
    return sum(1 for a in upoly.roots(pi) if a != zero)
