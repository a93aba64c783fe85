"""Helpers that only the tests use: dense expansions, left division, random
additive polynomials, explicit matrices realizing a species, and the checked
nullity sequence of one eigenfactor."""

from addpoly import upoly
from addpoly.additive import (
    DENSE_EXPANSION_CAP,
    AdditivePoly,
    central_to_upoly,
    minimal_central_left_component,
)
from addpoly.errors import BudgetExceeded, InputError, InternalInconsistency, NotInSubfield
from addpoly.frobjordan import RationalJordanForm, _nullity_sequence
from addpoly.upoly import UPoly


def left_divmod(f, h):
    """(g, rem) with f = h o g + rem and expn(rem) < expn(h).

    Solves for g coefficient by coefficient; the leading unknown appears
    through an r^m-power, undone by the inverse Frobenius (exact here).
    """
    f._check(h)
    if h.is_zero:
        raise ZeroDivisionError("left division by the zero polynomial")
    tower = f.tower
    fq = tower.fq
    zero = fq.zero
    n, m = f.exponent, h.exponent
    if n < m:
        return AdditivePoly.zero(tower), f
    rem = list(f.coeffs)
    quot = [zero] * (n - m + 1)
    for t in range(n, m - 1, -1):
        c = rem[t]
        if c == zero:
            continue
        gj = tower.frob_r(fq, fq.div(c, h.coeffs[m]), -m)
        quot[t - m] = gj
        for i in range(m + 1):
            hi = h.coeffs[i]
            if hi != zero:
                rem[t - m + i] = fq.sub(rem[t - m + i], fq.mul(hi, tower.frob_r(fq, gj, i)))
    return AdditivePoly(tower, quot), AdditivePoly(tower, rem[:m])


def is_central(f):
    """Whether f lies in the centre F_r[x;q] of F_q[x;r]."""
    tower = f.tower
    k = tower.k
    for i, c in enumerate(f.coeffs):
        if i % k:
            if c != tower.fq.zero:
                return False
        else:
            try:
                tower.coerce_q_to_r(c)
            except NotInSubfield:
                return False
    return True


def to_dense(f):
    """Expand to an ordinary degree-r^n polynomial over F_q (gated; test/oracle use)."""
    tower = f.tower
    if f.is_zero:
        return UPoly.zero(tower.fq)
    r = tower.r
    n = f.exponent
    if r**n > DENSE_EXPANSION_CAP:
        raise BudgetExceeded(f"dense expansion of degree r^{n} exceeds cap {DENSE_EXPANSION_CAP}")
    coeffs = [tower.fq.zero] * (r**n + 1)
    for i, c in enumerate(f.coeffs):
        coeffs[r**i] = c
    return UPoly(tower.fq, coeffs)


def random_additive(tower, n, rng, monic=True, squarefree=True):
    """Seeded random element of exponent n, monic squarefree by default."""
    fq = tower.fq
    if n < 0:
        return AdditivePoly.zero(tower)
    coeffs = [fq.random(rng) for _ in range(n + 1)]
    if squarefree:
        while coeffs[0] == fq.zero:
            coeffs[0] = fq.random(rng)
    if monic:
        coeffs[-1] = fq.one
    else:
        while coeffs[-1] == fq.zero:
            coeffs[-1] = fq.random(rng)
    return AdditivePoly(tower, coeffs)


def substitute(a, b):
    """Plain composition a(b) of two ordinary polynomials."""
    acc = UPoly.zero(a.field)
    for c in reversed(a.coeffs):
        acc = acc * b + UPoly.constant(a.field, c)
    return acc


def nullity_sequence(f, u, k):
    """Kernel dimensions nu_j of u(Frobenius)^j on the root space, j = 0..k+1.

    Each nu_j is the exponent of gcrc(f, the central preimage of u^j);
    validates that u is an eigenfactor of f of multiplicity exactly k.
    """
    tau_fstar = central_to_upoly(minimal_central_left_component(f))
    if not (tau_fstar % u**k).is_zero or (tau_fstar % u ** (k + 1)).is_zero:
        raise InputError("u is not an eigenfactor of the stated multiplicity")
    nu = _nullity_sequence(f, u, k)
    if any(nu[j] > nu[j + 1] for j in range(k + 1)) or nu[k] != nu[k + 1]:
        raise InternalInconsistency(f"nullity sequence {nu} is not monotone-stable")
    return nu


def companion_matrix(u):
    """Companion matrix of a monic u: ones on the subdiagonal, -coeffs in the last column."""
    if not u.is_monic or u.degree < 1:
        raise InputError("companion matrix needs a monic polynomial of degree >= 1")
    field = u.field
    m = u.degree
    mat = [[field.zero] * m for _ in range(m)]
    for i in range(1, m):
        mat[i][i - 1] = field.one
    for i in range(m):
        mat[i][m - 1] = field.neg(u.coeffs[i])
    return mat


def jordan_block(u, order):
    """Rational Jordan block: `order` copies of the companion matrix chained by identities."""
    if order < 1:
        raise InputError("block order must be positive")
    field = u.field
    m = u.degree
    comp = companion_matrix(u)
    size = order * m
    mat = [[field.zero] * size for _ in range(size)]
    for b in range(order):
        off = b * m
        for i in range(m):
            for j in range(m):
                mat[off + i][off + j] = comp[i][j]
        if b + 1 < order:
            for i in range(m):
                mat[off + i][off + m + i] = field.one
    return mat


def block_matrix(form):
    """Explicit block-diagonal matrix over F_r realizing a rational Jordan form."""
    field = form.field
    pieces = []
    for u, orders in form.blocks:
        for order in orders:
            pieces.append(jordan_block(u, order))
    size = sum(len(p) for p in pieces)
    mat = [[field.zero] * size for _ in range(size)]
    off = 0
    for piece in pieces:
        for i, row in enumerate(piece):
            mat[off + i][off : off + len(piece)] = row
        off += len(piece)
    return mat


def realize_species(field, species):
    """A rational Jordan form over `field` with the given species.

    Eigenfactors are assigned in lexicographic order per degree; raises
    InputError when the field has too few irreducibles of some degree.
    """
    need = {}
    for m, _lam in species:
        need[m] = need.get(m, 0) + 1
    pool = {}
    for m, count in need.items():
        gen = upoly.irreducible_polynomials(field, m)
        polys = []
        try:
            for _ in range(count):
                polys.append(next(gen))
        except StopIteration:
            raise InputError(
                f"species needs {count} distinct irreducibles of degree {m} over GF({field.size})"
            ) from None
        pool[m] = polys
    blocks = []
    for m, lam in species:
        u = pool[m].pop(0)
        orders = []
        for j in range(len(lam), 0, -1):
            orders.extend([j] * lam[j - 1])
        blocks.append((u, tuple(orders)))
    nullities = tuple(_nullities_from_orders(u.degree, orders) for u, orders in blocks)
    return RationalJordanForm(field, tuple(blocks), nullities)


def _nullities_from_orders(m, orders):
    k = orders[0]
    nu = [0]
    for j in range(1, k + 2):
        nu.append(m * sum(min(j, o) for o in orders))
    return nu
