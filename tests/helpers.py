"""Helpers that only the tests use: dense expansions, left division, random
additive polynomials, explicit matrices realizing a species, the checked
nullity sequence of one eigenfactor, gcrc by right division at every step and
the nullity sequence from the powers of u, a separate Ben-Or loop, a per-degree
distinct-degree loop and the modular power they take on upoly's packed
products, a tuple reference field and schoolbook polynomials over it,
the oracle's root products over every invariant subspace of one dimension, the
capped order of y modulo a polynomial, the chain walk's minimal invariant
subspaces with every point's closure recomputed, the memoized recursion over
quotient signatures that counted maximal chains of one eigenfactor, the
partitions that mhat's bracket sums run over, and the command lines that the CLI
parser tests draw."""

import functools
from itertools import count, product

from hypothesis import strategies as st

from addpoly import linalg, oracle, upoly
from addpoly.additive import (
    DENSE_EXPANSION_CAP,
    AdditivePoly,
    central_to_upoly,
    minimal_central_left_component,
    right_divmod,
    upoly_to_central,
)
from addpoly.cli import COMMANDS
from addpoly.errors import InputError, InternalInconsistency, NotInSubfield, admit
from addpoly.frobjordan import RationalJordanForm, _nullity_sequence
from addpoly.latcount import q_bracket
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
    admit("dense expansion", DENSE_EXPANSION_CAP, r**n)
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
        acc = acc * b + UPoly(a.field, [c])
    return acc


def nullity_sequence(f, u, k):
    """Kernel dimensions nu_j of u(Frobenius)^j on the root space, j = 0..k+1.

    frobjordan._nullity_sequence peels them: nu_(j+1) - nu_j is the exponent of
    gcrc(h_j, u(x^q)), h_0 = f and h_(j+1) the right quotient of h_j by that gcrc;
    validates that u is an eigenfactor of f of multiplicity exactly k.
    """
    tau_fstar = central_to_upoly(minimal_central_left_component(f))
    if not (tau_fstar % u**k).is_zero or (tau_fstar % u ** (k + 1)).is_zero:
        raise InputError("u is not an eigenfactor of the stated multiplicity")
    nu = _nullity_sequence(f, u, k)
    if any(nu[j] > nu[j + 1] for j in range(k + 1)) or nu[k] != nu[k + 1]:
        raise InternalInconsistency(f"nullity sequence {nu} is not monotone-stable")
    return nu


def gcrc_by_division(f, g):
    """The monic gcrc by the right-Euclidean algorithm with a right_divmod per step, on every
    level: the reference for additive.gcrc, which keeps byte-slot levels on packed ints."""
    if f.is_zero and g.is_zero:
        raise InputError("gcrc(0, 0) is undefined")
    a, b = (f, g) if f.exponent >= g.exponent else (g, f)
    while not b.is_zero:
        a, b = b, right_divmod(a, b)[1]
    return a.monic()


def nullity_sequence_by_powers(f, u, k):
    """nu_j = the exponent of gcrc(f, u^j(x^q)) for j = 0..k+1, the powers of u built one at a
    time: the reference for frobjordan._nullity_sequence, which peels one kernel of u per step."""
    tower = f.tower
    nu, power = [0], UPoly.one(tower.fr)  # gcrc(f, x) = x
    for _ in range(k + 1):
        power = power * u
        nu.append(gcrc_by_division(f, upoly_to_central(tower, power)).exponent)
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


def powmod(base, n, mod):
    """base^n mod `mod` by upoly._power on upoly._barrett's packed residues, the products
    that factoring runs on; n may be a big integer."""
    if mod.degree < 1:
        raise InputError("modulus must have degree >= 1")
    if n == 0:
        return UPoly.one(base.field)
    pack, unpack, mulmod = upoly._barrett(base.field, mod.coeffs)[1:4]
    return UPoly(base.field, unpack(upoly._power(pack((base % mod).coeffs), n, mulmod)))


def ben_or_is_irreducible(u):
    """Ben-Or's irreducibility test as a loop of its own, the reference for
    upoly.is_irreducible: u of degree m is irreducible iff
    gcd(u, y^(s^i) - y) = 1 for i = 1..m/2."""
    field = u.field
    yy = UPoly.y(field) % u
    h = yy
    for _ in range(u.degree // 2):
        h = powmod(h, field.size, u)
        if upoly.gcd(h - yy, u).degree != 0:
            return False
    return True


def brute_components(space, d):
    """oracle.right_components_brute on every invariant d-subspace of the root space."""
    subspaces = oracle.invariant_subspaces(space.tower.fr, space.frobenius_matrix, d)
    return oracle.right_components_brute(space, d, subspaces)


def order_of_y_mod(u, cap=1 << 16):
    """Least E >= 1 with y^E = 1 mod u, found by capped iteration: the reference for the
    extension degree of oracle.root_space, which is this order for u = tau(f*).

    Raises BudgetExceeded past the cap rather than factoring group orders.
    """
    if u.is_zero:
        raise InputError("zero modulus")
    if u.coeffs[0] == u.field.zero:
        raise InputError("y divides the modulus; order undefined")
    if u.degree == 0:
        return 1
    one = UPoly.one(u.field)
    cur = UPoly.y(u.field) % u
    for e in count(1):
        admit("order of y", cap, e)
        if cur == one:
            return e
        cur = cur.shift(1) % u


def per_degree_distinct_degree(w):
    """Distinct-degree splitting with one gcd per degree, the reference for
    upoly._distinct_degree: yields (product of the degree-d factors, d) of a
    monic squarefree w, lowest d first, then what is left as one irreducible."""
    field = w.field
    h = UPoly.y(field) % w
    d = 0
    while w.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, field.size, w)
        g = upoly.gcd(h - UPoly.y(field) % w, w)
        if g.degree > 0:
            yield g, d
            w = w // g
            h = h % w
    if w.degree > 0:
        yield w, w.degree


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


class TupleExtensionField:
    """Reference extension base[y]/(modulus) whose elements are m-tuples over base.

    This is the representation the int field kernel replaced: schoolbook
    products with one base call per coefficient pair, inverses as powers.
    It shares no table or packing code with ffield.ExtensionField.
    """

    def __init__(self, base, modulus_coeffs):
        modulus = tuple(modulus_coeffs)
        if len(modulus) < 3 or modulus[-1] != base.one:
            raise InputError("extension modulus must be monic of degree >= 2")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.size = base.size**self.degree
        self.char = base.char
        self.zero = (base.zero,) * self.degree
        self.one = (base.one,) + (base.zero,) * (self.degree - 1)
        # reduction rule y^m = -(low part of the modulus)
        self._red = tuple(base.neg(c) for c in modulus[: self.degree])

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        base = self.base
        return tuple(base.neg(x) for x in a)

    def mul(self, a, b):
        base = self.base
        m = self.degree
        zero = base.zero
        prod = [zero] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj != zero:
                    prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
        for t in range(2 * m - 2, m - 1, -1):
            c = prod[t]
            if c != zero:
                prod[t] = zero
                for i, ri in enumerate(self._red):
                    if ri != zero:
                        prod[t - m + i] = base.add(prod[t - m + i], base.mul(c, ri))
        return tuple(prod[:m])

    @functools.lru_cache(maxsize=256)  # a remainder loop inverts one divisor's leading coefficient again and again
    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.size - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        n = int(n)
        if n < 0:
            a, n = self.inv(a), -n
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in range(self.degree))

    def from_int(self, i):
        return (self.base.from_int(i),) + (self.base.zero,) * (self.degree - 1)

    def to_index(self, a):
        idx = 0
        s = self.base.size
        for c in reversed(a):
            idx = idx * s + self.base.to_index(c)
        return idx

    def from_index(self, i):
        if not 0 <= i < self.size:
            raise InputError(f"index {i} out of range for field of size {self.size}")
        s = self.base.size
        cs = []
        for _ in range(self.degree):
            cs.append(self.base.from_index(i % s))
            i //= s
        return tuple(cs)

    def elements(self):
        return (self.from_index(i) for i in range(self.size))

    def encode(self, a):
        return [self.base.encode(c) for c in a]

    def decode(self, obj):
        if not isinstance(obj, list):
            raise InputError(f"expected a length-{self.degree} coefficient list, got {obj!r}")
        if len(obj) != self.degree:
            raise InputError(
                f"coefficient list has length {len(obj)}, expected {self.degree}"
            )
        return tuple(self.base.decode(c) for c in obj)

    def __repr__(self):
        return f"GF({self.size})"


def tuple_reference(tw, top=None):
    """The TupleExtensionField of a tower's F_q, or of a level `top` above it, on the same
    construction polynomials, so an element's index is the int of ffield (F_p itself when
    q = p)."""
    ref = tw.fp
    for level in (tw.fr, tw.fq) + ((top,) if top else ()):
        if level.size != ref.size:
            ref = TupleExtensionField(ref, [ref.from_index(c) for c in level.modulus])
    return ref


class ReferencePolys:
    """Schoolbook polynomials over a reference field (a TupleExtensionField, or a prime
    field), taken and returned as trimmed lists of element indices: products, remainders,
    monic gcds, modular powers and Ben-Or's irreducibility test. One field call per
    coefficient pair; it shares no code with upoly."""

    def __init__(self, field):
        self.field = field

    def _elements(self, a):
        out = [self.field.from_index(c) for c in a]
        while out and out[-1] == self.field.zero:
            out.pop()
        return out

    def _indices(self, a):
        out = [self.field.to_index(c) for c in a]
        while out and not out[-1]:
            out.pop()
        return out

    def _product(self, a, b):
        f = self.field
        out = [f.zero] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = f.add(out[i + j], f.mul(x, y))
        return out

    def _remainder(self, a, b):
        f, rem = self.field, list(a)
        inv = f.inv(b[-1])
        while len(rem) >= len(b):
            c, shift = f.mul(rem[-1], inv), len(rem) - len(b)
            for i, y in enumerate(b):
                rem[shift + i] = f.sub(rem[shift + i], f.mul(c, y))
            while rem and rem[-1] == f.zero:
                rem.pop()
        return rem

    def product(self, a, b):
        return self._indices(self._product(self._elements(a), self._elements(b)))

    def skew_divmod(self, a, b, r=1):
        """(quotient, remainder) of a by a nonzero b: with r = 1 long division in F[y], with r a
        power of the characteristic right division in F[x; r], where step s subtracts q_s x^(r^s) o b,
        whose coefficients are q_s times b's raised to r^s."""
        f, rem, b = self.field, [self.field.from_index(c) for c in a], self._elements(b)
        m = len(b) - 1
        quot = [f.zero] * max(len(rem) - m, 0)
        for s in reversed(range(len(quot))):
            twist = [f.pow(c, pow(r, s, f.size - 1) or 1) for c in b]  # x^(r^s), r^s mod size - 1
            quot[s] = c = f.div(rem[s + m], twist[m])
            for i, y in enumerate(twist):
                rem[s + i] = f.sub(rem[s + i], f.mul(c, y))
        return self._indices(quot), self._indices(rem[:m])

    def remainder(self, a, b):
        return self._indices(self._remainder(self._elements(a), self._elements(b)))

    def monic_gcd(self, a, b):
        f, a, b = self.field, self._elements(a), self._elements(b)
        while b:
            a, b = b, self._remainder(a, b)
        inv = f.inv(a[-1]) if a else f.zero
        return self._indices([f.mul(c, inv) for c in a])

    def power_mod(self, a, n, m):
        m = self._elements(m)
        result, a = [self.field.one], self._remainder(self._elements(a), m)
        while n:
            if n & 1:
                result = self._remainder(self._product(result, a), m)
            a = self._remainder(self._product(a, a), m)
            n >>= 1
        return self._indices(result)

    def difference(self, a, b):
        f, a, b = self.field, self._elements(a), self._elements(b)
        n = max(len(a), len(b))
        a, b = a + [f.zero] * (n - len(a)), b + [f.zero] * (n - len(b))
        return self._indices([f.sub(x, y) for x, y in zip(a, b)])

    def is_irreducible(self, u):
        """Ben-Or: u of degree d is irreducible iff gcd(u, y^(s^i) - y) = 1 for i = 1..d/2."""
        h = y = self.remainder([0, 1], u)
        for _ in range((len(u) - 1) // 2):
            h = self.power_mod(h, self.field.size, u)
            if len(self.monic_gcd(self.difference(h, y), u)) != 1:
                return False
        return True


def krylov_closure(field, mat, vec):
    """The rref (rows, pivots) of span{vec, mat vec, mat^2 vec, ...}, grown until the rank stops."""
    vectors = [list(vec)]
    while True:
        rows, pivots = linalg.rref(field, vectors)
        if len(rows) < len(vectors):
            return rows, pivots
        vectors.append(linalg.mat_vec(field, mat, vectors[-1]))


def _normalized_points(field, n):
    """Every nonzero vector of length n whose first nonzero entry is one."""
    for vec in product(list(field.elements()), repeat=n):
        if next((c for c in vec if c != field.zero), field.one) == field.one and any(vec):
            yield list(vec)


def is_simple_by_closures(field, mat, rows):
    """The chain walk's minimality test as it was before the closure table: whether every
    point of the span of rows has a cyclic closure, recomputed here, as large as the span."""
    dim = len(rows)
    for point in _normalized_points(field, dim):
        w = [field.zero] * len(rows[0])
        for c, row in zip(point, rows):
            if c != field.zero:
                w = [field.add(a, field.mul(c, b)) for a, b in zip(w, row)]
        if len(krylov_closure(field, mat, w)[0]) != dim:
            return False
    return True


def minimal_invariant_subspaces_by_closures(field, mat):
    """The reference for oracle._minimal_invariant_subspaces: the distinct cyclic closures of
    the projective points that are simple, as a set of tuples of rref rows."""
    closures = {tuple(map(tuple, krylov_closure(field, mat, v)[0])) for v in _normalized_points(field, len(mat))}
    return {c for c in closures if len(c) == 1 or is_simple_by_closures(field, mat, [list(r) for r in c])}


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


@functools.lru_cache(maxsize=None)
def chains_by_recursion(lam, base):
    """The reference for latcount._chains: maximal chains of submodules of one eigenfactor
    of signature lam over GF(base), by memoized recursion over the quotient signatures."""
    if not lam:
        return 1
    return sum(
        depth_counts(lam, i, base) * chains_by_recursion(quotient_species(lam, i), base)
        for i in range(1, len(lam) + 1)
        if lam[i - 1]
    )


def partitions(m, _max=None):
    """Unordered partitions of m as weakly decreasing tuples."""
    if m == 0:
        yield ()
        return
    top = m if _max is None else min(m, _max)
    for first in range(top, 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def signatures(dim):
    """Every signature of dimension dim: lam_j blocks of order j, sum_j j lam_j = dim."""
    for part in partitions(dim):
        lam = [0] * (part[0] if part else 0)
        for order in part:
            lam[order - 1] += 1
        yield tuple(lam)


# values for an option: integer-like tokens (signed, spaced, with an underscore, past Python's
# int-to-str limit of 4300 digits), junk and the empty string
OPTION_VALUES = ["3", "-3", "+3", " 3", "1_0", "9" * 5000, "x", "job.json", "species", ""]


def command_lines(command):
    """Command lines `command *tokens`: each token run either one of the command's own options
    followed by a value, or one token of an alphabet that holds its exact long options, their
    abbreviations and = forms, every other command's options, --, -, -h and OPTION_VALUES."""
    valued = ["--" + name.replace("_", "-") for name in COMMANDS[command][2]]
    valued += ["--input"] if command != "mhat" else []
    own = valued + ["--pretty"] + (["--all"] if command == "count" else [])
    every = {"--input", "--pretty", "--all"}
    every = every.union(*(("--" + name.replace("_", "-") for name in s) for _, _, s in COMMANDS.values()))
    short = [flag[:n] for flag in own for n in (3, 4, len(flag) - 1) if 2 < n < len(flag)]
    alphabet = own + short + [flag + "=3" for flag in own] + sorted(every) + ["--", "-", "-h"] + OPTION_VALUES
    runs = st.one_of(
        st.sampled_from(alphabet).map(lambda token: [token]),
        st.tuples(st.sampled_from(valued), st.sampled_from(OPTION_VALUES)).map(list),
    )
    return st.lists(runs, max_size=4).map(lambda runs: [command] + [token for run in runs for token in run])
