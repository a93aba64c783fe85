"""Dense commutative univariate polynomials over an explicit finite field.

Coefficients are stored little-endian with a nonzero leading coefficient;
the zero polynomial is the empty tuple. The indeterminate is written y
throughout to keep it apart from the skew variable x used elsewhere.

The field is any object with the small arithmetic protocol used across this
package (zero/one attributes, add/sub/neg/mul/inv/div/pow, size, char,
from_index/to_index, elements, encode/decode); see ffield for the concrete
implementations. Factorization is complete over any such field: squarefree
decomposition with p-th-root descent, distinct-degree splitting, then
random equal-degree splitting from a fixed generator state.
"""

import functools
import random
from itertools import repeat

from .errors import BudgetExceeded, InputError, Overflow

DEFAULT_ORDER_CAP = 1 << 16
DEFAULT_ROOT_SCAN_CAP = 1 << 16


class UPoly:
    """An ordinary polynomial over a fixed finite field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        zero = field.zero
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one,))

    @classmethod
    def y(cls, field):
        return cls(field, (field.zero, field.one))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        inv = self.field.inv(self.lc)
        return UPoly(self.field, [self.field.mul(inv, c) for c in self.coeffs])

    def evaluate(self, a):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def derivative(self):
        f = self.field
        return UPoly(f, [f.mul(f.from_int(i), c) for i, c in enumerate(self.coeffs)][1:])

    def shift(self, n):
        """Multiply by y^n."""
        if self.is_zero:
            return self
        return UPoly(self.field, (self.field.zero,) * n + self.coeffs)

    def _check(self, other):
        if not isinstance(other, UPoly) or other.field is not self.field:
            raise InputError("polynomials live over different fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return UPoly(f, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return UPoly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        f, p, a, b = self.field, self.field.char, self.coeffs, other.coeffs
        if f.size != p or not a or not b:
            return UPoly(f, _mul_schoolbook(f, a, b))
        if p == 2:
            return UPoly(f, _from_mask(_clmul(_to_mask(a), _to_mask(b))))
        s = (min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8 + 1  # no slot carries
        return UPoly(f, _unpack(p, _pack(p, a, s) * _pack(p, b, s), len(a) + len(b) - 1, s))

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        result = UPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return UPoly.zero(f), self
        if f.size == f.char:
            quot, rem = _divmod_prime(f.char, self.coeffs, other.coeffs)
            return UPoly(f, quot), UPoly(f, rem)
        rem = list(self.coeffs)
        dn, dm = self.degree, other.degree
        inv_lc = f.inv(other.lc)
        quot = [f.zero] * (dn - dm + 1)
        for s in range(dn - dm, -1, -1):
            c = rem[s + dm]
            if c == f.zero:
                continue
            g = f.mul(c, inv_lc)
            quot[s] = g
            rem[s : s + dm + 1] = f.vec_submul(rem[s : s + dm + 1], g, other.coeffs)
        return UPoly(f, quot), UPoly(f, rem[:dm])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"UPoly({self.encode()})"

    def sort_key(self):
        return (self.degree, tuple(self.field.to_index(c) for c in self.coeffs))

    def encode(self):
        """Canonical JSON form: little-endian list of element encodings."""
        return [self.field.encode(c) for c in self.coeffs]

    @classmethod
    def decode(cls, field, obj):
        if not isinstance(obj, list):
            raise InputError("polynomial encoding must be a list of coefficients")
        return cls(field, [field.decode(c) for c in obj])


def _mul_schoolbook(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    width = len(b)
    for i, ai in enumerate(a):
        if ai != field.zero:
            out[i : i + width] = field.vec_submul(out[i : i + width], field.neg(ai), b)
    return out


# Packed arithmetic over F_p (the idiom of NTL's GF2X). Over F_2 a polynomial
# is a bit mask: bit i holds the coefficient of y^i. Over odd p the
# coefficients are s-byte slots of one int, wide enough that no slot carries,
# converted by bytes and int builtins. When s * p < 256, translation tables
# reduce whole byte planes: twice as fast as slot by slot on F_3 and F_5.
_TO_BITS = bytes.maketrans(b"\0\1", b"01")
_FROM_BITS = bytes.maketrans(b"01", b"\0\1")


def _to_mask(coeffs):
    return int(bytes(coeffs[::-1]).translate(_TO_BITS), 2) if coeffs else 0


def _from_mask(x):
    return tuple(bin(x)[:1:-1].encode().translate(_FROM_BITS))


def _clmul(a, b):
    """Carry-less product of two bit masks."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    out = 0
    for i, bit in enumerate(bin(b)[:1:-1]):
        if bit == "1":
            out ^= a << i
    return out


def _mask_divmod(a, b):
    """Quotient and remainder of bit masks, b nonzero: shifted-xor long division."""
    quot, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        quot |= 1 << shift
        a ^= b << shift
    return quot, a


@functools.cache
def _residues(p, j):
    """Translation table: byte b to (b * 256^j) mod p."""
    return bytes((b << 8 * j) % p for b in range(256))


def _pack(p, coeffs, s):
    if s * p < 256:
        buf = bytearray(len(coeffs) * s)
        buf[::s] = bytes(coeffs)
        return int.from_bytes(buf, "little")
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(s), repeat("little"))), "little")


def _unpack(p, x, length, s):
    """The low `length` slots of x, each reduced mod p."""
    raw = x.to_bytes(length * s, "little")
    if s * p < 256:
        # sum the byte planes' residues; each sum stays below 256, so no carries
        acc = sum(int.from_bytes(raw[j::s].translate(_residues(p, j)), "little") for j in range(s))
        return tuple(acc.to_bytes(length, "little").translate(_residues(p, 0)))
    cuts = range(0, len(raw) + 1, s)
    slots = map(raw.__getitem__, map(slice, cuts, cuts[1:]))
    return tuple(map(p.__rmod__, map(int.from_bytes, slots, repeat("little"))))


def _divmod_prime(p, a, b):
    """Long division of a by b (len(a) >= len(b) >= 1), one slot update per quotient term."""
    if p == 2:
        quot, rem = _mask_divmod(_to_mask(a), _to_mask(b))
        return _from_mask(quot), _from_mask(rem)
    dm, dq = len(b) - 1, len(a) - len(b)
    # Each slot takes at most dq + 1 additions of c * (p - b_i) below p^2.
    s = (p + (dq + 1) * p * (p - 1)).bit_length() // 8 + 1
    w = 8 * s
    rem = _pack(p, a, s)
    # p - b_i in every slot of -b (a slot holding p still reads 0 mod p)
    neg = p * ((1 << w * dm) - 1) // ((1 << w) - 1) - _pack(p, b[:-1], s)
    inv_lc = pow(b[-1], p - 2, p)
    quot = [0] * (dq + 1)
    for shift in range(dq, -1, -1):
        c = (rem >> w * (shift + dm)) % (1 << w) * inv_lc % p
        if c:
            quot[shift] = c
            rem += c * neg << w * shift
    return tuple(quot), _unpack(p, rem & (1 << w * dm) - 1, dm, s)


def gcd(a, b):
    """Monic greatest common divisor."""
    if a.field.size == 2:
        x, y = _to_mask(a.coeffs), _to_mask(b.coeffs)
        while y:
            x, y = y, _mask_divmod(x, y)[1]
        return UPoly(a.field, _from_mask(x))
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def powmod(base, n, mod):
    """base^n mod `mod` by square and multiply; n may be a big integer."""
    if mod.degree < 1:
        raise InputError("modulus must have degree >= 1")
    result = UPoly.one(base.field)
    base = base % mod
    while n:
        if n & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        n >>= 1
    return result


def random_upoly(field, degree, rng, monic=True):
    if degree < 0:
        return UPoly.zero(field)
    coeffs = [field.random(rng) for _ in range(degree)]
    if monic:
        coeffs.append(field.one)
    else:
        lead = field.random(rng)
        while lead == field.zero:
            lead = field.random(rng)
        coeffs.append(lead)
    return UPoly(field, coeffs)


def pth_root(u):
    """Exact p-th root of a polynomial whose derivative vanishes."""
    field = u.field
    p = field.char
    root_exp = field.size // p  # a^(size/p) is the p-th root of a
    coeffs = []
    for i, c in enumerate(u.coeffs):
        if i % p == 0:
            coeffs.append(field.pow(c, root_exp))
        elif c != field.zero:
            raise InputError("polynomial is not a p-th power")
    return UPoly(field, coeffs)


def squarefree_decomposition(u):
    """Split a monic polynomial into coprime squarefree parts with multiplicities.

    Returns a list of (monic squarefree UPoly, multiplicity) with the product
    of part^multiplicity equal to the input. Parts with vanishing derivative
    are handled by exact p-th-root descent.
    """
    if u.is_zero:
        raise InputError("cannot decompose the zero polynomial")
    field = u.field
    p = field.char
    out = {}

    def accum(w, mult):
        if w.degree > 0:
            out[mult] = out.get(mult, UPoly.one(field)) * w

    def helper(v, mult):
        dv = v.derivative()
        if dv.is_zero:
            if v.degree == 0:
                return
            helper(pth_root(v), mult * p)
            return
        c = gcd(v, dv)
        w = v // c
        i = 1
        while w.degree > 0:
            y_ = gcd(w, c)
            accum(w // y_, mult * i)
            w = y_
            c = c // y_
            i += 1
        if c.degree > 0:
            helper(pth_root(c), mult * p)

    helper(u.monic(), 1)
    return [(poly, mult) for mult, poly in sorted(out.items())]


def _distinct_degree(w):
    """Split a monic squarefree polynomial into (product, factor degree) pairs."""
    field = w.field
    s = field.size
    out = []
    h = UPoly.y(field) % w
    d = 0
    while w.degree > 2 * (d + 1) - 1 and w.degree > 0:
        d += 1
        h = powmod(h, s, w)
        g = gcd(h - (UPoly.y(field) % w), w)
        if g.degree > 0:
            out.append((g, d))
            w = w // g
            h = h % w
    if w.degree > 0:
        out.append((w, w.degree))
    return out


def _equal_degree(g, d, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    field = g.field
    if g.degree == d:
        return [g]
    s = field.size
    while True:
        a = random_upoly(field, rng.randrange(1, g.degree), rng, monic=False)
        if field.char == 2:
            m = s.bit_length() - 1  # s = 2^m
            t = a % g
            cur = t
            for _ in range(m * d - 1):
                cur = powmod(cur, 2, g)
                t = (t + cur) % g
            c = gcd(t, g)
        else:
            b = powmod(a, (s**d - 1) // 2, g)
            c = gcd(b - UPoly.one(field), g)
        if 0 < c.degree < g.degree:
            return _equal_degree(c, d, rng) + _equal_degree(g // c, d, rng)


def factor(u):
    """Complete factorization into monic irreducibles with multiplicities.

    The result is sorted by (degree, coefficient indices). The random
    equal-degree splitting always starts from random.Random(0), and the
    factorization is unique, so the output depends on u alone.
    """
    if u.is_zero:
        raise InputError("cannot factor the zero polynomial")
    rng = random.Random(0)
    found = {}
    for part, mult in squarefree_decomposition(u):
        for prod_, d in _distinct_degree(part):
            for irr in _equal_degree(prod_, d, rng):
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: fm[0].sort_key())


def is_irreducible(u):
    """Ben-Or's irreducibility test over the polynomial's own field.

    u of degree m is irreducible iff gcd(u, y^(s^i) - y) = 1 for i = 1..m/2;
    a reducible u is rejected at the degree of its smallest factor.
    """
    if u.degree < 1:
        raise InputError("irreducibility is only defined for degree >= 1")
    field = u.field
    yy = UPoly.y(field) % u
    h = yy
    for _ in range(u.degree // 2):
        h = powmod(h, field.size, u)
        if gcd(h - yy, u).degree != 0:
            return False
    return True


def order_of_y_mod(u, cap=DEFAULT_ORDER_CAP):
    """Least E >= 1 with y^E = 1 mod u, found by capped iteration.

    Raises Overflow past the cap rather than factoring group orders.
    """
    if u.is_zero:
        raise InputError("zero modulus")
    if u.coeff(0) == u.field.zero:
        raise InputError("y divides the modulus; order undefined")
    if u.degree == 0:
        return 1
    one = UPoly.one(u.field)
    cur = UPoly.y(u.field) % u
    for e in range(1, cap + 1):
        if cur == one:
            return e
        cur = cur.shift(1) % u
    raise Overflow(f"order of y mod {u.encode()} exceeds cap {cap}")


def irreducible_polynomials(field, degree):
    """Yield monic irreducibles of the given degree in lexicographic order.

    Order compares coefficient vectors low-to-high as integers, so the first
    yield is the canonical construction polynomial for this degree.
    """
    if degree < 1:
        raise InputError("degree must be >= 1")
    size = field.size
    # Candidate index: the base-size digits of a_0..a_(degree-1), a_0 the most
    # significant; counted lazily, since a large prime field has no room for
    # a list of its elements. For degree > 1, a_0 = 0 would be divisible by y.
    for index in range(0 if degree == 1 else size ** (degree - 1), size**degree):
        digits = []
        for _ in range(degree):
            index, digit = divmod(index, size)
            digits.append(field.from_index(digit))
        u = UPoly(field, digits[::-1] + [field.one])
        if is_irreducible(u):
            yield u


def irreducible_polynomial(field, degree):
    """Lexicographically smallest monic irreducible of the given degree."""
    return next(irreducible_polynomials(field, degree))


def roots(u, scan_cap=DEFAULT_ROOT_SCAN_CAP):
    """All roots in the coefficient field, by exhaustive scan."""
    field = u.field
    if field.size > scan_cap:
        raise BudgetExceeded(f"root scan over a field of size {field.size} exceeds cap {scan_cap}")
    if u.is_zero:
        raise InputError("every element is a root of the zero polynomial")
    return [a for a in field.elements() if u.evaluate(a) == field.zero]
