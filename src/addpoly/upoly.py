"""Dense commutative univariate polynomials over an explicit finite field.

Coefficients are stored little-endian with a nonzero leading coefficient;
the zero polynomial is the empty tuple. The indeterminate is written y
throughout to keep it apart from the skew variable x used elsewhere.

The field is any object with the small arithmetic protocol used across this
package (zero/one attributes, add/sub/neg/mul/inv/div/pow, size, char,
from_index/to_index, elements, encode/decode); see ffield for the concrete
implementations. Factorization is complete over any such field: squarefree
decomposition with p-th-root descent, distinct-degree splitting (stopped at
its first factor, Ben-Or's irreducibility test), then random equal-degree
splitting from a fixed generator state, on packed ints over a prime field.
Over an odd prime field, distinct-degree splitting takes one gcd per block of
degrees, not one per degree: the interval trick of V. Shoup, "A new polynomial
factorization algorithm and its implementation", J. Symbolic Comput. 20
(1995), after J. von zur Gathen and V. Shoup, "Computing Frobenius maps and
factoring polynomials", Comput. Complexity 2 (1992).
"""

import functools
import random
from itertools import repeat

from .errors import BudgetExceeded, InputError, InternalInconsistency, Overflow

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
        s = _width(p, min(len(a), len(b)))
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
        if f.size == 2:
            quot, rem = _mask_divmod(_to_mask(self.coeffs), _to_mask(other.coeffs))
            return UPoly(f, _from_mask(quot)), UPoly(f, _from_mask(rem))
        if f.size == f.char:
            quot, rem = _slot_divmod(f.char, self.coeffs, other.coeffs)
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


# Packed arithmetic over F_p (the idiom of NTL's GF2X and zz_pX). Over F_2 a
# polynomial is a bit mask: bit i holds the coefficient of y^i. Over odd p the
# coefficients are s-byte slots of one int, converted by bytes and int
# builtins. Slot sums grow with each product or division step and are taken
# mod p only before one could carry: whole byte planes by translation tables
# when s * p < 256 (twice as fast as slot by slot on F_3 and F_5). Euclid and
# Barrett reduction run on these ints (J. von zur Gathen, J. Gerhard, Modern
# Computer Algebra, ch. 9 and 14).
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
    if s == 1:
        return int.from_bytes(bytes(coeffs), "little")
    if s * p < 256:
        buf = bytearray(len(coeffs) * s)
        buf[::s] = bytes(coeffs)
        return int.from_bytes(buf, "little")
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(s), repeat("little"))), "little")


def _unpack(p, x, length, s):
    """The low `length` slots of x, each reduced mod p, without trailing zeros."""
    raw = x.to_bytes(length * s, "little")
    if s * p < 256:
        if s > 1:  # sum the byte planes' residues; each sum stays below 256, so no carries
            planes = (raw[j::s].translate(_residues(p, j)) for j in range(s))
            raw = sum(map(int.from_bytes, planes, repeat("little"))).to_bytes(length, "little")
        return raw.translate(_residues(p, 0)).rstrip(b"\0")
    cuts = range(0, len(raw) + 1, s)
    slots = map(raw.__getitem__, map(slice, cuts, cuts[1:]))
    out = list(map(p.__rmod__, map(int.from_bytes, slots, repeat("little"))))
    while out and not out[-1]:
        out.pop()
    return out


def _slot_divmod(p, a, b):
    """Quotient and remainder of a by b over odd p (b[-1] nonzero): long division on one
    packed int, one multiply-add of -b per quotient term. A slot holds the sum of all
    terms or, if narrower, p^3: room for p terms between reductions mod p."""
    s = (min(p**3 - 1, p * p * max(1, len(a) - len(b) + 1)).bit_length() + 7) // 8
    w, m, top = 8 * s, len(b) - 1, 256**s - 1
    x, quot = _pack(p, a, s), [0] * (len(a) - m)
    neg = int.from_bytes(p.to_bytes(s, "little") * (m + 1), "little") - _pack(p, b, s)  # p - b_i in slot i
    inv = pow(b[-1], p - 2, p)
    room = left = (256**s - p) // (p * (p - 1))  # terms between reductions: each adds below p(p-1)
    for shift in range(len(a) - len(b), -1, -1):
        c = (x >> w * (shift + m) & top) * inv % p  # slots above hold eliminated multiples of p
        if c:
            quot[shift] = c
            x += c * neg << w * shift
            left -= 1
            if not left:
                x, left = _pack(p, _unpack(p, x, len(a), s), s), room
    return quot, _unpack(p, x, len(a), s)


def gcd(a, b):
    """Monic greatest common divisor: Euclid on bit masks over F_2, in packed slots over odd p."""
    f = a.field
    if f.size == 2:
        x, y = _to_mask(a.coeffs), _to_mask(b.coeffs)
        while y:
            x, y = y, _mask_divmod(x, y)[1]
        return UPoly(f, _from_mask(x))
    if f.size == f.char:
        x, y = a.coeffs, b.coeffs
        while y:
            x, y = y, _slot_divmod(f.char, x, y)[1]
        return UPoly(f, x).monic()
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _width(p, terms):
    """Bytes per slot for sums of `terms` products of residues mod p: terms (p-1)^2 < 256^s."""
    return ((terms * (p - 1) ** 2).bit_length() + 7) // 8


@functools.lru_cache(maxsize=64)
def _barrett(p, m):
    """(s, pack, unpack, mulmod): products mod m, of degree d over F_p, on packed ints of
    degree < d. Over F_2 these are bit masks (s = 0), reduced by long division. Over odd
    p they hold s-byte slots, reduced by Barrett's method: the quotient of a product by m
    is the top of (high half) * (y^(2d-2) // m), built once per modulus. Each of the three
    products sums at most d terms below (p-1)^2 in a slot, and the last adds a residue
    below p to at most d-1 of them, so d(p-1)^2 < 256^s keeps every slot from carrying."""
    d = len(m) - 1
    if p == 2:
        mask = _to_mask(m)
        return 0, _to_mask, _from_mask, lambda u, v: _mask_divmod(_clmul(u, v), mask)[1]
    s = _width(p, d)
    mu = _pack(p, _slot_divmod(p, [0] * (2 * d - 2) + [1], m)[0], s)
    neg_m = _pack(p, [-c % p for c in m[:d]], s)  # the low d coefficients of -m
    high, top, low = 8 * s * d, 8 * s * max(d - 2, 0), (1 << 8 * s * d) - 1
    if s == 1:  # one translation reduces every slot
        residue = _residues(p, 0)

        def canonical(v, length):
            return int.from_bytes(v.to_bytes(length, "little").translate(residue), "little")

    else:

        def canonical(v, length):
            return _pack(p, _unpack(p, v, length, s), s)

    def mulmod(u, v):
        prod = canonical(u * v, 2 * d - 1)
        quot = canonical((prod >> high) * mu >> top, d - 1)
        return canonical(prod + quot * neg_m & low, d)

    return s, lambda coeffs: _pack(p, coeffs, s), lambda x: _unpack(p, x, d, s), mulmod


def powmod(base, n, mod):
    """base^n mod `mod` by square and multiply, left to right; n may be a big integer.
    Over a prime field the powers stay packed, and each product is _barrett's."""
    if mod.degree < 1:
        raise InputError("modulus must have degree >= 1")
    f = base.field
    if n == 0:
        return UPoly.one(f)
    if f.size == f.char:
        _, pack, unpack, mulmod = _barrett(f.char, mod.coeffs)
    else:
        pack, unpack, mulmod = functools.partial(UPoly, f), lambda u: u.coeffs, lambda u, v: u * v % mod
    result = x = pack((base % mod).coeffs)
    for bit in bin(n)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, x)
    return UPoly(f, unpack(result))


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


# Degrees whose h_d - y share one gcd with w over an odd prime field. Blocks of
# 6 to 10 ran the species-prime jobs fastest; 16 ran them slower.
_BLOCK = 8


def _distinct_degree(w, batched=True):
    """Yield (product, factor degree) pairs of a monic squarefree polynomial, lowest degree first.

    h_d = y^(s^d) mod w. Over an odd prime field, when `batched`, the h_d - y of
    _BLOCK consecutive degrees are multiplied mod w and share one gcd with w, which
    is split by degree only when nontrivial. Elsewhere each degree takes its own
    gcd, so a caller that stops at the first pair pays for one degree at a time."""
    field = w.field
    s, p = field.size, field.char
    block = _BLOCK if batched and s == p > 2 else 1
    y = UPoly.y(field)
    h, d = y, 0
    while w.degree >= 2 * (d + 1):
        top = min(d + block, w.degree // 2)
        diffs = []
        for _ in range(d, top):
            h = powmod(h, s, w)
            diffs.append(h - y)
        prod = diffs[0]
        if len(diffs) > 1:
            _, pack, unpack, mulmod = _barrett(p, w.coeffs)
            prod = UPoly(field, unpack(functools.reduce(mulmod, (pack(u.coeffs) for u in diffs))))
        g = gcd(prod, w)
        for j, diff in enumerate(diffs, d + 1):
            # the factors left in g have degrees j..top, so g has one of degree j only
            # if the rest of its degree is a sum of such degrees
            rest = g.degree - j
            if rest < 0 or -(-rest // top) * j > rest:
                continue
            part = g if j == top or rest == 0 else gcd(diff, g)
            if part.degree > 0:
                yield part, j
                w, g = w // part, g // part
        d = top
    if w.degree > 0:
        yield w, w.degree


# Failed split attempts before _equal_degree gives up. A product of degree-d
# irreducibles splits with probability at least 1/2 per attempt.
_SPLIT_TRIES = 64


def _equal_degree(g, d, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    field = g.field
    if g.degree < d or g.degree % d:
        raise InternalInconsistency(f"a part of degree {g.degree} is no product of degree-{d} factors")
    if g.degree == d:
        return [g]
    s = field.size
    for _ in range(_SPLIT_TRIES):
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
    raise InternalInconsistency(f"no split of a part of degree {g.degree} into degree-{d} factors")


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
    """Ben-Or's irreducibility test: distinct-degree splitting stopped at its first factor.

    u of degree m is irreducible iff gcd(u, y^(s^i) - y) = 1 for i = 1..m/2;
    a reducible u is rejected at the degree of its smallest factor.
    """
    if u.degree < 1:
        raise InputError("irreducibility is only defined for degree >= 1")
    return next(_distinct_degree(u, batched=False))[1] == u.degree


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
