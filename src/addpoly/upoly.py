"""Dense polynomials over an explicit finite field: the core shared with F_q[x;r], and F[y].

Coefficients are stored little-endian with a nonzero leading coefficient; the zero polynomial
is the empty tuple. The indeterminate is written y throughout to keep it apart from the skew
variable x used elsewhere. The field is any object with the arithmetic protocol used across
this package (zero/one, add/sub/neg/mul/inv/div/pow, size, char, from_index/to_index,
elements, encode/decode, scales); see ffield, where PrimeField and ExtensionField take the
part every level shares from their base _Level.

Factorization is complete over any such field: squarefree decomposition, distinct-degree
splitting (stopped at its first factor: Ben-Or) and random equal-degree splitting from a fixed
state. Over F_p and over F_(2^e) (gf2x) the last two keep w, y^(s^d) mod w and every gcd and
quotient packed and build a UPoly only for what they yield; over an odd prime field one gcd
serves a block of degrees: the interval trick of V. Shoup, "A new polynomial factorization
algorithm and its implementation", J. Symbolic Comput. 20 (1995), after J. von zur Gathen and
V. Shoup, "Computing Frobenius maps and factoring polynomials", Comput. Complexity 2 (1992).
"""

import functools
import random
from itertools import repeat
from operator import add, xor

from .errors import InputError, InternalInconsistency, admit
from .gf2x import packed

DEFAULT_ROOT_SCAN_CAP = 1 << 16


class DensePoly:
    """Coefficients over the field `field`, low first, trimmed: zero is the empty tuple.

    F[y] is the skew ring with the identity twist (O. Ore, Ann. of Math. 34, 1933), so
    UPoly and additive.AdditivePoly share this and _product and _divide. Each keeps its
    ring, equality, hash and size, and _like(coeffs) builds an element of that ring."""

    __slots__ = ("coeffs",)

    @staticmethod
    def _trim(coeffs, zero):
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        return tuple(cs)

    @classmethod
    def zero(cls, ring):
        return cls(ring, ())

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def scale(self, c):
        """The scalar multiple c * self, c on the left."""
        f = self.field
        return self._like([f.mul(c, a) for a in self.coeffs])

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == self.field.one:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def __add__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return self._like([f.neg(c) for c in self.coeffs])

    def encode(self):
        """Canonical JSON form: little-endian list of element encodings."""
        return [self.field.encode(c) for c in self.coeffs]

    def __repr__(self):
        return f"{type(self).__name__}({self.encode()})"


def _product(field, a, twists):
    """The coefficients of sum_i a_i y^i b_i, b_i = twists[i % len(twists)] the coefficients
    of b under its i-th twist. One twist [b] gives a * b in F[y]; the r-power twists of h
    give the skew product a o h in F_q[x; r]."""
    width, zero = len(twists[0]), field.zero
    out = [zero] * (len(a) + width - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            out[i : i + width] = field.vec_submul(out[i : i + width], field.neg(ai), twists[i % len(twists)])
    return out


def _divide(field, coeffs, twists, r=None):
    """(quotient, remainder) coefficient lists of long division by the nonzero b of these
    twists, as in _product: step s subtracts q_s y^s b_s. One twist [b] divides in F[y];
    the r-power twists of h divide on the right in F_q[x; r]. Over a level with byte-slot tables
    (char 2 up to 256 elements, odd p up to 16), _byte_divider."""
    m, zero, one = len(twists[0]) - 1, field.zero, field.one
    if field.scales:
        quot, rem = _byte_divider(field, list(map(bytes, twists)))(int.from_bytes(bytes(coeffs), "little"))
        return quot.to_bytes(max(len(coeffs) - m, 0), "little"), rem.to_bytes(m, "little")
    inverses = [one if twists[0][m] == one else field.inv(twists[0][m])]  # b's lead, inverted once
    while inverses[0] != one and len(inverses) < len(twists):  # and twisted: b_s's lead is b's to the r^s
        inverses.append(field.pow(inverses[-1], r))
    rem = list(coeffs)
    quot = [zero] * (len(rem) - m)
    for s in range(len(quot) - 1, -1, -1):
        top = rem[s + m]
        if top != zero:
            quot[s] = c = field.mul(top, inverses[s % len(inverses)])
            rem[s : s + m + 1] = field.vec_submul(rem[s : s + m + 1], c, twists[s % len(twists)])
    return quot, rem[:m]


def _byte_divider(field, twists):
    """x -> (x // b, x % b) on ints of byte slots, b by its twists' bytes as in _divide, over a level
    of at most 256 elements over char 2 or 16 over odd p: step s subtracts twist s times q_s, one
    translate through ffield's scale table of q_s, shifted s bytes, by the level's slot_sub."""
    m, scales, sub = len(twists[0]) - 1, field.scales, field.slot_sub
    steps = [(scales[field.inv(b[m])], b) for b in twists]  # top -> q_s, and twist s

    def divide(x):
        quot = bytearray(max((x.bit_length() + 7) // 8 - m, 0))
        for s in range(len(quot) - 1, -1, -1):
            if top := x >> 8 * (s + m):  # the slots above s + m are cleared
                inverse, b = steps[s % len(steps)]
                quot[s] = c = inverse[top]
                x = sub(x, int.from_bytes(b.translate(scales[c]), "little") << 8 * s)
        return int.from_bytes(quot, "little"), x

    return divide


class UPoly(DensePoly):
    """An ordinary polynomial over a fixed finite field."""

    __slots__ = ("field",)

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = self._trim(coeffs, field.zero)

    def _like(self, coeffs):
        return UPoly(self.field, coeffs)

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

    def __mul__(self, other):
        self._check(other)
        f, p, a, b, k = self.field, self.field.char, self.coeffs, other.coeffs, packed(self.field)
        if k:
            return UPoly(f, k.unpack(k.mul(k.pack(a), k.pack(b))))
        if f.size != p or not a or not b:
            return UPoly(f, _product(f, a, [b]))
        s = _width(p, min(len(a), len(b)))
        return UPoly(f, _unpack(p, _pack(p, a, s) * _pack(p, b, s), len(a) + len(b) - 1, s))

    def __pow__(self, n):
        if n < 0:
            raise InputError("negative polynomial power")
        return _power(self, n, UPoly.__mul__) if n else UPoly.one(self.field)

    def __divmod__(self, other):
        self._check(other)
        f, k = self.field, packed(self.field)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < other.degree:
            return UPoly.zero(f), self
        if other.degree == 0:  # a constant c: the quotient is self / c
            return self if other.coeffs[0] == f.one else self.scale(f.inv(other.coeffs[0])), UPoly.zero(f)
        if k:
            quot, rem = map(k.unpack, k.divider(k.pack(other.coeffs))(k.pack(self.coeffs)))
        elif f.size == f.char:  # a slot holds the sum of all quotient terms or, if narrower, p^3
            p, m = f.char, other.degree
            s = (min(p**3 - 1, p * p * (self.degree - m + 1)).bit_length() + 7) // 8
            quot = [0] * (self.degree - m + 1)
            rem = _unpack(p, _slot_divide(p, _pack(p, self.coeffs, s), _pack(p, other.coeffs, s), s, quot), m, s)
        else:
            quot, rem = _divide(f, self.coeffs, [other.coeffs])
        return UPoly(f, quot), UPoly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return isinstance(other, UPoly) and self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def sort_key(self):
        return (self.degree, tuple(self.field.to_index(c) for c in self.coeffs))

    @classmethod
    def decode(cls, field, obj):
        if not isinstance(obj, list):
            raise InputError("polynomial encoding must be a list of coefficients")
        return cls(field, [field.decode(c) for c in obj])


def _digits(x, base, count):
    """The low `count` base-`base` digits of x, low first."""
    out = []
    for _ in range(count):
        x, d = divmod(x, base)
        out.append(d)
    return out


# Packed arithmetic over odd p (NTL's zz_pX; over F_2 and F_(2^e), gf2x): coefficients in
# s-byte slots of one int, converted by bytes and int builtins. Slot sums grow with each product
# or division step and are taken mod p only before one could carry, when s * p < 256 on the int
# itself: upper bytes folded onto low bytes by whole-int masks, then one translation table.
# Euclid and Barrett run on these ints (von zur Gathen, Gerhard, Modern Comp. Alg., 8.4, 9, 14).
@functools.cache
def _residues(p):
    """Translation table: byte b to b mod p."""
    return bytes(b % p for b in range(256))


def _pack(p, coeffs, s):
    if s == 1:
        return int.from_bytes(bytes(coeffs), "little")
    if s * p < 256:
        buf = bytearray(len(coeffs) * s)
        buf[::s] = bytes(coeffs)
        return int.from_bytes(buf, "little")
    return int.from_bytes(b"".join(map(int.to_bytes, coeffs, repeat(s), repeat("little"))), "little")


@functools.lru_cache(maxsize=64)
def _ones(s, length):
    return int.from_bytes(b"\1".ljust(s, b"\0") * length, "little")


@functools.lru_cache(maxsize=256)
def _reducer(p, length, s):
    """x -> x with each of its low `length` s-byte slots taken mod p; if s * p < 256 on the int: upper
    bytes j folded onto the low byte as 256^j mod p times byte j until none is set, then translated."""
    if s * p >= 256:
        return lambda x: _pack(p, _unpack(p, x, length, s), s)
    table, size, low = _residues(p), length * s, 255 * _ones(s, length)
    folds, high = [(8 * j, 256**j % p) for j in range(1, s)], ~low

    def reduce(x):
        while h := x & high:
            x ^= h
            for j, c in folds:
                x += (h >> j & low) * c
        return int.from_bytes(x.to_bytes(size, "little").translate(table), "little")

    return reduce


def _reduce(p, x, length, s):
    """_reducer's map of x, built for `length` rounded up to 16 slots, so that Euclid builds few."""
    return _reducer(p, -(-length // 16) * 16, s)(x)


def _unpack(p, x, length, s):
    """The low `length` slots of x, each reduced mod p, without trailing zeros."""
    if s * p < 256:
        return _reduce(p, x, length, s).to_bytes(length * s, "little")[::s].rstrip(b"\0")
    raw = x.to_bytes(length * s, "little")
    cuts = range(0, len(raw) + 1, s)
    slots = map(raw.__getitem__, map(slice, cuts, cuts[1:]))
    out = list(map(p.__rmod__, map(int.from_bytes, slots, repeat("little"))))
    while out and not out[-1]:
        out.pop()
    return out


def _slot_divide(p, x, b, s, quot=None):
    """The remainder int of x by b != 0 over odd p on ints of s-byte slots below p, p^2 < 256^s, its
    quotient terms written to the list `quot` if one is given: one multiply-add of p - b per term,
    the slots taken mod p whenever the next could carry, eliminated top slots dropped."""
    w, top = 8 * s, 256**s - 1
    m = (b.bit_length() - 1) // w  # b's degree
    inv, neg = pow(b >> w * m, p - 2, p), p * _ones(s, m + 1) - b  # p - b_i in slot i
    room = left = (256**s - p) // (p * (p - 1))  # terms between reductions: each adds below p(p-1)
    for shift in range((x.bit_length() - 1) // w - m, -1, -1):
        if c := (x >> w * (shift + m) & top) * inv % p:  # slots above hold eliminated multiples of p
            x += c * neg << w * shift
            left -= 1
            if quot is not None:
                quot[shift] = c
            if not left:
                x, left = _reduce(p, x & (1 << w * (shift + m)) - 1, shift + m, s), room
    return _reduce(p, x & (1 << w * m) - 1, m, s)


def _slot_gcd(p, x, y, s):
    """The monic gcd of x and y over odd p on ints of s-byte slots below p: Euclid on remainders only."""
    while y:
        x, y = y, _slot_divide(p, x, y, s)
    m = (x.bit_length() - 1) // (8 * s)
    return _reduce(p, x * pow(x >> 8 * s * m, p - 2, p), m + 1, s) if x else 0


def gcd(a, b):
    """Monic greatest common divisor: Euclid on packed ints over F_2 and the F_(2^e) above
    it, and over odd p on ints of slots wide enough for p^3 (_slot_gcd), unpacked once."""
    a._check(b)
    f, k = a.field, packed(a.field)
    if k:
        return UPoly(f, k.unpack(k.gcd(k.pack(a.coeffs), k.pack(b.coeffs))))
    if f.size == f.char:
        p, s = f.char, ((f.char**3 - 1).bit_length() + 7) // 8
        x = _slot_gcd(p, _pack(p, a.coeffs, s), _pack(p, b.coeffs, s), s)
        return UPoly(f, _unpack(p, x, -(-x.bit_length() // (8 * s)), s))
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _width(p, terms):
    """Bytes per slot for sums of `terms` products of residues mod p: terms (p-1)^2 < 256^s."""
    return ((terms * (p - 1) ** 2).bit_length() + 7) // 8


@functools.lru_cache(maxsize=64)
def _barrett(field, m):
    """(s, pack, unpack, mulmod, minus, gcd, exact) on polynomials over `field`, packed: gf2x's ints over
    F_2 and above, UPolys over other non-prime fields (s = 0 for both), ints of s-byte slots over odd p.
    mulmod is the product mod m, of degree d, of u, v of degree < d; over odd p by Barrett's method: the
    quotient of a product by m is the top of (high half) * (y^(2d-2) // m), built once per modulus, and the
    three products sum at most d terms below (p-1)^2 per slot, the last adding a residue below p to d-1 of
    them. minus(x, i) = x - y^i (one slot add over odd p), the monic gcd and exact(a, b), the quotient of an
    exact division (_slot_gcd, _slot_divide over odd p), serve factoring; gf2x's have no minus or exact."""
    d, p, k = len(m) - 1, field.char, packed(field)
    if k:
        rem, mul = k.remainder(k.pack(m)), k.mul
        return 0, k.pack, k.unpack, lambda u, v: rem(mul(u, v)), None, k.gcd, None
    if field.size != p:
        mod, one = UPoly(field, m), UPoly.one(field)
        return (0, functools.partial(UPoly, field), lambda u: u.coeffs, lambda u, v: u * v % mod,
                lambda u, i: u - one.shift(i), gcd, UPoly.__floordiv__)
    w = 8 * (s := _width(p, d))
    high, top, low = w * d, w * max(d - 2, 0), (1 << w * d) - 1
    _slot_divide(p, 1 << w * (2 * d - 2), _pack(p, m, s), s, mu := [0] * (d - 1))  # y^(2d-2) // m
    mu, neg_m = _pack(p, mu, s), _pack(p, [-c % p for c in m[:d]], s)  # and the low d coefficients of -m
    wide, short, full = (_reducer(p, n, s) for n in (2 * d - 1, d - 1, d))

    def mulmod(u, v):
        prod = wide(u * v)
        return full(prod + short((prod >> high) * mu >> top) * neg_m & low)

    def exact(a, b):
        _slot_divide(p, a, b, s, quot := [0] * (a.bit_length() // w + 1))
        return _pack(p, quot, s)

    def minus(x, i):
        return x - (1 << w * i) if x >> w * i & 256**s - 1 else x + (p - 1 << w * i)

    return (s, functools.partial(_pack, p, s=s), lambda x: _unpack(p, x, -(-x.bit_length() // w), s), mulmod,
            minus, lambda a, b: _slot_gcd(p, a, b, s), exact)


def _power(x, n, mulmod):
    """x^n for n >= 1 by square and multiply, left to right, each product mulmod's."""
    result = x
    for bit in bin(n)[3:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, x)
    return result


def random_upoly(field, degree, rng, monic=True):
    if degree < 0:
        return UPoly.zero(field)
    coeffs, lead = [field.random(rng) for _ in range(degree)], field.one if monic else field.zero
    while lead == field.zero:  # a nonzero leading coefficient, drawn until one is found
        lead = field.random(rng)
    return UPoly(field, coeffs + [lead])


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
    field, out = u.field, {}

    def helper(v, mult):
        if (dv := v.derivative()).is_zero:
            if v.degree > 0:
                helper(pth_root(v), mult * field.char)
            return
        c = gcd(v, dv)
        w, i = v // c, 1
        while w.degree > 0:
            y_ = gcd(w, c) if c.degree > 0 else c
            if (part := w // y_).degree > 0:
                out[mult * i] = out[mult * i] * part if mult * i in out else part
            w, c, i = y_, c // y_, i + 1
        if c.degree > 0:
            helper(pth_root(c), mult * field.char)

    helper(u.monic(), 1)
    return [(poly, mult) for mult, poly in sorted(out.items())]


# Degrees whose h_d - y share one gcd with w over an odd prime field. On species-prime's 27 odd-p inputs, blocks
# of 4, 8, 12 and 16 took 42.0, 35.6, 33.1 and 34.0 ms in process (per-input minima of 15 interleaved passes).
_BLOCK = 12


def _distinct_degree(w, batched=True):
    """Yield (product, factor degree) pairs of a monic squarefree polynomial, lowest degree first.

    h_d = y^(s^d) mod w: over F_2 and the F_(2^e) above it _packed_distinct_degree; elsewhere w, h_d, h_d - y and
    every gcd and quotient are _barrett's packed residues. Over an odd prime field, when `batched`, the h_d - y of
    _BLOCK consecutive degrees share one gcd with w by their product mod w, split by degree only when nontrivial;
    else each degree takes its own, so a caller that stops at the first pair pays for one."""
    field = w.field
    if k := packed(field):
        for part, d in _packed_distinct_degree(field, k.pack(w.coeffs)):
            yield UPoly(field, k.unpack(part)), d
        return
    size, h, d = field.size, UPoly.y(field), 0
    block = _BLOCK if batched and size == field.char else 1
    while w.degree >= 2 * (d + 1):  # once per w: a block that splits w ends the inner loop
        _, pack, unpack, mulmod, minus, euclid, exact = _barrett(field, w.coeffs)
        x, wx, split = pack((h % w).coeffs), pack(w.coeffs), False
        while not split and w.degree >= 2 * (d + 1):
            top = min(d + block, w.degree // 2)
            diffs = [minus(x := _power(x, size, mulmod), 1) for _ in range(d, top)]  # h_j - y, x = h_j
            g = euclid(wx, functools.reduce(mulmod, diffs))
            for j, diff in enumerate(diffs, d + 1):
                # the factors left in g have degrees j..top, so g has one of degree j only
                # if the rest of its degree is a sum of such degrees
                rest = len(unpack(g)) - 1 - j
                if rest < 0 or -(-rest // top) * j > rest:
                    continue
                part = g if j == top or rest == 0 else euclid(g, diff)
                if len(coeffs := unpack(part)) > 1:
                    yield UPoly(field, coeffs), j
                    wx, g, split = exact(wx, part), exact(g, part), True
            d = top
        w, h = UPoly(field, unpack(wx)), UPoly(field, unpack(x))
    if w.degree > 0:
        yield w, w.degree


def _packed_distinct_degree(field, w):
    """_distinct_degree's pairs of w on gf2x.packed ints, one Euclid per degree: h = y^(2^(ed)) mod w
    takes e squarings per degree, reduced by one remainder map of w, rebuilt when w shrinks."""
    k, e, d = packed(field), field.size.bit_length() - 1, 0
    bits, rem = 2 * e - 1, k.remainder(w)  # bits per coefficient
    h = y = 1 << bits
    while w.bit_length() > 2 * (d + 1) * bits:  # deg w >= 2(d + 1)
        d += 1
        for _ in range(e):
            h = rem(k.mul(h, h))
        part = k.gcd(w, h ^ y)
        if part.bit_length() > bits:
            yield part, d
            w = k.divider(part)(w)[0]
            rem = k.remainder(w)
            h = rem(h)
    if w.bit_length() > bits:
        yield w, (w.bit_length() - 1) // bits


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
    size, (_, pack, unpack, mulmod, minus, euclid, _) = field.size, _barrett(field, g.coeffs)
    for _ in range(_SPLIT_TRIES):
        t = a = pack(random_upoly(field, rng.randrange(1, g.degree), rng, monic=False).coeffs)  # below deg g
        if field.char == 2:  # the trace of a, summed on packed ints: addition is xor on gf2x's
            m, plus = size.bit_length() - 1, xor if packed(field) else add  # size = 2^m
            for _ in range(m * d - 1):
                a = mulmod(a, a)
                t = plus(t, a)
        else:  # a^((s^d - 1)/2) - 1
            t = minus(_power(a, (size**d - 1) // 2, mulmod), 0)
        c = UPoly(field, unpack(euclid(pack(g.coeffs), t)))  # on packed ints to the end
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


def irreducible_polynomials(field, degree):
    """Yield monic irreducibles of the given degree in lexicographic order.

    Order compares coefficient vectors low-to-high as integers, so the first
    yield is the canonical construction polynomial for this degree.
    """
    if degree < 1:
        raise InputError("degree must be >= 1")
    size, k = field.size, packed(field)
    # Candidate index: the base-size digits of a_0..a_(degree-1), a_0 the most significant;
    # counted lazily, since a large prime field has no room for a list of its elements. For
    # degree > 1, a_0 = 0 would be divisible by y. Over gf2x's fields digits are elements.
    for index in range(0 if degree == 1 else size ** (degree - 1), size**degree):
        if size == 2:  # the index's bits read backwards below a top bit: the candidate's bit mask
            w = int("1" + f"{index:0{degree}b}"[::-1], 2)
        else:
            digits = _digits(index, size, degree)[::-1] + [1]
            w = k.pack(digits) if k else UPoly(field, [field.from_index(d) for d in digits[:-1]] + [field.one])
        if k and next(_packed_distinct_degree(field, w))[1] == degree:
            yield UPoly(field, k.unpack(w))
        elif not k and is_irreducible(w):
            yield w


def irreducible_polynomial(field, degree):
    """Lexicographically smallest monic irreducible of the given degree."""
    return next(irreducible_polynomials(field, degree))


def roots(u):
    """All roots in the coefficient field, by exhaustive scan."""
    field = u.field
    admit("root scan", DEFAULT_ROOT_SCAN_CAP, field.size)
    if u.is_zero:
        raise InputError("every element is a root of the zero polynomial")
    return [a for a in field.elements() if u.evaluate(a) == field.zero]
