"""Exact arithmetic in a tower of finite fields F_p <= F_r <= F_q.

A tower is the chain F_p < F_r = F_p^e < F_q = F_r^k with explicit monic
irreducible construction polynomials, plus on-demand extensions F_q^E on top
for brute-force work. Every element is a plain int in [0, size), whose
base-p digits are its F_p coordinates: a level of degree m over a base of
size s stores sum d_i y^i as sum d_i s^i, so F_r's digits nest under F_q's
and F_q's under F_q^E's. Embedding a level into the next is the identity,
F_r is the set of F_q elements below r, and equality is plain ==. If e == 1
the r-level *is* the prime field. PrimeField and ExtensionField share what
follows from that in their base _Level: zero, one, div, from_int, the index
maps (each int is its own index), elements and the GF(size) repr.

Levels of at most TABLE_SIZE elements multiply by log/antilog tables, built
with the level and kept on the field object, and add by Zech logarithms when
p is odd (the table idiom of galois, https://github.com/mhostetter/galois).
Larger levels multiply in flat F_p coordinates, also built with the level: the
nested digits over a prime base, else the coordinates in the powers of one
generator theta over F_p, reached by F_p-linear maps (compatible embeddings
as in W. Bosma, J. Cannon, A. Steel, J. Symbolic Comput. 24, 1997). There a
product is taken modulo theta's minimal polynomial M over F_p: over F_2 one
carry-less product of bit masks, its high bits folded by byte tables of M
(gf2x.packed), over odd p upoly._barrett's Barrett product on byte slots.
Only conversions of an int to and from its F_p digits live here. Over F_2
addition is xor; above the tables odd p <= 36 adds digits in byte slots.

Levels of 4 to 256 elements over char 2, and of at most 16 over odd p (F_3 to
F_13, F_9), keep 256-byte translate tables for vectors held as ints of byte slots
(_use_bytes): scales[c] (x -> c x), frobs[j] (x -> x^(p^j)) and over odd p
diffs[a + 16 b] = a - b. u - c v is one translate and one xor over char 2; over
odd p, where an element and a scaled one each fit in a nibble, one translate, a
shift by 4, an or and one translate through diffs. This is bitslicing (T. Boothby,
R. Bradshaw, arXiv:0901.1413) with byte slots for bits.

The JSON encoding nests like the digits: a bare integer per prime-field
coordinate and little-endian coefficient lists at extension levels, e.g. the
element g+1 of F_4 over F_2 encodes as [1, 1]. Without an override, each
construction polynomial is the lexicographically smallest monic irreducible
of its degree (coefficients compared low-to-high as integers).
"""

import sys
from array import array
from functools import partial
from itertools import product
from math import log2
from operator import mul, pos, xor

from . import linalg, upoly
from .errors import InputError, NotInSubfield, admit
from .gf2x import clmul, linear_map, mask_divmod, packed
from .upoly import _digits

# Largest level with log/antilog tables. Building them costs O(size) steps
# (about 25 ms at 2^16 elements), which a level must earn back in lookups;
# the oracle's F_(2^14) and F_(2^15) see under 2000 products per job.
TABLE_SIZE = 1 << 12
# Largest levels, in bits, whose construction polynomial is searched for by default: over
# F_2 0.25 s at 2^1000, 24 s at 2^2000, 5.3 s at 31^200; over a non-prime F_r runs of reducible
# candidates took 25 s at q = 2^64 over F_256, under 0.6 s at every q <= 2^40 measured. A given
# m_r or m_q is checked by one Ben-Or test, at 2^2000 (from timed degree steps) 4.7 s over F_3,
# 3.0 s over F_4, 0.8 s over F_2.
SEARCH_BITS, SEARCH_Q_BITS, CHECK_BITS = 1000, 40, 2000


def _undigits(digits, base):
    x = 0
    for d in reversed(digits):
        x = x * base + d
    return x


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to every base above, 399165290221 * 798330580441 (Jiang, Deng 2014)
MR_BOUND = 318665857834031151167461


def is_prime(n):
    """Deterministic Miller-Rabin on _MR_BASES, exact below MR_BOUND; an InputError at or above it."""
    if n >= MR_BOUND:
        raise InputError(f"p = {n} is at or above {MR_BOUND}, past which the primality test is not exact")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _use_bytes(field, exps):
    """Give a level of at most 256 elements over char 2, or 16 over odd p, its byte-slot tables
    from the powers exps of a primitive element: scales, frobs and over odd p diffs, and then
    slot_sub(x, y), the int of x's byte slots minus y's (char 2's is xor, set with its add)."""
    p, q1, pad = field.char, len(exps), bytes(256 - len(exps))
    logs = bytearray([q1]) * 256  # log 0 = q1 reads the zero that pads each rotation of exps
    for i, x in enumerate(exps):
        logs[x] = i
    logs = bytes(logs)  # so that its translates, the tables, are immutable bytes
    field.scales = [bytes(256)] + [logs.translate(exps[i:] + exps[:i] + pad) for i in logs[1 : q1 + 1]]
    field.frobs = [logs.translate((exps * p**j)[:: p**j] + pad) for j in range(field.dim)]
    if p == 2:  # slot_sub is the level's xor
        return
    rows = (bytes(field.sub(a, b) for a in range(q1 + 1)).ljust(16, b"\0") for b in range(q1 + 1))
    field.diffs = diffs = b"".join(rows).ljust(256, b"\0")  # diffs[a + 16 b] = a - b

    def slot_sub(x, y):  # x in the low nibble of each slot, y in the high one, then diffs
        z = x | y << 4
        return int.from_bytes(z.to_bytes((z.bit_length() + 7) // 8, "little").translate(diffs), "little")

    field.slot_sub = slot_sub


_PRIME_FIELDS = {}


def prime_field(p):
    """Canonical shared F_p instance, so towers over the same p agree on it."""
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def encoding_shape(obj, degree):
    """obj, if it has the top level of an element encoding of a field of this degree over
    its base: an integer for F_p (degree 1), else a list of `degree` coordinates."""
    if degree == 1:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise InputError(f"prime-field coordinate must be an integer, got {obj!r}")
    elif not isinstance(obj, list):
        raise InputError(f"expected a length-{degree} coefficient list, got {obj!r}")
    elif len(obj) != degree:
        raise InputError(f"coefficient list has length {len(obj)}, expected {degree}")
    return obj


class _Level:
    """What every level shares: its elements are the ints in [0, size), each its own index,
    and its byte-slot tables (_use_bytes) are None unless the level has them."""

    def __init__(self, size, char, dim):
        # instance attributes: CPython 3.11 reads them 3x as fast as class ones (the oracle's loops)
        self.size, self.char, self.dim = size, char, dim  # dim: the number of F_p digits
        self.zero, self.one = 0, 1
        self.scales = self.frobs = self.diffs = None

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, i):
        return i % self.char

    def to_index(self, a):
        return a

    def from_index(self, i):
        if not 0 <= i < self.size:
            raise InputError(f"index {i} out of range for field of size {self.size}")
        return i

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"GF({self.size})"


class PrimeField(_Level):
    """F_p with elements represented as integers in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        super().__init__(p, p, 1)
        self.p = p
        if 2 < p < 16:  # byte-slot tables from the powers of p's least primitive root
            _use_bytes(self, bytes(pow({3: 2, 5: 2, 7: 3, 11: 2, 13: 2}[p], i, p) for i in range(p - 1)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, n):
        n = int(n)
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def encode(self, a):
        return a

    def decode(self, obj):
        if not 0 <= encoding_shape(obj, 1) < self.p:
            raise InputError(f"prime-field coordinate {obj} out of range [0, {self.p})")
        return obj

    # u - c * v in one comprehension keeps elimination loops free of per-element calls
    def vec_submul(self, u, c, v):
        p = self.p
        return [(a - c * b) % p for a, b in zip(u, v)]


class ExtensionField(_Level):
    """Degree-m extension base[y]/(modulus) whose elements are ints in [0, size).

    sum d_i y^i is the int sum d_i s^i, s = base.size. A new level builds its
    arithmetic: tables up to TABLE_SIZE elements (_use_tables), else flat F_p
    coordinates (_use_flat). _flat holds the maps into and out of them and
    the prime-base level they multiply on: the level itself over F_p.
    """

    def __init__(self, base, modulus_coeffs):
        modulus = tuple(modulus_coeffs)
        if len(modulus) < 3 or modulus[-1] != base.one:
            raise InputError("extension modulus must be monic of degree >= 2")
        self.base = base
        self.modulus = modulus
        self.degree = len(modulus) - 1
        super().__init__(base.size**self.degree, base.char, base.dim * self.degree)
        p = self.char
        # dim * (p-1)^2 < 256 lets _use_tables hold F_p digits in byte slots
        self._small = self.size <= TABLE_SIZE and self.dim * (p - 1) ** 2 < 256
        if p == 2:
            self.add = self.sub = self.slot_sub = xor
            self.neg = pos
        elif p > 36:
            self.add, self.sub = self._add_digits, partial(self._add_digits, sign=-1)
            self.neg = partial(self._add_digits, 0, sign=-1)
        self._use_tables() if self._small else self._use_flat()

    def _times(self, a, g):
        """a * g by Horner's rule in y, on base operations: how tables and flat bases are built."""
        base, s, m = self.base, self.base.size, self.degree
        xs, acc, gs = _digits(a, s, m), [0] * m, _digits(g, s, m)
        while not gs[-1]:
            gs.pop()
        for d in reversed(gs):  # acc = acc * y + d * a, where y^m = -(m_0 + ... + m_(m-1) y^(m-1))
            top = acc[-1]
            terms = zip([0, *acc], xs, self.modulus)
            acc = [base.sub(base.add(lo, base.mul(d, x)), base.mul(top, c)) for lo, x, c in terms]
        return _undigits(acc, s)

    def _pow_poly(self, a, n):
        n = int(n)
        if n < 0:
            a, n = self._inv_poly(a), -n
        return upoly._power(a, n, self.mul) if n else 1

    def _inv_poly(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.base.size != 2:
            return self._pow_poly(a, self.size - 2)
        # extended Euclid on bit masks: s1 * a = r1 mod the modulus throughout
        r0, r1, s0, s1 = _undigits(self.modulus, 2), a, 0, 1
        while r1 != 1:
            quot, rem = mask_divmod(r1, r0)
            r0, r1, s0, s1 = r1, rem, s1, s0 ^ clmul(quot, s1)
        return s1

    def _add_digits(self, a, b, sign=1):
        """a + sign * b, F_p digit by F_p digit, for odd p above 36."""
        p, n = self.char, self.dim
        return _undigits([(x + sign * y) % p for x, y in zip(_digits(a, p, n), _digits(b, p, n))], p)

    def _use_slots(self):
        """Byte-slot sums for odd p <= 36 above TABLE_SIZE; returns the conversions
        (slots, value) between an element's int and its F_p digits in byte slots.

        An element's F_p digits go into the byte slots of one int through a
        table of every c-digit chunk (remembered per element), and come back
        by int(text, p), so sums act on all slots at once.
        """
        p, n = self.char, self.dim
        c = next(c for c in range(11, 0, -1) if p**c <= 2048)
        chunk, chunks = p**c, [bytes(t[::-1]) for t in product(range(p), repeat=c)]
        text = bytes(b"0123456789abcdefghijklmnopqrstuvwxyz"[b % p] for b in range(256))
        ps, memo = p * ((1 << 8 * n) - 1) // 255, {}  # p in each of the n slots

        def slots(x):
            s = memo.get(x)
            if s is None:
                if len(memo) > 4096:
                    memo.clear()
                y, out = x, []
                while y:
                    y, d = divmod(y, chunk)
                    out.append(chunks[d])
                s = memo[x] = int.from_bytes(b"".join(out), "little")
            return s

        def value(s):  # the int whose F_p digits are the low n slots of s, each mod p
            return int(s.to_bytes(n, "little").translate(text)[::-1], p)

        self.add = lambda a, b: value(slots(a) + slots(b))
        self.sub = lambda a, b: value(slots(a) + ps - slots(b))
        self.neg = lambda a: value(ps - slots(a))
        return slots, value

    def _use_flat(self):
        """Byte slots, then flat F_p coordinates for a level above TABLE_SIZE: over a prime
        base the nested digits, multiplied by upoly._barrett; else the coordinates in the
        powers of the first theta = y, y + 1, ... of degree dim over F_p, whose products,
        inverses and powers run on the prime-base level F_p[theta]/(M), M theta's minpoly."""
        p, n = self.char, self.dim
        slots, value = self._use_slots() if 2 < p <= 36 else (None, None)
        if self.base.size == p:
            self._flat, self.pow, self.inv = (pos, pos, self), self._pow_poly, self._inv_poly
            if p == 2:  # the ints are the bit masks: a carry-less product, reduced by byte tables
                self.mul = packed(self).mul
                return
            s, pack, unpack, mulmod = upoly._barrett(self.base, self.modulus)[:4]
            if s == 1:  # the memoized one-byte slots are the packed ints
                self.mul = lambda a, b: value(mulmod(slots(a), slots(b)))
            else:
                self.mul = lambda a, b: _undigits(
                    unpack(mulmod(pack(_digits(a, p, n)), pack(_digits(b, p, n)))), p
                )
            return
        fp = prime_field(p)
        for theta in range(self.base.size, self.size):
            tracker, powers, dep = linalg.SpanTracker(fp, n), [1], None
            while dep is None:  # the first F_p-dependence among 1, theta, theta^2, ...; over F_2 as bits
                dep = tracker.add(powers[-1] if p == 2 else _digits(powers[-1], p, n))
                powers.append(self._times(powers[-1], theta))
            if len(dep) > n:
                break
        # the tracked row with pivot j writes F_p digit j in the powers of theta (in byte slots up to F_13)
        rows = [r.to_bytes(2 * n, "little") if fp.scales else r for _, r in sorted(zip(tracker.pivots, tracker.rows))]
        cols = [row >> n for row in rows] if p == 2 else [_undigits(row[n : 2 * n], p) for row in rows]
        to, back, flat = self._linear_map(cols), self._linear_map(powers[:n]), ExtensionField(fp, dep)
        self._flat = to, back, flat
        self.mul = lambda a, b: back(flat.mul(to(a), to(b)))
        self.inv = lambda a: back(flat.inv(to(a)))
        self.pow = lambda a, e: back(flat.pow(to(a), e))

    def _linear_map(self, cols):
        """x -> the sum of x_i * cols[i] over the F_p digits x_i of x: over F_2 by one table
        per byte of x, of the xors of the columns of its set bits; over odd p as one sum
        of the columns packed in slots too wide to carry (upoly._pack)."""
        p, n = self.char, self.dim
        if p == 2:
            return linear_map(cols)
        s = upoly._width(p, n)
        packed = [upoly._pack(p, _digits(col, p, n), s) for col in cols]
        return lambda x: _undigits(upoly._unpack(p, sum(map(mul, _digits(x, p, n), packed)), n, s), p)

    def _use_tables(self):
        """Log/antilog tables of a primitive element g (the table idiom of galois).

        Multiplication by g is F_p-linear, so its table over all elements takes
        dim^2 big-int products on planes of byte slots (dim * (p-1)^2 < 256 keeps
        each slot sum below a byte). The powers of g follow that table; a
        return to 1 before size - 1 steps rejects g.
        """
        p, q, q1, dim = self.char, self.size, self.size - 1, self.dim
        residue = upoly._residues(p)
        planes = []  # plane j holds F_p digit j of every element x, in byte slot x
        for j in range(dim):
            run = b"".join(bytes([d]) * p**j for d in range(p))
            planes.append(int.from_bytes(run * (q // p ** (j + 1)), "little"))

        def reduced(x):  # every byte slot of x taken mod p
            return int.from_bytes(x.to_bytes(q, "little").translate(residue), "little")

        def indices(planes):  # the ints whose F_p digits the planes hold
            wide, index = bytearray(2 * q), 0
            for j, plane in enumerate(planes):
                wide[::2] = plane.to_bytes(q, "little")
                index += p**j * int.from_bytes(wide, "little")
            out = array("H")
            out.frombytes(index.to_bytes(2 * q, sys.byteorder))
            return out

        def image(cols, o):  # digit o of x * g for every x, from digit o of each p^j * g
            return reduced(sum(c // p**o % p * plane for c, plane in zip(cols, planes)))

        # elements of the base lie in a proper subfield, so the search starts at y
        for g in range(self.base.size, q):
            cols = [self._times(p**j, g) for j in range(dim)]
            times_g = indices([image(cols, o) for o in range(dim)]).tolist()
            exp, log, x = [], [q1] * q, 1  # log[0] = q1 marks zero for the Zech table
            for i in range(q1):
                exp.append(x)
                log[x] = i
                x = times_g[x]
                if x == 1:
                    break
            if len(exp) == q1:
                break  # no power of g below q1 is 1: g is primitive
        exp, log = array("H", exp * 2), array("H", log)  # exp doubled: a sum of two logs needs no reduction

        def mul_(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv_(a):
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return exp[q1 - log[a]]

        def pow_(a, n):
            if a:
                return exp[log[a] * int(n) % q1]
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if n else 1

        self.mul, self.inv, self.pow = mul_, inv_, pow_
        if p > 2:  # Zech logarithms: zech[d] = log(1 + g^d), which is q1 where 1 + g^d = 0
            half = q1 // 2  # g^half = -1
            planes[0] = reduced(planes[0] + int.from_bytes(bytes([1]) * q, "little"))  # x + 1 for every x
            zech = array("H", map(log.__getitem__, map(indices(planes).__getitem__, exp[:q1])))

            def add_(a, b):
                if not a or not b:
                    return a or b
                la = log[a]
                z = zech[(log[b] - la) % q1]
                return 0 if z == q1 else exp[la + z]

            def neg_(a):
                return exp[log[a] + half] if a else 0

            self.add, self.neg = add_, neg_
            self.sub = lambda a, b: add_(a, neg_(b))
        if q <= (256 if p == 2 else 16):
            _use_bytes(self, bytes(exp[:q1].tolist()))

    def random(self, rng):
        s = self.base.size
        return sum(self.base.random(rng) * s**i for i in range(self.degree))

    def encode(self, a):
        return [self.base.encode(c) for c in _digits(a, self.base.size, self.degree)]

    def decode(self, obj):
        return _undigits([self.base.decode(c) for c in encoding_shape(obj, self.degree)], self.base.size)

    def vec_submul(self, u, c, v):
        if self.scales:  # u - c v on the ints of byte slots of u and of c v
            cv = int.from_bytes(bytes(v).translate(self.scales[c]), "little")
            return list(self.slot_sub(int.from_bytes(bytes(u), "little"), cv).to_bytes(len(u), "little"))
        sub, mul = self.sub, self.mul
        return [sub(a, mul(c, b)) for a, b in zip(u, v)]


class FieldTower:
    """The chain F_p <= F_r = F_(p^e) <= F_q = F_(r^k), built deterministically.

    Without overrides each construction polynomial is the lexicographically
    smallest monic irreducible of its degree; overrides are validated for
    degree, monicity and irreducibility. Immutable after creation; every
    operation is a pure function of its inputs, so a tower can be shared
    freely across concurrent tasks.
    """

    def __init__(self, p, e, k, m_r=None, m_q=None):
        if type(p) is not int:
            raise InputError(f"p must be an integer, got {p!r}")
        if type(e) is not int or type(k) is not int or e < 1 or k < 1:
            raise InputError("extension degrees e and k must be positive integers")
        self.p = p
        self.e = e
        self.k = k
        self.fp = prime_field(p)
        q_cap = SEARCH_BITS if e == 1 else SEARCH_Q_BITS  # m_q is searched for over F_p, or over F_r
        for name, given, n, dim, cap in (("m_r", m_r, e, e, SEARCH_BITS), ("m_q", m_q, k, e * k, q_cap)):
            if n > 1:  # in bits: log2 of the size of the level that name builds
                kind, limit = ("check", CHECK_BITS) if given is not None else ("search", cap)
                admit(f"{name} {kind}", limit, dim * log2(p))
        self.m_r = self._construction(self.fp, e, m_r, "m_r")
        self.fr = self.fp if e == 1 else ExtensionField(self.fp, self.m_r.coeffs)
        self.m_q = self._construction(self.fr, k, m_q, "m_q")
        self.fq = self.fr if k == 1 else ExtensionField(self.fr, self.m_q.coeffs)
        self.r, self.q, self._ext = p**e, p ** (e * k), {1: self.fq}

    @staticmethod
    def _construction(field, degree, override, name):
        if override is None:
            return upoly.irreducible_polynomial(field, degree)
        poly = upoly.UPoly.decode(field, override)
        if poly.degree != degree:
            raise InputError(f"{name} has degree {poly.degree}, expected {degree}")
        if not poly.is_monic:
            raise InputError(f"{name} must be monic")
        if not upoly.is_irreducible(poly):
            raise InputError(f"{name} = {poly.encode()} is reducible")
        return poly

    def extension(self, ext_degree):
        """F_q^E as a level above F_q, cached per degree."""
        if type(ext_degree) is not int or ext_degree < 1:
            raise InputError("extension degree must be a positive integer")
        if ext_degree not in self._ext:
            modulus = upoly.irreducible_polynomial(self.fq, ext_degree)
            self._ext[ext_degree] = ExtensionField(self.fq, modulus.coeffs)
        return self._ext[ext_degree]

    def coerce_q_to_r(self, x):
        """Project an F_q element onto F_r; NotInSubfield if it does not lie there."""
        if x >= self.r:
            raise NotInSubfield(f"element {self.fq.encode(x)} is not in the base field")
        return x

    def sigma_r_order(self, field):
        """Order of the r-power Frobenius on the given level: its degree over F_r."""
        return max(1, field.dim // self.e)

    def frob_r(self, field, x, i):
        """x^(r^i) with i taken modulo the Frobenius order; i may be negative."""
        j = i % self.sigma_r_order(field)
        if j == 0:
            return x
        return field.pow(x, self.r**j)

    def r_coords(self, field, x):
        """The base-r digits of a level's element: its F_r coordinates, low first."""
        width = self.sigma_r_order(field)
        if self.r**width != field.size:
            raise InputError("field is not a level of this tower")
        return _digits(x, self.r, width)

    def from_r_coords(self, field, coords):
        return _undigits(coords, self.r)

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, k={self.k})"


tower_create = FieldTower
