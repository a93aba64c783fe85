"""Exact arithmetic in a tower of finite fields F_p <= F_r <= F_q.

A tower is the chain F_p < F_r = F_p^e < F_q = F_r^k with explicit monic
irreducible construction polynomials, plus on-demand extensions F_q^E on top
for brute-force work. Every element is a plain int in [0, size), whose
base-p digits are its F_p coordinates: a level of degree m over a base of
size s stores sum d_i y^i as sum d_i s^i, so F_r's digits nest under F_q's
and F_q's under F_q^E's. Embedding a level into the next is the identity,
F_r is the set of F_q elements below r, and equality is plain ==. If e == 1
the r-level *is* the prime field.

Levels of at most TABLE_SIZE elements multiply by log/antilog tables, built
on first use and kept on the field object, and add by Zech logarithms when
p is odd (the table idiom of galois, https://github.com/mhostetter/galois).
Larger levels multiply in flat F_p coordinates, also built on first use: the
nested digits over a prime base, else the coordinates in the powers of one
generator theta over F_p, reached by F_p-linear maps (compatible embeddings
as in W. Bosma, J. Cannon, A. Steel, J. Symbolic Comput. 24, 1997). There a
product is upoly._barrett's product modulo theta's minimal polynomial over
F_p: bit masks over F_2 (the idiom of NTL's GF2X), packed slots reduced by
Barrett's method over odd p. This module only converts an element's int to
and from its F_p digits. Over F_2 addition is xor at every level; above the
tables, odd p <= 36 adds F_p digits held in the byte slots of one int.

The JSON encoding nests like the digits: a bare integer per prime-field
coordinate and little-endian coefficient lists at extension levels, e.g. the
element g+1 of F_4 over F_2 encodes as [1, 1]. Without an override, each
construction polynomial is the lexicographically smallest monic irreducible
of its degree (coefficients compared low-to-high as integers).
"""

import sys
from array import array
from functools import partial, reduce
from itertools import product
from operator import getitem, mul, pos, xor

from . import linalg, upoly
from .errors import BudgetExceeded, InputError, NotInSubfield
from .upoly import _clmul, _mask_divmod

# Largest level with log/antilog tables. Building them costs O(size) steps
# (about 25 ms at 2^16 elements), which a level must earn back in lookups;
# the oracle's F_(2^14) and F_(2^15) see under 2000 products per job.
TABLE_SIZE = 1 << 12
# Largest q for which the default m_q is searched for over a non-prime F_r.
# The lexicographic search can meet long runs of reducible candidates: it took
# 2.1 s at q = 2^48 over F_(2^6) and over 10 s at q = 2^64 over F_(2^8); every
# measured q <= 2^40 took under 0.6 s.
SEARCH_Q_CAP = 1 << 40


def _digits(x, base, count):
    """The low `count` base-`base` digits of x, low first."""
    out = []
    for _ in range(count):
        x, d = divmod(x, base)
        out.append(d)
    return out


def _undigits(digits, base):
    x = 0
    for d in reversed(digits):
        x = x * base + d
    return x


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact far beyond any size used here."""
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


_PRIME_FIELDS = {}


def prime_field(p):
    """Canonical shared F_p instance, so towers over the same p agree on it."""
    if p not in _PRIME_FIELDS:
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


class PrimeField:
    """F_p with elements represented as integers in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        self.p = p
        self.size = p
        self.char = p
        self.dim = 1
        self.zero = 0
        self.one = 1

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        n = int(n)
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def from_int(self, i):
        return i % self.p

    def to_index(self, a):
        return a

    def from_index(self, i):
        if not 0 <= i < self.p:
            raise InputError(f"index {i} out of range for field of size {self.p}")
        return i

    def elements(self):
        return range(self.p)

    def encode(self, a):
        return a

    def decode(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise InputError(f"prime-field coordinate must be an integer, got {obj!r}")
        if not 0 <= obj < self.p:
            raise InputError(f"prime-field coordinate {obj} out of range [0, {self.p})")
        return obj

    # u - c * v in one comprehension keeps elimination loops free of per-element calls
    def vec_submul(self, u, c, v):
        p = self.p
        return [(a - c * b) % p for a, b in zip(u, v)]

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField:
    """Degree-m extension base[y]/(modulus) whose elements are ints in [0, size).

    sum d_i y^i is the int sum d_i s^i, s = base.size. Up to TABLE_SIZE
    elements it multiplies by tables built on first use, else in flat F_p
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
        self.size = base.size**self.degree
        self.char = p = base.char
        self.dim = base.dim * self.degree  # number of F_p digits
        self.zero, self.one = 0, 1
        self._mask = _undigits(modulus, 2) if base.size == 2 else 0  # the modulus as a bit mask
        # dim * (p-1)^2 < 256 lets _use_tables hold F_p digits in byte slots
        self._small = self.size <= TABLE_SIZE and self.dim * (p - 1) ** 2 < 256
        if p == 2:
            self.add = self.sub = xor
            self.neg = pos
        elif p > 36:
            self.add, self.sub = self._add_digits, partial(self._add_digits, sign=-1)
            self.neg = partial(self._add_digits, 0, sign=-1)

    def __getattr__(self, name):
        # the first use of an operation builds the level's tables, or its byte slots and flat basis
        small = self.__dict__.get("_small")
        if small is not None and (name in ("mul", "inv", "pow", "add", "sub", "neg") or name == "_flat" and not small):
            self._use_tables() if small else self._use_flat()
            return getattr(self, name)
        raise AttributeError(name)

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
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            n >>= 1
        return result

    def _inv_poly(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if not self._mask:
            return self._pow_poly(a, self.size - 2)
        # extended Euclid on bit masks: s1 * a = r1 mod the modulus throughout
        r0, r1, s0, s1 = self._mask, a, 0, 1
        while r1 != 1:
            quot, rem = _mask_divmod(r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, s0 ^ _clmul(quot, s1)
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
            self._flat = pos, pos, self
            s, pack, unpack, mulmod = upoly._barrett(p, self.modulus)
            if p == 2:  # the ints are the bit masks
                self.mul = mulmod
            elif s == 1:  # the memoized one-byte slots are the packed ints
                self.mul = lambda a, b: value(mulmod(slots(a), slots(b)))
            else:
                self.mul = lambda a, b: _undigits(
                    unpack(mulmod(pack(_digits(a, p, n)), pack(_digits(b, p, n)))), p
                )
            self.pow, self.inv = self._pow_poly, self._inv_poly
            return
        fp = prime_field(p)
        for theta in range(self.base.size, self.size):
            tracker, powers, dep = linalg.SpanTracker(fp, n), [1], None
            while dep is None:  # the first F_p-dependence among 1, theta, theta^2, ...; over F_2 as bits
                dep = tracker.add(powers[-1] if p == 2 else _digits(powers[-1], p, n))
                powers.append(self._times(powers[-1], theta))
            if len(dep) > n:
                break
        # the tracked row with pivot j writes F_p digit j in the powers of theta
        rows = [row for _, row in sorted(zip(tracker.pivots, tracker.rows))]
        cols = [row >> n for row in rows] if p == 2 else [_undigits(row[n : 2 * n], p) for row in rows]
        to, back, flat = self._linear_map(cols), self._linear_map(powers[:n]), ExtensionField(fp, dep)
        self._flat = to, back, flat
        self.mul = lambda a, b: back(flat.mul(to(a), to(b)))
        self.inv = lambda a: back(flat.inv(to(a)))
        self.pow = lambda a, e: back(flat.pow(to(a), e))

        def submul_(u, c, v):  # c goes to flat coordinates once per call, not once per entry
            c, sub = to(c), self.sub
            return [sub(a, back(flat.mul(c, to(b)))) for a, b in zip(u, v)]

        self.vec_submul = submul_

    def _linear_map(self, cols):
        """x -> the sum of x_i * cols[i] over the F_p digits x_i of x: over F_2 by one table
        per byte of x, of the xors of the columns of its set bits; over odd p as one sum
        of the columns packed in slots too wide to carry (upoly._pack)."""
        p, n = self.char, self.dim
        if p == 2:
            tables = []
            for j in range(0, n, 8):
                t = [0]
                for col in cols[j : j + 8]:
                    t += [v ^ col for v in t]
                tables.append(t)
            return lambda x: reduce(xor, map(getitem, tables, x.to_bytes(len(tables), "little")), 0)
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
        residue = upoly._residues(p, 0)
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

        def submul_(u, c, v):  # over F_2
            lc = log[c]
            return [a ^ exp[lc + log[b]] if b else a for a, b in zip(u, v)] if c else list(u)

        self.mul, self.inv, self.pow = mul_, inv_, pow_
        if p == 2:
            self.vec_submul = submul_
            return
        # Zech logarithms: zech[d] = log(1 + g^d), which is q1 where 1 + g^d = 0
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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def random(self, rng):
        s = self.base.size
        return sum(self.base.random(rng) * s**i for i in range(self.degree))

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

    def encode(self, a):
        return [self.base.encode(c) for c in _digits(a, self.base.size, self.degree)]

    def decode(self, obj):
        if not isinstance(obj, list):
            raise InputError(f"expected a length-{self.degree} coefficient list, got {obj!r}")
        if len(obj) != self.degree:
            raise InputError(f"coefficient list has length {len(obj)}, expected {self.degree}")
        return _undigits([self.base.decode(c) for c in obj], self.base.size)

    def vec_submul(self, u, c, v):
        sub, mul = self.sub, self.mul
        return [sub(a, mul(c, b)) for a, b in zip(u, v)]

    def __repr__(self):
        return f"GF({self.size})"


class FieldTower:
    """The chain F_p <= F_r <= F_q with explicit construction polynomials.

    Immutable after creation; every operation is a pure function of its
    inputs, so a tower can be shared freely across concurrent tasks.
    """

    def __init__(self, p, e, k, m_r=None, m_q=None):
        if not isinstance(e, int) or not isinstance(k, int) or e < 1 or k < 1:
            raise InputError("extension degrees e and k must be positive integers")
        self.p = p
        self.e = e
        self.k = k
        self.fp = prime_field(p)
        self.r = p**e
        self.q = self.r**k
        if m_q is None and e > 1 and k > 1 and self.q > SEARCH_Q_CAP:
            cap = f"2^{SEARCH_Q_CAP.bit_length() - 1}"
            raise BudgetExceeded(f"m_q search over F_{self.r} for q = {p}^{e * k} exceeds cap {cap}; give m_q")
        self.m_r = self._construction(self.fp, e, m_r, "m_r")
        self.fr = self.fp if e == 1 else ExtensionField(self.fp, self.m_r.coeffs)
        self.m_q = self._construction(self.fr, k, m_q, "m_q")
        self.fq = self.fr if k == 1 else ExtensionField(self.fr, self.m_q.coeffs)
        self._ext = {1: self.fq}

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
        if not isinstance(ext_degree, int) or ext_degree < 1:
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


def tower_create(p, e, k, m_r=None, m_q=None):
    """Build the tower F_p <= F_(p^e) <= F_(p^(e*k)), deterministically.

    Without overrides each construction polynomial is the lexicographically
    smallest monic irreducible of its degree; overrides are validated for
    degree, monicity and irreducibility.
    """
    return FieldTower(p, e, k, m_r=m_r, m_q=m_q)
