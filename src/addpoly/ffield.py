"""Exact arithmetic in a tower of finite fields F_p <= F_r <= F_q.

A tower is the chain F_p < F_r = F_p^e < F_q = F_r^k with explicit monic
irreducible construction polynomials, plus on-demand extensions F_q^E on
top for brute-force work. Elements are plain values: integers in [0, p) at
the prime level and tuples of lower-level elements at extension levels,
always fully reduced, so equality is plain ==. Degree-one steps are
collapsed: if e == 1 the r-level *is* the prime field and its elements are
bare integers.

The canonical JSON encoding mirrors the representation: a bare integer per
prime-field coordinate and little-endian coefficient lists at proper
extension levels, e.g. the element g+1 of F_4 over F_2 encodes as [1, 1].

When no construction polynomial is supplied, the lexicographically smallest
monic irreducible of the right degree is used (coefficients compared
low-to-high as integers), which makes towers reproducible across runs.
"""

from . import upoly
from .errors import InputError, NotInSubfield

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

    # row helpers keep Gaussian elimination inner loops free of per-element calls
    def vec_submul(self, u, c, v):
        p = self.p
        return [(a - c * b) % p for a, b in zip(u, v)]

    def vec_scale(self, c, v):
        p = self.p
        return [c * a % p for a in v]

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField:
    """Degree-m extension base[y]/(modulus); elements are m-tuples over base."""

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

    def embed(self, x):
        """Lift a base-field element into this extension."""
        return (x,) + (self.base.zero,) * (self.degree - 1)

    def project(self, a):
        """Inverse of embed; raises NotInSubfield off the base field."""
        for c in a[1:]:
            if c != self.base.zero:
                raise NotInSubfield(f"element {self.encode(a)} is not in the base field")
        return a[0]

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

    def vec_submul(self, u, c, v):
        sub, mul = self.sub, self.mul
        return [sub(a, mul(c, b)) for a, b in zip(u, v)]

    def vec_scale(self, c, v):
        mul = self.mul
        return [mul(c, a) for a in v]

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
        self.m_r = self._construction(self.fp, e, m_r, "m_r")
        self.fr = self.fp if e == 1 else ExtensionField(self.fp, self.m_r.coeffs)
        self.m_q = self._construction(self.fr, k, m_q, "m_q")
        self.fq = self.fr if k == 1 else ExtensionField(self.fr, self.m_q.coeffs)
        self._ext = {1: self.fq}
        self._orders = {}

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

    def embed_r_to_q(self, x):
        if self.fq is self.fr:
            return x
        return self.fq.embed(x)

    def coerce_q_to_r(self, x):
        """Project an F_q element onto F_r; NotInSubfield if it does not lie there."""
        if self.fq is self.fr:
            return x
        return self.fq.project(x)

    def embed_q_to(self, field, x):
        if field is self.fq:
            return x
        if isinstance(field, ExtensionField) and field.base is self.fq:
            return field.embed(x)
        raise InputError("target level does not contain F_q")

    def embed_r_to(self, field, x):
        return self.embed_q_to(field, self.embed_r_to_q(x)) if field is not self.fr else x

    def sigma_r_order(self, field):
        """Order of the r-power Frobenius on the given level."""
        key = id(field)
        if key not in self._orders:
            n, t = 0, 1
            while t < field.size:
                t *= self.r
                n += 1
            self._orders[key] = n if t == field.size else 1
        return self._orders[key]

    def frob_r(self, field, x, i):
        """x^(r^i) with i taken modulo the Frobenius order; i may be negative."""
        j = i % self.sigma_r_order(field)
        if j == 0:
            return x
        return field.pow(x, self.r**j)

    def r_coords(self, field, x):
        """Flatten a q- or extension-level element to its F_r coordinate list."""
        if field is self.fr:
            return [x]
        if field is self.fq:
            return list(x)
        if isinstance(field, ExtensionField) and field.base is self.fq:
            out = []
            for c in x:
                out.extend(self.r_coords(self.fq, c))
            return out
        raise InputError("field is not a level of this tower")

    def from_r_coords(self, field, coords):
        if field is self.fr:
            (c,) = coords
            return c
        if field is self.fq:
            return tuple(coords)
        width = self.k
        chunks = [coords[i : i + width] for i in range(0, len(coords), width)]
        return tuple(self.from_r_coords(self.fq, chunk) for chunk in chunks)

    def to_json(self):
        return {
            "p": self.p,
            "e": self.e,
            "k": self.k,
            "m_r": self.m_r.encode(),
            "m_q": self.m_q.encode(),
        }

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, k={self.k})"


def tower_create(p, e, k, m_r=None, m_q=None):
    """Build the tower F_p <= F_(p^e) <= F_(p^(e*k)), deterministically.

    Without overrides each construction polynomial is the lexicographically
    smallest monic irreducible of its degree; overrides are validated for
    degree, monicity and irreducibility.
    """
    return FieldTower(p, e, k, m_r=m_r, m_q=m_q)
