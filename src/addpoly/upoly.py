"""Dense commutative univariate polynomials over an explicit finite field.

Coefficients are stored little-endian with a nonzero leading coefficient;
the zero polynomial is the empty tuple. The indeterminate is written y
throughout to keep it apart from the skew variable x used elsewhere.

The field is any object with the small arithmetic protocol used across this
package (zero/one attributes, add/sub/neg/mul/inv/div/pow, size, char,
from_index/to_index, elements, encode/decode); see ffield for the concrete
implementations. Factorization is complete over any such field: squarefree
decomposition with p-th-root descent, distinct-degree splitting, then
seeded random equal-degree splitting.
"""

import random

from .errors import BudgetExceeded, InputError, Overflow

KARATSUBA_CUTOFF = 32
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

    def substitute(self, other):
        """Plain composition self(other)."""
        acc = UPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + UPoly.constant(self.field, c)
        return acc

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
        return UPoly(self.field, _mul_lists(self.field, list(self.coeffs), list(other.coeffs)))

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
            for i, oc in enumerate(other.coeffs):
                if oc != f.zero:
                    rem[s + i] = f.sub(rem[s + i], f.mul(g, oc))
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
    add, mul, zero = field.add, field.mul, field.zero
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j, bj in enumerate(b):
            if bj != zero:
                out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _list_add(field, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return out


def _list_sub(field, a, b):
    out = list(a) + [field.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = field.sub(out[i], c)
    return out


def _mul_lists(field, a, b):
    if not a or not b:
        return []
    if min(len(a), len(b)) <= KARATSUBA_CUTOFF:
        return _mul_schoolbook(field, a, b)
    h = max(len(a), len(b)) // 2
    a0, a1 = a[:h], a[h:]
    b0, b1 = b[:h], b[h:]
    z0 = _mul_lists(field, a0, b0) if a0 and b0 else []
    z2 = _mul_lists(field, a1, b1) if a1 and b1 else []
    s1 = _list_add(field, a0, a1)
    s2 = _list_add(field, b0, b1)
    z1 = _list_sub(field, _mul_lists(field, s1, s2), _list_add(field, z0, z2))
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] = field.add(out[i], c)
    for i, c in enumerate(z1):
        out[i + h] = field.add(out[i + h], c)
    for i, c in enumerate(z2):
        out[i + 2 * h] = field.add(out[i + 2 * h], c)
    return out


def gcd(a, b):
    """Monic greatest common divisor."""
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


def factor(u, seed=0):
    """Complete factorization into monic irreducibles with multiplicities.

    The result is sorted by (degree, coefficient indices) and two calls with
    the same seed produce identical output; the seed only drives the random
    equal-degree splitting.
    """
    if u.is_zero:
        raise InputError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    found = {}
    for part, mult in squarefree_decomposition(u):
        for prod_, d in _distinct_degree(part):
            for irr in _equal_degree(prod_, d, rng):
                found[irr] = found.get(irr, 0) + mult
    return sorted(found.items(), key=lambda fm: fm[0].sort_key())


def is_irreducible(u):
    """Rabin irreducibility test over the polynomial's own field."""
    if u.degree < 1:
        raise InputError("irreducibility is only defined for degree >= 1")
    if u.degree == 1:
        return True
    field = u.field
    s = field.size
    m = u.degree
    yy = UPoly.y(field) % u
    # y^(s^j) mod u for increasing j, via repeated s-powering
    powers = {0: yy}
    h = yy
    for j in range(1, m + 1):
        h = powmod(h, s, u)
        powers[j] = h
    if powers[m] != yy:
        return False
    mm = m
    primes = []
    t = 2
    while t * t <= mm:
        if mm % t == 0:
            primes.append(t)
            while mm % t == 0:
                mm //= t
        t += 1
    if mm > 1:
        primes.append(mm)
    for t in primes:
        if gcd(powers[m // t] - yy, u).degree != 0:
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
