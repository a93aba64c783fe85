"""Skew arithmetic in the non-commutative ring F_q[x;r] of additive polynomials.

An additive polynomial sum a_i x^(r^i) is stored by its skew coefficient
vector (a_0..a_n) over F_q. The exponent n is the size measure everywhere;
the plain degree r^n is never materialized except inside explicitly gated
dense expansions. Composition is the ring product, with the coefficient
twist c_t = sum over i+j=t of g_i * h_j^(r^i).

Frobenius twists x -> x^(r^i) are taken modulo the order of the r-power
Frobenius on the coefficient level, so exponents never grow with i.
"""

from .errors import (
    BudgetExceeded,
    InputError,
    InternalInconsistency,
    NotCentral,
    NotInSubfield,
)
from .linalg import SpanTracker
from .upoly import UPoly

DENSE_EXPANSION_CAP = 1 << 16


class AdditivePoly:
    """An element of F_q[x;r], held as its skew coefficient vector."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs=()):
        zero = tower.fq.zero
        cs = list(coeffs)
        while cs and cs[-1] == zero:
            cs.pop()
        self.tower = tower
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, tower):
        return cls(tower, ())

    @classmethod
    def identity(cls, tower):
        """The composition identity x."""
        return cls(tower, (tower.fq.one,))

    @classmethod
    def x_rpower(cls, tower, m):
        """The polynomial x^(r^m)."""
        return cls(tower, (tower.fq.zero,) * m + (tower.fq.one,))

    @property
    def exponent(self):
        """n with deg = r^n; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.tower.fq.one

    @property
    def is_squarefree(self):
        """Nonzero linear coefficient, i.e. nonzero derivative."""
        return bool(self.coeffs) and self.coeffs[0] != self.tower.fq.zero

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.tower.fq.zero

    def scale(self, c):
        """Left scalar multiple (cx) o f."""
        fq = self.tower.fq
        return AdditivePoly(self.tower, [fq.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.tower.fq.inv(self.coeffs[-1]))

    def _check(self, other):
        if not isinstance(other, AdditivePoly) or other.tower is not self.tower:
            raise InputError("additive polynomials live over different towers")

    def __add__(self, other):
        self._check(other)
        fq = self.tower.fq
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = fq.add(out[i], c)
        return AdditivePoly(self.tower, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        fq = self.tower.fq
        return AdditivePoly(self.tower, [fq.neg(c) for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, AdditivePoly)
            and self.tower is other.tower
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.tower), self.coeffs))

    def __repr__(self):
        return f"AdditivePoly({[self.tower.fq.encode(c) for c in self.coeffs]})"

    def compose(self, other):
        return compose(self, other)

    def evaluate(self, alpha, field=None):
        return evaluate(self, alpha, field)

    def to_json(self):
        fq = self.tower.fq
        return {"r_exp": self.tower.e, "coeffs": [fq.encode(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, tower, obj):
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise InputError("additive polynomial encoding must be {r_exp, coeffs}")
        r_exp = obj.get("r_exp")
        if type(r_exp) is not int or r_exp != tower.e:  # true == 1, but is no exponent
            raise InputError(f"r_exp {r_exp!r} does not match tower (expected {tower.e})")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise InputError("coeffs must be a list of field-element encodings")
        out = []
        for i, c in enumerate(coeffs):
            try:
                out.append(tower.fq.decode(c))
            except InputError as exc:
                raise InputError(f"coefficient a_{i}: {exc}") from exc
        return cls(tower, out)


def compose(g, h):
    """The skew product g o h."""
    g._check(h)
    tower = g.tower
    if g.is_zero or h.is_zero:
        return AdditivePoly.zero(tower)
    fq = tower.fq
    zero = fq.zero
    out = [zero] * (g.exponent + h.exponent + 1)
    twisted = list(h.coeffs)
    for i, gi in enumerate(g.coeffs):
        if i:
            twisted = [tower.frob_r(fq, c, 1) for c in twisted]
        if gi == zero:
            continue
        for j, hj in enumerate(twisted):
            if hj != zero:
                out[i + j] = fq.add(out[i + j], fq.mul(gi, hj))
    return AdditivePoly(tower, out)


def right_divmod(f, h):
    """(g, rem) with f = g o h + rem and expn(rem) < expn(h).

    A zero remainder certifies h as a right component of f, which for
    squarefree inputs is the same as plain polynomial divisibility.
    """
    f._check(h)
    if h.is_zero:
        raise ZeroDivisionError("right division by the zero polynomial")
    tower = f.tower
    fq = tower.fq
    zero = fq.zero
    n, m = f.exponent, h.exponent
    if n < m:
        return AdditivePoly.zero(tower), f
    order = tower.sigma_r_order(fq)
    inv_frob = tower.r ** (order - 1)  # exponent of the inverse r-power Frobenius
    rem = list(f.coeffs)
    quot = [zero] * (n - m + 1)
    twisted = [tower.frob_r(fq, c, n - m) for c in h.coeffs]
    sub, mul = fq.sub, fq.mul
    for s in range(n - m, -1, -1):
        top = rem[s + m]
        if top != zero:
            g = fq.div(top, twisted[m])
            quot[s] = g
            for i in range(m + 1):
                ti = twisted[i]
                if ti != zero:
                    rem[s + i] = sub(rem[s + i], mul(g, ti))
        if s and order > 1:
            twisted = [c if c == zero else fq.pow(c, inv_frob) for c in twisted]
    return AdditivePoly(tower, quot), AdditivePoly(tower, rem[:m])


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


def gcrc(f, g):
    """Monic greatest common right component, by the right-Euclidean algorithm."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise InputError("gcrc(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, right_divmod(a, b)[1]
    return a.monic()


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


def central_to_upoly(f):
    """Transport a central polynomial sum c_j x^(q^j) to sum c_j y^j over F_r."""
    tower = f.tower
    k = tower.k
    coeffs = []
    for i, c in enumerate(f.coeffs):
        if i % k:
            if c != tower.fq.zero:
                raise NotCentral(f"support at x^(r^{i}) is not a q-power")
            continue
        try:
            coeffs.append(tower.coerce_q_to_r(c))
        except NotInSubfield as exc:
            raise NotCentral(f"coefficient at x^(q^{i // k}) is not in F_r") from exc
    return UPoly(tower.fr, coeffs)


def upoly_to_central(tower, u):
    """Inverse transport: sum c_j y^j over F_r to the central sum c_j x^(q^j)."""
    if u.field is not tower.fr:
        raise InputError("polynomial must live over F_r of this tower")
    if u.is_zero:
        return AdditivePoly.zero(tower)
    k = tower.k
    coeffs = [tower.fq.zero] * (k * u.degree + 1)
    for j, c in enumerate(u.coeffs):
        coeffs[j * k] = tower.embed_r_to_q(c)
    return AdditivePoly(tower, coeffs)


def minimal_central_left_component(f):
    """The least-exponent monic central g with zero remainder in right_divmod(g, f).

    Works by collecting the right-division remainders of x^(q^i) by f,
    flattened to F_r vectors, and reading the defining coefficients off the
    first F_r-linear dependence (which is automatically monic). The loop is
    bounded by n*[F_q:F_r] insertions.
    """
    if not f.is_monic:
        raise InputError("input must be monic")
    if not f.is_squarefree:
        raise InputError("input must be squarefree (nonzero linear coefficient)")
    tower = f.tower
    fq, fr = tower.fq, tower.fr
    n, k = f.exponent, tower.k
    if n < 1:
        raise InputError("input must have exponent >= 1")

    def flatten(poly):
        vec = []
        for i in range(n):
            vec.extend(tower.r_coords(fq, poly.coeff(i)))
        return vec

    tracker = SpanTracker(fr)
    rem = AdditivePoly.identity(tower)  # x^(q^0) mod f, since n >= 1
    for _ in range(n * k + 1):
        dep = tracker.add(flatten(rem))
        if dep is not None:
            fstar = upoly_to_central(tower, UPoly(fr, dep))
            if not right_divmod(fstar, f)[1].is_zero:
                raise InternalInconsistency("computed central component is not a left multiple")
            return fstar
        # multiply by x^q on the left; the q-power acts trivially on F_q
        shifted = AdditivePoly(tower, (fq.zero,) * k + rem.coeffs)
        rem = right_divmod(shifted, f)[1]
    raise InternalInconsistency("no central dependence found within the dimension bound")


def strip_inseparable(fbar):
    """Write a monic fbar as x^(r^m) o f with f monic squarefree; returns (m, f).

    m is the index of the lowest nonzero coefficient and the coefficients of
    f are r^m-th roots of the shifted coefficients of fbar.
    """
    if fbar.is_zero:
        raise InputError("cannot normalize the zero polynomial")
    if not fbar.is_monic:
        raise InputError("input must be monic")
    tower = fbar.tower
    fq = tower.fq
    m = next(i for i, c in enumerate(fbar.coeffs) if c != fq.zero)
    coeffs = [tower.frob_r(fq, c, -m) for c in fbar.coeffs[m:]]
    return m, AdditivePoly(tower, coeffs)


def projective_part(f, t):
    """The ordinary polynomial p with f = x * (p o x^t), for t dividing r-1."""
    tower = f.tower
    r = tower.r
    if t < 1 or (r - 1) % t:
        raise InputError(f"t = {t} does not divide r - 1 = {r - 1}")
    if f.is_zero:
        return UPoly.zero(tower.fq)
    n = f.exponent
    if r**n > DENSE_EXPANSION_CAP:
        raise BudgetExceeded(
            f"projective image has degree (r^{n}-1)/{t} beyond cap {DENSE_EXPANSION_CAP}"
        )
    coeffs = [tower.fq.zero] * ((r**n - 1) // t + 1)
    for i, c in enumerate(f.coeffs):
        coeffs[(r**i - 1) // t] = c
    return UPoly(tower.fq, coeffs)


def subadditive_image(f, t):
    """x * (projective_part(f, t))^t; for t = 1 this is f as a plain polynomial."""
    return (projective_part(f, t) ** t).shift(1)


def evaluate(f, alpha, field=None):
    """f(alpha) = sum a_i alpha^(r^i) by iterated Frobenius; F_r-linear in alpha."""
    tower = f.tower
    fq = tower.fq
    if field is None:
        field = fq
    if field is not fq and not (getattr(field, "base", None) is fq):
        raise InputError("evaluation level must contain F_q")
    acc = field.zero
    cur = alpha
    for i, c in enumerate(f.coeffs):
        if i:
            cur = tower.frob_r(field, cur, 1)
        if c != fq.zero:
            acc = field.add(acc, field.mul(tower.embed_q_to(field, c), cur))
    return acc


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
