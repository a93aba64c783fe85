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
    InputError,
    InternalInconsistency,
    NotCentral,
    NotInSubfield,
    admit,
)
from .linalg import SpanTracker
from .upoly import DensePoly, UPoly, _byte_divider, _divide, _product

DENSE_EXPANSION_CAP = 1 << 16


class AdditivePoly(DensePoly):
    """An element of F_q[x;r], held as its skew coefficient vector over field = F_q."""

    __slots__ = ("tower",)

    def __init__(self, tower, coeffs=()):
        self.tower = tower
        self.coeffs = self._trim(coeffs, tower.fq.zero)

    def _like(self, coeffs):
        return AdditivePoly(self.tower, coeffs)

    @property
    def field(self):
        return self.tower.fq

    @classmethod
    def identity(cls, tower):
        """The composition identity x."""
        return cls(tower, (tower.fq.one,))

    @property
    def exponent(self):
        """n with deg = r^n; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_squarefree(self):
        """Nonzero linear coefficient, i.e. nonzero derivative."""
        return bool(self.coeffs) and self.coeffs[0] != self.tower.fq.zero

    def _check(self, other):
        if not isinstance(other, AdditivePoly) or other.tower is not self.tower:
            raise InputError("additive polynomials live over different towers")

    def __eq__(self, other):
        return isinstance(other, AdditivePoly) and self.tower is other.tower and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.tower), self.coeffs))

    def to_json(self):
        return {"r_exp": self.tower.e, "coeffs": self.encode()}

    @classmethod
    def from_json(cls, tower, obj):
        return cls(tower, json_coefficients(obj, tower.e, tower.fq.decode))


def json_coefficients(obj, e, check):
    """check(c) for each coefficient c of an encoded f over a tower of this e, in a list; an
    InputError names the coefficient. from_json decodes them; the CLI checks their shape
    (ffield.encoding_shape) before it builds the tower."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError("additive polynomial encoding must be {r_exp, coeffs}")
    r_exp = obj.get("r_exp")
    if type(r_exp) is not int or r_exp != e:  # true == 1, but is no exponent
        raise InputError(f"r_exp {r_exp!r} does not match tower (expected {e})")
    if not isinstance(obj["coeffs"], list):
        raise InputError("coeffs must be a list of field-element encodings")
    out = []
    try:
        for c in obj["coeffs"]:
            out.append(check(c))
    except InputError as exc:
        raise InputError(f"coefficient a_{len(out)}: {exc}") from exc
    return out


def compose(g, h):
    """The skew product g o h."""
    g._check(h)
    return AdditivePoly(g.tower, _product(g.tower.fq, g.coeffs, _twists(g.tower, h.coeffs, len(g.coeffs))))


def _twists(tower, coeffs, count):
    """Twist s of the coefficients of an element of F_q[x;r], each raised to r^s, for s below
    count and below the order of the r-power Frobenius on F_q, after which the twists repeat."""
    fq, r, order = tower.fq, tower.r, tower.sigma_r_order(tower.fq)
    if fq.frobs:  # bytes, twist s one translate through x -> x^(r^s) = x^(p^(es))
        b = bytes(coeffs)
        return [b] + [b.translate(fq.frobs[tower.e * s]) for s in range(1, min(count, order))]
    twists = [list(coeffs)]
    for _ in range(1, min(count, order)):  # twist s is twist s - 1 raised to r
        twists.append([fq.pow(c, r) for c in twists[-1]])
    return twists


def right_divmod(f, h):
    """(g, rem) with f = g o h + rem and expn(rem) < expn(h).

    A zero remainder certifies h as a right component of f, which for
    squarefree inputs is the same as plain polynomial divisibility.
    """
    f._check(h)
    if h.is_zero:
        raise ZeroDivisionError("right division by the zero polynomial")
    tower = f.tower
    quot, rem = _divide(tower.fq, f.coeffs, _twists(tower, h.coeffs, f.exponent - h.exponent + 1), tower.r)
    return AdditivePoly(tower, quot), AdditivePoly(tower, rem)


def gcrc(f, g):
    """Monic greatest common right component, by the right-Euclidean algorithm: over a level with
    byte-slot tables on ints of byte slots, packed once, each step dividing with _byte_divider."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise InputError("gcrc(0, 0) is undefined")
    a, b = (f, g) if f.exponent >= g.exponent else (g, f)  # else the first division only swaps
    tower = f.tower
    if tower.fq.scales:
        slots, a, b = len(a.coeffs), *(int.from_bytes(bytes(x.coeffs), "little") for x in (a, b))
        while b:  # a has `slots` byte slots, b no more
            m = (b.bit_length() + 7) // 8
            twists = _twists(tower, b.to_bytes(m, "little"), slots - m + 1)
            a, b, slots = b, _byte_divider(tower.fq, twists)(a)[1], m
        return AdditivePoly(tower, a.to_bytes(slots, "little")).monic()
    while not b.is_zero:
        a, b = b, right_divmod(a, b)[1]
    return a.monic()


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
    k = tower.k
    coeffs = [tower.fq.zero] * (k * u.degree + 1)  # none for u = 0
    for j, c in enumerate(u.coeffs):
        coeffs[j * k] = c  # F_r elements are F_q elements
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

    twists, width = _twists(tower, f.coeffs, k), n * k  # the r-power Frobenius has order k on F_q
    if fq.scales:  # rem is one int of byte slots, and x^q times it a shift by k bytes
        divide, r = _byte_divider(fq, twists), fr.size
        digits = [bytes(v // r**j % r for v in range(fq.size)).ljust(256, b"\0") for j in range(k)]
        def flatten(rem):  # F_r digit j of rem_i, digits[j] of its byte, to byte slot jn + i, one translate per j
            return int.from_bytes(b"".join(rem.to_bytes(n, "little").translate(t) for t in digits), "little")

        if r == 2:  # the row is rem itself: bit 8i + j is bit j of rem_i
            width, flatten = 8 * n, int
    else:
        def flatten(rem):
            return [x for c in rem for x in tower.r_coords(fq, c)]

    tracker = SpanTracker(fr, width)
    rem = 1 if fq.scales else [fq.one] + [fq.zero] * (n - 1)  # x^(q^0) mod f, since n >= 1
    for _ in range(n * k + 1):
        dep = tracker.add(flatten(rem))
        if dep is not None:
            fstar = upoly_to_central(tower, UPoly(fr, dep))
            if not right_divmod(fstar, f)[1].is_zero:
                raise InternalInconsistency("computed central component is not a left multiple")
            return fstar
        # multiply by x^q on the left; the q-power acts trivially on F_q
        rem = divide(rem << 8 * k)[1] if fq.scales else _divide(fq, [fq.zero] * k + rem, twists)[1]
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
    admit("projective part", DENSE_EXPANSION_CAP, r**n)
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
            acc = field.add(acc, field.mul(c, cur))
    return acc
