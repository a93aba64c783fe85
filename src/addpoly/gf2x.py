"""Polynomials over F_2 and each F_(2^e) = F_2[t]/(m) above it as packed ints, as NTL's GF2X and
GF2EX: over F_2 a bit mask, bit i the coefficient of y^i; over F_(2^e) coefficient i's e bits at
offset i(2e - 1), Kronecker substitution (von zur Gathen, Gerhard, Modern Computer Algebra, 8.4).
A level of 2^e elements over a larger base packs its coefficients' flat F_2 coordinates."""

import collections
import functools
from operator import getitem, xor

_TO_BITS = bytes.maketrans(b"\0\1", b"01")
_FROM_BITS = bytes.maketrans(b"01", b"\0\1")


def to_mask(coeffs):
    return int(bytes(coeffs[::-1]).translate(_TO_BITS), 2) if coeffs else 0


def from_mask(x):
    return tuple(bin(x)[:1:-1].encode().translate(_FROM_BITS))


def clmul(a, b):
    """Carry-less product of bit masks; a square spreads its bits."""
    if a == b:
        return int("0".join(bin(a)[2:]), 2)
    if a.bit_length() < b.bit_length():
        a, b = b, a
    out = 0
    for i, bit in enumerate(bin(b)[:1:-1]):
        if bit == "1":
            out ^= a << i
    return out


def mask_divmod(b, a):
    """Quotient and remainder of bit mask a by b != 0 (divisor first): shifted-xor long division."""
    quot, db = 0, b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        quot |= 1 << shift
        a ^= b << shift
    return quot, a


def mask_mod(b, a):
    """a mod b != 0 (divisor first): mask_divmod without its quotient."""
    db = b.bit_length()
    while (da := a.bit_length()) >= db:
        a ^= b << da - db
    return a


def mask_gcd(a, b):
    """Euclid on bit masks, shifted xors keeping only remainders."""
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << da - db
        a, b = b, a
    return a


def linear_map(cols):
    """x -> the xor of cols[i] over the set bits i of x, by one table per byte of x."""
    span = functools.partial(functools.reduce, lambda t, col: t + [v ^ col for v in t])
    tables = [span(cols[j : j + 8], [0]) for j in range(0, len(cols), 8)]
    return lambda x: functools.reduce(xor, map(getitem, tables, x.to_bytes(len(tables), "little")), 0)


Packed = collections.namedtuple("Packed", "pack unpack mul divider gcd remainder")


@functools.lru_cache(maxsize=64)
def packed(field):
    """The kernel of F_2 = F_2[t]/(t), or of a level F_2[t]/(m) of degree e over it: w = 2e - 1
    bits per coefficient, each group of a carry-less product reduced mod m, up to e = 8 one high
    bit at a time in all groups at once, above group by group through byte tables of
    t^e h -> h t^e mod m built once per field. divider(b): x -> (x // b, x % b), each quotient
    term c xoring one shifted t^j b per set bit of c, the e multiples built once; remainder(b):
    x -> x % b, over F_2 without the quotient (mask_mod); gcd(a, b) monic.
    A char-2 level with flat coordinates (ffield's _flat: to, back, the flat level) has the flat
    level's kernel, packed through to and unpacked through back. Other fields have None."""
    if getattr(field, "base", field).size != 2:
        if field.char != 2 or field._small:
            return None
        to, back, flat = field._flat
        k = packed(flat)
        return k._replace(pack=lambda cs: k.pack(list(map(to, cs))), unpack=lambda x: tuple(map(back, k.unpack(x))))
    m = to_mask(getattr(field, "modulus", (0, 1)))
    e, fold = m.bit_length() - 1, None
    if e == 1:
        by = functools.partial(functools.partial, functools.partial)  # by(f)(b): x -> f(b, x)
        return Packed(to_mask, from_mask, clmul, by(mask_divmod), mask_gcd, by(mask_mod))
    w, low, unit = 2 * e - 1, (1 << e) - 1, (1 << 2 * e - 1) - 1

    def mul(a, b, x=0):  # a * b + x, x a carry-less product not yet reduced
        x ^= clmul(a, b)
        if fold:
            return sum((x >> i & low ^ fold(x >> i + e & low >> 1)) << i for i in range(0, x.bit_length(), w))
        g = ((1 << (x.bit_length() // w + 1) * w) - 1) // unit  # bit 0 of every group
        for j in range(2 * e - 2, e - 1, -1):
            x ^= (x >> j & g) * m << j - e
        return x

    if e > 8:  # columns t^e, ..., t^(2e-2) mod m
        fold = linear_map([mul(1 << j, 1 << e) for j in range(e - 1)])

    def divider(b):
        top = (b.bit_length() - 1) // w
        inv, g, mults = field.inv(b >> top * w), ((1 << (top + 1) * w) - 1) // unit, [b]
        if not top:  # a constant
            return lambda x: (mul(x, inv) if inv != 1 else x, 0)
        for _ in range(e - 1):
            mults.append(mults[-1] << 1 ^ (mults[-1] >> e - 1 & g) * m)

        def divide(x):
            quot = 0
            for g in range((x.bit_length() - 1) // w, top - 1, -1):  # x's groups from the top
                c = field.mul(x >> g * w, inv) if inv != 1 else x >> g * w
                if c:
                    quot |= c << (g - top) * w
                    x ^= functools.reduce(xor, (t for t, d in zip(mults, bin(c)[:1:-1]) if d == "1")) << (g - top) * w
            return quot, x

        return divide

    def gcd(a, b):  # made monic by dividing by the leading coefficient as a constant
        while b:
            top = (b.bit_length() - 1) // w
            while fold and a.bit_length() > top * w:  # above e = 8, where an inverse is an extended Euclid,
                g = (a.bit_length() - 1) // w  # a's top term c is cancelled by lead(b) a + c b instead
                a = mul(a, b >> top * w, clmul(b, a >> g * w) << (g - top) * w)
            a, b = b, a if fold else divider(b)(a)[1]
        return divider(a >> (a.bit_length() - 1) // w * w)(a)[0] if a else 0

    def pack(coeffs):
        x = 0
        for c in reversed(coeffs):
            x = x << w | c
        return x

    def remainder(b):
        divide = divider(b)
        return lambda x: divide(x)[1]

    return Packed(pack, lambda x: tuple(x >> i & low for i in range(0, x.bit_length(), w)), mul, divider, gcd, remainder)
