"""Rational Jordan form and species of the q-power Frobenius on a root space.

Everything here is computed from the additive polynomial alone: the minimal
central left component gives the minimal polynomial of the Frobenius, and
per-eigenfactor kernel dimensions come from gcrc computations, so the root
space itself (which may live in an enormous extension) is never touched.
When deg tau(f*) = n the root space is cyclic and the species is read off the
factorization of tau(f*) alone; at k = 1, f* = f and tau(f*) = sum a_i y^i.
"""

from dataclasses import dataclass

from . import upoly
from .additive import central_to_upoly, gcrc, minimal_central_left_component, right_divmod, upoly_to_central
from .errors import InputError, InternalInconsistency
from .upoly import UPoly


@dataclass(frozen=True)
class Species:
    """Multiset of eigenfactor signatures (degree m; lambda_1..lambda_k).

    lambda_j counts the Jordan blocks of order j; trailing zeros are
    trimmed and the entries are kept canonically sorted, so equal species
    compare equal. The arrangement of blocks and the actual eigenfactors
    are abstracted away.
    """

    entries: tuple

    @staticmethod
    def make(items):
        entries = []
        for m, lambdas in items:
            lam = list(lambdas)
            while lam and lam[-1] == 0:
                lam.pop()
            if not lam:
                raise InputError("empty signature in species")
            if m < 1 or any(l < 0 for l in lam):
                raise InputError("malformed species signature")
            entries.append((m, tuple(lam)))
        return Species(tuple(sorted(entries)))

    def dimension(self):
        return sum(m * sum(j * l for j, l in enumerate(lam, start=1)) for m, lam in self.entries)

    def to_json(self):
        return [[m, list(lam)] for m, lam in self.entries]

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class RationalJordanForm:
    """Block data (eigenfactor, weakly decreasing orders) plus nullity sequences.

    Blocks are kept in the canonical order (eigenfactor degree, coefficient
    indices); nullities[i] is the sequence nu_0..nu_(k_i+1) used to derive
    the block orders of eigenfactor i.
    """

    field: object
    blocks: tuple
    nullities: tuple

    @property
    def species(self):
        items = []
        for u, orders in self.blocks:
            lam = [0] * orders[0]
            for o in orders:
                lam[o - 1] += 1
            items.append((u.degree, lam))
        return Species.make(items)

    def dimension(self):
        return sum(u.degree * sum(orders) for u, orders in self.blocks)

    def minimal_polynomial(self):
        out = UPoly.one(self.field)
        for u, orders in self.blocks:
            out = out * u ** orders[0]
        return out

    def to_json(self):
        return {
            "minpoly_factors": [[u.encode(), orders[0]] for u, orders in self.blocks],
            "species": self.species.to_json(),
            "nullities": {str(i): list(nu) for i, nu in enumerate(self.nullities)},
        }


def lambdas_from_nullities(nu, m):
    """Block-order counts from a nullity sequence: lambda_j = (2nu_j - nu_(j-1) - nu_(j+1))/m."""
    lams = []
    for j in range(1, len(nu) - 1):
        val = 2 * nu[j] - nu[j - 1] - nu[j + 1]
        if val < 0 or val % m:
            raise InternalInconsistency(
                f"nullity sequence {nu} is not consistent with eigenfactor degree {m}"
            )
        lams.append(val // m)
    return lams


def _nullity_sequence(f, u, k):
    """nu_0..nu_(k+1) of u, peeled: with h_0 = f, g = gcrc(h_j, u(x^q)) has root space ker u in V_(h_j),
    and nu_(j+1) = nu_j + expn g. g has coefficients in F_q, so it commutes with the q-Frobenius, and
    h_(j+1), the right quotient of h_j by g, has root space V_(h_j) / ker u."""
    big_u, h, nu = upoly_to_central(f.tower, u), f, [0]
    for j in range(k + 1):
        g = gcrc(h, big_u)
        nu.append(nu[-1] + g.exponent)
        if j < k:  # the step past k only checks that nu is stable, and needs no h_(k+2)
            h, rem = right_divmod(h, g)
            if not rem.is_zero:
                raise InternalInconsistency("gcrc(h, u(x^q)) is not a right component of h")
    return nu


def rational_jordan_form(f):
    """Species and block structure of the q-power Frobenius on the root space of f.

    Steps: minimal central left component, complete factorization of its
    commutative image, then one gcrc-driven nullity sequence per
    eigenfactor, peeled one kernel of u at a time (_nullity_sequence), and
    nu_(k+1) is computed even though the sequence stabilizes at k, keeping
    the second-difference formula uniform at j = k.
    When deg tau(f*) = n the minimal polynomial of the Frobenius is its
    characteristic polynomial, so the root space is the cyclic module
    F_r[y]/(tau(f*)) and nu_j = deg u * min(j, mult), with no peel. mclc
    stops at the first F_r-dependence among x^(q^i) mod f, so degree n
    certifies that x^(q^0)..x^(q^(n-1)) mod f are independent. At k = 1
    the ring is commutative and f* = f, so every input is cyclic (Ore 1933).
    """
    if not f.is_monic or not f.is_squarefree or f.exponent < 1:
        raise InputError("input must be monic squarefree of exponent >= 1")
    tau_fstar = central_to_upoly(f if f.tower.k == 1 else minimal_central_left_component(f))
    cyclic = tau_fstar.degree == f.exponent
    blocks = []
    nullities = []
    for u, mult in upoly.factor(tau_fstar):
        if cyclic:
            nu = [u.degree * min(j, mult) for j in range(mult + 2)]
        else:
            nu = _nullity_sequence(f, u, mult)
        lams = lambdas_from_nullities(nu, u.degree)
        orders = []
        for j in range(len(lams), 0, -1):
            orders.extend([j] * lams[j - 1])
        if not orders or orders[0] != mult:
            raise InternalInconsistency(
                f"top block order {orders[:1]} disagrees with eigenfactor multiplicity {mult}"
            )
        blocks.append((u, tuple(orders)))
        nullities.append(tuple(nu))
    form = RationalJordanForm(f.tower.fr, tuple(blocks), tuple(nullities))
    if form.dimension() != f.exponent:
        raise InternalInconsistency(
            f"block dimensions sum to {form.dimension()}, expected {f.exponent}"
        )
    return form
