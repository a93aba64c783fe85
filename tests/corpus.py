"""Shared towers, polynomial builders, and exhaustive corpora for the tests."""

from itertools import product

from addpoly.additive import AdditivePoly
from addpoly.ffield import tower_create

_towers = {}


def tower(p, e, k):
    key = (p, e, k)
    if key not in _towers:
        _towers[key] = tower_create(p, e, k)
    return _towers[key]


def elem(tw, idx):
    return tw.fq.from_index(idx)


def additive(tw, *coeff_indices):
    """Additive polynomial from field-element indices, low exponent first."""
    return AdditivePoly(tw, [tw.fq.from_index(i) for i in coeff_indices])


def x_rpow_plus_x(tw, m):
    """x^(r^m) + x."""
    return additive(tw, *([1] + [0] * (m - 1) + [1]))


def all_monic_squarefree(tw, n):
    """Every monic squarefree additive polynomial of exponent n, deterministically."""
    size = tw.fq.size
    if n == 0:
        yield AdditivePoly(tw, (tw.fq.one,))
        return
    for a0 in range(1, size):
        for mids in product(range(size), repeat=n - 1):
            yield additive(tw, a0, *mids, 1)


def all_monic(tw, n):
    """Every monic additive polynomial of exponent n, squarefree or not."""
    for low in product(range(tw.fq.size), repeat=n):
        yield additive(tw, *low, 1)


def audit_towers():
    """The (q, r) pairs used by the oracle audits: (2,2), (4,2), (4,4)."""
    return [tower(2, 1, 1), tower(2, 1, 2), tower(2, 2, 1)]
