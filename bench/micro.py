"""Seeded microbenchmarks of the field kernel and of row reduction.

Each figure is taken on one field level the workload's jobs use, over
seeded nonzero elements. The operation count is calibrated per level so
that slow levels (F_(2^32), the oracle's F_(q^E)) stay affordable; the
count is reported beside every figure.
"""

import math
import random
from statistics import median
from time import perf_counter

from addpoly import linalg

TARGET_S = 0.04  # time spent per (operation, level) figure
MIN_OPS, MAX_OPS = 8, 4096
RREF_SIZE = 16
RREF_REPS = 3


def _elements(field, rng, count=64):
    return [field.from_index(rng.randrange(1, field.size)) for _ in range(count)]


def _time_ops(op, args):
    t0 = perf_counter()
    for a in args:
        op(*a)
    return perf_counter() - t0


def _op_ns(op, args):
    """(ns per call, calls) with the call count calibrated to TARGET_S."""
    probe = _time_ops(op, args[:MIN_OPS]) / MIN_OPS
    ops = max(MIN_OPS, min(MAX_OPS, int(TARGET_S / max(probe, 1e-9))))
    cycled = [args[i % len(args)] for i in range(ops)]
    return _time_ops(op, cycled) / ops * 1e9, ops


def field_ops(tower, field, seed):
    """ns per mul, add, inv and r-power Frobenius on one level of a tower."""
    rng = random.Random(f"{seed}:{field.size}")
    xs = _elements(field, rng)
    ys = _elements(field, rng)
    pairs = list(zip(xs, ys))
    ops = {
        "mul": (field.mul, pairs),
        "add": (field.add, pairs),
        "inv": (field.inv, [(x,) for x in xs]),
        "frob": (lambda x: tower.frob_r(field, x, 1), [(x,) for x in xs]),
    }
    out = {}
    for name, (op, args) in ops.items():
        ns, count = _op_ns(op, args)
        out[name] = {"ns": ns, "ops": count}
    return out


def rref_ms(field, seed):
    """Median ms of linalg.rref on a seeded RREF_SIZE x RREF_SIZE matrix over field."""
    rng = random.Random(f"{seed}:rref:{field.size}")
    rows = [
        [field.from_index(rng.randrange(field.size)) for _ in range(RREF_SIZE)]
        for _ in range(RREF_SIZE)
    ]
    times = []
    for _ in range(RREF_REPS):
        t0 = perf_counter()
        linalg.rref(field, rows)
        times.append(perf_counter() - t0)
    return median(times) * 1e3


def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
