"""The benchmark's job lists, built from a workload seed.

A job is a CLI argument list plus a JobSpec (or None for `mhat`). JobSpecs
are written here straight in the CLI's documented JSON encoding, so the
inputs do not depend on any helper inside the package under test.

Every random polynomial is drawn from a fixed pool of POOL candidates per
shape. The pool is generated once from the shape itself, which lets
`reference.json` hold the recorded output of every job any seed can pick;
the workload seed only chooses which candidates run and in which order.
"""

import hashlib
import json
import random

POOL = 8

# A slot is (argv, shape, copies). Shapes:
#   ("fixed", p, e, k, coeff digits)   one deterministic polynomial
#   ("xpx", p, e, k, n)                x^(r^n) + x
#   ("random", p, e, k, n)             seeded monic squarefree f of exponent n
#   ("inseparable", p, e, k, n, m)     random monic f with a_0 .. a_(m-1) = 0
#   ("mhat", n, r)                     no JobSpec
# `copies` is either a count, and the seed picks that many distinct pool
# candidates, or a tuple of candidate indices that every seed runs.
#
# Each list holds 25 jobs. The heavy jobs are the same for every seed, so the
# seed moves only light jobs and the cost of a pass stays steady. The median
# (rank 13) falls inside a cluster of similar light jobs, and the 90th
# percentile (rank 22.5) in the middle of three copies of one fixed job that
# only one job outweighs, so both are read off many samples. The first slot
# is the workload's smallest job, the one `setup_s` runs in a fresh
# interpreter.
WORKLOADS = {
    # Nested-tuple field arithmetic dominates: every tower has e > 1 or k > 1.
    "species-tower": [
        (["species"], ("xpx", 2, 2, 2, 2), 1),
        (["species"], ("random", 3, 1, 2, 24), 2),
        (["species"], ("random", 2, 1, 2, 32), 2),
        (["species"], ("random", 2, 4, 1, 16), 2),
        (["species"], ("random", 3, 2, 2, 8), 2),
        (["species"], ("xpx", 2, 2, 2, 48), 1),
        (["species"], ("random", 2, 2, 2, 16), 6),
        (["species"], ("random", 2, 1, 3, 32), 2),
        (["species"], ("random", 2, 1, 2, 48), 1),
        (["species"], ("random", 2, 1, 2, 64), (0,)),
        (["species"], ("random", 2, 2, 2, 24), (0,)),
        (["species"], ("random", 2, 32, 1, 4), (0, 0, 0)),
        (["species"], ("random", 2, 2, 2, 32), (0,)),
    ],
    # Prime fields: elements are ints, so the work sits in upoly.factor (random f)
    # or in the gcrc loop (x^(p^n) + x, the paper's headline scaling case).
    "species-prime": [
        (["species"], ("xpx", 2, 1, 1, 2), 1),
        (["species"], ("random", 5, 1, 1, 32), 3),
        (["species"], ("random", 2, 1, 1, 64), 2),
        (["species"], ("random", 5, 1, 1, 48), (0, 1, 2, 3, 4)),
        (["species"], ("random", 3, 1, 1, 48), (0, 1, 2, 3)),
        (["species"], ("xpx", 2, 1, 1, 256), 1),
        (["species"], ("random", 2, 1, 1, 128), 2),
        (["species"], ("random", 3, 1, 1, 96), 1),
        (["species"], ("xpx", 5, 1, 1, 64), 1),
        (["species"], ("xpx", 2, 1, 1, 512), 3),
        # n = 112 keeps this job lighter than the three x^(2^512) + x copies, so
        # that only one job outweighs them and the 90th percentile falls among them
        (["species"], ("xpx", 3, 1, 1, 112), 1),
        (["species"], ("random", 2, 1, 1, 256), (0,)),
    ],
    # Desk-scale counting and the brute-force oracle; the species path is cheap.
    "count-verify": [
        (["count"], ("xpx", 2, 1, 2, 2), 1),
        # refused today: reduced dimension 8 > 6, so g is the budget sentinel
        (["count", "--all"], ("xpx", 2, 1, 2, 8), 1),
        (["count", "--d", "2"], ("random", 3, 1, 1, 4), 2),
        # one answered, one refused (eigenfactor base 32 > 9); pool member 5 takes
        # ~45 ms and would push the median out of the count (2,1,2,4) cluster
        (["count"], ("random", 2, 1, 1, 6), (1, 4)),
        (["mhat", "--n", "10", "--r", "2"], ("mhat", 10, 2), 1),
        (["mhat", "--n", "12", "--r", "3"], ("mhat", 12, 3), 1),
        (["mhat", "--n", "8", "--r", "4"], ("mhat", 8, 4), 1),
        (["mhat", "--n", "9", "--r", "5"], ("mhat", 9, 5), 1),
        (["count"], ("random", 2, 1, 2, 4), (0, 1, 2, 3)),
        (["count-general", "--d", "2"], ("inseparable", 2, 1, 2, 5, 1), (0, 1)),
        # oracle root spaces
        (["verify"], ("random", 3, 1, 1, 3), 1),
        (["verify"], ("random", 2, 1, 2, 3), 1),
        (["verify"], ("random", 2, 1, 1, 5), 1),
        # refused today: eigenfactor y^4 + y + 1 counts over base 16 > 9
        (["verify"], ("fixed", 2, 1, 1, [[1], [1], [0], [0], [1]]), 1),
        # count_chains on a species of dimension 72
        (["count", "--d", "1"], ("xpx", 2, 1, 3, 72), 1),
        # echelon enumeration: x^(3^6) - x over F_(3^6), species (1; 6)
        (["count"], ("fixed", 3, 1, 6, [[2, 0, 0, 0, 0, 0]] + [[0] * 6] * 5 + [[1, 0, 0, 0, 0, 0]]), 3),
        (["verify"], ("random", 2, 2, 1, 3), (0,)),
    ],
}


def _element(p, e, k, digits):
    """Encode e*k F_p digits (low first) as an F_q element of tower (p, e, k)."""
    r_elems = [digits[i * e : (i + 1) * e] for i in range(k)]
    enc = [d[0] if e == 1 else list(d) for d in r_elems]
    return enc[0] if k == 1 else enc


def _jobspec(p, e, k, digit_rows):
    coeffs = [_element(p, e, k, row) for row in digit_rows]
    return {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": coeffs}}


def _one(p, e, k):
    return [1] + [0] * (e * k - 1)


def _random_rows(rng, p, e, k, n, low_zero):
    width = e * k
    rows = [[0] * width for _ in range(low_zero)]
    for _ in range(low_zero, n):
        rows.append([rng.randrange(p) for _ in range(width)])
    while not any(rows[low_zero]):
        rows[low_zero] = [rng.randrange(p) for _ in range(width)]
    rows.append(_one(p, e, k))
    return rows


def candidates(shape):
    """Every JobSpec a shape can yield: one for fixed shapes, POOL for random ones."""
    kind = shape[0]
    if kind == "mhat":
        return [None]
    if kind == "fixed":
        _, p, e, k, rows = shape
        return [_jobspec(p, e, k, [list(r) for r in rows])]
    if kind == "xpx":
        _, p, e, k, n = shape
        zero = [0] * (e * k)
        return [_jobspec(p, e, k, [_one(p, e, k)] + [zero] * (n - 1) + [_one(p, e, k)])]
    if kind in ("random", "inseparable"):
        p, e, k, n = shape[1:5]
        low_zero = shape[5] if kind == "inseparable" else 0
        out = []
        for i in range(POOL):
            rng = random.Random(f"{kind}-{p}-{e}-{k}-{n}-{low_zero}-{i}")
            out.append(_jobspec(p, e, k, _random_rows(rng, p, e, k, n, low_zero)))
        return out
    raise ValueError(f"unknown shape {shape!r}")


def job_key(argv, spec):
    """Stable identifier of a job, used to look up its reference output."""
    canon = json.dumps([argv, spec], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


class Job:
    """One CLI invocation: argument list, JobSpec and the stdin text made from it."""

    __slots__ = ("argv", "spec", "text", "key", "exponent", "tower_key")

    def __init__(self, argv, spec):
        self.argv = list(argv)
        self.spec = spec
        self.text = "" if spec is None else json.dumps(spec, separators=(",", ":"))
        self.key = job_key(self.argv, spec)
        self.exponent = None if spec is None else len(spec["f"]["coeffs"]) - 1
        self.tower_key = None if spec is None else (spec["p"], spec["e"], spec["k"])

    def to_json(self):
        return {"argv": self.argv, "spec": self.spec}


def all_jobs(workload):
    """Every job any seed can put in the workload, for recording references."""
    jobs = []
    for argv, shape, copies in WORKLOADS[workload]:
        pool = candidates(shape)
        picks = sorted(set(copies)) if isinstance(copies, tuple) else range(len(pool))
        jobs.extend(Job(argv, pool[i]) for i in picks)
    return jobs


def generate(workload, seed):
    """(setup job, job list) for one workload seed; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for argv, shape, copies in WORKLOADS[workload]:
        pool = candidates(shape)
        if isinstance(copies, tuple):
            picks = copies
        elif len(pool) > 1:
            picks = rng.sample(range(len(pool)), copies)
        else:
            picks = [0] * copies
        jobs.extend(Job(argv, pool[i]) for i in picks)
    setup = jobs[0]
    rng.shuffle(jobs)
    return setup, jobs
