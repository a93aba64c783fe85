"""addpoly benchmark: timed CLI jobs, output checks, and traced passes.

    python3 bench/run.py --workload species-tower --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's job list through
`addpoly.cli.main`, one job at a time, in this one interpreter, and repeats
the list until --seconds have passed and at least MIN_PASSES times. Every
job starts cold: the package's memo tables are put back to their state
right after import and garbage is collected first, as in the fresh process
a one-job-per-invocation CLI user gets. Every output is checked (check.py);
a wrong one ends the run with exit status 1.

--trace 0 measures the end-to-end metrics. A short pure-Python loop runs
between jobs, and every job time is also given in units of that loop's time
(see `probe`). --trace 1 spends half the time on untraced CLI passes and
half on traced passes of the same jobs (the same cli.main calls, with the
span wrappers of replay.py on the layer functions), runs the field and
row-reduction microbenchmarks (micro.py), and reports the per-layer metrics.

The full report, with provenance and the sample count behind every metric,
is the second-to-last stdout line and is also written under bench/out/,
next to the spans of a traced run. The last stdout line is the result:
correct, attempted, failed and metrics. `failed` counts wrong outputs;
refusals of jobs refused when the references were recorded are counted in
fail_ratio.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "addpoly" / "cli.py").is_file():
    sys.exit(f"bench: no addpoly sources under {SRC}")
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import micro  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from addpoly import cli  # noqa: E402
from addpoly.ffield import tower_create  # noqa: E402

SETUP_REPS_PER_PASS = 2
PROBE_ITERS = 20000
TAIL_PCT = 90
# With 25 jobs a pass, 4 passes give the 90th percentile 10 samples beyond it.
MIN_PASSES = 4

END_TO_END = {
    "wall_probe": "probe",
    "job_probe_p50": "probe",
    "job_probe_p90": "probe",
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "probe_s": "s",
}
# The result line carries the bounded metrics: timings in probe units, which
# hold still while the machine's speed drifts, plus setup_s and peak_rss_mb.
# The same timings in seconds, and fail_ratio (0 on workloads without
# refusals, so no bound that is a share of its median can hold it), are in
# the report.
RESULT_END_TO_END = ["wall_probe", "job_probe_p50", "job_probe_p90", "setup_s", "peak_rss_mb"]

SPAN_TOTALS = {
    "additive.mclc_s": "additive.mclc",
    "additive.gcrc_s": "additive.gcrc",
    "upoly.factor_s": "upoly.factor",
    "frobjordan.nullity_s": "frobjordan.nullity",
    "latcount.gf_s": "latcount.gf",
    "latcount.chains_s": "latcount.chains",
    "oracle.root_space_s": "oracle.root_space",
    "oracle.subspaces_s": "oracle.subspaces",
    "oracle.brute_s": "oracle.brute",
    "oracle.chains_brute_s": "oracle.chains_brute",
}
COUNT_TOTALS = ("additive.gcrc_calls", "upoly.factor_degree", "upoly.eigenfactors")
PER_LAYER = {
    "cli.self_ms": "ms",
    "ffield.tower_ms": "ms",
    "ffield.mul_ns": "ns",
    "ffield.add_ns": "ns",
    "ffield.inv_ns": "ns",
    "ffield.frob_ns": "ns",
    "linalg.rref_ms": "ms",
    **{name: "s" for name in SPAN_TOTALS},
    **{name: "count" for name in COUNT_TOTALS},
    "latcount.gf_refused_ratio": "ratio",
    "oracle.ext_degree_max": "count",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "addpoly" or name.startswith("addpoly.")
    ]


def memo_tables():
    """Every functools cache, and every dict, set or list held by a module or a
    class of the package (dunder names aside), each once."""
    caches, containers, seen = [], [], set()
    for module in _package_modules():
        owners = [module] + [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for owner in owners:
            for name, obj in vars(owner).items():
                obj = getattr(obj, "__func__", obj)
                if name.startswith("__") or id(obj) in seen:
                    continue
                if callable(getattr(obj, "cache_clear", None)):
                    caches.append(obj)
                elif type(obj) in (dict, set, list):
                    containers.append(obj)
                else:
                    continue
                seen.add(id(obj))
    return caches, containers


class ColdStart:
    """The package's memo state right after import, and the means to return to it.

    Built when this module is imported, before any job runs. `reset` empties
    every functools cache, puts every module- and class-level dict, set and
    list back to its import-time contents, and collects garbage: the state a
    fresh one-job-per-invocation CLI process starts from.
    """

    def __init__(self):
        self.caches, containers = memo_tables()
        self.containers = [(c, c.copy()) for c in containers]

    def reset(self):
        for cache in self.caches:
            cache.cache_clear()
        for container, snapshot in self.containers:
            if container != snapshot:
                container.clear()
                if isinstance(container, list):
                    container.extend(snapshot)
                else:
                    container.update(snapshot)
        gc.collect()


COLD = ColdStart()


def run_cli(job, rec=None):
    """(exit code, stdout, seconds) of one in-process cli.main call from a cold
    start; inside a "cli" span of `rec` when one is given."""
    COLD.reset()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(job.text), io.StringIO()
    try:
        with rec.span("cli") if rec is not None else nullcontext():
            t0 = perf_counter()
            code = cli.main(job.argv)
            elapsed = perf_counter() - t0
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return code, out, elapsed


def probe():
    """Seconds of a fixed pure-Python loop of integer, tuple and dict work.

    On a shared machine, other tenants can slow every core by a third or more
    for seconds to minutes at a time. Such a slowdown stretches this loop and
    the jobs alike, so a job's time over the probe time taken around it stays
    steady where plain seconds do not.
    """
    t0 = perf_counter()
    table, acc = {}, 1
    for i in range(PROBE_ITERS):
        key = (i & 63, acc & 255)
        acc = (acc * 31 + hash(key) + table.get(i & 63, 0)) % 1000003
        table[i & 63] = acc
    return perf_counter() - t0


def percentile_rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n values."""
    return max(1, -(-pct * n // 100))


class Run:
    """One benchmark run: its jobs, their checks, and what the passes observed."""

    def __init__(self, jobs):
        self.reference = check.load_reference()
        self.jobs = jobs
        self.attempted = 0
        self.refused = 0
        self.outputs = [None] * len(jobs)
        self.job_ms = None
        self.probes = []

    def record(self, index, code, out):
        self.attempted += 1
        self.refused += check.classify(self.jobs[index], code, out, self.reference)
        self.outputs[index] = (code, out)

    def cli_pass(self):
        """One pass over the job list: per-job cli.main seconds, and the same times
        in probe units, over the mean of the probes run just before and after."""
        times, probes = [], [probe()]
        for i, job in enumerate(self.jobs):
            code, out, elapsed = run_cli(job)
            probes.append(probe())
            self.record(i, code, out)
            times.append(elapsed)
        self.probes.extend(probes)
        return times, [t / ((probes[i] + probes[i + 1]) / 2) for i, t in enumerate(times)]

    def traced_passes(self, seconds):
        """One Recorder per traced pass; every traced job must print what the
        untraced CLI printed for it."""
        recorders = []
        deadline = perf_counter() + seconds
        while not recorders or perf_counter() < deadline:
            rec = replay.Recorder()
            with rec.installed():
                for i, job in enumerate(self.jobs):
                    rec.job = i
                    code, out, _ = run_cli(job, rec)
                    if (code, out) != self.outputs[i]:
                        raise check.WrongOutput(
                            f"traced job {job.key} {job.argv} differs from the CLI's output"
                        )
            recorders.append(rec)
        return recorders

    def setup_times(self, job, reps):
        """Seconds of `reps` fresh `python -m addpoly.cli` processes on one job."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        index = self.jobs.index(job)
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "addpoly.cli", *job.argv],
                input=job.text,
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=120,
            )
            times.append(perf_counter() - t0)
            self.record(index, proc.returncode, proc.stdout)
        return times


def _timings(per_pass, wall, p50, p90, scale):
    """Median pass total, and median and 90th percentile of all job samples."""
    samples = sorted(t * scale for values in per_pass for t in values)
    n = len(samples)
    rank = percentile_rank(n, TAIL_PCT)
    return {
        wall: {"value": median(sum(values) for values in per_pass), "samples": len(per_pass)},
        p50: {"value": median(samples), "samples": n},
        p90: {"value": samples[rank - 1], "samples": n, "samples_beyond": n - rank},
    }


def end_to_end(run, setup_job, seconds):
    """The end-to-end metrics. Setup processes are interleaved with the passes so
    that both sample the whole run."""
    setup, passes = [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        setup.extend(run.setup_times(setup_job, SETUP_REPS_PER_PASS))
        passes.append(run.cli_pass())
    times = [t for t, _ in passes]
    run.job_ms = [median(t[i] for t in times) * 1e3 for i in range(len(run.jobs))]
    return {
        **_timings([rel for _, rel in passes], "wall_probe", "job_probe_p50", "job_probe_p90", 1.0),
        **_timings(times, "wall_s", "job_ms_p50", "job_ms_p90", 1e3),
        "setup_s": {"value": median(setup), "samples": len(setup), "job": setup_job.key},
        "fail_ratio": _fail_ratio(run),
        "peak_rss_mb": {"value": _peak_rss_mb(), "samples": 1},
        "probe_s": {"value": median(run.probes), "samples": len(run.probes)},
    }


def _fail_ratio(run):
    return {"value": run.refused / run.attempted, "refused": run.refused, "samples": run.attempted}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_figures(rec, jobs):
    """Per-layer figures of one traced pass, and the (tower, E) levels the oracle built."""
    totals, counts, children = {}, {}, {}
    for name, start, end, parent, _ in rec.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        counts[name] = counts.get(name, 0) + 1
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    self_ms = [
        (end - start - children.get(idx, 0.0)) * 1e3
        for idx, (name, start, end, _, _) in enumerate(rec.spans)
        if name == "cli"
    ]
    values, levels, ext_max = {}, set(), 0
    for name, k, job in rec.counts:
        if name == "oracle.ext_degree":
            levels.add((jobs[job].tower_key, k))
            ext_max = max(ext_max, k)
        else:
            values[name] = values.get(name, 0) + k
    gf_calls = values.get("latcount.gf_calls", 0)
    figures = {metric: totals.get(span, 0.0) for metric, span in SPAN_TOTALS.items()}
    figures.update({name: values.get(name, 0) for name in COUNT_TOTALS})
    figures["ffield.tower_ms"] = totals.get("ffield.tower", 0.0) / max(counts.get("ffield.tower", 0), 1) * 1e3
    figures["latcount.gf_refused_ratio"] = values.get("latcount.gf_refused", 0) / gf_calls if gf_calls else 0.0
    figures["oracle.ext_degree_max"] = ext_max
    return figures, self_ms, counts, levels


def per_layer(run, seconds, seed):
    base, deadline = [], perf_counter() + seconds / 2
    while not base or perf_counter() < deadline:
        base.append(run.cli_pass()[0])
    t0 = perf_counter()
    recorders = run.traced_passes(seconds / 2)
    traced_elapsed = perf_counter() - t0
    per_pass, self_ms, levels = {}, [], set()
    for rec in recorders:
        figures, job_self_ms, span_counts, pass_levels = _pass_figures(rec, run.jobs)
        for name, value in figures.items():
            per_pass.setdefault(name, []).append(value)
        self_ms.extend(job_self_ms)
        levels |= pass_levels
    metrics = {}
    for name, values in per_pass.items():
        entry = {"value": median(values), "samples": len(values)}
        if name in SPAN_TOTALS:
            entry["spans_per_pass"] = span_counts.get(SPAN_TOTALS[name], 0)
        metrics[name] = entry
    metrics["cli.self_ms"] = {"value": median(self_ms), "samples": len(self_ms)}
    metrics["fail_ratio"] = _fail_ratio(run)

    untraced_wall = median(sum(times) for times in base)
    traced_walls = [
        sum(end - start for name, start, end, _, _ in rec.spans if name == "cli") for rec in recorders
    ]
    traced_wall = median(traced_walls)
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / untraced_wall,
        "traced_wall_s": traced_wall,
        "traced_passes": len(traced_walls),
        "untraced_wall_s": untraced_wall,
        "untraced_passes": len(base),
        "samples": len(traced_walls),
    }
    metrics.update(_microbenchmarks(run.jobs, levels, seed))
    spans = {
        "passes": [rec.to_json() for rec in recorders],
        "traced_seconds": traced_elapsed,
    }
    return metrics, spans


def _microbenchmarks(jobs, ext_levels, seed):
    """ffield op costs on every F_q (and oracle F_(q^E)) the jobs use; rref on every F_r."""
    towers = {}
    for job in jobs:
        if job.tower_key is not None and job.tower_key not in towers:
            towers[job.tower_key] = tower_create(*job.tower_key)
    levels = [(key, 1, tower, tower.fq) for key, tower in sorted(towers.items())]
    for key, ext in sorted(ext_levels):
        if ext > 1:
            levels.append((key, ext, towers[key], towers[key].extension(ext)))
    detail = []
    for key, ext, tower, field in levels:
        ops = micro.field_ops(tower, field, seed)
        detail.append({"tower": list(key), "ext_degree": ext, "size": field.size, **ops})
    metrics = {}
    for op in ("mul", "add", "inv", "frob"):
        metrics[f"ffield.{op}_ns"] = {
            "value": micro.geomean(d[op]["ns"] for d in detail),
            "samples": len(detail),
            "aggregate": "geometric mean over levels",
            "levels": [
                {"tower": d["tower"], "ext_degree": d["ext_degree"], "ns": d[op]["ns"], "ops": d[op]["ops"]}
                for d in detail
            ],
        }
    fr_levels = {}
    for (p, e, _), tower in sorted(towers.items()):
        fr_levels.setdefault((p, e), tower.fr)
    rref = [
        {"p": p, "e": e, "ms": micro.rref_ms(field, seed), "size": micro.RREF_SIZE, "reps": micro.RREF_REPS}
        for (p, e), field in sorted(fr_levels.items())
    ]
    metrics["linalg.rref_ms"] = {
        "value": micro.geomean(r["ms"] for r in rref),
        "samples": len(rref),
        "aggregate": "geometric mean over levels",
        "levels": rref,
    }
    return metrics


def _git_commit():
    """HEAD of the repository this checkout is, or None where it is none."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "addpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": affinity or os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="addpoly benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    setup_job, jobs = workloads.generate(args.workload, args.seed)
    run = Run(jobs)
    try:
        if args.trace:
            metrics, spans = per_layer(run, args.seconds, args.seed)
            units = PER_LAYER
        else:
            metrics, spans = end_to_end(run, setup_job, args.seconds), None
            units = END_TO_END
    except check.WrongOutput as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": 1, "metrics": {}}))
        return 1
    for name, entry in metrics.items():
        entry["unit"] = units[name]
    report = {
        "provenance": provenance(args),
        "jobs": [job.to_json() for job in jobs],
        "job_ms_median": run.job_ms,
        "attempted": run.attempted,
        "refused": run.refused,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        spans["jobs"] = report["jobs"]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    report.pop("jobs")
    print(json.dumps(report, sort_keys=True))
    shown = PER_LAYER if args.trace else RESULT_END_TO_END
    result = {
        "correct": True,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]} for name in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
