"""Traced runs of CLI jobs.

A traced job is a call of the real `cli.main` while span wrappers sit on
the layer functions, at the names through which the CLI and its layers
reach them. The package itself carries no instrumentation; the wrappers
live here and are removed when the traced pass ends. `run.py` asserts that
every traced result equals the untraced CLI's stdout for the same job.

A wrapper is installed only where the call it times is made: `gcrc` as
`frobjordan` binds it (the nullity loop), `upoly.factor` as `frobjordan`
sees it (the factorization of tau(f*)), the oracle functions as `cli` sees
them (the calls of `verify`). Calls that the oracle or `latcount` make on
their own, inside those spans, are left untimed.
"""

from contextlib import contextmanager
from time import perf_counter

from addpoly import cli, frobjordan, latcount
from addpoly.errors import BudgetExceeded


def _count_gcrc(rec, args, result):
    rec.count("additive.gcrc_calls")


def _count_factor(rec, args, result):
    rec.count("upoly.factor_degree", args[0].degree)
    rec.count("upoly.eigenfactors", len(result))


def _count_gf(rec, args, result):
    rec.count("latcount.gf_calls")
    if isinstance(result, BudgetExceeded):
        rec.count("latcount.gf_refused")


def _count_ext_degree(rec, args, result):
    rec.count("oracle.ext_degree", result.ext_degree)


# (module, attribute as that module reaches it, span name, counter or None).
# A dotted attribute names a function reached through a module the caller
# imported, as in `oracle.root_space` inside cli.
SPANS = [
    (cli, "tower_create", "ffield.tower", None),
    (cli, "minimal_central_left_component", "additive.mclc", None),
    (frobjordan, "minimal_central_left_component", "additive.mclc", None),
    (frobjordan, "upoly.factor", "upoly.factor", _count_factor),
    (frobjordan, "_nullity_sequence", "frobjordan.nullity", None),
    (frobjordan, "gcrc", "additive.gcrc", _count_gcrc),
    (cli, "generating_function", "latcount.gf", _count_gf),
    (latcount, "generating_function", "latcount.gf", _count_gf),
    (cli, "count_chains", "latcount.chains", None),
    (cli, "mhat", "latcount.mhat", None),
    (cli, "latcount.ore_criterion_count", "latcount.ore", None),
    (cli, "oracle.root_space", "oracle.root_space", _count_ext_degree),
    (cli, "oracle.minpoly_of_matrix", "oracle.minpoly", None),
    (cli, "oracle.species_from_matrix", "oracle.species", None),
    (cli, "oracle.right_components_brute", "oracle.brute", None),
    (cli, "oracle.invariant_subspaces", "oracle.subspaces", None),
    (cli, "oracle.maximal_chains_brute", "oracle.chains_brute", None),
]


class _View:
    """A module as one caller sees it: some functions wrapped, the rest its own."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Recorder:
    """Spans and counts of one traced pass, kept in memory.

    A span is [name, start, end, parent index or None, job id]; times are
    perf_counter seconds. Counts are (name, value, job id).
    """

    def __init__(self):
        self.spans = []
        self.counts = []
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counts.append((name, k, self.job))

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except BudgetExceeded as exc:
                    if counter is not None:
                        counter(self, args, exc)
                    raise
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Put the span wrappers in place for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in SPANS:
                owner = module
                if "." in attr:
                    inner, attr = attr.split(".")
                    view = getattr(module, inner)
                    if not isinstance(view, _View):
                        view = _View(view)
                        saved.append((module, inner, getattr(module, inner)))
                        setattr(module, inner, view)
                    owner = view
                fn = getattr(owner, attr)
                if owner is module:
                    saved.append((module, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans
            ],
            "counts": [{"name": n, "value": k, "job": j} for n, k, j in self.counts],
        }
