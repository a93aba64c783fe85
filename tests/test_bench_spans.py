"""The benchmark's span wrappers still find every name they wrap.

`bench/replay.py` wraps layer functions at the names through which the CLI
and its layers reach them. Renaming or removing one of those names would
otherwise show up only when the traced benchmark runs.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bound(replay):
    return [(module, attr.split(".")[0]) for module, attr, _, _ in replay.SPANS]


def test_every_span_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import replay

    bound = _bound(replay)
    before = [getattr(module, name) for module, name in bound]
    with replay.Recorder().installed():
        pass
    assert [getattr(module, name) for module, name in bound] == before


def test_traced_setup_job_prints_what_the_cli_prints(monkeypatch):
    """Each workload's setup job gives the same exit code and stdout with the
    span wrappers installed as without; mclc is traced wherever k > 1 (at
    k = 1 the species is read off u_f and mclc does not run)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import replay
    import run
    import workloads

    bound = _bound(replay)
    before = [getattr(module, name) for module, name in bound]
    for name in workloads.WORKLOADS:
        job, _ = workloads.generate(name, 0)
        code, out, _ = run.run_cli(job)
        rec = replay.Recorder()
        with rec.installed():
            assert run.run_cli(job, rec)[:2] == (code, out)
        spans = {span[0] for span in rec.spans}
        assert spans >= {"cli", "ffield.tower"}
        assert ("additive.mclc" in spans) == (job.tower_key[2] > 1)
    assert [getattr(module, name) for module, name in bound] == before


def test_every_nullity_span_holds_mult_plus_one_gcrc_spans(monkeypatch):
    """The peeled nullity sequence of an eigenfactor of multiplicity mult makes mult + 1 gcrc
    calls, so the bench's additive.gcrc spans nest that many under each frobjordan.nullity span:
    on species-tower's setup job and on x^(r^48) + x over (2,2,2), where mult is 8."""
    monkeypatch.syspath_prepend(str(BENCH))
    import replay
    import run
    import workloads

    setup, _ = workloads.generate("species-tower", 0)
    for job in (setup, workloads.Job(["species"], workloads.candidates(("xpx", 2, 2, 2, 48))[0])):
        rec = replay.Recorder()
        with rec.installed():
            code, out, _ = run.run_cli(job, rec)
        assert code == 0
        nullity = [i for i, span in enumerate(rec.spans) if span[0] == "frobjordan.nullity"]
        gcrcs = [sum(span[0] == "additive.gcrc" and span[3] == i for span in rec.spans) for i in nullity]
        assert gcrcs == [mult + 1 for _, mult in json.loads(out)["minpoly_factors"]]
        assert sum(span[0] == "additive.gcrc" for span in rec.spans) == sum(gcrcs)
