"""The benchmark's span wrappers still find every name they wrap.

`bench/replay.py` wraps layer functions at the names through which the CLI
and its layers reach them. Renaming or removing one of those names would
otherwise show up only when the traced benchmark runs.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_span_target_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import replay

    bound = [(module, attr.split(".")[0]) for module, attr, _, _ in replay.SPANS]
    before = [getattr(module, name) for module, name in bound]
    with replay.Recorder().installed():
        pass
    assert [getattr(module, name) for module, name in bound] == before
