"""Every benchmark job recorded as answered still prints its recorded bytes.

`bench/reference.json` holds, per job key, the exit code and the SHA-256 of
stdout of every job `bench/workloads.all_jobs` can put in a workload. The
species-tower and count-verify jobs recorded as answered run here through
`cli.main`, each from a cold start, so byte-identical output is checked on
every test run and not only by benchmark runs. species-prime is left to the
benchmark: its x^(2^512)+x jobs alone take seconds.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["species-tower", "count-verify"])
def test_answered_jobs_print_the_recorded_bytes(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import check
    import run
    import workloads

    reference = check.load_reference()
    checked, wrong = 0, []
    for job in workloads.all_jobs(workload):
        ref = reference[job.key]
        if "sha256" not in ref:
            continue
        code, out, _ = run.run_cli(job)
        checked += 1
        if (code, check.digest(out)) != (ref["code"], ref["sha256"]):
            wrong.append((job.key, job.argv, job.tower_key, code, out[:120]))
    assert checked > 0
    assert not wrong, wrong
