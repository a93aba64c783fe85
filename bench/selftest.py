"""Self-tests of the benchmark itself.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

They check the job generator, the output checker, the traced replay and the
cold start, on small jobs, in a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path and takes the import-time state)
import check  # noqa: E402
import replay  # noqa: E402
import workloads  # noqa: E402
from addpoly import latcount  # noqa: E402


def _dump(jobs):
    return json.dumps([job.to_json() for job in jobs], sort_keys=True).encode()


def test_same_seed_gives_identical_jobspecs():
    for name in workloads.WORKLOADS:
        assert _dump(workloads.generate(name, 7)[1]) == _dump(workloads.generate(name, 7)[1])


def test_other_seed_gives_other_random_f_of_the_same_shape():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, 1)[1], workloads.generate(name, 2)[1]

        def shapes(jobs):
            return sorted((job.argv, job.tower_key or (), job.exponent or 0) for job in jobs)

        assert shapes(a) == shapes(b)
        assert sorted(job.key for job in a) != sorted(job.key for job in b)


def test_every_pickable_job_has_a_reference():
    reference = check.load_reference()
    for name in workloads.WORKLOADS:
        assert all(job.key in reference for job in workloads.all_jobs(name))


def _rejected(job, code, out, reference):
    try:
        check.classify(job, code, out, reference)
    except check.WrongOutput:
        return True
    return False


def test_checker_rejects_a_changed_output():
    reference = check.load_reference()
    _, jobs = workloads.generate("species-prime", 0)
    job = next(j for j in jobs if "sha256" in reference[j.key])
    code, out, _ = run.run_cli(job)
    assert check.classify(job, code, out, reference) is False
    assert _rejected(job, code, out.replace("]]", "] ]", 1), reference)


def test_checker_rejects_a_refusal_of_a_recorded_answer():
    reference = check.load_reference()
    _, jobs = workloads.generate("count-verify", 0)
    answered = [j for j in jobs if "sha256" in reference[j.key] and j.spec is not None]
    refusal = json.dumps({"error": {"type": "BudgetExceeded", "message": "over budget"}}) + "\n"
    assert any(j.argv[0] == "verify" for j in answered)
    for job in answered:
        assert _rejected(job, check.EXIT_BUDGET, refusal, reference)
    count = next(j for j in answered if j.argv == ["count"])
    code, out, _ = run.run_cli(count)
    payload = json.loads(out)
    payload["g"] = check.SENTINEL
    sentinel = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert _rejected(count, code, sentinel, reference)


def test_checker_counts_a_refusal_recorded_as_one():
    reference = check.load_reference()
    _, jobs = workloads.generate("count-verify", 0)
    refused = [j for j in jobs if reference[j.key].get("refused")]
    assert {j.argv[0] for j in refused} >= {"count", "verify"}
    for job in refused:
        code, out, _ = run.run_cli(job)
        assert check.classify(job, code, out, reference) is True


def _bindings():
    return [getattr(module, attr.split(".")[0]) for module, attr, _, _ in replay.SPANS]


def test_traced_run_equals_cli_on_one_small_job_per_workload():
    before = _bindings()
    for name in workloads.WORKLOADS:
        setup_job, _ = workloads.generate(name, 0)
        code, out, _ = run.run_cli(setup_job)
        rec = replay.Recorder()
        with rec.installed():
            traced = run.run_cli(setup_job, rec)
        assert traced[:2] == (code, out)
        assert {span[0] for span in rec.spans} >= {"cli", "ffield.tower", "additive.mclc"}
    assert all(a is b for a, b in zip(_bindings(), before))


def test_traced_run_covers_every_span():
    _, jobs = workloads.generate("count-verify", 0)
    rec = replay.Recorder()
    with rec.installed():
        for i, job in enumerate(jobs):
            rec.job = i
            run.run_cli(job, rec)
    assert {span[0] for span in rec.spans} == {"cli"} | {name for _, _, name, _ in replay.SPANS}


def _memo_state():
    """Size of every memo table the benchmark knows of, in a fixed order."""
    caches, containers = run.memo_tables()
    return [cache.cache_info().currsize for cache in caches] + [len(c) for c in containers]


_FRESH_STATE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import selftest
print(json.dumps(selftest._memo_state()))
"""


def test_cold_start_returns_every_memo_table_to_its_import_time_state():
    for name in workloads.WORKLOADS:
        for job in workloads.generate(name, 0)[1][:6]:
            run.run_cli(job)
    assert latcount._chains.cache_info().currsize > 0 or latcount._field_of_size.cache_info().currsize > 0
    run.COLD.reset()
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_STATE, str(BENCH), str(run.SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(fresh.stdout) == _memo_state()


def test_no_job_is_served_from_a_warm_memo():
    assert latcount._chains in run.COLD.caches
    job = workloads.Job(["count", "--d", "1"], workloads.candidates(("xpx", 2, 1, 3, 36))[0])
    infos = []
    for _ in range(2):
        run.run_cli(job)
        infos.append([cache.cache_info() for cache in run.COLD.caches])
    assert infos[0] == infos[1]
    assert latcount._chains.cache_info().misses > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.RESULT_END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
