"""Record reference outputs for every job any workload seed can pick.

    python3 bench/record.py

Writes bench/reference.json: for each job key, the exit code and the
SHA-256 of its stdout, or `"refused": true` for a job the program refuses
(exit 3, or the `"budget_exceeded"` sentinel). Run it only on a commit whose
outputs are trusted; later runs of the benchmark require the same bytes.
"""

import json
import sys

import check
import workloads
from run import ROOT, run_cli


def main():
    jobs = {}
    for name in sorted(workloads.WORKLOADS):
        for job in workloads.all_jobs(name):
            code, out, elapsed = run_cli(job)
            payload = json.loads(out)
            if code == check.EXIT_BUDGET or payload.get("g") == check.SENTINEL:
                jobs[job.key] = {"refused": True}
            elif code != 0 or (job.argv[0] == "verify" and not payload["all_pass"]):
                raise SystemExit(f"job {job.key} {job.argv} failed with exit {code}: {out[:200]}")
            else:
                jobs[job.key] = {"code": code, "sha256": check.digest(out)}
            print(f"{name} {job.key} {' '.join(job.argv)} exit={code} {elapsed:.3f}s", file=sys.stderr)
    with open(check.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"jobs": jobs}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(jobs)} references to {check.REFERENCE.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
