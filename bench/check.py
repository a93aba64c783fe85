"""Output checks for benchmark jobs.

A job whose output was recorded in `reference.json` must print the same
bytes with the same exit code; a refusal of such a job is a wrong output.
A job that the program refused when the references were recorded has no
reference output. Its refusal (exit 3 with a BudgetExceeded error, or the
`"budget_exceeded"` sentinel from `count`) is counted, and an answer to it
is checked by invariants that need no reference. Any other difference is a
wrong output.
"""

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
EXIT_BUDGET = 3
SENTINEL = "budget_exceeded"


class WrongOutput(Exception):
    """A job printed something other than its correct answer."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def _species_dimension(species):
    return sum(m * sum(j * l for j, l in enumerate(lam, start=1)) for m, lam in species)


def _check_invariants(job, code, payload):
    """Reference-free checks for an answer to a job that used to be refused."""
    command, n = job.argv[0], job.exponent
    if command == "verify":
        if code != 0 or payload.get("all_pass") is not True:
            raise WrongOutput("verify does not report all_pass")
        return
    if code != 0:
        raise WrongOutput(f"exit code {code}")
    if "species" in payload and _species_dimension(payload["species"]) != n:
        raise WrongOutput(f"species dimension differs from n = {n}")
    g = payload.get("g")
    if isinstance(g, list):
        lines = payload["lines"]
        if len(g) != n + 1 or g != g[::-1] or g[0] != 1:
            raise WrongOutput(f"g = {g} is not palindromic of length n + 1 with g_0 = 1")
        if n >= 2 and not g[1] == g[n - 1] == lines:
            raise WrongOutput(f"g_1, g_(n-1) and lines = {lines} disagree")
        if "g_d" in payload and payload["g_d"] != g[payload["d"]]:
            raise WrongOutput("g_d disagrees with g")


def classify(job, code, out, reference):
    """True if the job was refused, False if answered correctly; raises WrongOutput."""
    ref = reference.get(job.key)
    if ref is None:
        raise WrongOutput(f"no reference recorded for job {job.key}")
    if "sha256" in ref:
        if code != ref["code"] or digest(out) != ref["sha256"]:
            raise WrongOutput(f"job {job.key} {job.argv} differs from its reference output")
        return False
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"stdout is not one JSON document: {exc}") from exc
    if code == EXIT_BUDGET and payload.get("error", {}).get("type") == "BudgetExceeded":
        return True
    if code == 0 and payload.get("g") == SENTINEL:
        _check_invariants(job, code, {k: v for k, v in payload.items() if k != "g"})
        return True
    _check_invariants(job, code, payload)
    return False
