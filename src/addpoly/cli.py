"""Batch command-line front end.

One job per invocation, JSON in and JSON out: a JobSpec (field tower plus
polynomial plus command parameters) arrives via --input FILE or stdin, and
every exit path prints a single JSON document. Exit codes: 0 success,
2 input error, 3 budget exceeded, 4 internal inconsistency.

Identical JobSpec and seed produce byte-identical output.
"""

import argparse
import json
import sys

from . import latcount, oracle
from .additive import (
    AdditivePoly,
    central_to_upoly,
    minimal_central_left_component,
    projective_part,
    strip_inseparable,
    subadditive_image,
)
from .errors import AddpolyError, BudgetExceeded, InputError, InternalInconsistency
from .ffield import tower_create
from .frobjordan import rational_jordan_form
from .latcount import count_chains, count_lines, generating_function, mhat

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _read_jobspec(args):
    path = getattr(args, "input", "-") or "-"
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        job = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise InputError("JobSpec must be a JSON object")
    return job


def _build_tower(job):
    for key in ("p", "e", "k"):
        if key not in job:
            raise InputError(f"JobSpec is missing required field '{key}'")
        if not isinstance(job[key], int):
            raise InputError(f"JobSpec field '{key}' must be an integer")
    return tower_create(
        job["p"], job["e"], job["k"], m_r=job.get("m_r"), m_q=job.get("m_q")
    )


def _build_poly(tower, job):
    if "f" not in job:
        raise InputError("JobSpec is missing the polynomial field 'f'")
    return AdditivePoly.from_json(tower, job["f"])


def _setting(args, job, name, default):
    value = getattr(args, name, None)
    if value is None:
        value = job.get(name)
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"JobSpec field '{name}' must be an integer")
    return value


def cmd_species(args):
    job = _read_jobspec(args)
    tower = _build_tower(job)
    f = _build_poly(tower, job)
    seed = _setting(args, job, "seed", 0)
    form = rational_jordan_form(f, seed)
    return form.to_json(), EXIT_OK


def cmd_count(args):
    job = _read_jobspec(args)
    tower = _build_tower(job)
    f = _build_poly(tower, job)
    seed = _setting(args, job, "seed", 0)
    if not f.is_monic or not f.is_squarefree:
        raise InputError("count expects a monic squarefree polynomial; see count-general")
    form = rational_jordan_form(f, seed)
    species = form.species
    r = tower.r
    payload = {
        "species": species.to_json(),
        "lines": count_lines(species, r),
        "chains": count_chains(species, r),
    }
    d = _setting(args, job, "d", None)
    if d is None or getattr(args, "all", False):
        payload["g"] = generating_function(species, r).to_json()
    if d is not None:
        payload["d"] = d
        payload["g_d"] = latcount.count_from_species(species, r, d)
    return payload, EXIT_OK


def cmd_count_general(args):
    job = _read_jobspec(args)
    tower = _build_tower(job)
    f = _build_poly(tower, job)
    seed = _setting(args, job, "seed", 0)
    d = _setting(args, job, "d", None)
    if d is None:
        raise InputError("count-general requires d")
    m, squarefree_part = strip_inseparable(f)
    count = latcount.count_right_components_general(f, d, seed=seed)
    payload = {
        "d": d,
        "m": m,
        "n": squarefree_part.exponent,
        "count": count,
    }
    return payload, EXIT_OK


def cmd_mhat(args):
    n, r = args.n, args.r
    if n is None or r is None:
        raise InputError("mhat requires --n and --r")
    return {"n": n, "r": r, "mhat": sorted(mhat(n, r))}, EXIT_OK


def cmd_pi(args):
    job = _read_jobspec(args)
    tower = _build_tower(job)
    f = _build_poly(tower, job)
    t = _setting(args, job, "t", None)
    if t is None:
        raise InputError("pi requires t")
    pi = projective_part(f, t)
    rho = subadditive_image(f, t)
    return {"t": t, "pi": pi.encode(), "rho": rho.encode()}, EXIT_OK


def cmd_verify(args):
    job = _read_jobspec(args)
    tower = _build_tower(job)
    f = _build_poly(tower, job)
    seed = _setting(args, job, "seed", 0)
    max_ext = _setting(args, job, "max_ext", oracle.DEFAULT_MAX_EXT)
    report = verify_report(f, seed=seed, max_ext=max_ext)
    return report, EXIT_OK if report["all_pass"] else EXIT_INTERNAL


def verify_report(f, seed=0, max_ext=oracle.DEFAULT_MAX_EXT):
    """Compare every fast-path result against the brute-force oracle for one f."""
    tower = f.tower
    r = tower.r
    checks = []

    def check(name, expected, actual):
        checks.append(
            {"name": name, "pass": expected == actual, "expected": expected, "actual": actual}
        )

    space = oracle.root_space(f, max_ext)
    n = f.exponent
    form = rational_jordan_form(f, seed)
    species = form.species

    tau_fstar = central_to_upoly(minimal_central_left_component(f))
    oracle_minpoly = oracle.minpoly_of_matrix(tower.fr, space.frobenius_matrix, seed)
    check("minimal_polynomial", oracle_minpoly.encode(), tau_fstar.encode())
    check(
        "species",
        oracle.species_from_matrix(tower.fr, space.frobenius_matrix, seed).to_json(),
        species.to_json(),
    )
    for d in range(n + 1):
        brute = len(oracle.right_components_brute(f, d, max_ext=max_ext))
        subspaces = len(oracle.invariant_subspaces(tower.fr, space.frobenius_matrix, d))
        fast = latcount.count_right_components(f, d, seed=seed)
        check(f"right_components[d={d}]", brute, fast)
        check(f"subspace_bijection[d={d}]", brute, subspaces)
    check(
        "maximal_chains",
        oracle.maximal_chains_brute(tower.fr, space.frobenius_matrix),
        count_chains(species, r),
    )
    try:
        ore = latcount.ore_criterion_count(f)
        check("ore_line_count", latcount.count_right_components(f, 1, seed=seed), ore)
    except BudgetExceeded:
        checks.append({"name": "ore_line_count", "pass": True, "skipped": "budget"})
    return {"all_pass": all(c["pass"] for c in checks), "checks": checks}


def build_parser():
    parser = _Parser(prog="addpoly", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", default="-", help="JobSpec JSON file, or - for stdin")
        p.add_argument("--seed", type=int, default=None, help="PRNG seed (default 0)")
        p.add_argument("--max-ext", dest="max_ext", type=int, default=None)
        p.add_argument("--pretty", action="store_true", help="indented JSON output")

    p = sub.add_parser("species", help="rational Jordan form data of the Frobenius")
    common(p)
    p.set_defaults(func=cmd_species)

    p = sub.add_parser("count", help="right-component and chain counts")
    common(p)
    p.add_argument("--d", type=int, default=None, help="specific component exponent")
    p.add_argument("--all", action="store_true", help="emit the whole generating function")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("count-general", help="counts for non-squarefree inputs")
    common(p)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=cmd_count_general)

    p = sub.add_parser("mhat", help="superset of achievable exponent-1 component counts")
    common(p, needs_input=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_mhat)

    p = sub.add_parser("pi", help="projective and subadditive images")
    common(p)
    p.add_argument("--t", type=int, default=None, help="positive divisor of r-1")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("verify", help="brute-force oracle report for one instance")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit(payload, pretty):
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def main(argv=None):
    pretty = False
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        pretty = bool(getattr(args, "pretty", False))
        payload, code = args.func(args)
    except InputError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)
        return EXIT_INTERNAL
    except AddpolyError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, pretty)
        return EXIT_INPUT
    _emit(payload, pretty)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
