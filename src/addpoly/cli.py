"""Batch command-line front end.

One job per invocation, JSON in and JSON out: a JobSpec (field tower plus
polynomial plus command parameters) arrives via --input FILE or stdin, and
every exit path prints a single JSON document. Exit codes: 0 success,
2 input error, 3 budget exceeded, 4 internal inconsistency.

Identical JobSpecs produce byte-identical output.
"""

import argparse
import json
import sys

from . import latcount, oracle
from .additive import AdditivePoly, projective_part, strip_inseparable, subadditive_image
from .additive import minimal_central_left_component  # noqa: F401 (bench/replay.py times mclc here)
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


def _read_jobspec(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        job = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-deep nesting, too-long integers
        raise InputError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise InputError("JobSpec must be a JSON object")
    return job


def _integer(name, value):
    if type(value) is not int:  # a JSON true is a bool, never an integer here
        raise InputError(f"JobSpec field '{name}' must be an integer")
    return value


def cmd_species(f, settings):
    return rational_jordan_form(f).to_json(), EXIT_OK


def cmd_count(f, settings):
    if not f.is_monic or not f.is_squarefree:
        raise InputError("count expects a monic squarefree polynomial; see count-general")
    species = rational_jordan_form(f).species
    r = f.tower.r
    payload = {
        "species": species.to_json(),
        "lines": count_lines(species, r),
        "chains": count_chains(species, r),
    }
    d = settings["d"]
    if d is None or settings["all"]:
        payload["g"] = generating_function(species, r)
    if d is not None:
        payload["d"] = d
        payload["g_d"] = latcount.count_from_species(species, r, d)
    return payload, EXIT_OK


def cmd_count_general(f, settings):
    d = settings["d"]
    m, squarefree_part = strip_inseparable(f)
    payload = {
        "d": d,
        "m": m,
        "n": squarefree_part.exponent,
        "count": latcount.count_right_components(f, d),
    }
    return payload, EXIT_OK


def cmd_mhat(f, settings):
    n, r = settings["n"], settings["r"]
    return {"n": n, "r": r, "mhat": sorted(mhat(n, r))}, EXIT_OK


def cmd_pi(f, settings):
    t = settings["t"]
    pi = projective_part(f, t)
    rho = subadditive_image(f, t)
    return {"t": t, "pi": pi.encode(), "rho": rho.encode()}, EXIT_OK


def cmd_verify(f, settings):
    report = verify_report(f, max_ext=settings["max_ext"])
    return report, EXIT_OK if report["all_pass"] else EXIT_INTERNAL


REQUIRED = object()

# command -> (function, help, {setting: default}). Each setting is an integer
# with its own --flag; the flag wins over the JobSpec field of the same name,
# which wins over the default. A REQUIRED setting has no default, and a None
# default leaves the setting unset. Only mhat reads no JobSpec; count also has
# the switch --all.
COMMANDS = {
    "species": (cmd_species, "rational Jordan form data of the Frobenius", {}),
    "count": (cmd_count, "right-component and chain counts", {"d": None}),
    "count-general": (cmd_count_general, "counts for non-squarefree inputs", {"d": REQUIRED}),
    "mhat": (
        cmd_mhat,
        "superset of achievable exponent-1 component counts",
        {"n": REQUIRED, "r": REQUIRED},
    ),
    "pi": (cmd_pi, "projective and subadditive images for t dividing r-1", {"t": REQUIRED}),
    "verify": (
        cmd_verify,
        "brute-force oracle report for one instance",
        {"max_ext": oracle.DEFAULT_MAX_EXT},
    ),
}

# A JobSpec holds the tower, the polynomial and settings; one JobSpec may serve
# several commands, so a setting of any command is accepted, and nothing else.
JOBSPEC_FIELDS = {"p", "e", "k", "m_r", "m_q", "f"}.union(*(s for _, _, s in COMMANDS.values()))


def _load(args):
    """The polynomial f (None for mhat) and the settings of one parsed command."""
    f, job = None, {}
    if args.command != "mhat":
        job = _read_jobspec(args.input)
        unknown = sorted(set(job) - JOBSPEC_FIELDS)
        if unknown:
            raise InputError(f"JobSpec fields {unknown} are read by no command")
        for key in ("p", "e", "k"):
            if key not in job:
                raise InputError(f"JobSpec is missing required field '{key}'")
            _integer(key, job[key])
        tower = tower_create(
            job["p"], job["e"], job["k"], m_r=job.get("m_r"), m_q=job.get("m_q")
        )
        if "f" not in job:
            raise InputError("JobSpec is missing the polynomial field 'f'")
        f = AdditivePoly.from_json(tower, job["f"])
    settings = {"all": getattr(args, "all", False)}
    for name, default in COMMANDS[args.command][2].items():
        value = getattr(args, name)
        if value is None:
            value = job.get(name)
        if value is not None:
            settings[name] = _integer(name, value)
        elif default is REQUIRED:
            raise InputError(f"{args.command} requires {name}")
        else:
            settings[name] = default
    return f, settings


def verify_report(f, max_ext=oracle.DEFAULT_MAX_EXT):
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
    form = rational_jordan_form(f)
    species = form.species

    oracle_minpoly = oracle.minpoly_of_matrix(tower.fr, space.frobenius_matrix)
    check("minimal_polynomial", oracle_minpoly.encode(), form.minimal_polynomial().encode())
    check(
        "species",
        oracle.species_from_matrix(tower.fr, space.frobenius_matrix).to_json(),
        species.to_json(),
    )
    for d in range(n + 1):
        brute = len(oracle.right_components_brute(space, d))
        subspaces = len(oracle.invariant_subspaces(tower.fr, space.frobenius_matrix, d))
        fast = latcount.count_from_species(species, r, d)
        check(f"right_components[d={d}]", brute, fast)
        check(f"subspace_bijection[d={d}]", brute, subspaces)
    check(
        "maximal_chains",
        oracle.maximal_chains_brute(tower.fr, space.frobenius_matrix),
        count_chains(species, r),
    )
    try:
        ore = latcount.ore_criterion_count(f)
        check("ore_line_count", latcount.count_from_species(species, r, 1), ore)
    except BudgetExceeded:
        checks.append({"name": "ore_line_count", "pass": True, "skipped": "budget"})
    return {"all_pass": all(c["pass"] for c in checks), "checks": checks}


def build_parser(only=None):
    """The CLI's parser; given a command, with that command's subparser alone."""
    parser = _Parser(prog="addpoly", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in COMMANDS.items():
        if only not in (None, command):
            continue
        p = sub.add_parser(command, help=help_text)
        if command != "mhat":
            p.add_argument("--input", default="-", help="JobSpec JSON file, or - for stdin")
        p.add_argument("--pretty", action="store_true", help="indented JSON output")
        for name in settings:
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
        if command == "count":
            p.add_argument("--all", action="store_true", help="emit the whole generating function")
    return parser


def main(argv=None):
    pretty = False
    try:
        # a named command needs only its own subparser; help and errors get the full one
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        pretty = args.pretty
        f, settings = _load(args)
        payload, code = COMMANDS[args.command][0](f, settings)
    except AddpolyError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_INPUT
        if isinstance(exc, BudgetExceeded):
            code = EXIT_BUDGET
        elif isinstance(exc, InternalInconsistency):
            code = EXIT_INTERNAL
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
