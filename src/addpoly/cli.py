"""Batch command-line front end.

One job per invocation, JSON in and JSON out: a JobSpec (field tower plus
polynomial plus command parameters) arrives via --input FILE or stdin, and
every exit path but help (argparse's usage text, exit 0) prints a single JSON
document. Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 internal
inconsistency or any other exception. count and count-general take any monic
f, its inseparable part x^(r^m) counted as one more Jordan block; species and
verify take a monic squarefree f.

Identical JobSpecs produce byte-identical output.
"""

import argparse
import json
import sys
from functools import partial

from . import latcount, oracle
from .additive import AdditivePoly, json_coefficients, projective_part, strip_inseparable, subadditive_image
from .additive import minimal_central_left_component  # noqa: F401 (bench/replay.py times mclc here)
from .errors import AddpolyError, BudgetExceeded, InputError, InternalInconsistency, admit
from .ffield import encoding_shape, tower_create
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
    species = latcount.species_of(f)
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
    d, m = settings["d"], strip_inseparable(f)[0]
    return {"d": d, "m": m, "n": f.exponent - m, "count": latcount.count_right_components(f, d)}, EXIT_OK


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
    "count": (cmd_count, "right-component and chain counts of a monic f", {"d": None}),
    "count-general": (cmd_count_general, "one right-component count, of any monic f", {"d": REQUIRED}),
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
    """The polynomial f (None for mhat) and the settings of one parsed command. What can be
    checked without the tower is checked first, since building it may search long for m_q."""
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
        if "f" not in job:
            raise InputError("JobSpec is missing the polynomial field 'f'")
        e, k = job["e"], job["k"]
        if e > 0 and k > 0:  # else tower_create names the fault; F_q has degree k over F_r (e if k = 1)
            json_coefficients(job["f"], e, partial(encoding_shape, degree=k if k > 1 else e))
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
    if args.command != "mhat":
        tower = tower_create(job["p"], job["e"], job["k"], m_r=job.get("m_r"), m_q=job.get("m_q"))
        f = AdditivePoly.from_json(tower, job["f"])
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
        admit("roots", oracle.DEFAULT_ENUM_BUDGET, r**d)  # first: a d past both is refused for its r^d roots
        subspaces = oracle.invariant_subspaces(tower.fr, space.frobenius_matrix, d)
        components = oracle.right_components_brute(space, d, subspaces)
        check(f"right_components[d={d}]", len(components), latcount.count_from_species(species, r, d))
        check(f"subspace_bijection[d={d}]", len(set(components)), len(subspaces))
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


def _options(command):
    """A command's long options, flag -> (dest, default). The default tells the kind: False a switch,
    None an integer setting, "-" the JobSpec path."""
    options = {} if command == "mhat" else {"--input": ("input", "-")}
    options["--pretty"] = ("pretty", False)
    options.update(("--" + name.replace("_", "-"), (name, None)) for name in COMMANDS[command][2])
    if command == "count":
        options["--all"] = ("all", False)
    return options


_HELP = {"input": "JobSpec JSON file, or - for stdin", "pretty": "indented JSON output",
         "all": "emit the whole generating function"}


def build_parser():
    """The CLI's full parser: one subparser per command."""
    parser = _Parser(prog="addpoly", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in COMMANDS.items():
        subparser = sub.add_parser(command, help=help_text)
        for flag, (dest, default) in _options(command).items():
            kind = {"action": "store_true"} if default is False else {"type": int} if default is None else {}
            subparser.add_argument(flag, dest=dest, default=default, help=_HELP.get(dest), **kind)
    return parser


def parse_args(argv):
    """argv parsed as build_parser() parses it. A command followed only by its exact long options,
    each value non-empty and not starting with -, is read without building a parser, which costs
    more than most jobs; argparse reads every other argv, and so prints help and every error."""
    command = argv[0] if argv else None
    if command in COMMANDS:
        options = _options(command)
        args = {"command": command, **dict(options.values())}
        tokens = iter(argv[1:])
        try:
            for token in tokens:
                dest, default = options[token]
                if default is False:
                    args[dest] = True
                    continue
                value = next(tokens)
                if not value or value[0] == "-":
                    break
                args[dest] = int(value) if default is None else value  # int: argparse's type
            else:
                return argparse.Namespace(**args)
        except (KeyError, StopIteration, ValueError):  # not a flag of command, no value, not an int
            pass
    return build_parser().parse_args(argv)


def _dumps(payload, pretty):
    """The output document. A count may have more digits than Python's int-to-str limit, so the
    limit is lifted for the dump alone; input parsing keeps it, and a too-long integer there is
    an input error."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: the limit is off, or this Python has none
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if pretty:
            return json.dumps(payload, sort_keys=True, indent=2)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main(argv=None):
    pretty = False
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        pretty = args.pretty
        f, settings = _load(args)
        payload, code = COMMANDS[args.command][0](f, settings)
    except Exception as exc:  # one that is not an AddpolyError is a bug: exit 4, still one JSON document
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = EXIT_INPUT if isinstance(exc, AddpolyError) else EXIT_INTERNAL
        if isinstance(exc, BudgetExceeded):
            payload["error"].update(budget=exc.budget, limit=exc.limit, requested=exc.requested)
            code = EXIT_BUDGET
        elif isinstance(exc, InternalInconsistency):
            code = EXIT_INTERNAL
    sys.stdout.write(_dumps(payload, pretty) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
