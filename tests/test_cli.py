import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addpoly.cli import COMMANDS, build_parser, main, parse_args
from addpoly.errors import InputError
from addpoly.frobjordan import rational_jordan_form
from helpers import command_lines


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def jobspec_f4(coeff_pairs, **extra):
    job = {"p": 2, "e": 1, "k": 2, "f": {"r_exp": 1, "coeffs": coeff_pairs}}
    job.update(extra)
    return json.dumps(job)


X16_PLUS_X = [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0]]
X4_PLUS_X = [[1, 0], [0, 0], [1, 0]]


def test_species_x16_plus_x(capsys, monkeypatch):
    code, out = run(capsys, ["species"], stdin=jobspec_f4(X16_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["species"] == [[1, [0, 2]]]
    assert payload["minpoly_factors"] == [[[1, 1], 2]]
    assert payload["nullities"] == {"0": [0, 2, 4, 4]}


def test_species_x4_plus_x(capsys, monkeypatch):
    code, out = run(capsys, ["species"], stdin=jobspec_f4(X4_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["species"] == [[1, [2]]]


def test_species_over_f9_takes_no_list_arithmetic(capsys, monkeypatch):
    # F_9 and F_3 have byte-slot tables: a species job on (3,1,2) divides on byte slots (mclc and
    # gcrc) and tracks byte rows over F_r = F_3, so neither F_9's vec_submul nor a list row runs
    import random

    from addpoly import additive, linalg, upoly
    from addpoly.ffield import ExtensionField, tower_create
    from helpers import random_additive

    calls = []

    def counting(owner, name, label):  # record (label, field size) on each call of owner.name
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda field, *args: calls.append((label, field.size)) or real(field, *args))

    counting(ExtensionField, "vec_submul", "vec_submul")
    counting(linalg, "echelon_insert", "list row")
    counting(additive, "_byte_divider", "bytes")
    counting(upoly, "_byte_divider", "bytes")
    job = {"p": 3, "e": 1, "k": 2, "f": random_additive(tower_create(3, 1, 2), 24, random.Random(22)).to_json()}
    code, _ = run(capsys, ["species"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    assert ("vec_submul", 9) not in calls and ("list row", 3) not in calls
    assert calls.count(("bytes", 9)) > 1  # mclc's divider and gcrc's divisions


def test_species_over_f16_keeps_gcrc_off_right_divmod(capsys, monkeypatch):
    # F_16 has byte-slot tables: gcrc's Euclid divides on packed ints from its first step to its
    # last, and only the peel's quotient divisions (and mclc's final check) call right_divmod;
    # each eigenfactor of multiplicity mult takes mult + 1 gcrc calls. Only an f whose root space
    # is not cyclic peels: x^(r^48) + x is central, tau(f*) = (y^3 + 1)^8 of degree 24 < 48
    from addpoly import additive, frobjordan
    from addpoly.additive import central_to_upoly, minimal_central_left_component
    from addpoly.ffield import tower_create
    from corpus import x_rpow_plus_x

    f = x_rpow_plus_x(tower_create(2, 2, 2), 48)
    assert central_to_upoly(minimal_central_left_component(f)).degree < f.exponent
    depth, gcrcs, divisions = [0], [], []
    gcrc, right_divmod = frobjordan.gcrc, additive.right_divmod

    def counted_gcrc(f, g):
        gcrcs.append(f)
        depth[0] += 1
        try:
            return gcrc(f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(frobjordan, "gcrc", counted_gcrc)
    monkeypatch.setattr(additive, "right_divmod", lambda f, h: divisions.append(depth[0]) or right_divmod(f, h))
    job = {"p": 2, "e": 2, "k": 2, "f": f.to_json()}
    code, out = run(capsys, ["species"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0
    mults = [mult for _, mult in json.loads(out)["minpoly_factors"]]
    assert max(mults) >= 2 and len(gcrcs) == sum(mult + 1 for mult in mults)
    assert divisions and not any(divisions)  # mclc's check divides, no gcrc step does


@pytest.mark.parametrize("cyclic", [True, False])
def test_species_peels_only_a_root_space_that_is_not_cyclic(capsys, monkeypatch, cyclic):
    # deg tau(f*) = n makes the root space a cyclic module, whose nullities are read off the
    # factorization of tau(f*): a random (2,2,2) f of exponent 16 (an eigenfactor of
    # multiplicity 3) runs no peel and no gcrc; x^(r^48) + x (deg tau(f*) = 24) peels each
    # eigenfactor with mult + 1 gcrc calls
    import random

    from addpoly import frobjordan
    from addpoly.ffield import tower_create
    from corpus import x_rpow_plus_x
    from helpers import random_additive

    tw = tower_create(2, 2, 2)
    f = random_additive(tw, 16, random.Random(0)) if cyclic else x_rpow_plus_x(tw, 48)
    peels, gcrcs = [], []
    nullity_sequence, gcrc = frobjordan._nullity_sequence, frobjordan.gcrc
    monkeypatch.setattr(frobjordan, "_nullity_sequence", lambda *args: peels.append(args) or nullity_sequence(*args))
    monkeypatch.setattr(frobjordan, "gcrc", lambda *args: gcrcs.append(args) or gcrc(*args))
    code, out = run(capsys, ["species"], stdin=json.dumps({"p": 2, "e": 2, "k": 2, "f": f.to_json()}), monkeypatch=monkeypatch)
    assert code == 0
    factors = json.loads(out)["minpoly_factors"]
    degree = sum((len(u) - 1) * mult for u, mult in factors)
    assert max(mult for _, mult in factors) >= 2
    if cyclic:
        assert degree == f.exponent and not peels and not gcrcs
    else:
        assert degree < f.exponent and len(peels) == len(factors)
        assert len(gcrcs) == sum(mult + 1 for _, mult in factors)


def test_species_malformed_coeffs(capsys, monkeypatch):
    bad = json.dumps({"p": 2, "e": 1, "k": 2, "f": {"r_exp": 1, "coeffs": [[1, 0], [1]]}})
    code, out = run(capsys, ["species"], stdin=bad, monkeypatch=monkeypatch)
    assert code == 2
    err = json.loads(out)["error"]
    assert "a_1" in err["message"] and "length" in err["message"]


@pytest.mark.parametrize("r_exp", [2, True])
def test_species_wrong_r_exp(capsys, monkeypatch, r_exp):
    bad = json.dumps({"p": 2, "e": 1, "k": 2, "f": {"r_exp": r_exp, "coeffs": [[1, 0], [1, 0]]}})
    code, out = run(capsys, ["species"], stdin=bad, monkeypatch=monkeypatch)
    assert code == 2
    assert "r_exp" in json.loads(out)["error"]["message"]


def test_count_chain_family(capsys, monkeypatch, tmp_path):
    for m, chains in [(2, 3), (4, 15), (6, 90), (8, 543)]:
        coeffs = [[1, 0]] + [[0, 0]] * (m - 1) + [[1, 0]]
        path = tmp_path / f"job{m}.json"
        path.write_text(jobspec_f4(coeffs))
        code, out = run(capsys, ["count", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["chains"] == chains


def test_count_with_specific_d(capsys, monkeypatch):
    code, out = run(capsys, ["count", "--d", "1"], stdin=jobspec_f4(X16_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["g_d"] == 3 and payload["d"] == 1
    code, out = run(capsys, ["count", "--d", "0"], stdin=jobspec_f4(X16_PLUS_X), monkeypatch=monkeypatch)
    assert json.loads(out)["g_d"] == 1


X256_PLUS_X = [[1, 0]] + [[0, 0]] * 7 + [[1, 0]]  # species (1; 0,0,0,2), dimension 8


def test_count_d_on_dimension_8_species(capsys, monkeypatch):
    code, out = run(capsys, ["count", "--d", "4"], stdin=jobspec_f4(X256_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 4 and payload["g_d"] == 31


def test_count_all_on_dimension_8_species(capsys, monkeypatch):
    code, out = run(capsys, ["count", "--all"], stdin=jobspec_f4(X256_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == [1, 3, 7, 15, 31, 15, 7, 3, 1]
    assert payload["chains"] == 543


def test_count_prints_a_chain_count_past_the_int_to_str_limit(capsys, monkeypatch):
    # x^(2^256) + x over (2,1,256) has 256 blocks of order 1: 257 chain states and a chain
    # count of 9,903 digits, more than Python's int-to-str limit lets json.dumps write
    from addpoly.ffield import tower_create
    from addpoly.latcount import count_chains
    from corpus import x_rpow_plus_x

    f = x_rpow_plus_x(tower_create(2, 1, 256), 256)
    job = {"p": 2, "e": 1, "k": 256, "f": f.to_json()}
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, ["count", "--d", "1"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert code == 0 and sys.get_int_max_str_digits() == limit  # restored after the dump
    lines = out.splitlines()
    assert len(lines) == 1
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(lines[0])
        assert len(str(payload["chains"])) == 9903
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["species"] == [[1, [256]]] and payload["g_d"] == 2**256 - 1
    assert payload["chains"] == count_chains(rational_jordan_form(f).species, 2)


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("count", "d", "1"),
        ("count", "d", True),
        ("count-general", "d", "1"),
        ("species", "seed", "x"),
        ("species", "p", True),
        ("species", "e", True),
        ("species", "k", True),
    ],
)
def test_non_integer_setting_is_an_input_error(capsys, monkeypatch, command, field, value):
    job = jobspec_f4(X4_PLUS_X, **{field: value})
    code, out = run(capsys, [command], stdin=job, monkeypatch=monkeypatch)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert f"'{field}'" in json.loads(lines[0])["error"]["message"]


@pytest.mark.parametrize("key, value", [("sed", 5), ("seed", 0)])
def test_jobspec_field_no_command_reads_is_an_input_error(capsys, monkeypatch, key, value):
    job = jobspec_f4(X4_PLUS_X, **{key: value})
    code, out = run(capsys, ["species"], stdin=job, monkeypatch=monkeypatch)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert f"'{key}'" in json.loads(lines[0])["error"]["message"]


@pytest.mark.parametrize(
    "text",
    [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nested past the recursion limit
        b'{"p": ' + b"1" * 5000 + b"}",  # an integer literal past 4300 digits
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_unparseable_jobspec_is_an_input_error(capsys, tmp_path, text):
    path = tmp_path / "job.json"
    path.write_bytes(text)
    code, out = run(capsys, ["species", "--input", str(path)])
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InputError"


@pytest.mark.parametrize(
    "argv",
    [
        ["species", "--max-ext", "3"],
        ["count", "--max-ext", "3"],
        ["count-general", "--d", "1", "--max-ext", "3"],
        ["mhat", "--n", "2", "--r", "2", "--seed", "1"],
        ["mhat", "--n", "2", "--r", "2", "--max-ext", "3"],
        ["pi", "--t", "1", "--seed", "1"],
        ["pi", "--t", "1", "--max-ext", "3"],
        ["species", "--seed", "0"],
        ["count", "--seed", "0"],
        ["count-general", "--d", "1", "--seed", "0"],
        ["verify", "--seed", "0"],
    ],
)
def test_flag_the_command_does_not_read_is_an_input_error(capsys, monkeypatch, argv):
    code, out = run(capsys, argv, stdin=jobspec_f4(X4_PLUS_X), monkeypatch=monkeypatch)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert "unrecognized arguments" in json.loads(lines[0])["error"]["message"]


def test_count_general(capsys, monkeypatch):
    job = json.dumps(
        {"p": 2, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": [0, 1, 1]}, "d": 1}
    )
    code, out = run(capsys, ["count-general"], stdin=job, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 2, "d": 1, "m": 1, "n": 1}


def test_count_takes_every_monic_f(capsys, monkeypatch):
    # x^16 + x^4 = x^4 o (x^4 + x) over F_4: x^4 + x's species (1; 2) and the block x^4 of order 2
    code, out = run(capsys, ["count"], stdin=jobspec_f4([[0, 0]] * 2 + X4_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"species": [[1, [0, 1]], [1, [2]]], "lines": 4, "chains": 18, "g": [1, 4, 5, 4, 1]}
    code, out = run(capsys, ["count"], stdin=jobspec_f4([[1, 0]]), monkeypatch=monkeypatch)  # f = x
    assert (code, json.loads(out)) == (0, {"species": [], "lines": 0, "chains": 1, "g": [1]})
    for coeffs in ([], [[0, 0], [0, 1]]):  # zero, not monic
        code, out = run(capsys, ["count"], stdin=jobspec_f4(coeffs), monkeypatch=monkeypatch)
        assert code == 2 and json.loads(out)["error"]["type"] == "InputError"


def test_mhat(capsys):
    code, out = run(capsys, ["mhat", "--n", "2", "--r", "2"])
    assert code == 0
    assert json.loads(out) == {"mhat": [0, 1, 2, 3], "n": 2, "r": 2}


def test_pi_subcommand(capsys, monkeypatch):
    job = json.dumps(
        {"p": 2, "e": 2, "k": 1, "f": {"r_exp": 2, "coeffs": [[1, 0], [0, 0], [1, 0]]}, "t": 3}
    )
    code, out = run(capsys, ["pi"], stdin=job, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["pi"] == [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]]


def test_verify_x4_plus_x(capsys, monkeypatch):
    code, out = run(capsys, ["verify"], stdin=jobspec_f4(X4_PLUS_X), monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert all(check["pass"] for check in payload["checks"])


def test_subspace_bijection_fails_when_two_subspaces_give_one_component(capsys, monkeypatch):
    from addpoly import oracle

    brute = oracle.right_components_brute

    def repeated(space, d, subspaces):  # the first component in place of every other one
        components = brute(space, d, subspaces)
        return components[:1] * len(components)

    monkeypatch.setattr(oracle, "right_components_brute", repeated)
    code, out = run(capsys, ["verify"], stdin=jobspec_f4(X4_PLUS_X), monkeypatch=monkeypatch)
    payload = json.loads(out)
    assert code == 4 and payload["all_pass"] is False
    failed = [check for check in payload["checks"] if not check["pass"]]
    assert failed == [{"name": "subspace_bijection[d=1]", "pass": False, "expected": 1, "actual": 3}]


def test_verify_refuses_a_root_product_before_enumerating_its_subspaces(capsys, monkeypatch):
    # x^(r^2) + x over F_r, r = 2^22: the 2^22 roots of a line exceed the budget, and so do its
    # 2^22 + 1 candidate lines; the roots' budget is named
    zero, one = [0] * 22, [1] + [0] * 21
    job = json.dumps({"p": 2, "e": 22, "k": 1, "f": {"r_exp": 22, "coeffs": [one, zero, one]}})
    code, out = run(capsys, ["verify"], stdin=job, monkeypatch=monkeypatch)
    assert code == 3
    error = json.loads(out)["error"]
    assert error.pop("message") == "4194304 exceeds the roots budget of 2097152"
    assert error == {"type": "BudgetExceeded", "budget": "roots", "limit": 2097152, "requested": 4194304}


def _jobspec_f2(coeffs):
    return json.dumps({"p": 2, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": coeffs}})


@pytest.mark.parametrize("max_ext", ["5000", "0"])
def test_verify_max_ext_outside_its_range_is_an_input_error(capsys, monkeypatch, max_ext):
    job = _jobspec_f2([1, 0, 1] + [0] * 8 + [1])  # x^(2^11) + x^4 + x, order 2047
    t0 = time.perf_counter()
    code, out = run(capsys, ["verify", "--max-ext", max_ext], stdin=job, monkeypatch=monkeypatch)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert "max_ext" in json.loads(lines[0])["error"]["message"]


def test_verify_at_the_max_ext_limit(capsys, monkeypatch):
    job = _jobspec_f2([1, 1, 0, 0, 0, 0, 1])  # x^(2^6) + x^2 + x
    code, out = run(capsys, ["verify", "--max-ext", "64"], stdin=job, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_byte_identical_output(capsys, monkeypatch, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(jobspec_f4(X16_PLUS_X))
    code1, out1 = run(capsys, ["count", "--input", str(path)])
    code2, out2 = run(capsys, ["count", "--input", str(path)])
    assert code1 == code2 == 0
    assert out1 == out2


def test_output_is_json_on_flag_errors(capsys):
    code, out = run(capsys, ["no-such-command"])
    assert code == 2
    json.loads(out)  # still a JSON document


def test_an_exception_outside_the_package_errors_is_exit_4_with_one_json_line(capsys, monkeypatch):
    # a bug that raises something other than an AddpolyError ends like an internal inconsistency:
    # exit 4 and one JSON document naming the exception's class, never a traceback
    def command(f, settings):
        raise ZeroDivisionError("a command divided by zero")

    monkeypatch.setitem(COMMANDS, "species", (command, *COMMANDS["species"][1:]))
    code, out = run(capsys, ["species"], stdin=jobspec_f4(X4_PLUS_X), monkeypatch=monkeypatch)
    assert code == 4
    assert len(out.splitlines()) == 1
    assert json.loads(out) == {"error": {"type": "ZeroDivisionError", "message": "a command divided by zero"}}


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["species"], jobspec_f4(X4_PLUS_X), 0),
        (["no-such-command"], "", 2),
        ([], "", 2),
        (["species", "--bogus"], jobspec_f4(X4_PLUS_X), 2),
    ],
    ids=["species", "unknown-command", "no-command", "unknown-flag"],
)
def test_module_entry_point_prints_one_json_line(argv, stdin, code):
    # the one path that reads sys.argv: main() called with argv None
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "addpoly.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    if code:
        assert payload["error"]["type"] == "InputError"
    else:
        assert payload["species"] == [[1, [2]]]


def _parsed(parse, argv):
    """What parse makes of argv: the namespace, the error message, or the exit code and the text
    printed (help)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return vars(parse(argv))
    except InputError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_command_parser_parses_as_the_full_parser(command):
    flags = ["--" + name.replace("_", "-") for name in COMMANDS[command][2]]
    every = [command, "--pretty"] + [x for flag in flags for x in (flag, "3")]
    if command != "mhat":
        every += ["--input", "job.json"]
    if command == "count":
        every.append("--all")
    cases = [[command], every, every + ["--bogus"], [command, "--seed", "1"]]
    cases += [[command, flag, "x"] for flag in flags] + [[command, "--input"]]
    # help, abbreviations, --flag=value, --, missing values, stray positionals, repeated flags
    cases += [[command, "-h"], [command, "--help"], [command, "--h"], [command, "--he"], [command, "--pretty", "-h"]]
    cases += [[command, "--inp", "j"], [command, "--in=j"], [command, "--input=j"], [command, "--pre"]]
    cases += [[command, "--p"], [command, "--al"], [command, "--a"], [command, "--d", "1"], [command, "--all"]]
    cases += [[command, "--"], [command, "--", "--pretty"], [command, "--pretty", "--"], [command, "--", "x"]]
    cases += [[command, "x"], [command, "x", "--pretty"], [command, "--pretty", "x"], [command, "-x"], [command, "-"]]
    cases += [[command, "--pretty", "--pretty"], [command, "--input", "-"], [command, "--input", "--pretty"]]
    cases += [[command, "species"], [command, "-p"], [command, "--=x"], [command, "---x"]]
    for flag in flags:
        cases += [[command, flag], [command, flag + "=3"], [command, flag, "-3"], [command, flag + "=-3"]]
        cases += [[command, flag, "1", flag, "2"], [command, flag, ""], [command, flag[:4], "5"]]
    for argv in cases:
        assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv), argv


@settings(max_examples=400)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(command_lines))
def test_every_drawn_command_line_parses_as_the_full_parser(argv):
    assert _parsed(parse_args, argv) == _parsed(build_parser().parse_args, argv)


def test_the_command_lines_of_the_bench_and_readme_build_no_parser(monkeypatch):
    # a command and its exact long options are read without argparse: building a parser costs
    # more than most benchmark jobs
    argvs = [["species"], ["count"], ["count", "--all"], ["count", "--d", "2"], ["count-general", "--d", "2"]]
    argvs += [["mhat", "--n", "10", "--r", "2"], ["verify"], ["verify", "--max-ext", "8", "--input", "job.json", "--pretty"]]
    expected = [vars(build_parser().parse_args(argv)) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [vars(parse_args(argv)) for argv in argvs] == expected


@pytest.mark.parametrize("p", [0, 1, -7, 1763, 3215031751])
def test_non_prime_p_is_an_input_error(capsys, monkeypatch, p):
    # 1763 = 41 * 43 and 3215031751 = 151 * 751 * 28351 pass trial division and fail Miller-Rabin
    job = json.dumps({"p": p, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": [[1], [1]]}})
    code, out = run(capsys, ["species"], stdin=job, monkeypatch=monkeypatch)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "InputError"


def test_missing_tower_field(capsys, monkeypatch):
    code, out = run(capsys, ["species"], stdin=json.dumps({"p": 2, "e": 1}), monkeypatch=monkeypatch)
    assert code == 2
    assert "k" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("n", ["200", "1000000000"])
def test_mhat_past_its_partition_budget_is_exit_3(capsys, n):
    code, out = run(capsys, ["mhat", "--n", n, "--r", "2"])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "BudgetExceeded"


def x_qpow_minus_x_over_f256(order):
    """x^(q^order) - x over the tower (2, 1, 8): species (1; 8 blocks of order `order`)."""
    one, zero = [1] + [0] * 7, [0] * 8
    return json.dumps({"p": 2, "e": 1, "k": 8, "f": {"r_exp": 1, "coeffs": [one] + [zero] * (8 * order - 1) + [one]}})


def test_count_on_one_jordan_block_of_order_512(capsys, monkeypatch):
    # x^(2^1024) + g x over F_4 with g outside F_2: one block of order 512 over y^2 + y + 1
    code, out = run(capsys, ["count"], stdin=jobspec_f4([[0, 1]] + [[0, 0]] * 1023 + [[1, 0]]), monkeypatch=monkeypatch)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["chains"] == 1


def test_count_past_the_chain_state_budget_is_exit_3_before_the_walk(capsys, monkeypatch):
    from addpoly import latcount

    def no_walk(lam, base):
        raise AssertionError("the chain walk ran past its budget")

    monkeypatch.setattr(latcount, "_chains", no_walk)
    start = time.perf_counter()
    code, out = run(capsys, ["count"], stdin=x_qpow_minus_x_over_f256(32), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def test_count_on_eight_blocks_of_order_8(capsys, monkeypatch):
    code, out = run(capsys, ["count"], stdin=x_qpow_minus_x_over_f256(8), monkeypatch=monkeypatch)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["species"] == [[1, [0] * 7 + [8]]]


@pytest.mark.parametrize("p,e,k", [(2, 8, 16), (2, 8, 8), (2, 16, 4)])
def test_tower_past_the_m_q_search_cap_is_exit_3(capsys, monkeypatch, p, e, k):
    # each of these default constructions searched for over 10 s; the cap refuses them at once
    zero, one = [[0] * e] * k, [[1] + [0] * (e - 1)] + [[0] * e] * (k - 1)
    job = {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": [one, zero, one]}}
    start = time.perf_counter()
    code, out = run(capsys, ["species"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "BudgetExceeded"


def test_malformed_f_is_refused_before_a_slow_tower_is_built():
    # this tower's default m_q search runs for tens of seconds; f's shape is checked first
    job = {"p": 2, "e": 1, "k": 2000, "f": {"r_exp": 1, "coeffs": [1, 1]}}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "addpoly.cli", "species"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == 2, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["message"] == "coefficient a_0: expected a length-2000 coefficient list, got 1"


@pytest.mark.parametrize(
    "p,e,k,name,cap,bits",
    [(2, 100000, 1, "m_r", 1000, 100000), (2, 1, 2000, "m_q", 1000, 2000), (2, 8, 8, "m_q", 40, 64)],
    ids=["e100000", "k2000", "f256-k8"],
)
def test_well_formed_job_past_the_search_cap_is_refused_before_the_search(p, e, k, name, cap, bits):
    # each default construction search runs for tens of seconds or more; the cap refuses it first.
    # Limit and request are in bits: log2 of the size of the level that name builds. The JobSpec
    # is well formed: one of F_q is k coordinates over F_r, each e coordinates over F_p
    digit, zero = ([1] + [0] * (e - 1), [0] * e) if e > 1 else (1, 0)
    one = [digit] + [zero] * (k - 1) if k > 1 else digit
    job = {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": [one, one]}}
    error = refused_within_2_s(job)
    assert (error["budget"], error["limit"], error["requested"]) == (f"{name} search", cap, bits)


def refused_within_2_s(job, *argv, code=3, kind="BudgetExceeded"):
    """The error of a child process of this command line (species by default) on this JobSpec,
    which must exit with this code within 2 s and 2 GiB of address space, with one JSON
    document on stdout, an error of this kind."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from addpoly.cli import main\n"
        f"sys.exit(main({list(argv or ['species'])!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert time.perf_counter() - start < 2
    assert done.returncode == code, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == kind
    return error


@pytest.mark.parametrize("command", ["count", "species"])
def test_p_past_the_exact_primality_test_is_refused(command):
    # 399165290221 * 798330580441 passes Miller-Rabin on all twelve bases; taken for a prime,
    # count looped in Euclid over the non-field and species answered over it
    job = {"p": 318665857834031151167461, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": [5, 7, 1]}}
    error = refused_within_2_s(job, command, code=2, kind="InputError")
    assert "318665857834031151167461" in error["message"]


@pytest.mark.parametrize(
    "p,e,k,name,bits",
    [(2, 9689, 1, "m_r", 9689.0), (3, 1, 1300, "m_q", 1300 * math.log2(3))],
    ids=["f2-e9689", "f3-k1300"],
)
def test_supplied_trinomial_past_the_check_cap_is_refused_before_ben_or(p, e, k, name, bits):
    # Ben-Or's test runs for about 40 s on y^9689 + y^84 + 1, irreducible over F_2, and for
    # about 5 s on an irreducible degree-1300 polynomial over F_3: the check cap refuses both first
    n = max(e, k)
    one = [1] + [0] * (n - 1)
    trinomial = [1] + [0] * 83 + [1] + [0] * (n - 85) + [1]
    job = {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": [one, one]}, name: trinomial}
    error = refused_within_2_s(job)
    assert (error["budget"], error["limit"], error["requested"]) == (f"{name} check", 2000, bits)


def test_tower_over_a_large_prime_runs_in_bounded_memory():
    # The construction search over F_p with p near 10^9 must not list the field;
    # the address-space cap turns a regression into a MemoryError in the child.
    job = {"p": 1000000007, "e": 1, "k": 3, "f": {"r_exp": 1, "coeffs": [[1, 0, 0], [1, 0, 0]]}}
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from addpoly.cli import main\n"
        "sys.exit(main(['species']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["species"] == [[1, [1]]]


def _x_r2_job(e, middle):
    """x^(r^2) + middle x^r + x over the tower (2, e, 1)."""
    one, zero = [1] + [0] * (e - 1), [0] * e
    return {"p": 2, "e": e, "k": 1, "f": {"r_exp": e, "coeffs": [one, one if middle else zero, one]}}


@pytest.mark.parametrize("e, middle", [(22, 0), (26, 0), (63, 1)], ids=["f2e22", "f2e26", "f2e63"])
def test_verify_over_a_large_f_r_lists_no_field_before_its_budgets(e, middle):
    # d = 0 needs no element of F_r; listing them all ran out of memory (2^26) or overflowed
    # (2^63) before the roots' budget refused d = 1
    error = refused_within_2_s(_x_r2_job(e, middle), "verify")
    assert (error["budget"], error["limit"], error["requested"]) == ("roots", 1 << 21, 1 << e)


def test_verify_refuses_the_root_products_of_one_line_of_65536_roots():
    # x^(r^2) + x over (2, 16, 1): its one invariant line has r = 2^16 roots over F_(2^32)
    error = refused_within_2_s(_x_r2_job(16, 0), "verify")
    assert (error["budget"], error["limit"], error["requested"]) == ("root products", 256, 1 << 16)


def test_verify_refuses_a_root_space_of_side_1920_before_the_extension():
    # x^4 + x^2 + x over (2, 1, 640): E = 3, a dense kernel of side E k = 1920
    one, zero = [1] + [0] * 639, [0] * 640
    job = {"p": 2, "e": 1, "k": 640, "f": {"r_exp": 1, "coeffs": [one, one, one]}}
    error = refused_within_2_s(job, "verify")
    assert (error["budget"], error["limit"], error["requested"]) == ("root space", 192, 1920)


def test_pi_on_an_exponent_15000_f_prints_its_request_by_bit_length():
    # r^n = 2^15000 has 4516 digits, past Python's int-to-str limit
    job = {"p": 2, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": [1] + [0] * 14999 + [1]}}
    error = refused_within_2_s(job, "pi", "--t", "1")
    assert (error["budget"], error["limit"], error["requested"]) == ("projective part", 1 << 16, ">= 2^15000")
    assert error["message"] == ">= 2^15000 exceeds the projective part budget of 65536"


def test_verify_refuses_the_candidate_lines_of_an_exponent_22_f(capsys, monkeypatch):
    # x^(2^22) + x over F_2: E = 22, but [22 choose 1]_2 = 2^22 - 1 candidate lines
    code, out = run(capsys, ["verify"], stdin=_jobspec_f2([1] + [0] * 21 + [1]), monkeypatch=monkeypatch)
    assert code == 3 and len(out.splitlines()) == 1
    error = json.loads(out)["error"]
    assert (error["budget"], error["limit"], error["requested"]) == ("subspaces", 1 << 21, (1 << 22) - 1)


def test_verify_skips_the_ore_count_past_the_root_scan_cap(capsys, monkeypatch):
    # x^2 + x over (2, 1, 17): every oracle stage is small, but the Ore count scans F_(2^17)
    one = [1] + [0] * 16
    job = json.dumps({"p": 2, "e": 1, "k": 17, "f": {"r_exp": 1, "coeffs": [one, one]}})
    code, out = run(capsys, ["verify"], stdin=job, monkeypatch=monkeypatch)
    payload = json.loads(out)
    assert code == 0 and payload["all_pass"] is True
    assert payload["checks"][-1] == {"name": "ore_line_count", "pass": True, "skipped": "budget"}


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["species"], "[1, 2]", "JobSpec must be a JSON object"),
        (["species"], json.dumps({"p": 2, "e": 1, "k": 1}), "JobSpec is missing the polynomial field 'f'"),
        (["mhat", "--r", "2"], None, "mhat requires n"),
    ],
    ids=["not-an-object", "no-f", "mhat-without-n"],
)
def test_input_errors_of_the_jobspec_and_settings(capsys, monkeypatch, argv, stdin, message):
    code, out = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2 and len(out.splitlines()) == 1
    assert json.loads(out) == {"error": {"type": "InputError", "message": message}}


def test_pretty_output(capsys, monkeypatch):
    code, out = run(capsys, ["mhat", "--n", "0", "--r", "2", "--pretty"])
    assert code == 0
    assert "\n  " in out


def _verify_sample(tw, exponents, ext_cap, trials, seed):
    import random

    from addpoly.cli import verify_report
    from addpoly.errors import ExtensionTooLarge
    from helpers import random_additive

    rng = random.Random(seed)
    done = 0
    while done < trials:
        f = random_additive(tw, rng.choice(exponents), rng)
        try:
            report = verify_report(f, max_ext=ext_cap)
        except ExtensionTooLarge:
            continue
        assert report["all_pass"]
        done += 1


def test_verify_on_proper_tower_chain():
    # q = 16 over r = 4 over p = 2: both extension steps nontrivial
    from addpoly.ffield import tower_create

    _verify_sample(tower_create(2, 2, 2), (1, 2), ext_cap=4, trials=4, seed=3)


def test_verify_on_odd_characteristic():
    from addpoly.ffield import tower_create

    _verify_sample(tower_create(3, 1, 2), (1, 2), ext_cap=5, trials=5, seed=9)
    _verify_sample(tower_create(3, 1, 1), (1, 2, 3), ext_cap=8, trials=5, seed=9)
