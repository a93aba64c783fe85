import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from addpoly.cli import COMMANDS, build_parser, main
from addpoly.errors import InputError


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


def _jobspec_f2(coeffs):
    return json.dumps({"p": 2, "e": 1, "k": 1, "f": {"r_exp": 1, "coeffs": coeffs}})


@pytest.mark.parametrize("max_ext", ["5000", "0"])
def test_verify_max_ext_outside_its_range_is_an_input_error(capsys, monkeypatch, max_ext):
    import time

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


def _parsed(only, argv):
    try:
        return vars(build_parser(only).parse_args(argv))
    except InputError as exc:
        return str(exc)


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
    for argv in cases:
        assert _parsed(command, argv) == _parsed(None, argv), argv


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


@pytest.mark.parametrize("p,e,k", [(2, 8, 16), (2, 8, 8), (2, 16, 4)])
def test_tower_past_the_m_q_search_cap_is_exit_3(capsys, monkeypatch, p, e, k):
    # each of these default constructions searched for over 10 s; the cap refuses them at once
    import time

    zero, one = [[0] * e] * k, [[1] + [0] * (e - 1)] + [[0] * e] * (k - 1)
    job = {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": [one, zero, one]}}
    start = time.perf_counter()
    code, out = run(capsys, ["species"], stdin=json.dumps(job), monkeypatch=monkeypatch)
    assert time.perf_counter() - start < 1
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "BudgetExceeded"


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


def test_pretty_output(capsys, monkeypatch):
    code, out = run(capsys, ["mhat", "--n", "0", "--r", "2", "--pretty"])
    assert code == 0
    assert "\n  " in out


def _verify_sample(tw, exponents, ext_cap, trials, seed):
    import random

    from addpoly.additive import central_to_upoly, minimal_central_left_component
    from addpoly.cli import verify_report
    from addpoly.errors import Overflow
    from addpoly.upoly import order_of_y_mod
    from helpers import random_additive

    rng = random.Random(seed)
    done = 0
    while done < trials:
        f = random_additive(tw, rng.choice(exponents), rng)
        try:
            order_of_y_mod(central_to_upoly(minimal_central_left_component(f)), cap=ext_cap)
        except Overflow:
            continue
        assert verify_report(f, max_ext=ext_cap)["all_pass"]
        done += 1


def test_verify_on_proper_tower_chain():
    # q = 16 over r = 4 over p = 2: both extension steps nontrivial
    from addpoly.ffield import tower_create

    _verify_sample(tower_create(2, 2, 2), (1, 2), ext_cap=4, trials=4, seed=3)


def test_verify_on_odd_characteristic():
    from addpoly.ffield import tower_create

    _verify_sample(tower_create(3, 1, 2), (1, 2), ext_cap=5, trials=5, seed=9)
    _verify_sample(tower_create(3, 1, 1), (1, 2, 3), ext_cap=8, trials=5, seed=9)
