"""Every budget refuses through errors.admit. Checked here: that no other module builds a
budget error, that a refusal's request stays printable, the refusals that only a direct call
reaches, and for the oracle's root-space and root-product budgets the largest admitted and
the smallest refused member of the family each limit was measured on, through cli.main."""

import ast
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from addpoly.cli import main
from addpoly.errors import BudgetExceeded, ExtensionTooLarge, admit
from addpoly.oracle import maximal_chains_brute
from addpoly.upoly import UPoly, roots
from corpus import tower

SRC = Path(__file__).resolve().parents[1] / "src"


def fields(error):
    return error.budget, error.limit, error.requested


def test_no_module_but_errors_builds_a_budget_error():
    # a budget that bypassed admit would refuse without its three fields
    built = []
    for path in sorted((SRC / "addpoly").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
            if getattr(target, "id", getattr(target, "attr", None)) in ("BudgetExceeded", "ExtensionTooLarge"):
                built.append(f"{path.name}:{node.lineno}")
    assert built == []


def test_admit_refuses_only_past_the_limit_and_keeps_the_request_printable():
    assert admit("b", 5, 5) is None
    with pytest.raises(ExtensionTooLarge) as refused:
        admit("b", 5, (1 << 64) - 1, ExtensionTooLarge)
    assert fields(refused.value) == ("b", 5, (1 << 64) - 1)
    with pytest.raises(BudgetExceeded) as refused:
        admit("b", 5, 3**40000)  # 19,085 digits, past Python's int-to-str limit
    assert fields(refused.value) == ("b", 5, ">= 2^63398")
    assert str(refused.value) == ">= 2^63398 exceeds the b budget of 5"


def test_the_chain_walk_refuses_past_its_point_budget():
    # verify cannot reach this budget: its root products admit r^n <= 256 points at d = n
    field = tower(2, 1, 1).fr
    mat = [[field.one if i == j else field.zero for j in range(21)] for i in range(21)]
    with pytest.raises(BudgetExceeded) as refused:
        maximal_chains_brute(field, mat)
    assert fields(refused.value) == ("chain walk", 1 << 20, 1 << 21)


def test_the_root_scan_refuses_past_its_cap():
    field = tower(2, 1, 17).fq
    with pytest.raises(BudgetExceeded) as refused:
        roots(UPoly(field, [field.one, field.one]))
    assert fields(refused.value) == ("root scan", 1 << 16, 1 << 17)


def test_trial_division_at_d_0_lists_no_field():
    # F_(2^40) has no room for a list of its elements; the child's address space is capped
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from addpoly.ffield import tower_create\n"
        "from addpoly.oracle import right_components_by_division\n"
        "from addpoly.additive import AdditivePoly\n"
        "tw = tower_create(2, 40, 1)\n"
        "f = AdditivePoly(tw, [tw.fq.one, tw.fq.one])\n"
        "print(right_components_by_division(f, 0) == [AdditivePoly.identity(tw)])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def verify(capsys, monkeypatch, p, k, coeffs):
    """cli.main's verify on sum coeffs[i] x^(p^i) over (p, 1, k), coefficients in F_p: the exit
    code, the document and the seconds it took."""
    one = 1 if k == 1 else [1] + [0] * (k - 1)
    zero = 0 if k == 1 else [0] * k
    job = {"p": p, "e": 1, "k": k, "f": {"r_exp": 1, "coeffs": [one if c else zero for c in coeffs]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(job)))
    start = time.perf_counter()
    code = main(["verify"])
    return code, json.loads(capsys.readouterr().out), time.perf_counter() - start


# x^(p^2) + x^p + x over (p, 1, k) has E = 3 for k prime to 3, so its root space's side is 3k.
# Over F_3 the kernel is the slow one (1.2 s at k = 64); over F_2 it takes 0.15 s.
def test_the_largest_admitted_root_space_ends_within_3_s(capsys, monkeypatch):
    code, payload, seconds = verify(capsys, monkeypatch, 3, 64, [1, 1, 1])
    assert code == 0 and payload["all_pass"] is True
    assert seconds < 3


def test_the_smallest_refused_root_space_is_refused_within_50_ms(capsys, monkeypatch):
    code, payload, seconds = verify(capsys, monkeypatch, 2, 65, [1, 1, 1])
    assert code == 3 and seconds < 0.05
    error = payload["error"]
    assert (error["type"], error["budget"], error["limit"], error["requested"]) == (
        "BudgetExceeded", "root space", 192, 195
    )


# x^p + x over (p, 1, 1): one invariant line of p roots in F_(p^2), where the product tree
# multiplies by schoolbook (0.8 s at p = 251); over gf2x's fields 2^14 roots take 0.9 s.
def test_the_largest_admitted_root_product_ends_within_3_s(capsys, monkeypatch):
    code, payload, seconds = verify(capsys, monkeypatch, 251, 1, [1, 1])
    assert code == 0 and payload["all_pass"] is True
    assert seconds < 3


def test_the_smallest_refused_root_product_is_refused_within_50_ms(capsys, monkeypatch):
    code, payload, seconds = verify(capsys, monkeypatch, 257, 1, [1, 1])
    assert code == 3 and seconds < 0.05
    error = payload["error"]
    assert (error["type"], error["budget"], error["limit"], error["requested"]) == (
        "BudgetExceeded", "root products", 256, 257
    )
