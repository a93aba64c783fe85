"""Generated JobSpecs, well-formed or not, fed to the in-process CLI: every one must end
with exit code 0, 2 or 3 (and 4, a failed check, for verify) and exactly one JSON
document on stdout, and never raise.

The JobSpecs mix small towers with well-formed polynomials, which reach the tower
search and the species computation, with wrong types, true where an integer
belongs, huge degrees, reducible or misshapen construction polynomials, unknown
fields and deep nesting. verify's JobSpecs add hostile max_ext values, root spaces
past the extension cap at k > 1 and non-squarefree f. Species-shaped JobSpecs give
count many equal blocks or one long block. The draws are derandomized
(tests/conftest.py).
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from addpoly.cli import main

TOWERS = [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 1), (2, 4, 1)]
# stands for 5000 nested lists, too deep to build as Python objects: spliced into the JSON text
DEEP = "deeply nested"
HUGE = st.sampled_from([10**5, 2000, 10**9, 2**64, 10**30])
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.integers(-3, 3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def nested(depth, leaf=0):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def element(p, e, k):
    """The encoding of a random F_q element of tower (p, e, k), nested like ffield's."""
    digit = st.integers(0, p - 1)
    if e > 1:
        digit = st.lists(digit, min_size=e, max_size=e)
    return st.lists(digit, min_size=k, max_size=k) if k > 1 else digit


def one(p, e, k):
    digit = [1] + [0] * (e - 1) if e > 1 else 1
    return [digit] + [[0] * e if e > 1 else 0] * (k - 1) if k > 1 else digit


@st.composite
def well_formed(draw):
    p, e, k = draw(st.sampled_from(TOWERS))
    coeffs = draw(st.lists(element(p, e, k), min_size=1, max_size=5))
    if draw(st.integers(0, 3)):  # mostly monic with a_0 = 1, which species and count accept
        coeffs = [one(p, e, k)] + coeffs[1:] + [one(p, e, k)]
    job = {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": coeffs}}
    if not draw(st.integers(0, 3)):  # an override, irreducible or not, of the right shape or not
        job["m_r" if draw(st.booleans()) else "m_q"] = draw(
            st.lists(st.one_of(st.integers(0, p - 1), JUNK), max_size=e + 2)
        )
    return job


@st.composite
def huge(draw):
    """A well-formed JobSpec with no coefficients over a tower too big for the default search."""
    e, k = draw(st.sampled_from([(HUGE, st.just(1)), (st.just(1), HUGE), (st.integers(2, 9), HUGE)]))
    e, k = draw(e), draw(k)
    job = {"p": draw(st.sampled_from([2, 3, 2**61 - 1])), "e": e, "k": k, "f": {"r_exp": e, "coeffs": []}}
    if draw(st.booleans()):  # an override that is read, then found to have the wrong degree
        job["m_r"] = [1, 1, 1]
    return job


@st.composite
def malformed(draw):
    job = draw(well_formed())
    key = draw(st.sampled_from(["p", "e", "k", "f", "m_r", "m_q", "d", "sed"]))
    job[key] = draw(
        st.one_of(
            JUNK,
            HUGE,
            st.just(True),
            st.integers(1, 12).map(nested),
            st.just(DEEP),
            st.just({"r_exp": job["e"], "coeffs": [nested(50), 1]}),
        )
    )
    return job


def run(argv, text):
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([["species"], ["count"], ["count", "--d", "1"]]),
    st.one_of(well_formed(), malformed(), malformed(), huge()),
)
def test_every_generated_jobspec_ends_with_one_json_document(argv, job):
    code, out = run(argv, json.dumps(job).replace(json.dumps(DEEP), "[" * 5000 + "0" + "]" * 5000))
    assert code in (0, 2, 3), out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert (code == 0) == ("error" not in payload)


@st.composite
def species_shaped(draw):
    """A JobSpec whose species stresses the chain count: central x^(q^E) - x over (2, 1, k),
    k blocks of order E when E is a power of 2, or x^(r^n) + g x over (2, 1, 2) with g
    outside F_r, whose blocks lie over y^2 + y + 1."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 8))
        order = draw(st.one_of(st.sampled_from([1, 2, 4, 8, 16, 32]), st.integers(1, 32)))
        coeffs = [one(2, 1, k)] + [[0] * k if k > 1 else 0] * (k * order - 1) + [one(2, 1, k)]
        return {"p": 2, "e": 1, "k": k, "f": {"r_exp": 1, "coeffs": coeffs}}
    g = draw(st.sampled_from([[0, 1], [1, 1]]))
    coeffs = [g] + [[0, 0]] * (draw(st.integers(1, 512)) - 1) + [[1, 0]]
    return {"p": 2, "e": 1, "k": 2, "f": {"r_exp": 1, "coeffs": coeffs}}


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([["count"], ["count", "--d", "1"]]), species_shaped())
def test_every_species_shaped_count_ends_with_one_json_document(argv, job):
    code, out = run(argv, json.dumps(job))
    assert code in (0, 2, 3), out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert (code == 0) == ("error" not in payload)


# verify builds F_(q^E) and enumerates subspaces, so its towers and exponents stay small
VERIFY_TOWERS = [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2)]
MAX_EXT = st.sampled_from([8, 4, 3, 2, 1, 0, -1, 65, 10**30, True, "8"])


@st.composite
def verify_job(draw):
    p, e, k = draw(st.sampled_from(VERIFY_TOWERS))
    coeffs = draw(st.lists(element(p, e, k), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) < 3:  # mostly monic with a_0 = 1; else a_0 may be 0, not squarefree
        coeffs = [one(p, e, k)] + coeffs[1:] + [one(p, e, k)]
    return {"p": p, "e": e, "k": k, "f": {"r_exp": e, "coeffs": coeffs}, "max_ext": draw(MAX_EXT)}


def job_of(key, coeffs, max_ext):
    return {"p": key[0], "e": key[1], "k": key[2], "f": {"r_exp": key[1], "coeffs": coeffs}, "max_ext": max_ext}


X2_PLUS_X = ((2, 1, 1), [1, 1])  # x^2 + x over F_2, E = 1


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(verify_job())
@example(job_of(*X2_PLUS_X, 0))
@example(job_of(*X2_PLUS_X, -1))
@example(job_of(*X2_PLUS_X, 65))
@example(job_of(*X2_PLUS_X, 10**30))
@example(job_of(*X2_PLUS_X, True))
@example(job_of(*X2_PLUS_X, "8"))
@example(job_of((2, 1, 2), [[1, 1], [0, 0], [1, 1], [1, 0]], 6))  # E = 7 at k = 2
@example(job_of((2, 2, 2), [[[1, 0], [0, 0]], [[1, 1], [0, 0]], [[1, 0], [0, 0]]], 4))  # E = 5
@example(job_of((3, 1, 2), [[2, 1], [0, 0], [1, 0]], 7))  # E = 8 over F_9
@example(job_of((2, 1, 2), [[0, 0], [1, 1], [1, 0]], 8))  # a_0 = 0: not squarefree
def test_every_generated_verify_jobspec_ends_with_one_json_document(job):
    code, out = run(["verify"], json.dumps(job))
    assert code in (0, 2, 3, 4), out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    if "error" in payload:
        assert code in (2, 3, 4), out
    else:
        assert code == (0 if payload["all_pass"] else 4), out
