"""Property tests: ``validate`` and ``edgebudget verify`` against a slow checker.

The checker restates the certificate definition with trial-division
primality and exact integer arithmetic, sharing no code with the package.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from edgebudget import Witness, validate
from edgebudget.cli import EXIT_ERROR, EXIT_NO_WITNESS, EXIT_OK, main
from oracles import trial_division_is_prime, trial_division_lpf
from test_sieve import MR_BOUNDS, PSI

FIELDS = ("n", "k", "p", "q", "r", "score")


def slow_score(k, p, q, r) -> int:
    return min(p * p * k, p * k * r, q * r)


def slow_valid(n, k, p, q, r, score) -> bool:
    """(k, p, q, r) certifies n with this score: k >= 1, primes p, q, r,
    n = k p + r, q | r - 1 and score = min{p^2 k, p k r, q r}."""
    return (
        k >= 1
        and all(trial_division_is_prime(v) for v in (p, q, r))
        and n == k * p + r
        and (r - 1) % q == 0
        and score == slow_score(k, p, q, r)
    )


def run_verify(text: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--input", "-"])
    return code, out.getvalue()


def check_against_slow(doc: dict) -> None:
    fields = [doc[key] for key in FIELDS[1:5]]
    score = doc["score"] if "score" in doc else slow_score(*fields)
    want = slow_valid(doc["n"], *fields, score)
    assert validate(doc["n"], Witness(*fields, score)) is want, doc
    code, out = run_verify(json.dumps(doc))
    assert code == (EXIT_OK if want else EXIT_NO_WITNESS), doc
    assert json.loads(out) == {"n": doc["n"], "valid": want}, doc


SMALL_PRIMES = [v for v in range(2, 400) if trial_division_is_prime(v)]


@st.composite
def certificates(draw) -> dict:
    """A valid certificate with small fields: q is a prime divisor of r - 1."""
    r = draw(st.sampled_from(SMALL_PRIMES[1:]))
    q = draw(st.sampled_from([v for v in SMALL_PRIMES if (r - 1) % v == 0]))
    p = draw(st.sampled_from(SMALL_PRIMES))
    k = draw(st.integers(1, 60))
    return {"n": k * p + r, "k": k, "p": p, "q": q, "r": r, "score": slow_score(k, p, q, r)}


# half the draws are small primes, and n and the score are mostly exact, so
# about one random quadruple in a hundred is a valid certificate
small = st.one_of(st.sampled_from(SMALL_PRIMES[:12]), st.integers(-3, 100))
shift = st.sampled_from([0, 0, 0, 1, -1])


@settings(max_examples=300, deadline=None)
@given(small, small, small, st.integers(-2, 30), shift, shift)
def test_random_small_quadruples(p, q, r, k, n_shift, score_shift):
    n = k * p + r + n_shift
    score = slow_score(k, p, q, r) + score_shift
    check_against_slow({"n": n, "k": k, "p": p, "q": q, "r": r, "score": score})


@settings(max_examples=300, deadline=None)
@given(certificates(), st.sampled_from(FIELDS), st.integers(-4, 4), st.booleans())
def test_single_field_corruptions(doc, field, delta, drop_score):
    assert slow_valid(*doc.values())
    check_against_slow(doc)
    doc[field] += delta  # delta 0 leaves the certificate valid
    if drop_score:
        del doc["score"]  # verify then recomputes the score itself
    check_against_slow(doc)


@settings(max_examples=300, deadline=None)
@given(certificates(), st.sampled_from(("k", "p", "q", "r")), st.integers(-4, 4), st.data())
def test_corruptions_with_n_and_score_recomputed(doc, field, delta, data):
    # n and the score follow the corrupted field, so only k >= 1, the
    # primality of p, q, r and q | r - 1 are left to reject the certificate
    if field == "q":  # any divisor of r - 1: 1, composites and r - 1 itself
        divisors = [v for v in range(1, doc["r"]) if (doc["r"] - 1) % v == 0]
        doc["q"] = data.draw(st.sampled_from(divisors))
    else:
        doc[field] += delta
    k, p, q, r = (doc[key] for key in ("k", "p", "q", "r"))
    doc["n"], doc["score"] = k * p + r, slow_score(k, p, q, r)
    check_against_slow(doc)


@settings(max_examples=200, deadline=None)
@given(certificates(), st.sampled_from(FIELDS), st.data())
def test_non_integer_json_fields_exit_1(doc, field, data):
    value = doc[field]
    doc[field] = data.draw(st.sampled_from([True, False, float(value), value + 0.5, str(value)]))
    code, out = run_verify(json.dumps(doc))
    assert (code, out) == (EXIT_ERROR, ""), doc
    assert validate(doc["n"], Witness(*(doc[key] for key in FIELDS[1:]))) is False, doc


def test_strong_pseudoprime_r_is_refused():
    # r is the least composite that a weaker base set passes: psi_k of OEIS
    # A014233 (the first k prime bases), or a bound of sieve._MR_SETS (its own
    # row's bases). Every other check holds: p = 2, q = P(r - 1), k = 1,
    # n = p + r and the score recomputed
    for r in [psi for psi, _ in PSI.values()] + list(MR_BOUNDS):
        q = trial_division_lpf(r - 1)
        doc = {"n": 2 + r, "k": 1, "p": 2, "q": q, "r": r, "score": slow_score(1, 2, q, r)}
        assert validate(doc["n"], Witness(*(doc[key] for key in FIELDS[1:]))) is False, r
        code, out = run_verify(json.dumps(doc))
        assert (code, json.loads(out)) == (EXIT_NO_WITNESS, {"n": doc["n"], "valid": False}), r
