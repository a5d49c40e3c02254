import json
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgebudget import (
    PRESETS,
    RSet,
    SurveyConfig,
    Witness,
    bs_max_pdiff,
    build_rset,
    exponent_stats,
    rset_density,
    strategy_bv,
    strategy_smooth,
    survey_range,
    validate,
)
from edgebudget.survey import SURVEY_CSV_HEADER, SurveyRecord, SurveyReport
from edgebudget.util import json9, round9
from edgebudget.witness import F_EXACT_MAX_N


def pointwise_lpf(k):
    if k == 1:
        return 0
    best = 0
    d = 2
    while d * d <= k:
        while k % d == 0:
            best = d
            k //= d
        d += 1
    return max(best, k if k > 1 else 0)


def brute_exceptional_set(x, alpha, gamma, c0):
    """Independent double loop over (n, r): no sieve tables, no rset reuse."""

    def isp(v):
        return v >= 2 and all(v % d for d in range(2, int(v**0.5) + 1))

    r_lo, r_hi = math.ceil(c0 * x), x // 4
    rough = [
        r for r in range(max(2, r_lo), r_hi + 1) if isp(r) and pointwise_lpf(r - 1) > r**alpha
    ]
    out = []
    for n in range(-(-x // 2), x + 1):
        if not any(pointwise_lpf(n - r) >= n**gamma for r in rough):
            out.append(n)
    return out


def test_survey_worked_example():
    report = survey_range(100, SurveyConfig(alpha=0.5, gamma=0.5, c0=0.05))
    assert report.x == 100
    assert [rec.n for rec in report.records] == list(range(50, 101))
    by_n = {rec.n: rec for rec in report.records}
    assert by_n[100].witness == Witness(3, 31, 3, 7, 21)
    assert by_n[100].strategy == "smooth"
    for rec in report.records:
        if rec.witness is not None:
            assert validate(rec.n, rec.witness), rec.n
            assert rec.beta == pytest.approx(math.log(rec.witness.score) / math.log(rec.n))


def test_survey_with_empty_rset_marks_everything_exceptional():
    report = survey_range(100, SurveyConfig(alpha=0.99, gamma=0.5, c0=0.05))
    assert report.exceptional_count == 100 - 50 + 1
    assert report.beta_stats is None


def test_survey_matches_brute_force_double_loop():
    config = SurveyConfig()  # alpha = gamma = 0.677, c0 = 0.05
    for x in (200, 1000, 2000):
        report = survey_range(x, config)
        mine = [rec.n for rec in report.records if rec.exceptional]
        assert mine == brute_exceptional_set(x, config.alpha, config.gamma, config.c0), x


def test_survey_bv_fallback_fills_smooth_misses():
    smooth_only = survey_range(1000, SurveyConfig())
    both = survey_range(1000, SurveyConfig(use_bv=True))
    assert both.exceptional_count <= smooth_only.exceptional_count
    for rec in both.records:
        if rec.strategy == "bv":
            assert validate(rec.n, rec.witness)


def test_survey_minimum_range():
    report = survey_range(8, SurveyConfig())
    assert [rec.n for rec in report.records] == [4, 5, 6, 7, 8]
    assert report.exceptional_count == 5  # the rset over [1, 2] is empty


def test_survey_rejects_x_beyond_int64_range_before_allocating():
    # a table of ~1.5e9 int64 entries would be attempted without the guard
    with pytest.raises(ValueError, match="x <="):
        survey_range(F_EXACT_MAX_N + 1)


def test_survey_rejects_bad_input():
    with pytest.raises(ValueError):
        survey_range(7)
    with pytest.raises(ValueError):
        survey_range(100, SurveyConfig(alpha=1.2))
    with pytest.raises(ValueError):
        survey_range(100, SurveyConfig(c0=0.3))
    with pytest.raises(ValueError):
        survey_range(100, SurveyConfig(use_smooth=False, use_bv=False))


def per_n_survey(x, config):
    """The per-n path: strategy_smooth on the RSet, then strategy_bv, one n at a time."""
    lo, hi = max(1, math.ceil(config.c0 * x)), x // 4
    empty = np.zeros(0, dtype=np.int64)
    rset = build_rset(lo, hi, config.alpha) if lo <= hi else RSet(empty, empty)
    records = []
    for n in range(-(-x // 2), x + 1):
        w, tag = None, None
        if config.use_smooth:
            w = strategy_smooth(n, rset, config.gamma)
            tag = "smooth" if w is not None else None
        if w is None and config.use_bv:
            w = strategy_bv(n, config.eps)
            tag = "bv" if w is not None else None
        beta = math.log(w.score) / math.log(n) if w is not None else None
        records.append(SurveyRecord(n, tag, w, beta))
    return records


def test_survey_matches_per_n_strategies():
    rng = random.Random(17)
    configs = (
        PRESETS["corollary-1"],
        PRESETS["corollary-2"],
        SurveyConfig(alpha=0.5, gamma=0.5, c0=0.2, use_bv=True),
    )
    # at x = 12, gamma = 0.5: n = 9 is settled by P(n - r) = 3 = n**gamma exactly
    for x in [8, 12, 3000] + [rng.randrange(8, 3001) for _ in range(6)]:
        for config in configs:
            assert survey_range(x, config).records == per_n_survey(x, config), (x, config)


def test_survey_with_empty_rset_interval():
    # ceil(0.249 * 101) = 26 > 25 = floor(101 / 4): the RSet is empty, not an error
    config = SurveyConfig(c0=0.249)
    report = survey_range(101, config)
    assert report.exceptional_count == 101 - 51 + 1
    both = survey_range(101, SurveyConfig(c0=0.249, use_bv=True))
    assert [rec.witness for rec in both.records] == [strategy_bv(n, 0.05) for n in range(51, 102)]
    assert both.records == per_n_survey(101, both.config)


def test_presets():
    assert PRESETS["corollary-1"].gamma == 0.677
    assert PRESETS["corollary-2"].gamma == 0.5
    assert PRESETS["corollary-1"].alpha == PRESETS["corollary-2"].alpha == 0.677


def smooth_report(x, ns, scores, betas):
    """A report built from columns: witness (1, 2, 2, 3, score) at each n, or
    an exceptional n where the score is 0."""
    scores = np.asarray(scores, dtype=np.int64)
    wit = np.zeros((5, scores.size), dtype=np.int64)
    wit[:, scores > 0] = np.array([[1], [2], [2], [3], [0]])
    wit[4] = scores
    tag = (scores > 0).astype(np.int8)  # 1 indexes "smooth"
    return SurveyReport(x, SurveyConfig(), np.asarray(ns, dtype=np.int64), tag, wit, np.asarray(betas))


def test_exponent_stats_single_records():
    def one_record_report(n, score_value):
        return smooth_report(n, [n], [score_value], [math.log(score_value) / math.log(n)])

    report = one_record_report(10, 10)
    assert report.records == [SurveyRecord(10, "smooth", Witness(1, 2, 2, 3, 10), 1.0)]
    assert exponent_stats(report) == pytest.approx((1.0, 1.0, 1.0))
    stats = exponent_stats(one_record_report(9, 8))
    assert stats[1] == pytest.approx(math.log(8) / math.log(9), abs=1e-9)


def test_exponent_stats_degenerate_distribution():
    report = smooth_report(30, [10, 20, 30], [10, 20, 30], [1.0, 1.0, 1.0])
    assert exponent_stats(report) == (1.0, 1.0, 1.0)


def test_exponent_stats_requires_a_success():
    report = smooth_report(10, [10], [0], [math.nan])
    assert report.records == [SurveyRecord(10, None, None, None)]
    with pytest.raises(ValueError):
        exponent_stats(report)


def test_rset_density_examples():
    count, ratio = rset_density(25, 0.5)
    assert count == 4
    assert ratio == pytest.approx(4 / (25 / math.log(25)), abs=1e-9)
    assert rset_density(2, 0.9) == (0, 0.0)
    with pytest.raises(ValueError):
        rset_density(1, 0.5)


def test_bs_max_pdiff_examples():
    assert bs_max_pdiff(range(1, 11), range(1, 11)) == (7, (8, 1))
    assert bs_max_pdiff({2, 9}, {2}) == (7, (9, 2))
    assert bs_max_pdiff({1, 2}, {1, 2}) == (0, (2, 1))  # P(1) = 0
    with pytest.raises(ValueError):
        bs_max_pdiff({5}, {5})
    with pytest.raises(ValueError):
        bs_max_pdiff(set(), {1})
    with pytest.raises(ValueError):
        bs_max_pdiff({0, 3}, {1})


def test_bs_max_pdiff_matches_exhaustive_small_sets():
    rng = random.Random(99)
    for _ in range(25):
        a_vals = rng.sample(range(1, 300), rng.randrange(2, 25))
        b_vals = rng.sample(range(1, 300), rng.randrange(2, 25))
        pairs = [(a, b) for a in a_vals for b in b_vals if a != b]
        if not pairs:
            continue
        expected = max(pointwise_lpf(abs(a - b)) for a, b in pairs)
        max_p, (a, b) = bs_max_pdiff(a_vals, b_vals)
        assert max_p == expected
        assert a in a_vals and b in b_vals and pointwise_lpf(abs(a - b)) == max_p


def test_report_json_round_trip():
    report = survey_range(100, SurveyConfig(alpha=0.5, gamma=0.5))
    doc = json.loads(report.to_json())
    assert doc["x"] == 100
    assert doc["config"]["strategies"] == ["smooth"]
    assert doc["exceptional_count"] == report.exceptional_count
    row = next(r for r in doc["records"] if r["n"] == 100)
    assert (row["k"], row["p"], row["q"], row["r"], row["score"]) == (3, 31, 3, 7, 21)
    for row in doc["records"]:
        if not row["exceptional"]:
            w = Witness(row["k"], row["p"], row["q"], row["r"], row["score"])
            assert validate(row["n"], w)


def test_report_csv_shape():
    report = survey_range(100, SurveyConfig(alpha=0.5, gamma=0.5))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == SURVEY_CSV_HEADER
    assert len(lines) == 1 + len(report.records)
    exceptional = [line for line in lines[1:] if line.endswith(",1")]
    assert len(exceptional) == report.exceptional_count
    assert lines[-1].startswith("100,smooth,3,31,3,7,21,")


def records_json(report):
    """The report's JSON built from its ``records`` view alone, with json.dumps."""
    rows, betas = [], []
    for rec in report.records:
        if rec.exceptional:
            rows.append({"n": rec.n, "exceptional": True})
            continue
        w = rec.witness
        betas.append(rec.beta)
        rows.append({"n": rec.n, "strategy": rec.strategy, "k": w.k, "p": w.p, "q": w.q, "r": w.r,
                     "score": w.score, "beta": round9(rec.beta), "exceptional": False})
    stats = None
    if betas:
        values = (min(betas), statistics.median(betas), statistics.fmean(betas))
        stats = dict(zip(("min", "median", "mean"), map(round9, values)))
    c = report.config
    doc = {
        "x": report.x,
        "config": {"alpha": c.alpha, "gamma": c.gamma, "c0": c.c0, "eps": c.eps,
                   "strategies": list(c.strategies)},
        "exceptional_count": sum(rec.exceptional for rec in report.records),
        "beta_stats": stats,
        "records": rows,
    }
    return json.dumps(doc, separators=(",", ":"))


def records_csv(report):
    """The report's CSV built from its ``records`` view alone."""
    lines = [SURVEY_CSV_HEADER]
    for rec in report.records:
        w = rec.witness
        lines.append(f"{rec.n},,,,,,,,1" if rec.exceptional else
                     f"{rec.n},{rec.strategy},{w.k},{w.p},{w.q},{w.r},{w.score},{rec.beta:.9g},0")
    return "\n".join(lines) + "\n"


def test_columns_and_records_emit_the_same_bytes():
    configs = (
        PRESETS["corollary-1"],
        PRESETS["corollary-2"],
        SurveyConfig(use_bv=True),
        SurveyConfig(alpha=0.5, gamma=0.5, c0=0.2, use_bv=True),
        SurveyConfig(c0=0.249),
        SurveyConfig(c0=0.249, use_bv=True),
    )
    # at x = 12, gamma = 0.5: n = 9 is settled by P(n - r) = 3 = n**gamma exactly
    for x in (12, 101, 300, 3000):
        for config in configs:
            report = survey_range(x, config)
            assert [rec.n for rec in report.records] == report.n.tolist(), (x, config)
            assert report.to_json() == records_json(report), (x, config)
            assert report.to_csv() == records_csv(report), (x, config)


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(1.0)
@example(2.0)
@example(1e-05)
@example(1e16)
@example(123456789012.0)  # .9g gives 1.23456789e+11; JSON holds 123456789000.0
def test_json9_matches_json_dumps_of_round9(b):
    assert json9(b) == json.dumps(round9(b))
