import dataclasses
import json
import math
import random
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest

from edgebudget import (
    PRESETS,
    RSet,
    SurveyConfig,
    Witness,
    bs_max_pdiff,
    build_rset,
    rset_density,
    strategy_bv,
    strategy_smooth,
    survey_range,
    validate,
)
from edgebudget import sieve
from edgebudget.survey import (
    _CSV_ROW,
    _JSON_ROW,
    SCAN_MAX_N,
    SURVEY_CSV_HEADER,
    TEXT_BLOCK,
    TIE_BAND,
    SurveyReport,
    _by_rint,
    _digits,
    _report,
    _width,
)
from edgebudget.util import log_each, power_threshold, round9
from edgebudget.witness import _rset_interval
from oracles import exact_threshold, trial_division_is_prime, trial_division_lpf
from test_witness import assert_words_each_range


def brute_exceptional_set(x, alpha, gamma, c0):
    """Independent double loop over (n, r): no sieve tables, no rset reuse."""
    r_lo, r_hi = math.ceil(c0 * x), x // 4
    rough = [
        r
        for r in range(max(2, r_lo), r_hi + 1)
        if trial_division_is_prime(r) and trial_division_lpf(r - 1) > r**alpha
    ]
    out = []
    for n in range(-(-x // 2), x + 1):
        if not any(trial_division_lpf(n - r) >= n**gamma for r in rough):
            out.append(n)
    return out


def joined(report, csv=False):
    """The report's text, as ``edgebudget survey`` writes it."""
    return "".join(report.text(csv))


def report_rows(report):
    """The report's columns read back per n: (n, strategy, Witness, beta), or
    (n, None, None, None) where n is exceptional; every value a Python scalar."""
    tags = (None, "smooth", "bv")
    cols = (report.n, report.tag, report.k, report.p, report.q, report.r, report.score, report.beta)
    return [
        (n, tags[t], Witness(k, p, q, r, s), b) if t else (n, None, None, None)
        for n, t, k, p, q, r, s, b in zip(*(c.tolist() for c in cols))
    ]


def test_survey_worked_example():
    report = survey_range(100, SurveyConfig(alpha=0.5, gamma=0.5, c0=0.05))
    assert report.x == 100
    assert report.n.tolist() == list(range(50, 101))
    rows = report_rows(report)
    assert rows[-1][:3] == (100, "smooth", Witness(3, 31, 3, 7, 21))
    for n, _, w, beta in rows:
        if w is not None:
            assert validate(n, w), n
            assert beta == pytest.approx(math.log(w.score) / math.log(n))


def test_survey_with_empty_rset_marks_everything_exceptional():
    report = survey_range(100, SurveyConfig(alpha=0.99, gamma=0.5, c0=0.05))
    assert report.exceptional_count == 100 - 50 + 1
    assert report.beta_stats is None


def test_survey_matches_brute_force_double_loop():
    config = SurveyConfig()  # alpha = gamma = 0.677, c0 = 0.05
    for x in (200, 1000, 2000):
        report = survey_range(x, config)
        mine = report.n[report.tag == 0].tolist()
        assert mine == brute_exceptional_set(x, config.alpha, config.gamma, config.c0), x


def test_survey_bv_fallback_fills_smooth_misses():
    smooth_only = survey_range(1000, SurveyConfig())
    both = survey_range(1000, SurveyConfig(strategies=("smooth", "bv")))
    assert both.exceptional_count <= smooth_only.exceptional_count
    for n, strategy, w, _ in report_rows(both):
        if strategy == "bv":
            assert validate(n, w)


def test_survey_minimum_range():
    report = survey_range(8, SurveyConfig())
    assert report.n.tolist() == [4, 5, 6, 7, 8]
    assert report.exceptional_count == 5  # the rset over [1, 2] is empty


def test_survey_rejects_x_beyond_int64_range_before_allocating():
    # a table of ~1.5e9 int64 entries would be attempted without the guard
    with pytest.raises(ValueError, match="x <="):
        survey_range(SCAN_MAX_N + 1)


def test_survey_rejects_bad_input():
    with pytest.raises(ValueError):
        survey_range(7)

def test_survey_config_checks_itself_on_construction():
    for fields, message in (
        ({"alpha": 1.2}, "alpha must lie in"),
        ({"gamma": 0.0}, "gamma must lie in"),
        ({"c0": 0.3}, "c0 must lie in"),
        ({"eps": -0.1}, "eps must lie in"),
        ({"strategies": ()}, "at least one strategy"),
        ({"strategies": "smooth"}, "strategies"),
        ({"strategies": ("smooth", "exact")}, "unknown strategy 'exact'"),
        ({"strategies": ("warp", "exact")}, "unknown strategy 'warp'"),
    ):
        with pytest.raises(ValueError, match=message):
            SurveyConfig(**fields)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(SurveyConfig(), **fields)
    # the names are stored in registry order with repeats dropped
    both = SurveyConfig(strategies=("smooth", "bv"))
    assert both.strategies == ("smooth", "bv")
    assert SurveyConfig(strategies=("bv", "smooth")) == both
    assert SurveyConfig(strategies=["smooth", "smooth", "bv"]) == both
    assert dataclasses.replace(SurveyConfig(), strategies=("bv", "bv")).strategies == ("bv",)
    assert SurveyConfig().strategies == ("smooth",)
    # NaN, both infinities and both ends of each range, worded as every other entry point words them
    assert_words_each_range("SurveyConfig")
    # with every range broken, the first field is named, then the next one fixed
    broken = {"alpha": 0.0, "gamma": 0.0, "c0": 0.0, "eps": 0.25}
    for name in list(broken):
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            SurveyConfig(**broken)
        del broken[name]


def per_n_survey(x, config):
    """The per-n path: strategy_smooth on the RSet, then strategy_bv, one n at a
    time, as ``report_rows`` rows."""
    lo, hi = max(1, math.ceil(config.c0 * x)), x // 4
    empty = np.zeros(0, dtype=np.int64)
    rset = build_rset(lo, hi, config.alpha) if lo <= hi else RSet(empty, empty)
    rows = []
    for n in range(-(-x // 2), x + 1):
        w, tag = None, None
        if "smooth" in config.strategies:
            w = strategy_smooth(n, rset, config.gamma)
            tag = "smooth" if w is not None else None
        if w is None and "bv" in config.strategies:
            w = strategy_bv(n, config.eps)
            tag = "bv" if w is not None else None
        beta = math.log(w.score) / math.log(n) if w is not None else None
        rows.append((n, tag, w, beta))
    return rows


def test_survey_matches_per_n_strategies():
    rng = random.Random(17)
    configs = (
        PRESETS["corollary-1"],
        PRESETS["corollary-2"],
        SurveyConfig(alpha=0.5, gamma=0.5, c0=0.2, strategies=("smooth", "bv")),
    )
    # at x = 12, gamma = 0.5: n = 9 is settled by P(n - r) = 3 = n**gamma exactly
    for x in [8, 12, 3000] + [rng.randrange(8, 3001) for _ in range(6)]:
        for config in configs:
            assert report_rows(survey_range(x, config)) == per_n_survey(x, config), (x, config)


def test_survey_with_empty_rset_interval():
    # ceil(0.249 * 101) = 26 > 25 = floor(101 / 4): the RSet is empty, not an error
    config = SurveyConfig(c0=0.249)
    report = survey_range(101, config)
    assert report.exceptional_count == 101 - 51 + 1
    both = survey_range(101, SurveyConfig(c0=0.249, strategies=("smooth", "bv")))
    assert [w for _, _, w, _ in report_rows(both)] == [strategy_bv(n, 0.05) for n in range(51, 102)]
    assert report_rows(both) == per_n_survey(101, both.config)


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


def test_beta_stats_single_records():
    def one_record_report(n, score_value):
        return smooth_report(n, [n], [score_value], [math.log(score_value) / math.log(n)])

    report = one_record_report(10, 10)
    assert report_rows(report) == [(10, "smooth", Witness(1, 2, 2, 3, 10), 1.0)]
    assert report.beta_stats == pytest.approx((1.0, 1.0, 1.0))
    stats = one_record_report(9, 8).beta_stats
    assert stats[1] == pytest.approx(math.log(8) / math.log(9), abs=1e-9)


def test_beta_stats_degenerate_distribution():
    report = smooth_report(30, [10, 20, 30], [10, 20, 30], [1.0, 1.0, 1.0])
    assert report.beta_stats == (1.0, 1.0, 1.0)


def test_beta_stats_equal_the_statistics_module_exactly():
    rng = random.Random(25)
    for size in (1, 2, 3, 4, 7, 10, 1001, 1002):
        betas = [1 + rng.random() for _ in range(size)]
        betas[rng.randrange(size)] = math.nan  # an exceptional n, which no statistic sees
        ns = list(range(100, 100 + size))
        report = smooth_report(ns[-1], ns, [0 if math.isnan(b) else 7 for b in betas], betas)
        found = [b for b in betas if not math.isnan(b)]
        want = (min(found), statistics.median(found), statistics.fmean(found)) if found else None
        assert report.beta_stats == want, size


def test_beta_stats_mean_is_fsums_bit_for_bit(monkeypatch):
    def mean_of(betas):
        ns = list(range(10, 10 + len(betas)))
        return smooth_report(ns[-1], ns, [7] * len(betas), betas).beta_stats[2]

    rng = random.Random(37)
    lowest, highest = 2.0**-9, math.nextafter(2.0, 0.0)
    in_range = []
    for size in (1, 2, TEXT_BLOCK, TEXT_BLOCK + 1, 2 * TEXT_BLOCK + 7, 3 * TEXT_BLOCK):
        # every binade of [2**-9, 2), full 53-bit fractions, and both ends
        betas = [math.ldexp(1 + rng.random(), rng.randrange(-9, 1)) for _ in range(size)]
        betas[rng.randrange(size)] = lowest
        betas[rng.randrange(size)] = highest
        in_range.append(betas)
    # exactly halfway between two doubles: 2.5 + 2**-52 rounds to even, 2.5
    in_range += [[1.5, 1 + 2**-52], [1 + 2**-52, 1.5], [highest] * 3, [lowest], [1.2345]]
    want = [math.fsum(betas) / len(betas) for betas in in_range]
    # inside [2**-9, 2) the mean is the fixed-point sum's, not math.fsum's
    with monkeypatch.context() as patched:
        patched.setattr(math, "fsum", None)
        got = [mean_of(betas) for betas in in_range]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert want[-5] == 1.25
    # a beta outside the range takes math.fsum: negative, large, or too fine for 2**-61
    for outlier in (-0.5, 2.0, 1e300, math.ldexp(1 + 2**-52, -10), 1e-300):
        for betas in ([outlier], [1.5, outlier], [1 + rng.random() for _ in range(TEXT_BLOCK + 5)] + [outlier]):
            assert mean_of(betas).hex() == (math.fsum(betas) / len(betas)).hex(), outlier


def test_beta_stats_is_none_without_a_success():
    report = smooth_report(10, [10], [0], [math.nan])
    assert report_rows(report) == [(10, None, None, None)]
    assert report.beta_stats is None
    assert report.exceptional_count == 1


def test_rset_density_examples():
    count, ratio = rset_density(25, 0.5)
    assert count == 4
    assert ratio == pytest.approx(4 / (25 / math.log(25)), abs=1e-9)
    assert rset_density(2, 0.9) == (0, 0.0)
    with pytest.raises(ValueError):
        rset_density(1, 0.5)
    with pytest.raises(TypeError):
        rset_density(100.5, 0.5)
    # the int64 limit, refused before the first window
    with pytest.raises(ValueError, match="z <= 9223372036854775807"):
        rset_density(2**63, 0.5)


def test_rset_density_counts_the_one_shot_rset(monkeypatch):
    def one_shot(z, alpha):
        count = build_rset(1, z, alpha).members.size
        return count, count / (z / math.log(z))

    # one window, a full window, and a full window plus a one-number (narrow) window
    segment = sieve.SEGMENT_LENGTH
    for z in (segment - 1, segment, segment + 1):
        assert rset_density(z, 0.677) == one_shot(z, 0.677), z
    # many windows, the last of any width; the windows read SEGMENT_LENGTH at call time
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 64)
    for z in (2, 3, 63, 64, 65, 127, 128, 129, 1000, 4099):
        for alpha in (0.3, 0.677, 1.0):
            assert rset_density(z, alpha) == one_shot(z, alpha), (z, alpha)


def test_rset_density_memory_is_one_window(monkeypatch):
    # windows of 1, 2, 4, ... 2048 numbers, then 31 of 4096 and a last one of 1:
    # the count holds one window's tables at a time (about 24 bytes per
    # number of a 4096-number window), where the one-shot
    # build_rset(1, z) holds tables over all of [1, z] (about 430 per number
    # of one window here)
    monkeypatch.setattr(sieve, "SEGMENT_LENGTH", 4096)
    z = 32 * 4096
    rset_density(z, 0.677)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        count, _ = rset_density(z, 0.677)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == build_rset(1, z, 0.677).members.size
    assert peak <= 48 * 4096, peak


def test_bs_max_pdiff_examples():
    assert bs_max_pdiff(range(1, 11), range(1, 11)) == (7, (8, 1))
    assert bs_max_pdiff({2, 9}, {2}) == (7, (9, 2))
    assert bs_max_pdiff({1, 2}, {1, 2}) == (0, (2, 1))  # P(1) = 0
    with pytest.raises(ValueError):
        bs_max_pdiff({5}, {5})
    with pytest.raises(ValueError):
        bs_max_pdiff(set(), {1})
    with pytest.raises(ValueError, match="^bs_max_pdiff requires each element >= 1$"):
        bs_max_pdiff({0, 3}, {1})
    too_big = f"^bs_max_pdiff supports each element <= {2**63 - 1}$"
    for big in ([2**64], [1, 2**63]):  # beyond int64, refused before any array is built
        with pytest.raises(ValueError, match=too_big):
            bs_max_pdiff(big, [1])
        with pytest.raises(ValueError, match=too_big):
            bs_max_pdiff([1], big)
    # numpy ints are integers; a float, even an integral one, or a bool is not
    assert bs_max_pdiff([np.int64(9), 2], [np.int32(2)]) == (7, (9, 2))
    for bad in ([2.0], [1.5], [True], [np.True_], [3, 4.25]):
        with pytest.raises(TypeError):
            bs_max_pdiff(bad, [3])
        with pytest.raises(TypeError):
            bs_max_pdiff([3], bad)


def brute_max_pdiff(a_vals, b_vals):
    """The largest P(|a - b|) over every pair with a != b, and the pair of
    bs_max_pdiff's tie rule: the smallest maximizing difference d, then the
    smallest a with a - d in B, else the smallest a with a + d in B."""
    diffs = np.unique(np.abs(np.subtract.outer(np.asarray(a_vals), np.asarray(b_vals))))
    lpf = {d: trial_division_lpf(d) for d in diffs[diffs > 0].tolist()}
    max_p = max(lpf.values())
    d = min(v for v, p in lpf.items() if p == max_p)
    b_set = set(b_vals)
    below = [a for a in a_vals if a - d in b_set]
    if below:
        return max_p, (min(below), min(below) - d)
    above = min(a for a in a_vals if a + d in b_set)
    return max_p, (above, above + d)


def test_bs_max_pdiff_matches_exhaustive_small_sets():
    # the small sets from [1, 60) make ties common: several differences d
    # with the largest P(d), several a with a - d in B, or none
    rng = random.Random(99)
    for trial in range(200):
        top, size = (300, 25) if trial % 2 else (60, 8)
        a_vals = rng.sample(range(1, top), rng.randrange(2, size))
        b_vals = rng.sample(range(1, top), rng.randrange(2, size))
        assert bs_max_pdiff(a_vals, b_vals) == brute_max_pdiff(a_vals, b_vals), (a_vals, b_vals)


def test_bs_max_pdiff_marks_the_differences_of_every_chunk():
    # 2049 * 2048 = 4196352 > 2**22 pairs: the differences are marked in two
    # chunks of A, and the maximum, P(10008 - 1) = 10007, comes from the second
    a_vals, b_vals = [*range(1, 2049), 10008], list(range(1, 2049))
    assert bs_max_pdiff(a_vals, b_vals) == brute_max_pdiff(a_vals, b_vals) == (10007, (10008, 1))


def test_report_json_round_trip():
    report = survey_range(100, SurveyConfig(alpha=0.5, gamma=0.5))
    doc = json.loads(joined(report))
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
    lines = joined(report, csv=True).strip().split("\n")
    assert lines[0] == SURVEY_CSV_HEADER
    assert len(lines) == 1 + report.n.size
    exceptional = [line for line in lines[1:] if line.endswith(",1")]
    assert len(exceptional) == report.exceptional_count
    assert lines[-1].startswith("100,smooth,3,31,3,7,21,")


def records_json(report):
    """The report's JSON built from ``report_rows`` alone, with json.dumps."""
    rows, betas = [], []
    for n, strategy, w, beta in report_rows(report):
        if w is None:
            rows.append({"n": n, "exceptional": True})
            continue
        betas.append(beta)
        rows.append({"n": n, "strategy": strategy, "k": w.k, "p": w.p, "q": w.q, "r": w.r,
                     "score": w.score, "beta": round9(beta), "exceptional": False})
    stats = None
    if betas:
        values = (min(betas), statistics.median(betas), statistics.fmean(betas))
        stats = dict(zip(("min", "median", "mean"), map(round9, values)))
    c = report.config
    doc = {
        "x": report.x,
        "config": {"alpha": c.alpha, "gamma": c.gamma, "c0": c.c0, "eps": c.eps,
                   "strategies": list(c.strategies)},
        "exceptional_count": sum(w is None for _, _, w, _ in report_rows(report)),
        "beta_stats": stats,
        "records": rows,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def records_csv(report):
    """The report's CSV built from ``report_rows`` alone."""
    lines = [SURVEY_CSV_HEADER]
    for n, strategy, w, beta in report_rows(report):
        lines.append(f"{n},,,,,,,,1" if w is None else
                     f"{n},{strategy},{w.k},{w.p},{w.q},{w.r},{w.score},{beta:.9g},0")
    return "\n".join(lines) + "\n"


def test_columns_and_records_emit_the_same_bytes():
    configs = (
        PRESETS["corollary-1"],
        PRESETS["corollary-2"],
        SurveyConfig(strategies=("smooth", "bv")),
        SurveyConfig(alpha=0.5, gamma=0.5, c0=0.2, strategies=("smooth", "bv")),
        SurveyConfig(c0=0.249),
        SurveyConfig(c0=0.249, strategies=("smooth", "bv")),
    )
    # at x = 12, gamma = 0.5: n = 9 is settled by P(n - r) = 3 = n**gamma exactly
    for x in (12, 101, 300, 3000):
        for config in configs:
            report = survey_range(x, config)
            assert report.n.tolist() == list(range(-(-x // 2), x + 1)), (x, config)
            assert joined(report) == records_json(report), (x, config)
            assert joined(report, csv=True) == records_csv(report), (x, config)


def first_difference(got, want):
    """None for equal texts, else where they part and 40 characters around it
    (a plain == on megabyte strings makes pytest diff them for minutes)."""
    if got == want:
        return None
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(0, i - 40) : i + 40], want[max(0, i - 40) : i + 40]


def test_text_kernel_edge_cases_match_the_per_row_writers():
    # beta values the kernel must format per entry, or format like the per-entry writers:
    ties = [1 + 1 / 512, 1 + 3 / 512]  # exact 9-digit ties: .9g rounds half to even
    # one ulp above and one below a decimal tie, where b * 1e8 lands on the tie itself
    near_ties = [3.742819985, 4.849745755]
    other = [9.9999999996, 0.5, 1e-05, 123456789012.0, 1.0, 1.5, 2.0 - 2**-52]
    size = TEXT_BLOCK + 3
    rng = random.Random(14)
    ns = list(range(10**4 - 100, 10**4 - 100 + size))  # digit widths change inside a block
    scores = [rng.choice([7, 10, 100, rng.randrange(1, 10**12)]) for _ in ns]
    betas = [1 + rng.random() for _ in ns]
    betas[1 : 1 + len(ties + near_ties + other)] = ties + near_ties + other
    # exceptional: the first row, both sides of the block boundary, and all of the last block
    for i in (0, TEXT_BLOCK - 1, *range(TEXT_BLOCK, size)):
        scores[i], betas[i] = 0, math.nan
    report = smooth_report(ns[-1], ns, scores, betas)
    text_json, text_csv = joined(report), joined(report, csv=True)
    assert first_difference(text_json, records_json(report)) is None
    assert first_difference(text_csv, records_csv(report)) is None
    for b, want_json, want_csv in (
        (ties[0], "1.00195312", "1.00195312"),
        (ties[1], "1.00585938", "1.00585938"),
        (near_ties[0], "3.74281999", "3.74281999"),
        (near_ties[1], "4.84974575", "4.84974575"),
        (9.9999999996, "10.0", "10"),
        (123456789012.0, "123456789000.0", "1.23456789e+11"),
        (1.0, "1.0", "1"),
    ):
        assert f'"beta":{want_json},' in text_json, b
        assert f",{want_csv},0\n" in text_csv, b
    empty = smooth_report(10, [], [], [])
    assert joined(empty) == records_json(empty)
    assert joined(empty).endswith(',"beta_stats":null,"records":[]}\n')
    assert joined(empty, csv=True) == records_csv(empty) == SURVEY_CSV_HEADER + "\n"


def test_digits_match_str_at_every_width():
    # below and above 10**9 (uint32, int64) and 2**32, up to int64's top
    edges = [0, 1, 9, 10, 10**9 - 1, 10**9, 10**9 + 1, 2**32 - 1, 2**32, 2**32 + 1,
             10**10 - 1, 10**18, 2**63 - 1]
    rng = random.Random(38)
    values = edges + [rng.randrange(10 ** rng.randrange(1, 19)) for _ in range(TEXT_BLOCK - len(edges))]
    rng.shuffle(values)
    column = np.array(values, dtype=np.int64)
    # int64 at 19 digits and at 10, past 2**32 or not; uint32 at 9
    for top, width in ((2**63 - 1, 19), (10**10 - 1, 10), (2**32 - 1, 10), (10**9 - 1, 9)):
        part = column[column <= top]
        assert _width(part) == width
        out = np.full((width, part.size), 0xFF, dtype=np.uint8)
        _digits(part, out)
        got = [bytes(cell).replace(b"\0", b"").decode() for cell in out.T]
        assert got == list(map(str, part.tolist())), width
    # as the score column of a report (a score of 0 would mark n exceptional)
    scores = [v for v in values if v > 0]
    report = smooth_report(10**6, range(1, len(scores) + 1), scores, [1.5] * len(scores))
    assert first_difference(joined(report), records_json(report)) is None
    assert first_difference(joined(report, csv=True), records_csv(report)) is None


def test_rows_at_block_boundaries_match_the_per_n_scan():
    # x = 70001 surveys 35001 n: two full blocks and part of a third
    x = 70001
    n_lo = -(-x // 2)
    size = x - n_lo + 1
    assert size > 2 * TEXT_BLOCK
    edges = [*range(0, size, TEXT_BLOCK), size]
    near = {i for edge in edges for i in range(edge - 3, edge + 3) if 0 <= i < size}
    picked = sorted(near | set(random.Random(22).sample(range(size), 40)))
    both = SurveyConfig(strategies=("smooth", "bv"))
    # every n of this window has a smooth witness under the three above; here
    # each block holds smooth rows (11593 in all), bv rows (23357) and exceptional n (51)
    mixed = SurveyConfig(alpha=0.9, gamma=0.95, c0=0.2, strategies=("smooth", "bv"))
    configs = (PRESETS["corollary-1"], PRESETS["corollary-2"], both, mixed)
    for config in configs:
        rows = report_rows(survey_range(x, config))
        rset = build_rset(*_rset_interval(x, config.c0), config.alpha)
        for i in picked:
            n = n_lo + i
            w, strategy = strategy_smooth(n, rset, config.gamma), "smooth"
            if w is None and "bv" in config.strategies:
                w, strategy = strategy_bv(n, config.eps), "bv"
            if w is None:
                assert rows[i] == (n, None, None, None), (config, n)
            else:
                assert rows[i] == (n, strategy, w, math.log(w.score) / math.log(n)), (config, n)


def test_survey_range_peak_is_its_columns_and_block_temporaries():
    # Besides the report's columns, only the P(n - r) table (fewer than x
    # entries) is as long as the window; every other temporary is at most a
    # block long, or a Python list of a block's floats. 16 int64 blocks
    # cover those (about 10 are used); one more int64 array over the
    # window's 50002 n, or a list of its floats, would not fit.
    x = 100_003
    survey_range(1000)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        report = survey_range(x, PRESETS["corollary-1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(a.nbytes for a in (report.n, report.tag, report.beta)) + 5 * report.k.nbytes
    assert peak <= columns + 8 * x + 16 * 8 * TEXT_BLOCK, (peak, columns)


def test_exceptional_cells_fit_over_the_witness_literals():
    # an exceptional row writes its bytes over the start of its zeroed witness
    # cells; every column cell is at least one byte wide, so bytes no longer
    # than the witness run's literals never reach the next row
    for *_, witness, exceptional in (_JSON_ROW, _CSV_ROW):
        literals = sum(len(piece) for piece in witness if isinstance(piece, bytes))
        assert 0 < len(exceptional) <= literals, exceptional


def test_text_holds_about_two_copies_of_a_block():
    # Iterated as the survey command writes to stdout, with the previous piece
    # still held, the text kernel adds about two block-sized buffers to it:
    # the matrix, which every piece writes in place, and its row-order copy,
    # that copy and the unpadded bytes, then those and the string (about 3.05
    # times the longest piece in all). Keeping the matrix or the padded bytes
    # alive into the next step adds a third.
    report = survey_range(100_003)
    for csv in (False, True):
        joined(report, csv)  # imports and caches outside the traced loop
        tracemalloc.start()
        try:
            longest = 0
            for piece in report.text(csv):
                longest = max(longest, len(piece))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert longest > 800_000, (csv, longest)  # a full block of rows
        assert peak <= 3.3 * longest, (csv, peak / longest)


def test_scan_thresholds_are_the_exact_least_t():
    # the smooth scan's per-n threshold is util.power_threshold at gamma
    m = math.isqrt(SCAN_MAX_N)
    windows = (
        range(1, 2001),
        range(10**6 - 2500, 10**6 + 2501),  # the squares 999**2, 1000**2 and 1001**2
        range(SCAN_MAX_N - 1500, SCAN_MAX_N + 1),
        [(m - 1) ** 2, m * m - 1, m * m, m * m + 1],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma in (0.5, 0.677, 1.0):
            for window in windows:
                got = power_threshold(np.array(window, dtype=np.int64), gamma)
                assert got.tolist() == [exact_threshold(n, gamma) for n in window], (gamma, window[0])
                assert (np.diff(got) >= 0).all(), (gamma, window[0])
    # a perfect square at gamma = 0.5, where the threshold is the root itself
    for root in (44, 999, 1000, 1001, m - 1, m):
        assert power_threshold([root * root], 0.5).tolist() == [root]


def witness_columns(rows):
    """(ns, tag, wit) columns of a report whose every row is a smooth witness."""
    ns = np.array([n for n, _ in rows], dtype=np.int64)
    wit = np.array([[w.k, w.p, w.q, w.r, w.score] for _, w in rows], dtype=np.int64).T.copy()
    return ns, np.ones(ns.size, dtype=np.int8), wit


# real witnesses of survey_range(10**6) at the default config: BAND_ROW's beta lies
# 6e-8 from a ninth-digit rounding half-point (1.474261285); each of the two
# STATS_ROWS is clear of one, and their median and mean (1.490501895) are not
BAND_ROW = (927050, Witness(21, 41761, 12517, 50069, 626713673))
STATS_ROWS = (
    (500001, Witness(28, 16069, 12517, 50069, 626713673)),
    (816199, Witness(2, 383023, 6269, 50153, 314409157)),
)


def logged_log_each(monkeypatch):
    """Spy on the survey's log_each: the list of row counts it is called on."""
    sizes = []

    def spy(values):
        sizes.append(values.size)
        return log_each(values)

    monkeypatch.setattr("edgebudget.survey.log_each", spy)
    return sizes


def np_betas(rows):
    return np.array([np.log(w.score) / np.log(n) for n, w in rows])


def test_beta_near_a_half_point_is_math_logs(monkeypatch):
    rows = [STATS_ROWS[1], BAND_ROW]  # the other row's beta is the smaller: the min is clear
    assert all(validate(n, w) for n, w in rows)
    b = np_betas(rows)
    scaled = b[1] * 1e8
    assert 1 <= b[1] < 10 and abs(scaled - math.floor(scaled) - 0.5) <= TIE_BAND
    assert _by_rint(b).tolist() == [True, False]
    ns, tag, wit = witness_columns(rows)
    sizes = logged_log_each(monkeypatch)
    report = _report(10**6, SurveyConfig(), ns, tag, wit)
    # only the row in the band went by math.log (its score, then its n); the statistics are clear
    assert sizes == [1, 1]
    assert report.beta.tolist() == (log_each(wit[4]) / log_each(ns)).tolist()
    assert report.beta[1] == math.log(BAND_ROW[1].score, BAND_ROW[0])
    assert '"score":626713673,"beta":1.47426128,' in joined(report)


def test_beta_stats_near_a_half_point_are_math_logs(monkeypatch):
    rows = list(STATS_ROWS)
    assert all(validate(n, w) for n, w in rows)
    b = np_betas(rows)
    assert _by_rint(b).all()
    mean = statistics.fmean(b.tolist())
    assert not _by_rint(np.array([mean]))[0] and 1 <= mean < 10
    ns, tag, wit = witness_columns(rows)
    sizes = logged_log_each(monkeypatch)
    report = _report(10**6, SurveyConfig(), ns, tag, wit)
    assert sizes == [0, 0, 2, 2]  # no row on its own, then the whole column; scores, then n
    exact = (log_each(wit[4]) / log_each(ns)).tolist()
    assert report.beta.tolist() == exact
    assert report.beta_stats == (min(exact), statistics.median(exact), statistics.fmean(exact))


def test_survey_beta_text_is_math_logs_text_and_within_3_ulp():
    configs = (PRESETS["corollary-1"], PRESETS["corollary-2"], SurveyConfig(strategies=("smooth", "bv")))
    for config in configs:
        report = survey_range(10**5, config)
        found = np.flatnonzero(report.tag)
        exact = np.full(report.n.size, math.nan)
        exact[found] = log_each(report.score[found]) / log_each(report.n[found])
        wit = np.array([report.k, report.p, report.q, report.r, report.score])
        want = SurveyReport(report.x, config, report.n, report.tag, wit, exact)
        for csv in (False, True):
            assert first_difference(joined(report, csv), joined(want, csv)) is None, (config, csv)
        assert np.isnan(report.beta[report.tag == 0]).all()
        gap = np.abs(report.beta[found] - exact[found])
        assert (gap <= 3 * np.spacing(exact[found])).all(), config
