"""Range-scale experiments built on the witness strategies.

``survey_range`` sweeps every n in [ceil(x/2), x], hands each one to the
enabled witness strategies, and reports per-n certificates, the exceptional
set (n where every strategy came up empty), and the empirical exponents
beta(n) = log(score)/log(n). ``rset_density`` measures how common rough
shifted primes are, ``bs_max_pdiff`` runs the largest-prime-factor-of-
differences experiment, and ``exponent_stats`` summarizes beta.
"""

import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import factor
from .util import compare_power, fmt9, round9
from .witness import RSet, Witness, build_rset, prime_r_scores, strategy_bv

SURVEY_CSV_HEADER = "n,strategy,k,p,q,r,score,beta,exceptional"


@dataclass(frozen=True)
class SurveyConfig:
    """Knobs for a survey run: thresholds, interval constant, strategies."""

    alpha: float = 0.677
    gamma: float = 0.677
    c0: float = 0.05
    eps: float = 0.05
    use_smooth: bool = True
    use_bv: bool = False

    def check(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0 < self.c0 < 0.25:
            raise ValueError("c0 must lie in (0, 1/4)")
        if not 0 <= self.eps < 0.25:
            raise ValueError("eps must lie in [0, 1/4)")
        if not (self.use_smooth or self.use_bv):
            raise ValueError("at least one strategy must be enabled")

    def rset(self, x: int) -> RSet:
        """The RSet over [ceil(c0 x), floor(x/4)]; empty when that interval is."""
        lo, hi = max(1, math.ceil(self.c0 * x)), x // 4
        return build_rset(lo, hi, self.alpha) if lo <= hi else RSet(self.alpha, (lo, hi), [])

    @property
    def strategies(self) -> tuple[str, ...]:
        out = []
        if self.use_smooth:
            out.append("smooth")
        if self.use_bv:
            out.append("bv")
        return tuple(out)


# gamma presets matching the two headline parameter choices
PRESETS = {
    "corollary-1": SurveyConfig(alpha=0.677, gamma=0.677),
    "corollary-2": SurveyConfig(alpha=0.677, gamma=0.5),
}


@dataclass(frozen=True)
class SurveyRecord:
    """Outcome for a single n: a tagged witness, or exceptional."""

    n: int
    strategy: str | None
    witness: Witness | None
    beta: float | None

    @property
    def exceptional(self) -> bool:
        return self.witness is None


@dataclass(eq=False)
class SurveyReport:
    """Everything a survey produced, in ascending n."""

    x: int
    config: SurveyConfig
    records: list[SurveyRecord]
    exceptional_count: int = field(init=False)
    beta_stats: tuple[float, float, float] | None = field(init=False)

    def __post_init__(self):
        self.exceptional_count = sum(1 for rec in self.records if rec.exceptional)
        betas = [rec.beta for rec in self.records if rec.beta is not None]
        if betas:
            self.beta_stats = (min(betas), statistics.median(betas), statistics.fmean(betas))
        else:
            self.beta_stats = None

    def to_json(self) -> str:
        cfg = {
            "alpha": self.config.alpha,
            "gamma": self.config.gamma,
            "c0": self.config.c0,
            "eps": self.config.eps,
            "strategies": list(self.config.strategies),
        }
        stats = None
        if self.beta_stats is not None:
            stats = {
                "min": round9(self.beta_stats[0]),
                "median": round9(self.beta_stats[1]),
                "mean": round9(self.beta_stats[2]),
            }
        rows = []
        for rec in self.records:
            if rec.witness is None:
                rows.append({"n": rec.n, "exceptional": True})
            else:
                w = rec.witness
                rows.append(
                    {
                        "n": rec.n,
                        "strategy": rec.strategy,
                        "k": w.k,
                        "p": w.p,
                        "q": w.q,
                        "r": w.r,
                        "score": w.score,
                        "beta": round9(rec.beta),
                        "exceptional": False,
                    }
                )
        doc = {
            "x": self.x,
            "config": cfg,
            "exceptional_count": self.exceptional_count,
            "beta_stats": stats,
            "records": rows,
        }
        return json.dumps(doc, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = [SURVEY_CSV_HEADER]
        for rec in self.records:
            if rec.witness is None:
                lines.append(f"{rec.n},,,,,,,,1")
            else:
                w = rec.witness
                lines.append(
                    f"{rec.n},{rec.strategy},{w.k},{w.p},{w.q},{w.r},{w.score},{fmt9(rec.beta)},0"
                )
        return "\n".join(lines) + "\n"


def _smooth_scan(n_lo: int, n_hi: int, rset: RSet, gamma: float) -> list[Witness | None]:
    """``strategy_smooth`` for every n in [n_lo, n_hi] at once.

    Walks the members in increasing order and tests only the n still
    unresolved, reading P(n - r) from one table covering every difference;
    each n keeps the first member r with P(n - r) >= n**gamma, exactly as the
    per-n scan would.
    """
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    out: list[Witness | None] = [None] * ns.size
    if not rset.members:
        return out
    table = factor.lpf_table(max(1, n_lo - rset.members[-1]), n_hi - rset.members[0])
    hit = np.full(ns.size, -1, dtype=np.int64)
    pending = np.arange(ns.size)
    for i, r in enumerate(rset.members):
        n = ns[pending]
        ok = compare_power(table.lpf[n - r - table.lo], n, gamma) >= 0
        hit[pending[ok]] = i
        pending = pending[~ok]
        if not pending.size:
            break
    found = np.flatnonzero(hit >= 0)
    which = hit[found]
    n, r = ns[found], np.asarray(rset.members, dtype=np.int64)[which]
    p, s = prime_r_scores(n, r, np.asarray(rset.q, dtype=np.int64)[which], table)
    rows = zip(found.tolist(), which.tolist(), ((n - r) // p).tolist(), p.tolist(), s.tolist())
    # r and q come from the RSet's own lists, so witnesses share those ints
    for i, h, k, pp, ss in rows:
        out[i] = Witness(k, pp, rset.q[h], rset.members[h], ss)
    return out


def survey_range(x: int, config: SurveyConfig | None = None) -> SurveyReport:
    """Survey every n in [ceil(x/2), x] with the configured strategies.

    Builds the RSet over [ceil(c0 x), floor(x/4)] once (empty when that
    interval is, so every n is smooth-exceptional), finds each n's first
    smooth witness in one masked scan over the members, and hands the n left
    over to ``strategy_bv`` when enabled. Runs in one process; deterministic
    for a given config.

    Raises:
        ValueError: if x < 8 or the config is out of range.
    """
    if x < 8:
        raise ValueError("survey_range requires x >= 8")
    if config is None:
        config = SurveyConfig()
    config.check()

    n_lo = -(-x // 2)
    if config.use_smooth:
        found = _smooth_scan(n_lo, x, config.rset(x), config.gamma)
    else:
        found = [None] * (x - n_lo + 1)
    records = []
    for n, w in zip(range(n_lo, x + 1), found):
        tag = "smooth" if w is not None else None
        if w is None and config.use_bv:
            w = strategy_bv(n, config.eps)
            tag = "bv" if w is not None else None
        beta = math.log(w.score) / math.log(n) if w is not None else None
        records.append(SurveyRecord(n, tag, w, beta))
    return SurveyReport(x, config, records)


def exponent_stats(report: SurveyReport) -> tuple[float, float, float]:
    """(min, median, mean) of beta over the report's successful n.

    Raises:
        ValueError: if the report holds no successes.
    """
    if report.beta_stats is None:
        raise ValueError("no successful records to summarize")
    return report.beta_stats


def rset_density(z: int, alpha: float) -> tuple[int, float]:
    """How many primes r <= z have P(r-1) > r**alpha, and the z/log z ratio.

    Raises:
        ValueError: if z < 2 or alpha is outside (0, 1].
    """
    if z < 2:
        raise ValueError("rset_density requires z >= 2")
    count = len(build_rset(1, z, alpha).members)
    return count, count / (z / math.log(z))


def _distinct_abs_diffs(a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Sorted distinct nonzero |a - b| over the cross product, chunked."""
    pieces = []
    chunk = max(1, (1 << 22) // max(1, b_vals.size))
    for i in range(0, a_vals.size, chunk):
        block = np.abs(a_vals[i : i + chunk, None] - b_vals[None, :]).ravel()
        pieces.append(np.unique(block))
    diffs = np.unique(np.concatenate(pieces))
    return diffs[diffs > 0]


def bs_max_pdiff(a_set, b_set) -> tuple[int, tuple[int, int]]:
    """Maximum P(|a - b|) over pairs a in A, b in B with a != b.

    Only the prime content of the difference matters, hence the absolute
    value. Returns the maximum together with one attaining pair, chosen
    deterministically: among maximizing differences the smallest, then the
    smallest a with a - d in B, then the smallest a with a + d in B.

    Raises:
        ValueError: if either set is empty, holds non-positive values, or
            every pair has a = b.
    """
    a_sorted = sorted(set(int(v) for v in a_set))
    b_sorted = sorted(set(int(v) for v in b_set))
    if not a_sorted or not b_sorted:
        raise ValueError("both sets must be nonempty")
    if a_sorted[0] < 1 or b_sorted[0] < 1:
        raise ValueError("set elements must be positive integers")
    a_vals = np.asarray(a_sorted, dtype=np.int64)
    b_vals = np.asarray(b_sorted, dtype=np.int64)
    diffs = _distinct_abs_diffs(a_vals, b_vals)
    if diffs.size == 0:
        raise ValueError("no pair with a != b exists")
    table = factor.lpf_table(1, int(diffs[-1]))
    pvals = table.lpf[diffs - 1]
    idx = int(np.argmax(pvals))
    best_d = int(diffs[idx])
    max_p = int(pvals[idx])
    b_members = set(b_sorted)
    for a in a_sorted:
        if a - best_d in b_members:
            return max_p, (a, a - best_d)
    for a in a_sorted:
        if a + best_d in b_members:
            return max_p, (a, a + best_d)
    raise AssertionError("unreachable: attained difference lost")
