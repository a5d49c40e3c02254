"""Range-scale experiments built on the witness strategies.

``survey_range`` sweeps every n in [ceil(x/2), x], hands each one to the
enabled witness strategies, and reports, as int64 and float columns, per-n
certificates, the exceptional set (n where every strategy came up empty),
and the empirical exponents beta(n) = log(score)/log(n). ``rset_density``
measures how common rough shifted primes are, ``bs_max_pdiff`` runs the
largest-prime-factor-of-differences experiment, and ``exponent_stats``
summarizes beta.
"""

import functools
import json
import math
import operator
import statistics
from dataclasses import dataclass

import numpy as np

from . import factor
from .util import compare_power, json9, power_floor, round9
from .witness import F_EXACT_MAX_N, RSet, Witness, build_rset, prime_r_scores, strategy_bv

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
        empty = np.zeros(0, dtype=np.int64)
        return build_rset(lo, hi, self.alpha) if lo <= hi else RSet(empty, empty)

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


# a row's strategy tag indexes this; 0 marks an exceptional n
_TAGS = (None, "smooth", "bv")


class SurveyReport:
    """Everything a survey produced, in ascending n, held as columns.

    ``n`` and the witness columns ``k, p, q, r, score`` (the rows of the
    5-by-len(n) ``wit``) are int64 arrays (0 where n is exceptional), ``tag``
    indexes (exceptional, "smooth", "bv") and ``beta`` is float64 (NaN where
    there is none). This is the only constructor; ``records`` is the same
    report as per-n ``SurveyRecord`` objects, built on first use.
    """

    def __init__(self, x: int, config: SurveyConfig, n, tag, wit, beta):
        self.x, self.config = x, config
        self.n, self.tag, self.beta = n, tag, beta
        self.k, self.p, self.q, self.r, self.score = wit
        self.exceptional_count = int(np.count_nonzero(tag == 0))
        betas = beta[~np.isnan(beta)].tolist()
        if betas:
            self.beta_stats = (min(betas), statistics.median(betas), statistics.fmean(betas))
        else:
            self.beta_stats = None

    @functools.cached_property
    def records(self) -> list[SurveyRecord]:
        """The rows as ``SurveyRecord`` objects, in ascending n."""
        out = []
        for n, t, k, p, q, r, s, b in self._rows():
            if t:
                out.append(SurveyRecord(n, _TAGS[t], Witness(k, p, q, r, s), b))
            else:
                out.append(SurveyRecord(n, None, None, None))
        return out

    def _rows(self):
        cols = (self.n, self.tag, self.k, self.p, self.q, self.r, self.score, self.beta)
        return zip(*(c.tolist() for c in cols))

    def to_json(self) -> str:
        stats = None
        if self.beta_stats is not None:
            stats = dict(zip(("min", "median", "mean"), map(round9, self.beta_stats)))
        head = json.dumps(
            {
                "x": self.x,
                "config": {
                    "alpha": self.config.alpha,
                    "gamma": self.config.gamma,
                    "c0": self.config.c0,
                    "eps": self.config.eps,
                    "strategies": list(self.config.strategies),
                },
                "exceptional_count": self.exceptional_count,
                "beta_stats": stats,
            },
            separators=(",", ":"),
        )
        rows = [
            f'{{"n":{n},"strategy":"{_TAGS[t]}","k":{k},"p":{p},"q":{q},"r":{r},'
            f'"score":{s},"beta":{json9(b)},"exceptional":false}}'
            if t
            else f'{{"n":{n},"exceptional":true}}'
            for n, t, k, p, q, r, s, b in self._rows()
        ]
        return f'{head[:-1]},"records":[{",".join(rows)}]}}'

    def to_csv(self) -> str:
        lines = [SURVEY_CSV_HEADER]
        lines.extend(
            f"{n},{_TAGS[t]},{k},{p},{q},{r},{s},{b:.9g},0" if t else f"{n},,,,,,,,1"
            for n, t, k, p, q, r, s, b in self._rows()
        )
        return "\n".join(lines) + "\n"


def _smooth_scan(n_lo: int, n_hi: int, rset: RSet, gamma: float):
    """``strategy_smooth`` for every n in [n_lo, n_hi] at once, as columns.

    Walks the members in increasing order and tests only the n still
    unresolved, reading P(n - r) from one table covering every difference;
    each n keeps the first member r with P(n - r) >= n**gamma, exactly as the
    per-n scan would. The table keeps only P >= ``power_floor(n_lo, gamma)``,
    which every accepted P(n - r) reaches. Returns int64 arrays (index, k, p,
    q, r, score): the offsets n - n_lo of the n that found a witness, and its
    fields.
    """
    members = rset.members
    if not members.size:
        return (np.zeros(0, dtype=np.int64),) * 6
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    lo = max(1, n_lo - int(members[-1]))
    lpf = factor.lpf_table(lo, n_hi - int(members[0]), floor=power_floor(n_lo, gamma))
    hit = np.full(ns.size, -1, dtype=np.int64)
    pending = np.arange(ns.size)
    for i, r in enumerate(members):
        n = ns[pending]
        ok = compare_power(lpf[n - r - lo], n, gamma) >= 0
        hit[pending[ok]] = i
        pending = pending[~ok]
        if not pending.size:
            break
    found = np.flatnonzero(hit >= 0)
    which = hit[found]
    n, r, q = ns[found], members[which], rset.q[which]
    p, s = prime_r_scores(n, r, q, lpf, lo)
    return found, (n - r) // p, p, q, r, s


def survey_range(x: int, config: SurveyConfig | None = None) -> SurveyReport:
    """Survey every n in [ceil(x/2), x] with the configured strategies.

    Builds the RSet over [ceil(c0 x), floor(x/4)] once (empty when that
    interval is, so every n is smooth-exceptional), finds each n's first
    smooth witness in one masked scan over the members, and hands the n left
    over to ``strategy_bv`` when enabled. The report is filled column by
    column, never one record object per n. Runs in one process;
    deterministic for a given config. Every score is below x**2, so x is
    supported up to F_EXACT_MAX_N, the int64 limit of the scan.

    Raises:
        TypeError: if x is not an integer.
        ValueError: if x < 8, x > F_EXACT_MAX_N or the config is out of range.
    """
    x = operator.index(x)
    if x < 8:
        raise ValueError("survey_range requires x >= 8")
    if x > F_EXACT_MAX_N:
        raise ValueError(f"survey_range supports x <= {F_EXACT_MAX_N}")
    if config is None:
        config = SurveyConfig()
    config.check()

    n_lo = -(-x // 2)
    ns = np.arange(n_lo, x + 1, dtype=np.int64)
    tag = np.zeros(ns.size, dtype=np.int8)
    wit = np.zeros((5, ns.size), dtype=np.int64)  # k, p, q, r, score
    if config.use_smooth:
        found, *fields = _smooth_scan(n_lo, x, config.rset(x), config.gamma)
        tag[found] = _TAGS.index("smooth")
        wit[:, found] = fields
    if config.use_bv:
        for i in np.flatnonzero(tag == 0).tolist():
            w = strategy_bv(n_lo + i, config.eps)
            if w is not None:
                tag[i] = _TAGS.index("bv")
                wit[:, i] = (w.k, w.p, w.q, w.r, w.score)
    found = np.flatnonzero(tag)
    beta = np.full(ns.size, math.nan)
    beta[found] = [
        math.log(s) / math.log(n) for n, s in zip(ns[found].tolist(), wit[4, found].tolist())
    ]
    return SurveyReport(x, config, ns, tag, wit, beta)


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
    pvals = factor.lpf_table(1, int(diffs[-1]))[diffs - 1]
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
