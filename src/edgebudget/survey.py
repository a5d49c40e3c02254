"""Range-scale experiments built on the witness strategies.

``survey_range`` sweeps every n in [ceil(x/2), x], hands each one to the
enabled witness strategies, and reports, as int64 and float columns, per-n
certificates, the exceptional set (n where every strategy came up empty),
and the empirical exponents beta(n) = log(score)/log(n) with their
(min, median, mean) summary. ``rset_density`` measures how common rough
shifted primes are, and ``bs_max_pdiff`` runs the
largest-prime-factor-of-differences experiment.
"""

import json
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import factor
from .util import compare_power, exact_int, fmt9, log_each, power_floor, round9
from .witness import F_EXACT_MAX_N, RSet, _rset_interval, build_rset, prime_r_scores, strategy_bv

SURVEY_CSV_HEADER = "n,strategy,k,p,q,r,score,beta,exceptional"

# a row's strategy tag indexes this; 0 marks an exceptional n
_TAGS = (None, "smooth", "bv")


@dataclass(frozen=True)
class SurveyConfig:
    """Knobs for a survey run: thresholds, interval constant, strategies.

    ``strategies`` names the witness strategies to run, from ("smooth",
    "bv"); it is stored in that order with repeats dropped, so configs that
    differ only in the order or repeats of their names compare equal.

    Raises:
        ValueError: on construction, if alpha or gamma is outside (0, 1], c0
            outside (0, 1/4), eps outside [0, 1/4), strategies is a str, names
            an unknown strategy, or names none.
    """

    alpha: float = 0.677
    gamma: float = 0.677
    c0: float = 0.05
    eps: float = 0.05
    strategies: tuple[str, ...] = ("smooth",)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not 0 < self.c0 < 0.25:
            raise ValueError("c0 must lie in (0, 1/4)")
        if not 0 <= self.eps < 0.25:
            raise ValueError("eps must lie in [0, 1/4)")
        if isinstance(self.strategies, str):
            raise ValueError("strategies must be a sequence of names, not a str")
        for name in self.strategies:
            if name not in _TAGS[1:]:
                raise ValueError(f"unknown strategy {name!r}")
        if not self.strategies:
            raise ValueError("at least one strategy must be enabled")
        names = tuple(t for t in _TAGS[1:] if t in self.strategies)
        object.__setattr__(self, "strategies", names)


# gamma presets matching the two headline parameter choices
PRESETS = {
    "corollary-1": SurveyConfig(alpha=0.677, gamma=0.677),
    "corollary-2": SurveyConfig(alpha=0.677, gamma=0.5),
}


# the same names as ASCII rows padded with byte 0, for the text kernel
_NAMES = np.array([(t or "").encode() for t in _TAGS], dtype="S")
_NAMES = _NAMES.view(np.uint8).reshape(len(_TAGS), -1)

# rows per block of the text kernel: its byte matrix stays near 2 MB at any x
TEXT_BLOCK = 16384
# a beta whose scaled fraction lies this close to .5 is formatted exactly:
# b * 1e8 is off by at most 6e-8 from the true product when 1 <= b < 10
TIE_BAND = 1e-6

# The row layouts of the text kernel: the separator written before every row
# but the first, then three runs of pieces (a bytes literal or a column name):
# the cells of every row, then the witness cells, or the exceptional cells
# where n is exceptional.
_JSON_ROW = (
    b",",
    (b'{"n":', "n"),
    (b',"strategy":"', "strategy", b'","k":', "k", b',"p":', "p", b',"q":', "q", b',"r":', "r",
     b',"score":', "score", b',"beta":', "beta", b',"exceptional":false}'),
    (b',"exceptional":true}',),
)
_CSV_ROW = (
    b"",
    ("n", b","),
    ("strategy", b",", "k", b",", "p", b",", "q", b",", "r", b",", "score", b",", "beta", b",0\n"),
    (b",,,,,,,1\n",),
)


def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal digits of int64 values >= 0 as a (width, len(values))
    uint8 matrix of ASCII: one column per value, right-aligned, with the
    leading zeros as byte 0."""
    width = len(str(int(values.max()))) if values.size else 1
    cells = np.empty((width, values.size), dtype=np.uint8)
    rest = values
    for j in range(width - 1, -1, -1):
        quot = rest // 10  # not np.divmod, which is several times slower
        cells[j] = rest - 10 * quot
        cells[j] += ord("0")
        if j < width - 1:
            cells[j] *= rest > 0
        rest = quot
    return cells


def _beta_cells(beta: np.ndarray, found: np.ndarray, csv: bool) -> np.ndarray:
    """``fmt9(b)`` (CSV) or ``json.dumps(round9(b))`` (JSON) of each beta b
    where found, as a (width, len(beta)) uint8 matrix of ASCII padded with
    byte 0.

    For 1 <= b < 10 the nine significant digits are b * 1e8 rounded; any
    other b, one that rounds to 10, and one within ``TIE_BAND`` of a
    rounding tie (``.9g`` breaks exact ties to even) is formatted per entry.
    """
    scaled = beta * 1e8
    nearest = np.rint(scaled)
    fast = found & (beta >= 1) & (nearest < 1e9)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > TIE_BAND
    # elsewhere 1e8, whose text ("1.0", "1") every per-entry text overwrites
    nines = np.where(fast, nearest, 1e8).astype(np.int64)
    digits = _digits(nines)
    # the fraction drops its trailing zeros: in CSV all of them, and the point
    # with them; JSON keeps the first ("1.0"), as json.dumps does
    for j in range(1 if csv else 2, 9):
        digits[j] *= nines % 10 ** (9 - j) != 0
    point = np.where(digits[1] != 0, ord("."), 0).astype(np.uint8)
    slow = np.flatnonzero(found & ~fast)
    texts = [(fmt9(b) if csv else json.dumps(round9(b))).encode() for b in beta[slow].tolist()]
    cells = np.zeros((max([10, *map(len, texts)]), beta.size), dtype=np.uint8)
    cells[:10] = np.concatenate([digits[:1], point[None], digits[1:]])
    for i, text in zip(slow.tolist(), texts):
        cells[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
    return cells


class SurveyReport:
    """Everything a survey produced, in ascending n, held as columns.

    ``n`` and the witness columns ``k, p, q, r, score`` (the rows of the
    5-by-len(n) ``wit``) are int64 arrays (0 where n is exceptional), ``tag``
    indexes (exceptional, "smooth", "bv") and ``beta`` is float64 (NaN where
    there is none). The exceptional n are ``n[tag == 0]``, and ``beta_stats``
    is (min, median, mean) of beta over the n with a witness, or None when
    there is none. The columns are the report: ``to_json`` and ``to_csv``
    serialize them, and no per-n object is ever built.

    The text comes from one kernel that works on blocks of ``TEXT_BLOCK``
    rows. For each block it fills a uint8 matrix with one matrix row per
    text column (the literal separators, the right-aligned digits of each
    int64 column, the strategy name, the beta text), padded with byte 0;
    then it transposes the matrix once, drops the padding and decodes it.
    Beta takes its nine digits from b * 1e8, except near a rounding tie or
    outside [1, 10), where ``json.dumps(round9(b))`` or ``fmt9`` formats it
    exactly. The bytes are those of a per-row ``json.dumps`` or ``.9g``
    writer.
    """

    def __init__(self, x: int, config: SurveyConfig, n, tag, wit, beta):
        self.x, self.config = x, config
        self.n, self.tag, self.beta = n, tag, beta
        self.k, self.p, self.q, self.r, self.score = wit
        self.exceptional_count = int(np.count_nonzero(tag == 0))
        betas = beta[~np.isnan(beta)]
        if betas.size:
            # the values of statistics.median and statistics.fmean: np.median
            # takes (a + b) / 2 of a middle pair, and fmean is fsum / count
            mean = math.fsum(betas.tolist()) / betas.size
            self.beta_stats = (float(betas.min()), float(np.median(betas)), mean)
        else:
            self.beta_stats = None

    def _cells(self, piece, rows: slice, csv: bool) -> np.ndarray:
        """One piece of a row layout over ``rows``: a uint8 matrix of ASCII
        with one column per row, padded with byte 0."""
        tag = self.tag[rows]
        if isinstance(piece, bytes):
            literal = np.frombuffer(piece, dtype=np.uint8)[:, None]
            return np.broadcast_to(literal, (len(piece), tag.size))
        if piece == "strategy":
            return _NAMES[tag].T
        if piece == "beta":
            return _beta_cells(self.beta[rows], tag != 0, csv)
        return _digits(getattr(self, piece)[rows])

    def _text(self, csv: bool) -> list[str]:
        """The rows as text in the layout of ``to_csv`` or ``to_json``, one
        string per block of ``TEXT_BLOCK`` rows."""
        sep, *runs = _CSV_ROW if csv else _JSON_ROW
        blocks = []
        for lo in range(0, self.n.size, TEXT_BLOCK):
            rows = slice(lo, lo + TEXT_BLOCK)
            shared, witness, exceptional = (
                [self._cells(piece, rows, csv) for piece in run] for run in runs
            )
            matrix = np.concatenate([self._cells(sep, rows, csv), *shared, *witness, *exceptional])
            found = self.tag[rows] != 0
            start = len(sep) + sum(len(c) for c in shared)
            stop = start + sum(len(c) for c in witness)
            matrix[start:stop] *= found
            matrix[stop:] *= ~found
            if lo == 0:
                matrix[: len(sep), 0] = 0
            blocks.append(matrix.T.tobytes().translate(None, b"\0").decode("ascii"))
        return blocks

    def to_json(self) -> str:
        stats = None
        if self.beta_stats is not None:
            stats = dict(zip(("min", "median", "mean"), map(round9, self.beta_stats)))
        head = json.dumps(
            {
                "x": self.x,
                "config": asdict(self.config),
                "exceptional_count": self.exceptional_count,
                "beta_stats": stats,
            },
            separators=(",", ":"),
        )
        return "".join([head[:-1], ',"records":[', *self._text(csv=False), "]}"])

    def to_csv(self) -> str:
        return "".join([SURVEY_CSV_HEADER, "\n", *self._text(csv=True)])


def _smooth_scan(ns: np.ndarray, rset: RSet, gamma: float, tag: np.ndarray, wit: np.ndarray):
    """``strategy_smooth`` for every n of the report's ``ns`` with tag 0 at
    once, written in place into its ``tag`` and ``wit`` columns.

    Walks the members in increasing order and tests only the n still
    unresolved, reading P(n - r) from one table covering every difference;
    each n keeps the first member r with P(n - r) >= n**gamma, exactly as the
    per-n scan would. The table keeps only P >= ``power_floor(ns[0], gamma)``,
    which every accepted P(n - r) reaches. Every member is at most
    x // 4 < ceil(x/2) = ns[0], so the table starts at 1 or above.
    """
    members = rset.members
    if not members.size:
        return
    n_lo = int(ns[0])
    lo = n_lo - int(members[-1])
    lpf = factor.lpf_table(lo, int(ns[-1]) - int(members[0]), floor=power_floor(n_lo, gamma))
    hit = np.full(ns.size, -1, dtype=np.int64)
    pending = np.flatnonzero(tag == 0)
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
    tag[found] = _TAGS.index("smooth")
    wit[:, found] = (n - r) // p, p, q, r, s


def survey_range(x: int, config: SurveyConfig | None = None) -> SurveyReport:
    """Survey every n in [ceil(x/2), x] with the configured strategies.

    Builds the RSet over [ceil(c0 x), floor(x/4)] once (none when that
    interval is empty, so every n is smooth-exceptional), finds each n's
    first smooth witness in one masked scan over the members, and hands the
    n left over to ``strategy_bv`` when enabled. Both write the report's
    columns in place, never one record object per n. Runs in one process;
    deterministic for a given config. Every score is below x**2, so x is
    supported up to F_EXACT_MAX_N, the int64 limit of the scan.

    Raises:
        TypeError: if x is not an integer.
        ValueError: if x < 8 or x > F_EXACT_MAX_N.
    """
    x = operator.index(x)
    if x < 8:
        raise ValueError("survey_range requires x >= 8")
    if x > F_EXACT_MAX_N:
        raise ValueError(f"survey_range supports x <= {F_EXACT_MAX_N}")
    if config is None:
        config = SurveyConfig()

    n_lo = -(-x // 2)
    ns = np.arange(n_lo, x + 1, dtype=np.int64)
    tag = np.zeros(ns.size, dtype=np.int8)
    wit = np.zeros((5, ns.size), dtype=np.int64)  # k, p, q, r, score
    lo, hi = _rset_interval(x, config.c0)
    if "smooth" in config.strategies and lo <= hi:
        _smooth_scan(ns, build_rset(lo, hi, config.alpha), config.gamma, tag, wit)
    if "bv" in config.strategies:
        for i in np.flatnonzero(tag == 0).tolist():
            w = strategy_bv(n_lo + i, config.eps)
            if w is not None:
                tag[i] = _TAGS.index("bv")
                wit[:, i] = (w.k, w.p, w.q, w.r, w.score)
    found = np.flatnonzero(tag)
    beta = np.full(ns.size, math.nan)
    beta[found] = log_each(wit[4, found]) / log_each(ns[found])
    return SurveyReport(x, config, ns, tag, wit, beta)


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
        ValueError: if either set is empty, holds a bool, a non-integral or a
            non-positive value, or every pair has a = b.
    """
    a_sorted = sorted(set(map(exact_int, a_set)))
    b_sorted = sorted(set(map(exact_int, b_set)))
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
