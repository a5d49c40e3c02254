"""Range-scale experiments built on the witness strategies.

``survey_range`` sweeps every n in [ceil(x/2), x], hands each one to the
enabled witness strategies, and reports, as int64 and float columns, per-n
certificates, the exceptional set (n where every strategy came up empty),
and the empirical exponents beta(n) = log(score)/log(n) with their
(min, median, mean) summary. ``rset_density`` measures how common rough
shifted primes are, and ``bs_max_pdiff`` runs the
largest-prime-factor-of-differences experiment.
"""

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import factor, sieve
from .util import check_ranges, fmt9, log_each, power_threshold, round9
from .witness import RSet, _rset_interval, _rset_windows, build_rset, strategy_bv

# the largest x whose scores, all below x**2, int64 holds exactly
SCAN_MAX_N = math.isqrt(2**63 - 1)

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
        check_ranges(alpha=self.alpha, gamma=self.gamma, c0=self.c0, eps=self.eps)
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

# n per block of the survey, from the smooth scan to the text: its arrays, and
# the text kernel's byte matrix (near 2 MB), stay that size at any x. Not a
# power of two: copying the matrix into row order strides it by a block, and
# a stride of 16384 bytes made that copy two to three times slower.
TEXT_BLOCK = 16000
# a beta whose scaled fraction lies this close to .5 is formatted exactly, and a
# survey's beta there is math.log's (see _by_rint for why this is wide enough)
TIE_BAND = 1e-6

# The row layouts of the text kernel: the separator written before every row
# but the first, two runs of pieces (a bytes literal or a column name), the
# cells of every row and then the witness cells, and the exceptional cells.
# Where n is exceptional its witness cells are zeroed and the exceptional
# bytes written over their start; no longer than the witness run's literal
# bytes, they always fit there.
_JSON_ROW = (
    b",",
    (b'{"n":', "n"),
    (b',"strategy":"', "strategy", b'","k":', "k", b',"p":', "p", b',"q":', "q", b',"r":', "r",
     b',"score":', "score", b',"beta":', "beta", b',"exceptional":false}'),
    b',"exceptional":true}',
)
_CSV_ROW = (
    b"",
    ("n", b","),
    ("strategy", b",", "k", b",", "p", b",", "q", b",", "r", b",", "score", b",", "beta", b",0\n"),
    b",,,,,,,1\n",
)


def _block_rows(size: int):
    """The slices of ``TEXT_BLOCK`` rows, the last one shorter, that cover ``size`` rows."""
    return (slice(lo, lo + TEXT_BLOCK) for lo in range(0, size, TEXT_BLOCK))


def _width(values: np.ndarray) -> int:
    """The number of decimal digits of the largest int64 value >= 0 (1 for none)."""
    return len(str(int(values.max()))) if values.size else 1


def _digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the decimal digits of int64 or uint32 values >= 0 into ``out``, a
    (``_width(values)``, len(values)) uint8 matrix: ASCII, one column per
    value, right-aligned, with the leading zeros as byte 0.

    A matrix of at most nine rows holds values below 10**9, which are
    divided in uint32, about four times faster than int64 in numpy; a wider
    one (in a survey only a score's, up to x**2) is divided in int64.
    """
    rest = values.astype(np.uint32, copy=False) if out.shape[0] <= 9 else values
    ten = rest.dtype.type(10)
    for j in range(out.shape[0] - 1, -1, -1):
        quot = rest // ten  # not np.divmod, which is several times slower
        out[j] = rest - ten * quot
        out[j] += ord("0")
        if j < out.shape[0] - 1:
            out[j] *= rest > 0
        rest = quot


def _by_rint(beta: np.ndarray) -> np.ndarray:
    """Where a beta's nine significant digits are ``rint(b * 1e8)``: 1 <= b
    < 10, not rounding to 10, and farther than ``TIE_BAND`` from a rounding
    half-point of b * 1e8 (``.9g`` breaks exact ties to even). False for NaN.

    ``_beta_cells`` formats every other beta per entry, and ``survey_range``
    computes every other beta with ``math.log``; so the digits of any beta
    that leaves this set come from one exact path.

    Why ``TIE_BAND = 1e-6`` is wide enough. Where 1 <= b < 10, the product
    b * 1e8 < 1e9 rounds by at most 6e-8, so a b in this set lies more than
    9.4e-7 from a half-point in its exact scaled value. A survey computes b as
    ``np.log(score) / np.log(n)``; numpy's accuracy data
    (``umath-validation-set-log.csv``) holds float64 ``np.log`` to 1 ULP, and
    ``math.log`` is the C library's log, also within 1 ULP. Each quotient is
    then within 2.5 ULP (2.5 * 2**-52) of log(score)/log(n) relative, and the
    two differ by at most 5 ULP relative. Every score is below n**2
    (p**2 k <= p n), so b < 2, and the two scaled values differ by at most
    5 * 2**-52 * 2e8 = 2.2e-7: on the same side of the half-point, with the
    same nine digits. (Bounding only the numpy quotient, for any b < 10, it
    lies within 5.6e-7 of the exact scaled value, and 5.6e-7 + 6e-8 < 1e-6.)
    The statistics of ``beta_stats`` move by no more than the betas, plus
    the rounding of a sum and a quotient, and are held to the same set.
    """
    scaled = beta * 1e8
    fast = (beta >= 1) & (np.rint(scaled) < 1e9)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > TIE_BAND
    return fast


def _beta_cells(beta: np.ndarray, found: np.ndarray, csv: bool):
    """``fmt9(b)`` (CSV) or ``json.dumps(round9(b))`` (JSON) of each beta b
    where found, as a piece of ``SurveyReport._piece``: the width of the
    longest text (at least 10), and a writer of the texts into a (width,
    len(beta)) uint8 matrix, ASCII padded with byte 0.

    Where ``_by_rint`` holds, the nine significant digits are b * 1e8
    rounded; every other b is formatted per entry.
    """
    fast = found & _by_rint(beta)
    # elsewhere 1e8, whose text ("1.0", "1") every per-entry text overwrites
    nines = np.where(fast, np.rint(beta * 1e8), 1e8).astype(np.uint32)
    slow = np.flatnonzero(found & ~fast)
    texts = [(fmt9(b) if csv else json.dumps(round9(b))).encode() for b in beta[slow].tolist()]

    def write(out: np.ndarray) -> None:
        # the nine digits go to rows 1-9; then the first moves up to row 0
        # and the point takes its place
        _digits(nines, out[1:10])
        # the fraction drops its trailing zeros: in CSV all of them, and the
        # point with them; JSON keeps the first ("1.0"), as json.dumps does.
        # A digit is trailing when it and every digit after it are "0".
        zero = np.ones(beta.size, dtype=bool)
        for j in range(9, 1 if csv else 2, -1):
            zero &= out[j] == ord("0")
            out[j] *= ~zero
        out[0] = out[1]
        out[1] = (out[2] != 0) * np.uint8(ord("."))
        out[10:] = 0
        for i, text in zip(slow.tolist(), texts):
            out[: len(text), i] = np.frombuffer(text, dtype=np.uint8)

    return max([10, *map(len, texts)]), write


def _mean(betas: np.ndarray, least: float) -> float:
    """``math.fsum(betas) / betas.size``, the same double, of a nonempty
    float64 array whose minimum is ``least``, from an exact fixed-point sum
    where it can.

    Where every beta lies in [2**-9, 2), each is a multiple of its ulp, at
    least 2**-61, and below 2, so b * 2**61 is an exact integer below 2**62;
    a survey's betas all do, as 4 <= score < n**2 and n < 2**32 give b >=
    1/16. Split into two 31-bit limbs, the int64 sum of either limb over a
    block stays below 2**31 * ``TEXT_BLOCK`` < 2**45; so the Python int
    ``total`` is the sum of every b * 2**61 exactly, and
    ``math.ldexp(float(total), -61)`` its correctly rounded value, as
    ``int.__float__`` rounds half to even: the double ``math.fsum`` returns.
    A column with a beta outside that range (a report built directly from
    columns can hold any) takes ``math.fsum`` instead.
    """
    if not (least >= 2**-9 and betas.max() < 2):
        blocks = (betas[rows].tolist() for rows in _block_rows(betas.size))
        return math.fsum(itertools.chain.from_iterable(blocks)) / betas.size
    total = 0
    for rows in _block_rows(betas.size):
        fixed = (betas[rows] * 2.0**61).astype(np.int64)
        total += (int((fixed >> 31).sum()) << 31) + int((fixed & (2**31 - 1)).sum())
    return math.ldexp(float(total), -61) / betas.size


class SurveyReport:
    """Everything a survey produced, in ascending n, held as columns.

    ``n`` and the witness columns ``k, p, q, r, score`` (the rows of the
    5-by-len(n) ``wit``) are int64 arrays (0 where n is exceptional), ``tag``
    indexes (exceptional, "smooth", "bv") and ``beta`` is float64 (NaN where
    there is none). The exceptional n are ``n[tag == 0]``, and ``beta_stats``
    is (min, median, mean) of beta over the n with a witness, or None when
    there is none. The columns are the report, and no per-n object is ever
    built. ``text`` is their one way out as JSON or CSV: it yields the text a
    block of rows at a time, so a writer that takes the pieces as they come,
    as the ``survey`` command does, never holds the whole text.

    The text comes from one kernel that works on blocks of ``TEXT_BLOCK``
    rows. For each block it allocates one uint8 matrix with one matrix row
    per text column (the literal separators, the right-aligned digits of
    each int column, the strategy name, the beta text), padded with byte 0:
    every piece's width is known before its cells are made, and each piece
    writes its own matrix rows in place. The digits are divided out in
    uint32, a column wider than nine digits in int64 (``_digits``).
    In a block with an exceptional row, that row's witness cells are zeroed
    and its exceptional bytes written over their start. Then the kernel
    copies the matrix into row order once, drops the padding and decodes it.
    Beta takes its nine digits from b * 1e8, except near a rounding tie or
    outside [1, 10), where ``json.dumps(round9(b))`` or ``fmt9`` formats it
    exactly. The bytes are those of a per-row ``json.dumps`` or ``.9g``
    writer. The mean of ``beta_stats`` is ``math.fsum``'s, from an exact
    fixed-point sum (``_mean``).

    In a report of ``survey_range``, beta is ``np.log(score) / np.log(n)``
    and may differ from ``math.log(score, n)`` in its last bits; the rows
    and statistics where that could move a digit hold math.log's value
    (``_by_rint``), so the text, ``beta_stats`` included, is that of
    math.log's betas.
    """

    def __init__(self, x: int, config: SurveyConfig, n, tag, wit, beta):
        self.x, self.config = x, config
        self.n, self.tag, self.beta = n, tag, beta
        self.k, self.p, self.q, self.r, self.score = wit
        self.exceptional_count = int(np.count_nonzero(tag == 0))
        betas = beta[~np.isnan(beta)]
        if betas.size:
            # the values of statistics.median and statistics.fmean: the median
            # is (a + b) / 2 of the middle pair (one value twice for an odd
            # count), and fmean is fsum / count
            least = float(betas.min())
            mean = _mean(betas, least)
            # betas is a copy already: partition it in place. Not np.median,
            # whose first call imports numpy.ma (about 10 ms).
            middle = ((betas.size - 1) // 2, betas.size // 2)
            betas.partition(middle)
            a, b = betas[list(middle)].tolist()
            self.beta_stats = (least, (a + b) / 2, mean)
        else:
            self.beta_stats = None

    def _piece(self, piece, rows: slice, csv: bool):
        """One piece of a row layout over ``rows``: its width, and a writer of
        its cells into a (width, rows) uint8 matrix, ASCII with one column
        per row, padded with byte 0."""
        tag = self.tag[rows]
        if isinstance(piece, bytes):
            literal = np.frombuffer(piece, dtype=np.uint8)[:, None]
            return len(piece), lambda out: np.copyto(out, literal)
        if piece == "strategy":
            # mode "clip" writes out directly; "raise" would buffer it
            return _NAMES.shape[1], lambda out: np.take(_NAMES.T, tag, axis=1, out=out, mode="clip")
        if piece == "beta":
            return _beta_cells(self.beta[rows], tag != 0, csv)
        values = getattr(self, piece)[rows]
        return _width(values), lambda out: _digits(values, out)

    def _block_text(self, rows: slice, csv: bool) -> str:
        """The rows as text in the CSV or JSON layout of ``text``.

        Each buffer is dropped as soon as the next one is made, so at most
        two block-sized buffers are alive at once, and none outlives the call.
        """
        sep, shared, witness, exceptional = _CSV_ROW if csv else _JSON_ROW
        tag = self.tag[rows]
        pieces = [self._piece(piece, rows, csv) for piece in (sep, *shared, *witness)]
        widths = [width for width, _ in pieces]
        matrix = np.empty((sum(widths), tag.size), dtype=np.uint8)
        for at, (width, write) in zip(itertools.accumulate([0, *widths]), pieces):
            write(matrix[at : at + width])
        del pieces
        if not tag.all():
            start = sum(widths[: 1 + len(shared)])  # the first witness cell
            keep = (tag != 0) * np.uint8(0xFF)  # 0 where n is exceptional
            matrix[start:] &= keep
            literal = np.frombuffer(exceptional, dtype=np.uint8)[:, None]
            matrix[start : start + len(exceptional)] |= literal & ~keep
        if rows.start == 0:
            matrix[: len(sep), 0] = 0
        # The row-order copy goes into a bytearray, whose buffer is the
        # matrix's size to the byte, so the unpadded copy fits in the space
        # the matrix frees. With bytes (a 33-byte header) all three buffers
        # took fresh pages in every block under glibc: a survey of x = 255001
        # took 17.5k page faults, not 11.4k.
        data = bytearray(matrix.size)
        np.copyto(np.frombuffer(data, dtype=np.uint8).reshape(matrix.shape[::-1]), matrix.T)
        del matrix
        data = data.translate(None, b"\0")
        return data.decode("ascii")

    def text(self, csv: bool = False):
        """Yield the report as JSON or, with ``csv``, as CSV, in order: the
        head, one string per block of ``TEXT_BLOCK`` rows, then the tail
        (the JSON's closing brackets and final newline). Each string is made
        only when asked for; joined, they are the bytes that ``edgebudget
        survey`` writes."""
        if csv:
            yield SURVEY_CSV_HEADER + "\n"
        else:
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
            yield head[:-1] + ',"records":['
        for rows in _block_rows(self.n.size):
            yield self._block_text(rows, csv)
        if not csv:
            yield "]}\n"


def _smooth_scan(ns: np.ndarray, rset: RSet, gamma: float, tag: np.ndarray, wit: np.ndarray):
    """``strategy_smooth`` for every n of the report's ``ns`` with tag 0,
    written in place into its ``tag`` and ``wit`` columns, a block of
    ``TEXT_BLOCK`` n at a time.

    Per block, computes each n's integer threshold t(n) once
    (``util.power_threshold``: P >= t(n) exactly where P >= n**gamma, as that
    function reads gamma), then walks the members in increasing order and
    tests only the n still unresolved, reading P(n - r) from one table
    covering every difference; each n keeps the first member r with P(n - r) >= t(n),
    exactly as the per-n scan would. The table keeps only P >= t(ns[0]),
    which every t(n) reaches, as t never falls as n grows. Every member is
    at most x // 4 < ceil(x/2) = ns[0], so the table starts at 1 or above.
    Only the table is as long as the window; every other array is at most a
    block long.
    """
    members = rset.members
    if not members.size:
        return
    lo = int(ns[0]) - int(members[-1])
    floor = int(power_threshold(ns[:1], gamma)[0])
    lpf = factor.lpf_table(lo, int(ns[-1]) - int(members[0]), floor=floor)
    rs = members.tolist()
    for rows in _block_rows(ns.size):
        block = ns[rows]
        hit = np.full(block.size, -1, dtype=np.int64)
        pending = np.flatnonzero(tag[rows] == 0)
        offset, need = block - lo, power_threshold(block, gamma)
        for i, r in enumerate(rs):
            if not pending.size:
                break
            ok = lpf[offset[pending] - r] >= need[pending]
            hit[pending[ok]] = i
            pending = pending[~ok]
        found = np.flatnonzero(hit >= 0)
        which = hit[found]
        n, r, q = block[found], members[which], rset.q[which]
        d = n - r
        p = lpf[d - lo]
        tag[rows][found] = _TAGS.index("smooth")
        # k, p, q, r and unchecked_score(k, p, q, r) over int64 arrays, one
        # witness row at a time: a 2-D assignment would stack the five first
        out = wit[:, rows]
        out[0][found] = d // p
        out[1][found] = p
        out[2][found] = q
        out[3][found] = r
        out[4][found] = np.minimum(np.minimum(p * d, d * r), q * r)


def survey_range(x: int, config: SurveyConfig | None = None) -> SurveyReport:
    """Survey every n in [ceil(x/2), x] with the configured strategies.

    Builds the RSet over [ceil(c0 x), floor(x/4)] once (none when that
    interval is empty, so every n is smooth-exceptional), finds each n's
    first smooth witness in a masked scan over the members against one
    integer threshold per n, and hands the n left over to ``strategy_bv``
    when enabled. Both write the report's columns in place, never one record
    object per n. The scan and beta go a block of ``TEXT_BLOCK`` n at a
    time, so their temporaries stay a block long at any x. Beta is
    ``np.log(score) / np.log(n)``, with ``math.log`` near a ninth-digit
    rounding half-point (``_report``): a float may differ from
    ``math.log(score, n)`` in its last bits, never in the report's text.
    Runs in one process; deterministic for a given config and numpy build.
    Every score is below x**2, so x is supported up to SCAN_MAX_N, the
    int64 limit of the scan.

    Raises:
        TypeError: if x is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if x < 8 or x > SCAN_MAX_N.
    """
    x = sieve.check_int(x, "survey_range", "x", 8, SCAN_MAX_N)
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
    return _report(x, config, ns, tag, wit)


def _report(x: int, config: SurveyConfig, ns: np.ndarray, tag: np.ndarray, wit: np.ndarray):
    """The report of the columns, with beta = log(score)/log(n) where n has a
    witness, a block of ``TEXT_BLOCK`` rows at a time.

    Each block's beta goes by ``np.log``, and every row that ``_by_rint``
    leaves out goes again by ``log_each`` (``math.log``). If any of the
    report's ``beta_stats`` then falls outside ``_by_rint``, the whole column
    goes again by ``log_each``, so the statistics' digits are math.log's.
    """
    beta = np.full(ns.size, math.nan)
    for exact in (False, True):
        for rows in _block_rows(ns.size):
            found = np.flatnonzero(tag[rows])
            score, n = wit[4, rows][found], ns[rows][found]
            b = np.log(score) / np.log(n)
            slow = np.flatnonzero(~_by_rint(b) | exact)
            b[slow] = log_each(score[slow]) / log_each(n[slow])
            beta[rows][found] = b
        report = SurveyReport(x, config, ns, tag, wit, beta)
        if report.beta_stats is None or _by_rint(np.array(report.beta_stats)).all():
            break
    return report


def rset_density(z: int, alpha: float) -> tuple[int, float]:
    """How many primes r <= z have P(r-1) > r**alpha, and the z/log z ratio.

    Counts the RSet over the windows of ``witness._rset_windows(1, z, alpha)``,
    which double up to ``sieve.SEGMENT_LENGTH`` numbers: a window's members
    are exactly the full RSet's members in it, so the count is that of
    ``build_rset(1, z, alpha)`` while memory stays that of one window at any z.

    Raises:
        TypeError, ValueError: if z is a bool or not an integer, z < 2 or z >= 2**63 (the
            int64 limit, refused before the first window), or alpha is outside (0, 1].
    """
    z = sieve.check_int(z, "rset_density", "z", 2, 2**63 - 1)
    count = sum(rset.members.size for rset in _rset_windows(1, z, alpha))
    return count, count / (z / math.log(z))


def bs_max_pdiff(a_set, b_set) -> tuple[int, tuple[int, int]]:
    """Maximum P(|a - b|) over pairs a in A, b in B with a != b.

    Only the prime content of the difference matters, hence the absolute value. Returns the
    maximum and one attaining pair: among the maximizing differences d the smallest, then the
    smallest a with a - d in B, else the smallest a with a + d in B. Memory follows the
    spread, not the number of pairs: a bool bitmap and an int64 ``lpf_table`` over
    [1, max |a - b|], 9 bytes per unit of spread.

    Raises:
        TypeError: if an element is not an integer, or is a bool (``sieve.check_int``).
        ValueError: if an element is outside [1, 2**63), the int64 limit (``sieve.check_int``),
            either set is empty, or every pair has a = b.
    """
    a_sorted, b_sorted = (
        sorted({sieve.check_int(v, "bs_max_pdiff", "each element", 1, 2**63 - 1) for v in values})
        for values in (a_set, b_set))
    if not a_sorted or not b_sorted:
        raise ValueError("both sets must be nonempty")
    a_vals = np.asarray(a_sorted, dtype=np.int64)
    b_vals = np.asarray(b_sorted, dtype=np.int64)
    # the largest |a - b|, attained by (a_max, b_min) or (b_max, a_min)
    top = max(a_sorted[-1] - b_sorted[0], b_sorted[-1] - a_sorted[0])
    if top < 1:
        raise ValueError("no pair with a != b exists")
    seen = np.zeros(top + 1, dtype=bool)  # seen[d]: some pair has |a - b| = d
    chunk = max(1, (1 << 22) // b_vals.size)
    for i in range(0, a_vals.size, chunk):
        seen[np.abs(a_vals[i : i + chunk, None] - b_vals[None, :])] = True
    pvals = factor.lpf_table(1, top)
    pvals[~seen[1:]] = 0
    idx = int(np.argmax(pvals))  # the first maximum: the smallest maximizing d
    best_d, max_p = idx + 1, int(pvals[idx])
    b_members = set(b_sorted)
    for a in a_sorted:
        if a - best_d in b_members:
            return max_p, (a, a - best_d)
    for a in a_sorted:
        if a + best_d in b_members:
            return max_p, (a, a + best_d)
    raise AssertionError("unreachable: attained difference lost")
