"""Command-line front end: every toolkit operation as a subcommand.

Reports are machine-readable (JSON or CSV) and byte-identical across runs of
the same invocation. Exit status 0 means success, 1 means invalid parameters
or any other error, and 2 is reserved for mathematically meaningful absence:
no witness exists for the requested search, or a verified certificate does
not validate. Scripts sweeping ranges can rely on 2 never signalling a crash.
The parser is built once per process, on first use, and each subcommand's
parser on that subcommand's first use; each call parses into a fresh
namespace, so no flag of one call carries over to the next.
"""

import argparse
import dataclasses
import functools
import json
import math
import random
import sys
from collections.abc import Iterable

from . import dirichlet, sieve, survey, witness
from .util import fmt9, round9

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_WITNESS = 2

DEFAULTS = survey.SurveyConfig()

# the strategy label of every witness document the CLI writes
_STRATEGIES = (*survey._TAGS[1:], "exact")

# what ``edgebudget --help`` prints above the subcommands; the module docstring is for readers
# of the code
_DESCRIPTION = """The edge budget f(n), its witness certificates, and the prime-distribution
experiments behind them. Every report is JSON or CSV, byte-identical across runs of the
same invocation. Exit status: 0 on success, 1 on invalid parameters or any other error,
and 2 when no witness exists for the search or a verified certificate does not validate."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "no witness" here
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


class _Deferred:
    """A subcommand's ``_Parser``, built on its first use, so a call builds only its own.

    Until then it records ``add_argument`` and ``set_defaults``; the first read of
    any other attribute (argparse parsing or printing help) builds it and replays them.
    """

    def __init__(self, **kwargs):
        self._kwargs, self._calls, self._parser = kwargs, [], None

    def add_argument(self, *args, **kwargs):
        self._calls.append((_Parser.add_argument, args, kwargs))

    def set_defaults(self, **kwargs):
        self._calls.append((_Parser.set_defaults, (), kwargs))

    def __getattr__(self, name):  # reached only by names not found on the instance
        if self._parser is None:
            self._parser = _Parser(**self._kwargs)
            for method, args, kwargs in self._calls:
                method(self._parser, *args, **kwargs)
        return getattr(self._parser, name)


class _Nine(float):
    """A computed float: ``round9`` in JSON, ``fmt9`` in CSV. Echoed inputs stay plain floats."""


def _nine(x: float) -> _Nine:
    return _Nine(round9(x))  # json writes a float subclass through float.__repr__


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool is 1 or 0, anything else prints as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return fmt9(value) if isinstance(value, _Nine) else str(value)


def _write(path: str | None, texts: Iterable[str]) -> None:
    """Write the texts one after another, as they come, to the file at path or to stdout."""
    if path is None or path == "-":
        for text in texts:
            sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.writelines(texts)


def _emit(args, fields: str, rows: list[tuple], *, key: str | None = None, doc=None) -> None:
    """Write a report of the comma-separated ``fields``, one tuple of values per row.

    CSV is the header and one line per row. JSON is ``doc`` when given, else
    the rows as objects: the one row itself, or every row under ``key``.
    """
    if args.format == "csv":
        text = "\n".join([fields, *(",".join(map(_cell, row)) for row in rows)]) + "\n"
    else:
        if doc is None:
            objects = [dict(zip(fields.split(","), row)) for row in rows]
            doc = objects[0] if key is None else {key: objects}
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    _write(args.output, [text])


def _emit_witness(args, strategy: str, w: witness.Witness | None, doc: dict | None = None) -> int:
    """A witness report; JSON is ``doc``, by default the flat certificate."""
    if doc is None:
        doc = {"n": args.n, "strategy": strategy, "witness": None}
        if w is not None:
            doc = witness.witness_json(args.n, w, strategy)
    cells = (None,) * 5 if w is None else (w.k, w.p, w.q, w.r, w.score)
    _emit(args, "n,strategy,k,p,q,r,score", [(args.n, strategy, *cells)], doc=doc)
    return EXIT_OK if w is not None else EXIT_NO_WITNESS


def _cmd_f_exact(args) -> int:
    value, w = witness.f_exact(args.n)
    doc = {"n": args.n, "value": value, "witness": None}
    if w is not None:
        doc["witness"] = witness.witness_json(args.n, w, "exact")
        del doc["witness"]["n"]
    return _emit_witness(args, "exact", w, doc)


def _cmd_witness_bv(args) -> int:
    return _emit_witness(args, "bv", witness.strategy_bv(args.n, args.eps))


def _cmd_witness_smooth(args) -> int:
    w = witness.smooth_search(args.n, args.alpha, args.gamma, args.c0)
    return _emit_witness(args, "smooth", w)


def _survey_config(args) -> survey.SurveyConfig:
    # a preset fixes alpha, gamma and the strategies; only c0 and eps stay free
    given = {name: getattr(args, name) for name in ("alpha", "gamma", "strategies")}
    given = {name: value for name, value in given.items() if value is not None}
    if args.preset is not None and given:
        flags = ", ".join(f"--{name}" for name in given)
        raise ValueError(f"{flags} cannot be combined with --preset")
    if "strategies" in given:
        given["strategies"] = tuple(given["strategies"].split(","))
    base = DEFAULTS if args.preset is None else survey.PRESETS[args.preset]
    return dataclasses.replace(base, c0=args.c0, eps=args.eps, **given)


def _cmd_survey(args) -> int:
    report = survey.survey_range(args.x, _survey_config(args))
    _write(args.output, report.text(args.format == "csv"))
    return EXIT_OK


def _cmd_rset_density(args) -> int:
    count, ratio = survey.rset_density(args.z, args.alpha)
    _emit(args, "z,alpha,count,ratio", [(args.z, args.alpha, count, _nine(ratio))])
    return EXIT_OK


def _cmd_psi(args) -> int:
    value = dirichlet.psi(args.y, args.m, args.a)
    _emit(args, "y,m,a,psi", [(args.y, args.m, args.a, _nine(value))])
    return EXIT_OK


def _cmd_discrepancy(args) -> int:
    rec = dirichlet.max_discrepancy(args.z, args.m)
    row = (rec.m, rec.worst_a, _nine(rec.worst_y), _nine(rec.sup_value), rec.is_left_limit)
    _emit(args, "m,worst_a,worst_y,sup_value,is_left_limit", [row])
    return EXIT_OK


def _cmd_bv_sum(args) -> int:
    value = dirichlet.bv_sum(args.z, args.B)
    cutoff = dirichlet.bv_cutoff(args.z, args.B)
    _emit(args, "z,B,cutoff,sum", [(args.z, args.B, cutoff, _nine(value))])
    return EXIT_OK


def _cmd_bs_experiment(args) -> int:
    sieve.check_int(args.n_max, "bs-experiment", "--n-max", 2, 2**63 - 1)
    for flag, size in (("--size-a", args.size_a), ("--size-b", args.size_b)):
        sieve.check_int(size, "bs-experiment", flag, 1, args.n_max)
    sieve.check_int(args.trials, "bs-experiment", "--trials", 0)
    rng = random.Random(args.seed)
    threshold = 0.05 * math.sqrt(args.size_a * args.size_b) / math.log(args.n_max)
    rows = []
    for trial in range(args.trials):
        a_vals = rng.sample(range(1, args.n_max + 1), args.size_a)
        b_vals = rng.sample(range(1, args.n_max + 1), args.size_b)
        max_p, (a, b) = survey.bs_max_pdiff(a_vals, b_vals)
        rows.append((trial, args.seed, args.size_a, args.size_b, args.n_max, max_p, a, b,
                     _nine(threshold), max_p >= threshold))
    fields = "trial,seed,size_a,size_b,n_max,max_p,a,b,threshold,meets_threshold"
    _emit(args, fields, rows, key="trials")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input) as fh:
            raw = fh.read()
    doc = json.loads(raw)
    inner = doc.get("witness", doc) if isinstance(doc, dict) else None
    if not isinstance(doc, dict) or not isinstance(inner, dict):
        raise ValueError("input holds no witness object")
    n = doc.get("n", inner.get("n"))
    fields = [inner.get(key) for key in ("k", "p", "q", "r")]
    if n is None or any(v is None for v in fields):
        raise ValueError("witness object must carry n, k, p, q, r")
    given = [inner[key] for key in ("n", "score") if key in inner]
    # only JSON integers certify: bool is an int subclass, floats and strings
    # would coerce, and a null score is not an absent one
    if any(type(v) is not int for v in [n, *fields, *given]):
        raise ValueError("n, k, p, q, r and score must be JSON integers")
    if inner.get("n", n) != n:
        raise ValueError(f"the witness's n = {inner['n']} differs from the document's n = {n}")
    # an f-exact document claims f(n) >= value through its exact witness's score
    claims = "value" in doc
    if claims and type(doc["value"]) is not int:
        raise ValueError("value must be a JSON integer")
    strategy = inner.get("strategy")
    if strategy not in (None, *_STRATEGIES) or (strategy == "exact") != claims:
        raise ValueError(f"strategy must be one of {', '.join(_STRATEGIES)}, "
                         "and exact exactly when the document carries value")
    score = inner["score"] if "score" in inner else witness.unchecked_score(*fields)
    w = witness.Witness(*fields, score)
    ok = witness.validate(n, w) and (not claims or doc["value"] == score)
    _emit(args, "n,valid", [(n, ok)])
    return EXIT_OK if ok else EXIT_NO_WITNESS


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="edgebudget", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Deferred)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    def knobs(p, *names):  # defaults shared with survey.SurveyConfig
        for name in names:
            p.add_argument(f"--{name}", type=float, default=getattr(DEFAULTS, name))

    p = command("f-exact", _cmd_f_exact, "exact edge budget f(n) with a maximizing witness")
    p.add_argument("--n", type=int, required=True)

    p = command("witness-bv", _cmd_witness_bv, "progression-based witness search")
    p.add_argument("--n", type=int, required=True)
    knobs(p, "eps")

    p = command("witness-smooth", _cmd_witness_smooth, "rough-shifted-prime witness search")
    p.add_argument("--n", type=int, required=True)
    knobs(p, "alpha", "gamma", "c0")

    p = command("survey", _cmd_survey, "witness survey over [x/2, x]")
    p.add_argument("--x", type=int, required=True)
    for name in ("alpha", "gamma"):
        p.add_argument(f"--{name}", type=float, help=f"default {getattr(DEFAULTS, name)}")
    knobs(p, "c0", "eps")
    p.add_argument("--strategies", help=f"comma list from {{{','.join(survey._TAGS[1:])}}}, "
                   f"in any order (default: {','.join(DEFAULTS.strategies)})")
    p.add_argument("--preset", choices=sorted(survey.PRESETS), default=None,
                   help="fixes alpha, gamma and strategies")

    p = command("rset-density", _cmd_rset_density, "density of primes r <= z with rough r-1")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = command("psi", _cmd_psi, "Chebyshev psi(y; m, a)")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = command("discrepancy", _cmd_discrepancy, "worst-case psi discrepancy for a modulus")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("bv-sum", _cmd_bv_sum, "averaged worst-case discrepancy up to the cutoff")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--B", type=float, required=True)

    p = command("bs-experiment", _cmd_bs_experiment, "max P(a-b) over seeded random set pairs")
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--size-a", type=int, default=1000)
    p.add_argument("--size-b", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = command("verify", _cmd_verify, "re-validate a serialized witness certificate")
    p.add_argument("--input", default="-", help="JSON witness path, or - for stdin")

    # every subcommand writes a report: these two come last in each help text
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="report path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, RecursionError) as exc:  # deeply nested JSON recurses
        print(f"edgebudget: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"edgebudget: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
