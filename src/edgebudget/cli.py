"""Command-line front end: every toolkit operation as a subcommand.

Reports are machine-readable (JSON or CSV) and byte-identical across runs of
the same invocation. Exit status 0 means success, 1 means invalid parameters
or any other error, and 2 is reserved for mathematically meaningful absence:
no witness exists for the requested search, or a verified certificate does
not validate. Scripts sweeping ranges can rely on 2 never signalling a crash.
"""

import argparse
import dataclasses
import json
import math
import random
import sys

from . import dirichlet, survey, witness
from .util import fmt9, round9

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_WITNESS = 2

DEFAULTS = survey.SurveyConfig()


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "no witness" here
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


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


def _write(path: str | None, *texts: str) -> None:
    """Write the texts one after another to the file at path, or to stdout."""
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
    _write(args.output, text)


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
    if args.format == "json":
        # the newline goes apart: appending it would copy the whole report
        _write(args.output, report.to_json(), "\n")
    else:
        _write(args.output, report.to_csv())
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
    if args.n_max < 2:
        raise ValueError(f"--n-max must be at least 2, got {args.n_max}")
    for flag, size in (("--size-a", args.size_a), ("--size-b", args.size_b)):
        if not 1 <= size <= args.n_max:
            raise ValueError(f"{flag} must lie in [1, --n-max] = [1, {args.n_max}], got {size}")
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    rng = random.Random(args.seed)
    log_n = math.log(args.n_max)
    rows = []
    for trial in range(args.trials):
        a_vals = rng.sample(range(1, args.n_max + 1), args.size_a)
        b_vals = rng.sample(range(1, args.n_max + 1), args.size_b)
        max_p, (a, b) = survey.bs_max_pdiff(a_vals, b_vals)
        threshold = 0.05 * math.sqrt(args.size_a * args.size_b) / log_n
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
    stored = inner.get("score")
    values = [n, *fields] + ([] if stored is None else [stored])
    # only JSON integers certify: bool is an int subclass, and floats and strings would coerce
    if any(type(v) is not int for v in values):
        raise ValueError("n, k, p, q, r and score must be JSON integers")
    w = witness.Witness(*fields, stored if stored is not None else witness.unchecked_score(*fields))
    ok = witness.validate(n, w)
    _emit(args, "n,valid", [(n, ok)])
    return EXIT_OK if ok else EXIT_NO_WITNESS


def build_parser() -> _Parser:
    parser = _Parser(prog="edgebudget", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="report path (default: stdout)")

    def knobs(p, *names):  # defaults shared with survey.SurveyConfig
        for name in names:
            p.add_argument(f"--{name}", type=float, default=getattr(DEFAULTS, name))

    p = sub.add_parser("f-exact", help="exact edge budget f(n) with a maximizing witness")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_f_exact)

    p = sub.add_parser("witness-bv", help="progression-based witness search")
    p.add_argument("--n", type=int, required=True)
    knobs(p, "eps")
    common(p)
    p.set_defaults(fn=_cmd_witness_bv)

    p = sub.add_parser("witness-smooth", help="rough-shifted-prime witness search")
    p.add_argument("--n", type=int, required=True)
    knobs(p, "alpha", "gamma", "c0")
    common(p)
    p.set_defaults(fn=_cmd_witness_smooth)

    p = sub.add_parser("survey", help="witness survey over [x/2, x]")
    p.add_argument("--x", type=int, required=True)
    for name in ("alpha", "gamma"):
        p.add_argument(f"--{name}", type=float, help=f"default {getattr(DEFAULTS, name)}")
    knobs(p, "c0", "eps")
    p.add_argument("--strategies", help=f"comma list from {{{','.join(survey._TAGS[1:])}}}, "
                   f"in any order (default: {','.join(DEFAULTS.strategies)})")
    p.add_argument("--preset", choices=sorted(survey.PRESETS), default=None,
                   help="fixes alpha, gamma and strategies")
    common(p)
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("rset-density", help="density of primes r <= z with rough r-1")
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_rset_density)

    p = sub.add_parser("psi", help="Chebyshev psi(y; m, a)")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("discrepancy", help="worst-case psi discrepancy for a modulus")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_discrepancy)

    p = sub.add_parser("bv-sum", help="averaged worst-case discrepancy up to the cutoff")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    common(p)
    p.set_defaults(fn=_cmd_bv_sum)

    p = sub.add_parser("bs-experiment", help="max P(a-b) over seeded random set pairs")
    p.add_argument("--n-max", type=int, default=10_000)
    p.add_argument("--size-a", type=int, default=1000)
    p.add_argument("--size-b", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_bs_experiment)

    p = sub.add_parser("verify", help="re-validate a serialized witness certificate")
    p.add_argument("--input", default="-", help="JSON witness path, or - for stdin")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"edgebudget: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"edgebudget: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
