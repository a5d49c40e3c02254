"""Command-line front end: every toolkit operation as a subcommand.

Reports are machine-readable (JSON or CSV) and byte-identical across runs of
the same invocation. Exit status 0 means success, 1 means invalid parameters
or any other error, and 2 is reserved for mathematically meaningful absence:
no witness exists for the requested search, or a verified certificate does
not validate. Scripts sweeping ranges can rely on 2 never signalling a crash.
"""

import argparse
import json
import math
import random
import sys

from . import dirichlet, survey, witness
from .util import fmt9, round9

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_WITNESS = 2

WITNESS_CSV_HEADER = "n,strategy,k,p,q,r,score"
PRESET_NAMES = tuple(survey.PRESETS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "no witness" here
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _witness_csv(n: int, strategy: str, w: witness.Witness | None) -> str:
    if w is None:
        return f"{WITNESS_CSV_HEADER}\n{n},{strategy},,,,,\n"
    return f"{WITNESS_CSV_HEADER}\n{n},{strategy},{w.k},{w.p},{w.q},{w.r},{w.score}\n"


def _cmd_f_exact(args) -> int:
    value, w = witness.f_exact(args.n)
    if args.format == "json":
        doc = {"n": args.n, "value": value, "witness": None}
        if w is not None:
            doc["witness"] = witness.witness_json(args.n, w, "exact")
            del doc["witness"]["n"]
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(_witness_csv(args.n, "exact", w), args.output)
    return EXIT_OK if w is not None else EXIT_NO_WITNESS


def _emit_witness(args, strategy: str, w: witness.Witness | None) -> int:
    if args.format == "json":
        if w is None:
            doc = {"n": args.n, "strategy": strategy, "witness": None}
        else:
            doc = witness.witness_json(args.n, w, strategy)
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(_witness_csv(args.n, strategy, w), args.output)
    return EXIT_OK if w is not None else EXIT_NO_WITNESS


def _cmd_witness_bv(args) -> int:
    return _emit_witness(args, "bv", witness.strategy_bv(args.n, args.eps))


def _cmd_witness_smooth(args) -> int:
    config = survey.SurveyConfig(alpha=args.alpha, gamma=args.gamma, c0=args.c0)
    config.check()
    w = witness.strategy_smooth(args.n, config.rset(args.n), args.gamma)
    return _emit_witness(args, "smooth", w)


def _survey_config(args) -> survey.SurveyConfig:
    if args.preset is not None:
        base = survey.PRESETS[args.preset]
        return survey.SurveyConfig(
            alpha=base.alpha,
            gamma=base.gamma,
            c0=args.c0,
            eps=args.eps,
            use_smooth=base.use_smooth,
            use_bv=base.use_bv,
        )
    names = args.strategies.split(",")
    for name in names:
        if name not in ("smooth", "bv"):
            raise ValueError(f"unknown strategy {name!r}")
    return survey.SurveyConfig(
        alpha=args.alpha,
        gamma=args.gamma,
        c0=args.c0,
        eps=args.eps,
        use_smooth="smooth" in names,
        use_bv="bv" in names,
    )


def _cmd_survey(args) -> int:
    report = survey.survey_range(args.x, _survey_config(args))
    text = report.to_json() + "\n" if args.format == "json" else report.to_csv()
    _write(text, args.output)
    return EXIT_OK


def _cmd_rset_density(args) -> int:
    count, ratio = survey.rset_density(args.z, args.alpha)
    if args.format == "json":
        doc = {"z": args.z, "alpha": args.alpha, "count": count, "ratio": round9(ratio)}
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(f"z,alpha,count,ratio\n{args.z},{args.alpha},{count},{fmt9(ratio)}\n", args.output)
    return EXIT_OK


def _cmd_psi(args) -> int:
    value = dirichlet.psi(args.y, args.m, args.a)
    if args.format == "json":
        doc = {"y": args.y, "m": args.m, "a": args.a, "psi": round9(value)}
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(f"y,m,a,psi\n{args.y},{args.m},{args.a},{fmt9(value)}\n", args.output)
    return EXIT_OK


def _cmd_discrepancy(args) -> int:
    rec = dirichlet.max_discrepancy(args.z, args.m)
    if args.format == "json":
        doc = {
            "m": rec.m,
            "worst_a": rec.worst_a,
            "worst_y": round9(rec.worst_y),
            "sup_value": round9(rec.sup_value),
            "is_left_limit": rec.is_left_limit,
        }
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(f"{dirichlet.DISCREPANCY_CSV_HEADER}\n{rec.csv_row()}\n", args.output)
    return EXIT_OK


def _cmd_bv_sum(args) -> int:
    value = dirichlet.bv_sum(args.z, args.B)
    cutoff = dirichlet.bv_cutoff(args.z, args.B)
    if args.format == "json":
        doc = {"z": args.z, "B": args.B, "cutoff": cutoff, "sum": round9(value)}
        _write(_json_dumps(doc) + "\n", args.output)
    else:
        _write(f"z,B,cutoff,sum\n{args.z},{args.B},{cutoff},{fmt9(value)}\n", args.output)
    return EXIT_OK


def _cmd_bs_experiment(args) -> int:
    rng = random.Random(args.seed)
    log_n = math.log(args.n_max)
    rows = []
    for trial in range(args.trials):
        a_vals = rng.sample(range(1, args.n_max + 1), args.size_a)
        b_vals = rng.sample(range(1, args.n_max + 1), args.size_b)
        max_p, (a, b) = survey.bs_max_pdiff(a_vals, b_vals)
        threshold = 0.05 * math.sqrt(args.size_a * args.size_b) / log_n
        rows.append(
            {
                "trial": trial,
                "seed": args.seed,
                "size_a": args.size_a,
                "size_b": args.size_b,
                "n_max": args.n_max,
                "max_p": max_p,
                "a": a,
                "b": b,
                "threshold": round9(threshold),
                "meets_threshold": max_p >= threshold,
            }
        )
    if args.format == "json":
        _write(_json_dumps({"trials": rows}) + "\n", args.output)
    else:
        lines = ["trial,seed,size_a,size_b,n_max,max_p,a,b,threshold,meets_threshold"]
        for row in rows:
            lines.append(
                f"{row['trial']},{row['seed']},{row['size_a']},{row['size_b']},"
                f"{row['n_max']},{row['max_p']},{row['a']},{row['b']},"
                f"{fmt9(row['threshold'])},{1 if row['meets_threshold'] else 0}"
            )
        _write("\n".join(lines) + "\n", args.output)
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
    k, p, q, r = fields
    w = witness.Witness(k, p, q, r, stored if stored is not None else min(p * p * k, p * k * r, q * r))
    ok = witness.validate(n, w)
    _write(_json_dumps({"n": n, "valid": ok}) + "\n", args.output)
    return EXIT_OK if ok else EXIT_NO_WITNESS


def build_parser() -> _Parser:
    parser = _Parser(prog="edgebudget", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="report path (default: stdout)")

    def threads(p):  # kept for compatibility: every subcommand runs in one process
        p.add_argument("--threads", type=int, help="accepted and ignored")

    p = sub.add_parser("f-exact", help="exact edge budget f(n) with a maximizing witness")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_f_exact)

    p = sub.add_parser("witness-bv", help="progression-based witness search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.05)
    common(p)
    p.set_defaults(fn=_cmd_witness_bv)

    p = sub.add_parser("witness-smooth", help="rough-shifted-prime witness search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.677)
    p.add_argument("--gamma", type=float, default=0.677)
    p.add_argument("--c0", type=float, default=0.05)
    common(p)
    p.set_defaults(fn=_cmd_witness_smooth)

    p = sub.add_parser("survey", help="witness survey over [x/2, x]")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.677)
    p.add_argument("--gamma", type=float, default=0.677)
    p.add_argument("--c0", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--strategies", default="smooth", help="comma list from {smooth,bv}")
    p.add_argument("--preset", choices=sorted(PRESET_NAMES), default=None)
    common(p)
    threads(p)
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
    threads(p)
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
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"edgebudget: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
