"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--workloads survey,exact] [--seeds 1-10]
                                [--seconds S] [--baseline LABEL]

Run from the root of a checkout. Makes one run.py run per workload and seed,
one at a time, and prints for every end-to-end metric the median over the
seeds and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. With ``--baseline LABEL`` it also
makes one traced run per workload and writes everything, with the machine it
ran on, to perfbench/baseline.json under that label.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"spread: {workload} seed {seed} is not correct:\n{proc.stdout}{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--baseline", metavar="LABEL")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    end_to_end, per_layer = {}, {}
    for workload in args.workloads.split(","):
        runs = [bench_run(workload, seed, args.seconds, 0) for seed in seeds]
        end_to_end[workload] = {}
        for spec in bench["end_to_end"]:
            name = spec["name"]
            summary = summarize([run["metrics"][name]["value"] for run in runs])
            end_to_end[workload][name] = summary
            verdict = "ok" if summary["spread"] < spec["bound"] / 3 else "WIDE"
            print(
                f"{workload:<12} {name:<12} median {summary['median']:>12.6g} {spec['unit']:<8}"
                f" spread {summary['spread']:.4f} bound {spec['bound']} {verdict}"
                f" values {' '.join(f'{v:.6g}' for v in summary['values'])}",
                flush=True,
            )
        if args.baseline:
            traced = bench_run(workload, seeds[0], args.seconds, 1)
            per_layer[workload] = {"seed": seeds[0], "metrics": traced["metrics"]}

    if args.baseline:
        doc = {
            "label": args.baseline,
            "machine": {
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
            },
            "seconds": args.seconds,
            "seeds": seeds,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
