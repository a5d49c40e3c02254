"""Benchmark runner for edgebudget.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Run from the root of a checkout. Each batch of the workload runs in a fresh
interpreter (worker.py), one at a time: a closed loop with one client. New
batches start until ``--seconds`` have passed. Every output is checked: the
worker validates each certificate, and this runner compares each batch's
output bytes with the seed-commit outputs in reference.json. The runner
pins itself and its workers to one vCPU and times a probe loop on it while
each worker runs; reported times are scaled by the probe to a reference
vCPU speed (see ``_scaled``).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` every batch runs twice, untraced and then traced; the
outputs of the two must be byte-identical, the per-layer metrics come from
the traced twin, and ``trace.overhead`` compares the two operation times.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. ``--record`` instead rewrites reference.json from the program as it
stands; run it only at a commit whose outputs are the reference.
"""

import argparse
import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKER_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
# About the probe's duration on an idle vCPU of the 2-vCPU KVM guest (Xeon,
# 2.1 GHz) the baseline was measured on: the speed reported times are scaled to.
# The probe is short and rare so that it stays out of the certify p99.
PROBE_REFERENCE_S = 0.000325


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["EDGEBUDGET_THREADS"] = "1"  # the single-process path; the pool is out of scope on 2 CPUs
    env["PYTHONHASHSEED"] = "0"
    return env


def _probe() -> tuple[float, float]:
    """(start, duration) of a fixed pure-Python loop: the vCPU's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i % 7
    return start, time.perf_counter() - start


def run_worker(workload: str, index: int, trace: bool) -> dict | None:
    """One batch in a fresh interpreter; None if the worker crashed or hung.

    While the worker runs, this process wakes every PROBE_INTERVAL_S and
    times the probe on the same vCPU; the samples go to result["probes"].
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(index), "1" if trace else "0"]
    probes = [_probe()]
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    proc = subprocess.Popen(
        cmd, env=_worker_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=PROBE_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    raise
                probes.append(_probe())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run: batch {index} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        print(f"run: batch {index} exited {proc.returncode}:\n{stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(stdout.splitlines()[-1])
    result["probes"] = probes + [_probe()]
    return result


def _scaled(batch: dict, start: float, seconds: float) -> float:
    """seconds at the reference speed: scaled by the probes around the interval.

    An identical loop on this class of shared vCPU runs up to 1.5 times
    slower from one second to the next, and the run-to-run spread of raw
    times is larger than any bound worth having. The probes time the same
    vCPU at the same moments, so they slow down with the operation.
    """
    starts = [t for t, _ in batch["probes"]]
    lo = bisect.bisect_left(starts, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(starts, start + seconds + PROBE_WINDOW_S)
    window = [d for _, d in batch["probes"][lo:hi]] or [d for _, d in batch["probes"]]
    return seconds * PROBE_REFERENCE_S / statistics.median(window)


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def end_to_end(batches: list[dict], scale) -> dict:
    """The end-to-end metrics, with every time passed through scale(batch, start, seconds)."""
    latencies_ms = sorted(1000 * scale(b, *op) for b in batches for op in b["ops"])
    return {
        "items_per_s": sum(b["items"] for b in batches) / (sum(latencies_ms) / 1000),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p99_ms": _nearest_rank(latencies_ms, 99),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        "setup_s": statistics.median(scale(b, *b["setup"]) for b in batches),
    }


def _scaled_op_s(batch: dict) -> float:
    return sum(_scaled(batch, *op) for op in batch["ops"])


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, float]:
    """Per-item layer metrics of the traced twins, and the self-time residual.

    The residual is |sum of self times + unattributed - operation time|,
    relative to the operation time; it is zero up to rounding when every
    span closed inside a timed region.
    """
    calls, self_s, counts = Counter(), Counter(), Counter()
    op_s = covered_s = 0.0
    for b in traced:
        # a batch's spans are scaled like its operations, so the sums still add up
        scale = _scaled_op_s(b) / sum(seconds for _, seconds in b["ops"])
        calls.update(b["trace"]["calls"])
        self_s.update({name: scale * s for name, s in b["trace"]["self_s"].items()})
        counts.update(b["trace"]["counts"])
        op_s += _scaled_op_s(b)
        covered_s += scale * b["trace"]["covered_s"]
    items = sum(b["items"] for b in traced)
    unattributed = op_s - covered_s

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, *_ in spans.SPANS:
        out[f"{name}.calls"] = calls[name] / items
        out[f"{name}.self_s"] = self_s[name] / items
    for name, *_ in spans.COUNTED:
        out[f"{name}.calls"] = calls[name] / items
    out["factor.lpf_table.entries"] = counts["factor.lpf_table.entries"] / items
    out["factor.lpf_table.bytes_computed"] = 8 * counts["factor.lpf_table.entries"] / items
    out["witness.build_rset.keep_ratio"] = ratio(
        counts["witness.build_rset.members"], counts["witness.build_rset.primes"]
    )
    smooth_calls = calls["witness.strategy_smooth"]
    out["witness.strategy_smooth.hit_ratio"] = ratio(counts["witness.strategy_smooth.hits"], smooth_calls)
    out["witness.strategy_smooth.scan_per_call"] = ratio(counts["witness.strategy_smooth.scanned"], smooth_calls)
    out["witness.strategy_bv.primality_tests_per_call"] = ratio(
        counts["witness.strategy_bv.primality_tests"], calls["witness.strategy_bv"]
    )
    out["survey.SurveyReport.to_json.bytes"] = counts["survey.SurveyReport.to_json.bytes"] / items
    out["dirichlet.prime_power_jumps.jumps"] = counts["dirichlet.prime_power_jumps.jumps"] / items
    out["trace.op_s"] = op_s / items
    out["trace.unattributed_s"] = unattributed / items
    out["trace.overhead"] = op_s / sum(_scaled_op_s(b) for b in plain) - 1
    residual = abs(sum(self_s.values()) + unattributed - op_s) / op_s
    return out, (residual if unattributed >= 0 else math.inf)


def _load_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"run: cannot read {path}: {exc}", file=sys.stderr)
        return None


def record(names: list[str]) -> int:
    """Rewrite reference.json entries of the named workloads from the program."""
    reference = (_load_json(REFERENCE) if REFERENCE.exists() else None) or {}
    for workload in names:
        entries = []
        for index in range(workloads.POOL):
            inputs = workloads.batch_inputs(workload, index)
            result = run_worker(workload, index, False)
            if result is None or not all(result["ok"]):
                print(f"run: {workload} batch {index} failed; reference not written", file=sys.stderr)
                return 1
            entry = {"inputs_sha256": workloads.inputs_digest(inputs), "outputs_sha256": result["outputs_sha256"]}
            if "outputs" in result:
                entry["outputs"] = result["outputs"]
            entries.append(entry)
            print(f"recorded {workload} batch {index}", file=sys.stderr)
        reference[workload] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    # workers inherit the pin, so the probes time the vCPU the worker runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # turn SIGTERM into an exception, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "edgebudget" / "__init__.py").is_file():
        print(f"run: no edgebudget sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record([args.workload] if args.workload else list(workloads.WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    bench = _load_json(ROOT / "BENCHMARK.json")
    reference = _load_json(REFERENCE)
    if bench is None or reference is None:
        return 2
    expected = reference[args.workload]

    attempted = failed = batches = 0
    plain, traced = [], []
    order = workloads.batch_order(args.workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        index = order[batches % workloads.POOL]
        batches += 1
        inputs = workloads.batch_inputs(args.workload, index)
        ops = workloads.op_count(args.workload, inputs)
        ref = expected[index]
        twins = [run_worker(args.workload, index, False)]
        if args.trace:
            twins.append(run_worker(args.workload, index, True))
        for twin, result in enumerate(twins):
            attempted += ops
            if result is None:
                failed += ops
                continue
            same = (
                workloads.inputs_digest(inputs) == ref["inputs_sha256"]
                and result["outputs_sha256"] == ref["outputs_sha256"]
            )
            if not same:
                print(f"run: batch {index} outputs differ from reference.json", file=sys.stderr)
            failed += ops if not same else result["ok"].count(False)
            (traced if twin else plain).append(result)

    if not plain or (args.trace and not traced):
        print("run: no batch completed", file=sys.stderr)
        return 1
    residual = 0.0
    raw = {}
    if args.trace:
        metrics, residual = per_layer(traced, plain)
        specs = bench["per_layer"]
        absent = sorted(set(name for b in traced for name in b["trace"]["absent"]))
        print(f"absent layers: {', '.join(absent) or 'none'}")
        print(f"self times + unattributed vs operation time: relative residual {residual:.2e}")
    else:
        metrics = end_to_end(plain, _scaled)
        raw = end_to_end(plain, lambda batch, start, seconds: seconds)
        specs = bench["end_to_end"]
    correct = failed == 0 and residual < 1e-6
    print(f"workload {args.workload}, seed {args.seed}: {batches} batches")
    print(f"attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.6g}")
    report = {}
    for spec in specs:
        value = metrics[spec["name"]]
        report[spec["name"]] = {"value": value, "unit": spec["unit"]}
        unscaled = f"   (unscaled {raw[spec['name']]:.6g})" if spec["name"] in raw else ""
        print(f"{spec['name']:<48} {value:>14.6g} {spec['unit']}{unscaled}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
