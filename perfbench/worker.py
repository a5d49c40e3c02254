"""Run one benchmark batch in a fresh interpreter; print its result as JSON.

    python3 perfbench/worker.py WORKLOAD BATCH_INDEX TRACE

run.py starts one worker per batch, one at a time, with the checkout's
``src`` as the only PYTHONPATH entry. The worker times only the calls into
edgebudget; checks of the outputs run after the timed region, and the peak
RSS is read before them so that the checks do not inflate it.
"""

import time

# Timed first, before any other import: the set-up that a command-line user
# pays on every invocation, numpy included.
_start = time.perf_counter()
import edgebudget  # noqa: E402
import edgebudget.cli  # noqa: E402

SETUP = (_start, time.perf_counter() - _start)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SURVEY_SAMPLE = 200


class _Sink:
    """Stands in for stdout and keeps what the program writes, uncopied."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def _cli(argv: list[str]) -> tuple[float, float, bool, str]:
    """Time one in-process CLI call: (start, seconds, exit code was 0, stdout)."""
    sink = _Sink()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = edgebudget.cli.main(argv)
    except Exception as exc:  # a crash fails this operation, not the batch
        print(f"worker: {argv}: {exc!r}", file=sys.stderr)
        code = None
    return start, time.perf_counter() - start, code == 0, "".join(sink.parts)


def _certifies(n: int, doc: dict) -> bool:
    """Whether a serialized witness passes ``validate`` for n."""
    try:
        w = edgebudget.Witness(doc["k"], doc["p"], doc["q"], doc["r"], doc["score"])
    except (KeyError, TypeError):
        return False
    return edgebudget.validate(n, w)


def _certificate(n: int) -> tuple[float, float, bool, str]:
    """One bv certificate: strategy_bv, JSON round trip and ``validate``, timed."""
    start = time.perf_counter()
    try:
        w = edgebudget.strategy_bv(n)
        text = json.dumps(edgebudget.witness_json(n, w, "bv"))
        doc = json.loads(text)
        ok = _certifies(doc["n"], doc)
    except Exception as exc:  # a crash fails this certificate, not the batch
        print(f"worker: certificate for {n}: {exc!r}", file=sys.stderr)
        ok, text = False, ""
    return start, time.perf_counter() - start, ok, text + "\n"


def _timed_ops(workload: str, inputs: dict) -> list[tuple[float, float, bool, str]]:
    if workload == "survey":
        return [_cli(["survey", "--preset", "corollary-1", "--x", str(inputs["x"])])]
    if workload == "exact":
        return [_cli(["f-exact", "--n", str(n)]) for n in inputs["n"]]
    if workload == "discrepancy":
        z = str(inputs["z"])
        ops = [_cli(["bv-sum", "--z", z, "--B", "1"])]
        return ops + [_cli(["discrepancy", "--z", z, "--m", str(m)]) for m in inputs["m"]]
    ops = [_certificate(n) for n in inputs["bv"]]
    return ops + [_cli(["witness-smooth", "--n", str(n)]) for n in inputs["smooth"]]


def _check(workload: str, index: int, inputs: dict, ops: list) -> tuple[list[bool], int]:
    """Per-operation verdicts after the timed region, and the batch's items.

    Every certificate the batch emitted goes through ``validate`` again (a
    seeded sample of the survey's records); byte-level agreement with the
    seed commit is checked by the caller against reference.json.
    """
    ok = [passed for _, _, passed, _ in ops]
    texts = [text for _, _, _, text in ops]
    if workload == "survey":
        x = inputs["x"]
        surveyed = x - (x + 1) // 2 + 1  # every n in [ceil(x/2), x]
        records = json.loads(texts[0])["records"] if ok[0] else []
        found = [rec for rec in records if not rec["exceptional"]]
        sample = random.Random(index).sample(found, min(SURVEY_SAMPLE, len(found)))
        ok[0] = ok[0] and len(records) == surveyed
        ok[0] = ok[0] and all(_certifies(rec["n"], rec) for rec in sample)
        return ok, surveyed
    if workload == "exact":
        for i, (n, text) in enumerate(zip(inputs["n"], texts)):
            doc = json.loads(text) if ok[i] else {}
            ok[i] = ok[i] and doc["value"] == doc["witness"]["score"] and _certifies(n, doc["witness"])
        return ok, len(ops)
    if workload == "discrepancy":
        cutoff = json.loads(texts[0])["cutoff"] if ok[0] else 0
        return ok, cutoff + len(inputs["m"])
    for i, n in enumerate(inputs["bv"] + inputs["smooth"]):
        ok[i] = ok[i] and _certifies(n, json.loads(texts[i]))
    return ok, len(ops)


def main(argv: list[str]) -> int:
    workload, index, trace = argv[0], int(argv[1]), argv[2] == "1"
    inputs = workloads.batch_inputs(workload, index)
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops = _timed_ops(workload, inputs)
    trace_totals = tracer.snapshot() if tracer is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok, items = _check(workload, index, inputs, ops)
    texts = [text for _, _, _, text in ops]
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
    result = {
        "setup": SETUP,
        "ops": [(start, seconds) for start, seconds, _, _ in ops],
        "ok": ok,
        "items": items,
        "peak_rss_mb": peak_rss_mb,
        "outputs_sha256": digest.hexdigest(),
        "trace": trace_totals,
    }
    if workload in ("exact", "discrepancy"):
        result["outputs"] = texts
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
