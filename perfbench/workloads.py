"""Seeded inputs of the benchmark workloads.

Every workload has a pool of POOL batches. A batch is the work one fresh
interpreter does, and its inputs follow from (workload, batch index) alone,
with integer arithmetic only, so every platform draws the same numbers.
``reference.json`` holds the seed-commit outputs of every batch in the pool;
a run's ``--seed`` picks the order in which it visits the pool.

Input ranges are kept narrow so that every batch costs about the same: the
end-to-end numbers of a run then depend on the program, not on which
batches the seed happened to pick.
"""

import hashlib
import json
import random

WORKLOADS = ("survey", "exact", "discrepancy", "certify")
POOL = 32
BV_CERTS_PER_BATCH = 3000
SMOOTH_PER_BATCH = 2


def batch_inputs(workload: str, index: int) -> dict:
    """The inputs of batch ``index`` of ``workload``."""
    rng = random.Random(f"{workload}/{index}")
    if workload == "survey":
        return {"x": rng.randint(250_000, 260_000)}
    if workload == "exact":
        # two n below 2**19 and four in [2**19, 2**20): f_exact sizes its
        # tables by the bit length of n, so the first call of each size builds
        # them cold and the later ones reuse them. Four large n keep the
        # median call inside one cluster of latencies.
        ns = [rng.randint(460_000, 520_000) for _ in range(2)]
        ns += [rng.randint(900_000, 1_000_000) for _ in range(4)]
        rng.shuffle(ns)
        return {"n": ns}
    if workload == "discrepancy":
        moduli = [rng.randint(1_000, 10_000) for _ in range(rng.randint(3, 5))]
        return {"z": rng.randint(580_000, 620_000), "m": moduli}
    if workload == "certify":
        bv = []
        for _ in range(BV_CERTS_PER_BATCH):
            decade = rng.randrange(12, 18)
            bv.append(rng.randrange(10**decade, 10 ** (decade + 1)))
        smooth = [rng.randint(10_000_000, 12_000_000) for _ in range(SMOOTH_PER_BATCH)]
        return {"bv": bv, "smooth": smooth}
    raise ValueError(f"unknown workload {workload!r}")


def op_count(workload: str, inputs: dict) -> int:
    """Operations in a batch: CLI calls, or certificates for ``certify``."""
    if workload == "survey":
        return 1
    if workload == "exact":
        return len(inputs["n"])
    if workload == "discrepancy":
        return 1 + len(inputs["m"])
    return len(inputs["bv"]) + len(inputs["smooth"])


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def batch_order(workload: str, seed: int) -> list[int]:
    """The seed's visiting order of the pool; a run cycles through it."""
    order = list(range(POOL))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order
