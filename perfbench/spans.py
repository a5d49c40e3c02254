"""Per-layer trace of edgebudget, recorded from outside the package.

``Tracer.install`` wraps each function in SPANS in a timed span, in every
``edgebudget`` module namespace that binds it (``survey`` and the package
itself import functions by name). A span's self time is its duration minus
the durations of the spans it encloses, so the self times of all spans add
up to the time covered by top-level spans. Spans are folded into per-name
totals as they close rather than kept one by one: the survey workload opens
millions of them.

A name that a later version of the package no longer has is listed in
``absent`` and reports zeros; the trace does not fail on it.
"""

import bisect
import sys
import time
from collections import Counter


def _count_primes(tracer, state, args, kwargs, result):
    tracer.counts["sieve.primes_in.primes"] += len(result)


def _count_entries(tracer, state, args, kwargs, result):
    tracer.counts["factor.lpf_table.entries"] += len(result)


def _rset_enter(tracer):
    return tracer.counts["sieve.primes_in.primes"]


def _count_rset(tracer, state, args, kwargs, result):
    tracer.counts["witness.build_rset.primes"] += tracer.counts["sieve.primes_in.primes"] - state
    tracer.counts["witness.build_rset.members"] += len(result)


def _count_smooth_scan(tracer, state, args, kwargs, result):
    members = (args[1] if len(args) > 1 else kwargs["rset"]).members
    if result is None:
        tracer.counts["witness.strategy_smooth.scanned"] += len(members)
    else:
        tracer.counts["witness.strategy_smooth.hits"] += 1
        tracer.counts["witness.strategy_smooth.scanned"] += bisect.bisect_left(members, result.r) + 1


def _bv_enter(tracer):
    return tracer.calls["sieve.is_prime"]


def _count_bv_tests(tracer, state, args, kwargs, result):
    tracer.counts["witness.strategy_bv.primality_tests"] += tracer.calls["sieve.is_prime"] - state


def _count_json_bytes(tracer, state, args, kwargs, result):
    tracer.counts["survey.SurveyReport.to_json.bytes"] += len(result)


def _count_jumps(tracer, state, args, kwargs, result):
    tracer.counts["dirichlet.prime_power_jumps.jumps"] += len(result)


# (span name, module under edgebudget, attribute path, enter hook, exit hook)
SPANS = (
    ("sieve.primes_in", "sieve", "primes_in", None, _count_primes),
    ("sieve.is_prime", "sieve", "is_prime", None, None),
    ("factor.lpf_table", "factor", "lpf_table", None, _count_entries),
    ("factor.largest_prime_factor", "factor", "largest_prime_factor", None, None),
    ("factor.euler_phi", "factor", "euler_phi", None, None),
    ("witness.build_rset", "witness", "build_rset", _rset_enter, _count_rset),
    ("witness.strategy_smooth", "witness", "strategy_smooth", None, _count_smooth_scan),
    ("witness.strategy_bv", "witness", "strategy_bv", _bv_enter, _count_bv_tests),
    ("witness.f_exact", "witness", "f_exact", None, None),
    ("witness.validate", "witness", "validate", None, None),
    ("util.compare_power", "util", "compare_power", None, None),
    ("dirichlet.max_discrepancy", "dirichlet", "max_discrepancy", None, None),
    ("dirichlet.bv_sum", "dirichlet", "bv_sum", None, None),
    ("dirichlet.prime_power_jumps", "dirichlet", "prime_power_jumps", None, _count_jumps),
    ("survey.survey_range", "survey", "survey_range", None, None),
    ("survey.SurveyReport.to_json", "survey", "SurveyReport.to_json", None, _count_json_bytes),
    ("cli.main", "cli", "main", None, None),
)

# Counted but not timed: a span per call would cost more than the call.
COUNTED = (("factor.FactorTable.getitem", "factor", "FactorTable.__getitem__"),)


class Tracer:
    """Span and counter totals for one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.covered_s = 0.0
        self.absent: list[str] = []
        self._stack: list[list] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "edgebudget"]
        for name, module, path, enter, leave in SPANS:
            self._patch(modules, name, module, path, lambda fn: self._span(name, fn, enter, leave))
        for name, module, path in COUNTED:
            self._patch(modules, name, module, path, lambda fn: self._counter(name, fn))

    def _patch(self, modules, name, module, path, wrap) -> None:
        # wrap is called at once, so its closure over the loop variables is safe
        owner = sys.modules.get(f"edgebudget.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapped = wrap(original)
        if outer:
            setattr(owner, attr, wrapped)  # a method: the class is shared by every importer
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _span(self, name, fn, enter, leave):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = enter(self) if enter is not None else None
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered_s += duration
            if leave is not None:
                leave(self, state, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def snapshot(self) -> dict:
        """Totals so far, as plain JSON-ready dicts."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
            "absent": list(self.absent),
        }
