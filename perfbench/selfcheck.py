"""Fast smoke test of the benchmark itself (``run.py --selfcheck``).

* The same seed generates identical inputs, and another seed other inputs.
* Counts repeat exactly: a short op list per workload is traced twice and
  its step, RHS-call, event, Ricci-call and output-byte counts must agree.
* Every op passes its output check.

The boundary list holds only the round's blow-up overlays, so that the
whole check takes seconds; the crawls repeat their counts the same way in
the traced run.
"""

from __future__ import annotations

import sys
from itertools import islice

from tracing import Hooks, Tracer, layer_metrics
from workloads import WORKLOADS, load_reference, rounds, run_op

COUNTS = (
    "integrate.steps",
    "integrate.events",
    "integrate.rhs_per_event",
    "flows.rhs_calls",
    "spaces.calls",
    "cli.output_bytes",
)


def _inputs(workload: str, seed: int) -> list[tuple[str, ...]]:
    return [op.argv for rnd in islice(rounds(workload, seed), 3) for op in rnd]


def _counts(ops, reference) -> tuple[dict, int]:
    tracer = Tracer()
    with Hooks(tracer) as hooks:
        results = [run_op(op, hooks, reference) for op in ops]
    metrics = layer_metrics(tracer, results)
    return {k: metrics[k][0] for k in COUNTS}, sum(r.failed for r in results)


def selfcheck() -> int:
    reference = load_reference()
    problems = []
    for w in WORKLOADS:
        if _inputs(w, 1) != _inputs(w, 1):
            problems.append(f"{w}: seed 1 gave different inputs on two draws")
        if _inputs(w, 1) == _inputs(w, 2):
            problems.append(f"{w}: seeds 1 and 2 gave the same inputs")
        ops = next(rounds(w, 1))
        if w == "boundary":
            ops = ops[:3]
        first, failed = _counts(ops, reference)
        second, failed_again = _counts(ops, reference)
        if failed or failed_again:
            problems.append(f"{w}: {failed + failed_again} ops failed their output check")
        if first != second:
            problems.append(f"{w}: counts differ between two runs: {first} vs {second}")
        print(f"selfcheck {w}: {len(ops)} ops, " + ", ".join(f"{k}={v:g}" for k, v in first.items()))
    for p in problems:
        print(f"selfcheck FAILED: {p}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0
