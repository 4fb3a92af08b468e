"""Layered benchmark for gwflow.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the ``gwflow`` sources under
``src/``.  One closed-loop client, one process, one thread: each op is a
``gwflow`` command called in-process after the previous one has finished
and a short think time has passed.

``--trace 0`` measures whole rounds of the workload until ``--seconds`` have
passed, leaving out a last round that would end beyond 1.5 times that, and
reports the end-to-end metrics.  ``--trace 1`` runs each op of a fixed list
twice, untraced and then traced, and reports per-layer metrics from the
spans plus the per-layer microbenchmarks.  Either way every op's output is
checked against ``reference.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn; ``--selfcheck`` is a fast
smoke test of the benchmark itself.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("experiment", "boundary", "cli-mix")
# setup probes before and after the measured rounds, so that their median
# spans the host's speed over the whole run
SETUP_PROBES = (3, 4)
# think time between ops, outside the measured latency.  On the shared host
# the benchmark was built on, a process that computes without pause stays in
# one of two speed regimes (about 1.35x apart) for a minute or more; one that
# idles briefly between ops sees them mixed.  Over 12-second windows of a
# fixed kernel this cut the spread of the median from 0.28 to 0.04.
THINK_S = 0.002
# op_tail_ms is a fixed statistic per workload, so that a faster or slower
# program changes its value and not its definition.  p95 is the highest
# percentile with at least ten ops beyond it (of 99.9, 99, 95) in the
# 700-1,350 ops of an experiment or cli-mix run at the commit that added the
# benchmark; a boundary run is one round of 9 ops, so there it is the
# slowest op of each round (median over rounds).
TAIL_PERCENTILE = {"experiment": 95.0, "boundary": None, "cli-mix": 95.0}
# ops in the traced run: a fixed number of rounds per workload
TRACE_ROUNDS = {"experiment": 20, "boundary": 1, "cli-mix": 20}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--selfcheck", action="store_true", help="fast smoke test of the benchmark")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def tail(workload: str, records: list) -> tuple[float, str]:
    """``op_tail_ms`` over the completed ops of ``records`` (latency, status,
    round), and a note that names the statistic."""
    latencies = sorted(1e3 * lat for lat, status, _ in records if status == "ok")
    p = TAIL_PERCENTILE[workload]
    if p is None:
        slowest = {}
        for lat, status, rnd in records:
            if status == "ok":
                slowest[rnd] = max(slowest.get(rnd, 0.0), 1e3 * lat)
        return statistics.median(slowest.values()), (
            f"slowest op of a round, median over {len(slowest)} round(s)")
    rank = max(1, math.ceil(p / 100.0 * len(latencies)))  # nearest rank
    return latencies[rank - 1], (
        f"p{p:g} of {len(latencies)} completed ops, {len(latencies) - rank} beyond")


def setup_seconds(workload: str, seed: int, probes: int, warm: bool = False) -> list[float]:
    """Wall times of fresh interpreters that import gwflow.cli, generate the
    inputs and complete one warm-up op.  With ``warm``, one untimed probe
    runs first, so that bytecode caches exist as they do for an installed
    package."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(probes + warm):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.DEVNULL, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        if i or not warm:
            times.append(elapsed)
    return times


def setup_probe(workload: str, seed: int) -> int:
    from workloads import rounds, execute  # imports gwflow.cli
    from tracing import Hooks

    first = next(rounds(workload, seed))[0]
    with Hooks() as hooks:
        result, _, _ = execute(first, hooks)
    return 0 if result.status != "raised" else 1


def _summary(statuses: list[str]) -> dict:
    return {
        "attempted": len(statuses),
        "completed": statuses.count("ok"),
        "refused": statuses.count("refused"),
        "failed": statuses.count("check_failed") + statuses.count("raised"),
    }


def _print_table(title: str, rows: dict[str, tuple[float, str]], notes: dict[str, str] | None = None):
    notes = notes or {}
    print(title)
    width = max(len(k) for k in rows)
    for name, (value, unit) in rows.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {value:>14.6g} {unit}{note}")


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import load_reference, rounds, run_op
    from tracing import Hooks

    reference = load_reference()
    setup = setup_seconds(workload, seed, SETUP_PROBES[0], warm=True)
    stream = rounds(workload, seed)
    first_round = next(stream)
    # (latency, status, round) per op; results themselves are dropped once
    # checked, so that the benchmark's own memory does not grow with the op
    # count
    records = []
    with Hooks() as hooks:
        run_op(first_round[0], hooks, reference)  # warm-up, not measured
        t_start = t_round = time.perf_counter()
        ops, rnd = first_round, 0
        while True:
            for op in ops:
                time.sleep(THINK_S)
                r = run_op(op, hooks, reference)
                records.append((r.latency, r.status, rnd))
            now = time.perf_counter()
            # whole rounds only; a round that would overrun by half is left out
            if now - t_start >= seconds or (now - t_start) + (now - t_round) > 1.5 * seconds:
                break
            ops, t_round, rnd = next(stream), now, rnd + 1
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_seconds(workload, seed, SETUP_PROBES[1])

    statuses = [status for _, status, _ in records]
    s = _summary(statuses)
    latencies = [latency * 1e3 for latency, status, _ in records if status == "ok"]
    busy = sum(latency for latency, _, _ in records)
    if not latencies:
        raise RuntimeError("no op completed")
    tail_ms, tail_note = tail(workload, records)
    metrics = {
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (s["completed"] / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    failed_frac = (s["attempted"] - s["completed"]) / s["attempted"]
    _print_table(
        f"workload {workload}  seed {seed}  {s['attempted']} ops attempted, {s['completed']} "
        f"completed, {s['refused']} refused as in the reference, {s['failed']} failed; "
        f"{wall:.1f} s measured",
        {**metrics, "failed_frac": (failed_frac, "frac")},
        {
            "op_tail_ms": tail_note,
            "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup),
            "failed_frac": "refused, error-terminated or failed the output check",
        },
    )
    return {"statuses": statuses, "metrics": metrics}


def traced_run(workload: str, seed: int) -> dict:
    from workloads import OUT_DIR, load_reference, rounds, run_op
    from tracing import Hooks, Tracer, layer_metrics
    import micro

    reference = load_reference()
    stream = rounds(workload, seed)
    ops = [op for _ in range(TRACE_ROUNDS[workload]) for op in next(stream)]

    # each op runs untraced and then traced, so that host drift cancels out
    # of trace.overhead_frac
    tracer = Tracer()
    plain, traced = Hooks(), Hooks(tracer)
    with plain:
        run_op(ops[0], plain, reference)  # warm-up
    untraced, results = [], []
    for i, op in enumerate(ops):
        with plain:
            untraced.append(run_op(op, plain, reference))
        tracer.current_op = i
        with traced:
            results.append(run_op(op, traced, reference))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{workload}.npz")

    metrics = layer_metrics(tracer, results)
    metrics.update(micro.measure(seed))
    base = sum(r.latency for r in untraced)
    metrics["trace.overhead_frac"] = (sum(r.latency for r in results) / base - 1.0, "frac")
    statuses = [r.status for r in untraced + results]
    s = _summary(statuses[len(untraced):])
    _print_table(
        f"workload {workload}  seed {seed}  traced run over {len(ops)} ops "
        f"({s['completed']} completed, {s['refused']} refused, {s['failed']} failed)",
        metrics,
    )
    return {"statuses": statuses, "metrics": metrics}


def _declared(trace: int) -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    out = traced_run(workload, seed) if trace else timed_run(workload, seed, seconds)
    s = _summary(out["statuses"])
    metrics = {
        name: {"value": out["metrics"][name][0], "unit": out["metrics"][name][1]}
        for name in _declared(trace)
    }
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    rc = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc |= subprocess.run(cmd, cwd=HERE.parent, timeout=600).returncode
    return rc


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        return _dispatch(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if "workloads" in sys.modules:
            sys.modules["workloads"].remove_work_dir()


def _dispatch(args) -> int:
    if args.selfcheck:
        from selfcheck import selfcheck

        return selfcheck()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
