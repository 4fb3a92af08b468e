"""Seeded workloads for the gwflow benchmark.

Every operation ("op") is one ``gwflow`` command, run in-process through
``gwflow.cli.main`` exactly as a user types it.  Ops are drawn from fixed
pools; each pool item has a reference outcome in ``reference.json``, recorded
by ``make_reference.py``, against which every op's output is checked.

A workload is an endless sequence of *rounds*.  A round has a fixed
composition (which commands, which ``n``, which region of the phase plane)
and seeded parameters, so run-to-run spread comes from timing alone and the
counts of steps, RHS calls and events repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# op outputs go to a directory of this process, so that runs side by side do
# not overwrite each other's files
WORK_DIR = OUT_DIR / f"ops-{os.getpid()}"
REFERENCE = PERFBENCH / "reference.json"

# The benchmark measures the gwflow sources of the checkout it sits in, never
# an installed copy.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
import gwflow  # noqa: E402
import numpy as np  # noqa: E402
from gwflow import cli  # noqa: E402

if Path(gwflow.__file__).resolve().parent != SRC / "gwflow":
    raise ImportError(f"gwflow imported from {gwflow.__file__}, not from {SRC}")

WORKLOADS = ("experiment", "boundary", "cli-mix")

# experiment: n = 2..8, epsilon on a log-uniform grid over [1e-4, 1e-2]
EXPERIMENT_N = tuple(range(2, 9))
EXPERIMENT_EPS = tuple(float(f"{10 ** (-4 + k / 6):.4g}") for k in range(13))
EXPERIMENT_T_MAX = "1e6"

# boundary: overlay starts inside the cone phi > |psi|.  Starts below the
# upper axis fixed point crawl toward phi = |psi|; starts above it with a
# small |psi|/phi blow up along the axis within a few hundred steps.
BOUNDARY_N = (2, 3, 4)
CRAWL_STARTS = tuple(
    (phi, round(u * phi, 6)) for phi in (1.0, 1.3, 1.6, 1.9) for u in (-0.6, -0.3, 0.3, 0.6)
)
BLOWUP_STARTS = tuple(
    (phi, round(u * phi, 6)) for phi in (2.8, 3.1, 3.4) for u in (-0.25, -0.1, 0.1, 0.25)
)
PHI_RANGE = "0:4"
PSI_RANGE = "-3:3"

# cli-mix: short interior flows of every system, a dense vector grid, check
FLOW_SYSTEMS = ("full", "reduced", "phase", "reparam", "submersion")
FLOW_N = (2, 3, 4, 5, 6)
FLOW_STARTS = tuple(
    (phi, round(u * phi, 6)) for phi in (1.6, 2.0, 2.4) for u in (-0.3, 0.15, 0.3)
)
# the unit-speed time change needs phi' > 0: above the upper axis fixed point
REPARAM_STARTS = tuple(
    (phi, round(u * phi, 6)) for phi in (2.5, 2.8, 3.1) for u in (-0.15, 0.1, 0.15)
)
FLOW_T_MAX = "0.2"
GRID_N = (2, 3, 4, 5, 6)
DENSE_GRID = "48x32"
CHECK_N_MAX = "6"

ERROR_TERMINATIONS = frozenset({"StepUnderflow", "NonFinite", "MaxSteps"})
EVENT_RTOL = 1e-6  # acceptance criterion 9's event-time bound
VOLUME_TOL = 1e-8


@dataclass(frozen=True)
class Op:
    kind: str  # experiment | overlay | flow | grid | check
    key: str  # reference key
    argv: tuple[str, ...]

    @property
    def output(self) -> Path | None:
        return Path(self.argv[self.argv.index("--output") + 1]) if "--output" in self.argv else None


def experiment_op(n: int, eps: float) -> Op:
    return Op(
        "experiment",
        f"experiment n={n} eps={eps!r}",
        ("experiment", "--n", str(n), "--epsilon", repr(eps), "--t-max", EXPERIMENT_T_MAX,
         "--output", str(WORK_DIR / "experiment.json")),
    )


def overlay_op(n: int, start: tuple[float, float]) -> Op:
    phi, psi = start
    return Op(
        "overlay",
        f"overlay n={n} start={phi!r},{psi!r}",
        ("portrait", "--n", str(n), "--phi-range", PHI_RANGE, "--psi-range", PSI_RANGE,
         "--start", f"{phi!r},{psi!r}", "--output", str(WORK_DIR / "portrait.svg")),
    )


def flow_op(system: str, n: int, start: tuple[float, float]) -> Op:
    from gwflow.spaces import x3_from_volume_one

    phi, psi = start
    x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
    state = {
        "full": (("x1", x1), ("x2", x2), ("x3", x3_from_volume_one(n, x1, x2))),
        "reduced": (("x1", x1), ("x2", x2)),
        "phase": (("phi", phi), ("psi", psi)),
        "reparam": (("phi", phi), ("psi", psi)),
        "submersion": (("phi", phi),),
    }[system]
    args = tuple(a for name, v in state for a in (f"--{name}", repr(float(v))))
    return Op(
        "flow",
        f"flow {system} n={n} start={phi!r},{psi!r}",
        ("flow", "--n", str(n), "--system", system, *args, "--t-max", FLOW_T_MAX,
         "--output", str(WORK_DIR / "flow.csv")),
    )


def grid_op(n: int) -> Op:
    return Op(
        "grid",
        f"grid n={n}",
        ("portrait", "--n", str(n), "--phi-range", PHI_RANGE, "--psi-range", PSI_RANGE,
         "--grid", DENSE_GRID, "--output", str(WORK_DIR / "portrait.svg")),
    )


def check_op() -> Op:
    return Op("check", f"check n_max={CHECK_N_MAX}", ("check", "--n-max", CHECK_N_MAX))


def _starts(system: str) -> tuple:
    return REPARAM_STARTS if system == "reparam" else FLOW_STARTS


def pool(workload: str) -> list[Op]:
    """Every op a workload can draw; the reference holds one entry per op."""
    if workload == "experiment":
        return [experiment_op(n, e) for n in EXPERIMENT_N for e in EXPERIMENT_EPS]
    if workload == "boundary":
        return [overlay_op(n, s) for n in BOUNDARY_N for s in BLOWUP_STARTS + CRAWL_STARTS]
    if workload == "cli-mix":
        flows = [flow_op(s, n, st) for s in FLOW_SYSTEMS for n in FLOW_N for st in _starts(s)]
        return flows + [grid_op(n) for n in GRID_N] + [check_op()]
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, rng: random.Random) -> list[Op]:
    """One round: fixed composition, seeded parameters.  The first op is a
    cheap one, since it doubles as the warm-up op."""
    if workload == "experiment":
        return [experiment_op(n, rng.choice(EXPERIMENT_EPS)) for n in EXPERIMENT_N]
    if workload == "boundary":
        # two crawls per blow-up, so that a round takes about one run's 30 s
        blowups = [overlay_op(n, rng.choice(BLOWUP_STARTS)) for n in BOUNDARY_N]
        crawls = [overlay_op(n, rng.choice(CRAWL_STARTS)) for _ in range(2) for n in BOUNDARY_N]
        return blowups + crawls
    if workload == "cli-mix":
        flows = [flow_op(s, rng.choice(FLOW_N), rng.choice(_starts(s))) for s in FLOW_SYSTEMS]
        return flows + [grid_op(rng.choice(GRID_N)), check_op()]
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """The workload's endless, seeded sequence of rounds."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield make_round(workload, rng)


@dataclass
class Result:
    """One executed op: its latency, its outcome and what it produced."""

    op: Op
    latency: float
    exit_code: int | None
    status: str = "ok"  # ok | refused | check_failed | raised
    detail: str = ""
    output_bytes: int = 0
    polyline_points: int = 0
    negative_count_mismatch: bool = False
    trajectories: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status in ("check_failed", "raised")


def execute(op: Op, hooks) -> tuple[Result, str, str]:
    """Run one op through ``gwflow.cli.main``; only the call itself is timed.

    Returns the result (not yet checked), the output file's text and the
    captured standard output.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out_path = op.output
    if out_path is not None and out_path.exists():
        out_path.unlink()
    hooks.trajectories.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    rc = None
    raised = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except Exception:  # a crash is a failed op; the run goes on
            raised = traceback.format_exc()
        latency = time.perf_counter() - t0
    result = Result(op, latency, rc, trajectories=list(hooks.trajectories))
    if raised is not None:
        result.status, result.detail = "raised", raised.strip().splitlines()[-1]
        print(f"op {op.key} raised:\n{raised}", file=sys.stderr)
    text = out_path.read_text() if out_path is not None and out_path.exists() else ""
    result.output_bytes = len(text.encode()) + len(stdout.getvalue().encode())
    return result, text, stdout.getvalue()


def run_op(op: Op, hooks, reference: dict) -> Result:
    """Execute an op and check its output against the stored reference."""
    result, text, stdout = execute(op, hooks)
    if result.status != "raised":
        try:
            if op.key not in reference:
                raise CheckFailed("no reference entry")
            CHECKS[op.kind](result, reference[op.key], text, stdout)
        except (CheckFailed, ValueError, IndexError, KeyError) as exc:
            result.status, result.detail = "check_failed", f"{type(exc).__name__}: {exc}"
        if result.failed:
            print(f"op {op.key} failed its output check: {result.detail}", file=sys.stderr)
    return result


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def termination_ok(ref: str, new: str) -> bool:
    """An op may end no worse than its reference: the same class, any class
    where the reference ended in an error, or the time limit reached where
    the reference hit the range guard."""
    return (
        new == ref
        or ref in ERROR_TERMINATIONS
        or (ref == "RangeExceeded" and new in ("ReachedTmax", "EventStop"))
    )


def _trajectories(result: Result, caller: str) -> list:
    return [traj for who, traj in result.trajectories if who == caller]


def _inside_cone(traj) -> bool:
    y = traj.y
    return bool(np.isfinite(y).all() and (y[:, 0] > np.abs(y[:, 1])).all())


def _check_events(traj, ref_events: list, ref_t_end: float) -> None:
    """Reference events and new events agree to EVENT_RTOL over the time
    span both runs cover."""
    t_cmp = min(ref_t_end, float(traj.t[-1]))
    new = [(ev.name, ev.t) for ev in traj.events if ev.t <= t_cmp]
    old = [(name, t) for name, t in ref_events if t <= t_cmp]
    _require(
        sorted(n for n, _ in new) == sorted(n for n, _ in old),
        f"events {[n for n, _ in new]} differ from reference {[n for n, _ in old]}",
    )
    for name, t_ref in old:
        t_new = min((t for n, t in new if n == name), key=lambda t: abs(t - t_ref))
        _require(
            abs(t_new - t_ref) <= EVENT_RTOL * max(1.0, abs(t_ref)),
            f"event {name} at t={t_new!r}, reference t={t_ref!r}",
        )


def check_experiment(result: Result, ref: dict, text: str, stdout: str) -> None:
    rc = result.exit_code
    if ref["exit"] == 3 and rc == 3:
        result.status = "refused"  # refused at the reference commit too
        return
    # exit 1 is the criterion-6 count mismatch and not an op failure
    _require(rc in (0, 1), f"exit code {rc}, reference {ref['exit']}")
    report = json.loads(text)
    (traj,) = _trajectories(result, "experiment")
    _require(_inside_cone(traj), "a sample left the cone phi > |psi|")
    result.negative_count_mismatch = (
        report["final_negative_count"] != report["expected_negative_count"]
    )
    if ref["exit"] == 3:
        return  # a refusal that now runs; there are no reference events
    _require(
        termination_ok(ref["termination"], report["termination"]),
        f"termination {report['termination']}, reference {ref['termination']}",
    )
    _check_events(traj, ref["events"], ref["t_end"])


def _arrows(svg: str) -> int:
    return svg.count("<path ")


def _check_svg(svg: str, ref: dict, rc) -> None:
    _require(rc == 0, f"exit code {rc}")
    _require(svg.startswith("<svg") and svg.endswith("</svg>\n"), "SVG is not complete")
    _require(_arrows(svg) == ref["arrows"], f"{_arrows(svg)} arrows, reference {ref['arrows']}")


def check_overlay(result: Result, ref: dict, text: str, stdout: str) -> None:
    _check_svg(text, ref, result.exit_code)
    (traj,) = _trajectories(result, "portrait")
    _require(_inside_cone(traj), "an overlay sample left the cone phi > |psi|")
    _require(
        termination_ok(ref["termination"], traj.termination.value),
        f"overlay termination {traj.termination.value}, reference {ref['termination']}",
    )
    _require(text.count("<polyline") == 1, "expected one overlay polyline")
    coords = text.split('<polyline points="', 1)[1].split('"', 1)[0]
    result.polyline_points = len(coords.split())


def check_grid(result: Result, ref: dict, text: str, stdout: str) -> None:
    _check_svg(text, ref, result.exit_code)
    _require("<polyline" not in text, "unexpected overlay")


def check_flow(result: Result, ref: dict, text: str, stdout: str) -> None:
    _require(result.exit_code == ref["exit"] == 0, f"exit code {result.exit_code}")
    (traj,) = _trajectories(result, "cli")
    _require(
        termination_ok(ref["termination"], traj.termination.value),
        f"termination {traj.termination.value}, reference {ref['termination']}",
    )
    lines = text.splitlines()
    _require(lines[0] == cli.CSV_HEADER, "CSV header changed")
    _require(len(lines) >= 3, "CSV has fewer than two rows")
    for line in lines[1:]:
        t, x1, x2, x3, phi, psi, *_spectrum, v, _neg = (float(c) for c in line.split(","))
        _require(x1 > 0 and x2 > 0 and x3 > 0 and phi > abs(psi), f"row t={t} outside the cone")
        _require(abs(v - 1.0) <= VOLUME_TOL, f"volume {v!r} at t={t}")
    t_max = float(FLOW_T_MAX)
    _require(abs(t - t_max) <= 1e-12 * t_max, f"last row at t={t!r}, not t_max")


def check_check(result: Result, ref: dict, text: str, stdout: str) -> None:
    _require(result.exit_code == 0, f"exit code {result.exit_code}")
    lines = stdout.splitlines()
    _require(len(lines) == ref["lines"], f"{len(lines)} result lines, reference {ref['lines']}")
    _require(
        all(line.split()[2] == "PASS" for line in lines[:-1])
        and lines[-1].split() == ["total", "PASS"],
        "a check did not PASS",
    )


CHECKS = {
    "experiment": check_experiment,
    "overlay": check_overlay,
    "grid": check_grid,
    "flow": check_flow,
    "check": check_check,
}


def reference_entry(result: Result, text: str, stdout: str) -> dict:
    """What ``reference.json`` stores for one pool op."""
    entry = {"exit": result.exit_code}
    kind = result.op.kind
    if kind == "experiment" and result.exit_code != 3:
        (traj,) = _trajectories(result, "experiment")
        entry.update(
            termination=traj.termination.value,
            t_end=float(traj.t[-1]),
            steps=len(traj.t) - 1,
            events=[[ev.name, float(ev.t)] for ev in traj.events],
        )
    elif kind == "overlay":
        (traj,) = _trajectories(result, "portrait")
        entry.update(
            termination=traj.termination.value,
            t_end=float(traj.t[-1]),
            steps=len(traj.t) - 1,
            arrows=_arrows(text),
        )
    elif kind == "grid":
        entry["arrows"] = _arrows(text)
    elif kind == "flow":
        (traj,) = _trajectories(result, "cli")
        entry.update(termination=traj.termination.value, rows=len(text.splitlines()) - 1)
    elif kind == "check":
        entry["lines"] = len(stdout.splitlines())
    return entry


def remove_work_dir() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
