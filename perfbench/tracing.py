"""Hooks into gwflow's layers, from outside the package.

:class:`Hooks` replaces module attributes of ``gwflow`` for the duration of
a pass and restores them afterwards.  It always records every trajectory
``integrate`` returns, tagged with the calling module, because the output
checks need them.  Given a :class:`Tracer`, it also wraps the public call
into each layer so that every call records a span (name, start, end,
parent, op).  Spans are kept in compact arrays and written out at the end.

A span's self time is its duration minus the durations of its direct
children (single-threaded, so children never overlap) minus the bookkeeping
each child span adds to its parent, calibrated by :meth:`Tracer.child_cost`.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import ERROR_TERMINATIONS  # also puts the checkout's gwflow on sys.path
from gwflow import checks, cli, experiment, portrait, spaces

# the package re-exports the function ``integrate`` under the module's name
integrate_mod = importlib.import_module("gwflow.integrate")

LAYERS = ("cli", "experiment", "portrait", "checks", "integrate", "flows", "spaces")


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.evaluators = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around each call."""
        return self.wrap_id(self.name_id(name), fn)

    def wrap_id(self, nid: int, fn):
        """:meth:`wrap` for a name already looked up with :meth:`name_id`."""
        name_a, parent_a, op_a, start_a, end_a = self.name, self.parent, self.op, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            op_a.append(self.current_op)
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()

        return traced

    def wrap_evaluator(self, make):
        """``make`` (gwflow's ``_substep_evaluator``) with a span recorded
        around each call of the evaluator it returns.  An evaluator is made
        on every accepted step, so the name is looked up once and only the
        closure is made per step; ``evaluators`` counts them so that
        :meth:`evaluator_cost` can be taken out of ``integrate``'s self time."""
        nid = self.name_id("integrate.interp")

        def traced_make(*args, **kwargs):
            self.evaluators += 1
            return self.wrap_id(nid, make(*args, **kwargs))

        return traced_make

    def evaluator_cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds that :meth:`wrap_evaluator` adds to one evaluator made,
        measured on a throwaway tracer."""
        samples = []
        for _ in range(repeats):
            make = lambda *a: int  # noqa: E731
            traced = Tracer().wrap_evaluator(make)
            # evaluators are dropped one by one, as integrate drops them
            t0 = time.perf_counter()
            for _ in range(calls):
                traced(0, 0)
            t1 = time.perf_counter()
            for _ in range(calls):
                make(0, 0)
            samples.append((t1 - t0 - (time.perf_counter() - t1)) / calls)
        return max(float(np.median(samples)), 0.0)

    def child_cost(self, children: int = 20_000, repeats: int = 5) -> float:
        """Seconds of span bookkeeping that one child span adds to its
        parent's self time, measured on a throwaway tracer."""
        samples = []
        for _ in range(repeats):
            probe = Tracer()
            leaf = probe.wrap("leaf", int)
            probe.wrap("parent", lambda: [leaf() for _ in range(children)])()
            a = probe.arrays()
            dur = a["end"] - a["start"]
            bare = _loop_seconds(children)
            samples.append((dur[0] - dur[1:].sum() - bare) / children)
        return max(float(np.median(samples)), 0.0)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _loop_seconds(children: int) -> float:
    """The same loop as in :meth:`Tracer.child_cost`, without spans."""
    t0 = time.perf_counter()
    [int() for _ in range(children)]
    return time.perf_counter() - t0


def _system(rhs) -> str:
    # gwflow's vector fields are closures made by field_<system>
    qual = getattr(rhs, "__qualname__", "")
    return qual.split(".")[0].removeprefix("field_") if qual.startswith("field_") else "other"


class Hooks:
    """Patch gwflow for one pass; use as a context manager."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.trajectories: list = []
        self._saved: list = []

    def _patch(self, obj, attr: str, make) -> None:
        if hasattr(obj, attr):
            orig = getattr(obj, attr)
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, make(orig))

    def __enter__(self) -> "Hooks":
        for mod in (cli, experiment, portrait, checks):
            caller = mod.__name__.rsplit(".", 1)[1]
            self._patch(mod, "integrate", lambda orig, caller=caller: self._integrate(caller, orig))
        t = self.tracer
        if t is None:
            return self
        self._patch(cli, "main", lambda f: t.wrap("cli.main", f))
        for cmd in ("cmd_flow", "cmd_experiment", "cmd_portrait", "cmd_check"):
            self._patch(cli, cmd, lambda f, cmd=cmd: t.wrap(f"cli.{cmd}", f))
        self._patch(cli, "run_theorem_experiment", lambda f: t.wrap("experiment.run", f))
        self._patch(cli, "render_portrait", lambda f: t.wrap("portrait.render", f))
        self._patch(checks, "run_invariant_checks", lambda f: t.wrap("checks.run", f))
        self._patch(integrate_mod, "locate_sign_change", lambda f: t.wrap("integrate.locate", f))
        # in-step states for event location; RHS calls under it are locate work
        self._patch(integrate_mod, "_substep_evaluator", t.wrap_evaluator)
        for obj, attr in (
            (cli, "ricci_phase"),
            (cli, "ricci_coefficients"),
            (spaces, "ricci_phase"),
            (spaces, "ricci_coefficients"),
            (experiment, "_phase_ricci_values"),
        ):
            self._patch(obj, attr, lambda f: t.wrap("spaces.ricci", f))
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()

    def _integrate(self, caller: str, orig):
        trajectories, t = self.trajectories, self.tracer
        if t is None:

            def integrate(*args, **kwargs):
                traj = orig(*args, **kwargs)
                trajectories.append((caller, traj))
                return traj

            return integrate

        traced_integrate = t.wrap("integrate", orig)

        def integrate(rhs, initial, config, monitors=(), diagnostics=None, *args, **kwargs):
            rhs = t.wrap(f"flows.rhs.{_system(rhs)}", rhs)
            monitors = [
                dataclasses.replace(m, fn=t.wrap("experiment.monitor", m.fn)) for m in monitors
            ]
            if diagnostics is not None:
                diagnostics = t.wrap("experiment.diagnostics", diagnostics)
            traj = traced_integrate(rhs, initial, config, monitors, diagnostics, *args, **kwargs)
            trajectories.append((caller, traj))
            return traj

        return integrate


def layer_metrics(tracer: Tracer, results: list) -> dict[str, tuple[float, str]]:
    """Per-layer counts, ratios and self times from one traced pass."""
    a = tracer.arrays()
    names = tracer.names
    n_spans = a["name"].size
    dur = a["end"] - a["start"]
    child = np.zeros(n_spans)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    children = np.bincount(a["parent"][has_parent], minlength=n_spans)
    # remove the children's span bookkeeping from each parent's self time
    self_t = dur - child - children * tracer.child_cost()
    ids = {name: i for i, name in enumerate(names)}
    # and the evaluator wrapping from integrate's, spread over its spans
    integrate_spans = a["name"] == ids.get("integrate", -1)
    if integrate_spans.any():
        self_t[integrate_spans] -= tracer.evaluators * tracer.evaluator_cost() / integrate_spans.sum()
    name_id = a["name"]
    parent_id = np.full(n_spans, -1, dtype=np.int32)
    parent_id[has_parent] = name_id[a["parent"][has_parent]]

    def is_(name):
        return name_id == ids.get(name, -1)

    def parent_is(name):
        return parent_id == ids.get(name, -1)

    n_ops = max(len(results), 1)
    m: dict[str, tuple[float, str]] = {}

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)[name_id]
    for i, layer in enumerate(LAYERS):
        sel = layer_of == i
        m[f"{layer}.self_ms"] = (float(self_t[sel].sum()) * 1e3 / n_ops, "ms/op")
        m[f"{layer}.spans"] = (int(sel.sum()), "count")

    trajs = [(who, traj) for r in results for who, traj in r.trajectories]
    steps = sum(len(tr.t) - 1 for _, tr in trajs)
    events = sum(len(tr.events) for _, tr in trajs)
    rhs_ids = [i for name, i in ids.items() if name.startswith("flows.rhs")]
    rhs = np.isin(name_id, rhs_ids)
    step_rhs = int((rhs & parent_is("integrate")).sum())
    locate_rhs = int((rhs & parent_is("integrate.interp")).sum())
    interior = [np.diff(tr.t)[:-1] for _, tr in trajs if len(tr.t) >= 3]
    h_min = min((float(d.min()) for d in interior), default=0.0)
    error_terms = sum(tr.termination.value in ERROR_TERMINATIONS for _, tr in trajs)
    locate_time = dur[is_("integrate.locate")].sum() + dur[
        is_("integrate.interp") & parent_is("integrate")
    ].sum()

    def per(x, base):
        return float(x) / base if base else 0.0

    m["integrate.calls"] = (len(trajs), "count")
    m["integrate.steps"] = (steps, "count")
    m["integrate.rhs_per_step"] = (per(step_rhs, steps), "calls/step")
    m["integrate.h_min"] = (h_min, "t")
    m["integrate.error_term_frac"] = (per(error_terms, len(trajs)), "frac")
    m["integrate.overhead_us_per_step"] = (per(self_t[is_("integrate")].sum() * 1e6, steps), "us/step")
    m["integrate.events"] = (events, "count")
    m["integrate.rhs_per_event"] = (per(locate_rhs, events), "calls/event")
    m["integrate.locate_us_per_event"] = (per(locate_time * 1e6, events), "us/event")

    exp_trajs = [tr for who, tr in trajs if who == "experiment"]
    exp_steps = sum(len(tr.t) - 1 for tr in exp_trajs)
    monitor_step = is_("experiment.monitor") & parent_is("integrate")
    under_exp = _descends_from(a["parent"], is_("experiment.run"))
    exp_ops = [r for r in results if r.op.kind == "experiment"]
    m["experiment.monitor_calls_per_step"] = (per(monitor_step.sum(), exp_steps), "calls/step")
    m["experiment.ricci_calls_per_step"] = (
        per((is_("spaces.ricci") & under_exp).sum(), exp_steps),
        "calls/step",
    )
    m["experiment.monitor_us_per_step"] = (per(dur[monitor_step].sum() * 1e6, exp_steps), "us/step")
    m["experiment.diag_us_per_step"] = (
        per(dur[is_("experiment.diagnostics")].sum() * 1e6, exp_steps),
        "us/step",
    )
    m["experiment.post_ms"] = (_post_integrate_ms(a, is_("experiment.run"), is_("integrate")), "ms/run")
    m["experiment.refused_frac"] = (
        per(sum(r.status == "refused" for r in exp_ops), len(exp_ops)),
        "frac",
    )
    m["experiment.count_mismatch_frac"] = (
        per(sum(r.negative_count_mismatch for r in exp_ops), len(exp_ops)),
        "frac",
    )

    m["flows.rhs_calls"] = (int(rhs.sum()), "count")
    for i in sorted(rhs_ids, key=names.__getitem__):
        m[f"{names[i]}_calls"] = (int((name_id == i).sum()), "count")
    m["spaces.calls"] = (int(is_("spaces.ricci").sum()), "count")

    overlays = [tr for who, tr in trajs if who == "portrait"]
    overlay_samples = sum(len(tr.t) for tr in overlays)
    renders = is_("portrait.render")
    m["portrait.render_ms"] = (per(self_t[renders].sum() * 1e3, renders.sum()), "ms/call")
    m["portrait.overlay_steps"] = (per(sum(len(tr.t) - 1 for tr in overlays), len(overlays)), "steps/overlay")
    m["portrait.points_kept_frac"] = (
        per(sum(r.polyline_points for r in results), overlay_samples),
        "frac",
    )
    m["portrait.overlay_capped_frac"] = (
        per(sum(tr.termination.value == "MaxSteps" for tr in overlays), len(overlays)),
        "frac",
    )
    runs = is_("checks.run")
    m["checks.run_ms"] = (per(dur[runs].sum() * 1e3, runs.sum()), "ms/call")
    m["cli.output_bytes"] = (sum(r.output_bytes for r in results), "bytes")
    return m


def _descends_from(parent: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Spans with an ancestor (or self) in ``root``; parents precede children."""
    out = root.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and out[p]:
            out[i] = True
    return np.array(out, dtype=bool)


def _post_integrate_ms(a: dict, run: np.ndarray, integrate: np.ndarray) -> float:
    """Mean time from ``integrate`` returning to ``experiment.run`` returning."""
    runs = {int(i): None for i in np.nonzero(run)[0]}
    for i in np.nonzero(integrate)[0]:
        p = int(a["parent"][i])
        if p in runs:
            runs[p] = max(runs[p] or 0.0, float(a["end"][i]))
    gaps = [a["end"][r] - end for r, end in runs.items() if end is not None]
    return float(np.mean(gaps)) * 1e3 if gaps else 0.0
