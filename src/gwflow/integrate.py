"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the classic Dormand-Prince 5(4) pair (seven stages, FSAL)
with proportional-integral step-size control.  Monitored functionals are
evaluated at every accepted step; a sign change (or level crossing) across
a step is localized by Brent's method, with in-step states produced by a
single full-order stage pass from the step's left endpoint (so localized
event times inherit the integrator's accuracy rather than an
interpolant's).  The search stops once the bracket is ``event_tol`` wide or
no float lies strictly inside it.

The problems integrated here are smooth and non-stiff by construction; when
a right-hand side reports :class:`~gwflow.flows.RangeExceededError`, or the
step size underflows near a finite-time blow-up, integration terminates
cleanly with the reason recorded on the trajectory rather than raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .flows import InadmissibleStateError, RangeExceededError

__all__ = [
    "Termination",
    "IntegratorConfig",
    "Monitor",
    "Event",
    "Trajectory",
    "NoBracketError",
    "integrate",
    "locate_sign_change",
]

MIN_STEP = 1e-14

# Dormand-Prince 5(4): stage nodes, stage coefficients, 5th-order weights and
# the 5th-minus-4th-order error weights.  b[6] = 0 makes the pair FSAL: the
# last stage equals the derivative at the accepted point.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


class Termination(enum.Enum):
    """Why an integration run ended."""

    REACHED_TMAX = "ReachedTmax"
    EVENT_STOP = "EventStop"
    STEP_UNDERFLOW = "StepUnderflow"
    RANGE_EXCEEDED = "RangeExceeded"
    NON_FINITE = "NonFinite"
    MAX_STEPS = "MaxSteps"


class NoBracketError(ValueError):
    """locate_sign_change was called on an interval without a sign change."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for a run.

    ``event_tol`` bounds the width of the final sign-change bracket when
    localizing an event in time (or the bracket is one ulp wide, where an
    ulp of ``t`` exceeds it).
    """

    t_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 1e-3
    max_step: float = math.inf
    max_steps: int = 1_000_000
    event_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "initial_step", "max_step", "event_tol", "t_max"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class Monitor:
    """A named scalar functional of ``(t, state)`` watched during a run.

    kind:
        ``"sign_change"`` records every strict sign change of ``fn``;
        ``"threshold"`` records crossings of ``fn`` through ``level``;
        ``"stop"`` additionally terminates the run at the crossing.
    """

    name: str
    fn: Callable[[float, np.ndarray], float]
    level: float = 0.0
    kind: str = "sign_change"

    def __post_init__(self) -> None:
        if self.kind not in ("sign_change", "threshold", "stop"):
            raise ValueError(f"unknown monitor kind {self.kind!r}")

    @property
    def terminal(self) -> bool:
        return self.kind == "stop"


@dataclass(frozen=True)
class Event:
    """A localized monitor crossing."""

    kind: str
    name: str
    t: float
    state: np.ndarray
    level: float = 0.0


@dataclass
class Trajectory:
    """Recorded samples of one integration run.

    ``t`` is strictly increasing; ``y[i]`` is the state at ``t[i]``;
    ``diagnostics`` maps each diagnostic name to a per-sample array.
    """

    t: np.ndarray
    y: np.ndarray
    diagnostics: dict[str, np.ndarray]
    events: list[Event]
    termination: Termination
    monitor_values: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.size

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def first_event(self, name: str) -> Event | None:
        for ev in self.events:
            if ev.name == name:
                return ev
        return None


def _substep_evaluator(rhs, t0, y0, f0, t1, y1):
    """In-step state evaluator: one full-order stage pass from ``(t0, y0)``.

    A cubic Hermite interpolant is an order short here: the controller takes
    steps that are a few percent of the solution's own scale, where a
    cubic's interpolation error moves localized event times by far more
    than the integration error does.  Taking a single embedded-pair step of
    size ``t - t0`` keeps in-step states at the integrator's own order.
    """

    def interp(t: float) -> np.ndarray:
        tau = t - t0
        if tau <= 0.0:
            return y0.copy()
        if t >= t1:
            return y1.copy()
        k = np.empty((7, y0.size))
        k[0] = f0
        for i in range(1, 7):
            k[i] = rhs(t0 + _C[i] * tau, y0 + tau * (_A[i] @ k[:i]))
        return y0 + tau * (_B @ k)

    return interp


def locate_sign_change(
    f: Callable[[float, np.ndarray], float],
    t_lo: float,
    t_hi: float,
    interpolant: Callable[[float], np.ndarray],
    event_tol: float = 1e-10,
) -> float:
    """Locate a sign change of ``f(t, interpolant(t))`` on ``[t_lo, t_hi]``.

    Brent's method (zeroin; Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): inverse quadratic and secant steps, falling
    back to bisection whenever an interpolated step is not short enough.
    Every probe lies strictly inside a bracket across which ``f`` changes
    sign, and is at least ``event_tol / 2`` (and one ulp) away from the
    bracket's best end, so the bracket closes from both sides.  The search
    stops when the bracket is at most ``event_tol`` wide, or when no float
    lies strictly between its ends (for ``t >= 2**19`` one ulp exceeds the
    default ``event_tol``); an exact zero at a probe ends it there.

    Requires a strict sign change across the interval; raises
    :class:`NoBracketError` otherwise.  Returns the midpoint of the final
    bracket, so the functional has changed sign within ``event_tol`` of the
    returned time.
    """
    g_lo = f(t_lo, interpolant(t_lo))
    g_hi = f(t_hi, interpolant(t_hi))
    if not (g_lo * g_hi < 0.0):
        raise NoBracketError(
            f"no sign change on [{t_lo}, {t_hi}] (f values {g_lo}, {g_hi})"
        )
    # b is the best estimate, c the other end of the bracket (g(b), g(c) of
    # opposite signs), a the previous b; d is the last step, e the one before
    b, g_b = t_hi, g_hi
    c, g_c = t_lo, g_lo
    a, g_a = c, g_c
    d = e = b - c
    while True:
        if abs(g_c) < abs(g_b):
            a, b, c = b, c, b
            g_a, g_b, g_c = g_b, g_c, g_b
        mid = 0.5 * (b + c)
        if abs(c - b) <= event_tol or mid == b or mid == c:
            return mid
        delta = max(0.5 * event_tol, math.ulp(b))
        half = mid - b
        if abs(e) > delta and abs(g_b) < abs(g_a):
            if a == c:  # secant
                p = -g_b * (b - a) / (g_b - g_a)
            else:  # inverse quadratic through a, b, c
                s_a = (g_a - g_b) / (a - b)
                s_c = (g_c - g_b) / (c - b)
                den = s_c * s_a * (g_c - g_a)
                p = -g_b * (g_c * s_c - g_a * s_a) / den if den else math.inf
            if 2.0 * abs(p) < min(abs(e), 3.0 * abs(half) - delta):
                e, d = d, p
            else:
                e = d = half
        else:
            e = d = half
        a, g_a = b, g_b
        t = b + (d if abs(d) > delta else math.copysign(delta, half))
        if not (min(b, c) < t < max(b, c)):
            t = mid
        b, g_b = t, f(t, interpolant(t))
        if g_b == 0.0:
            return b
        if (g_b < 0.0) == (g_c < 0.0):
            c, g_c = a, g_a
            e = d = b - a


def _error_norm(e: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((e / scale) ** 2)))


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    initial: Sequence[float] | np.ndarray,
    config: IntegratorConfig,
    monitors: Iterable[Monitor] = (),
    diagnostics: Callable[[float, np.ndarray], Mapping[str, float]] | None = None,
    t0: float = 0.0,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from ``initial`` until ``config.t_max``.

    The initial state must satisfy the right-hand side's preconditions (a
    failing initial evaluation raises).  Later guard trips and step-size
    underflow terminate the run gracefully with the reason recorded.
    """
    monitors = list(monitors)
    y = np.asarray(initial, dtype=float).copy()
    t = float(t0)
    t_end = t0 + config.t_max

    ts: list[float] = [t]
    ys: list[np.ndarray] = [y.copy()]
    diag_rows: list[Mapping[str, float]] = []
    mon_rows: list[list[float]] = []
    events: list[Event] = []

    f_now = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f_now)):
        raise ValueError(f"right-hand side non-finite at the initial point {y}")
    if diagnostics is not None:
        diag_rows.append(dict(diagnostics(t, y)))
    mon_prev = [m.fn(t, y) - m.level for m in monitors]
    mon_rows.append([g + m.level for g, m in zip(mon_prev, monitors)])

    h = min(config.initial_step, config.max_step, config.t_max)
    err_old = 1e-4
    termination = Termination.REACHED_TMAX
    nonfinite_failure = False
    stages = np.empty((7, y.size))
    steps = 0

    def finish() -> Trajectory:
        diag_arrays: dict[str, np.ndarray] = {}
        if diag_rows:
            for key in diag_rows[0]:
                diag_arrays[key] = np.array([row[key] for row in diag_rows])
        mon_arrays = {
            m.name: np.array([row[i] for row in mon_rows])
            for i, m in enumerate(monitors)
        }
        return Trajectory(
            t=np.array(ts),
            y=np.array(ys),
            diagnostics=diag_arrays,
            events=events,
            termination=termination,
            monitor_values=mon_arrays,
        )

    while t < t_end:
        if steps >= config.max_steps:
            termination = Termination.MAX_STEPS
            break
        h = min(h, config.max_step)
        final = t + h >= t_end
        if final:
            h = t_end - t
            if t + h == t:
                break  # within one ulp of t_end
        elif h < MIN_STEP or t + h == t:
            termination = (
                Termination.NON_FINITE if nonfinite_failure else Termination.STEP_UNDERFLOW
            )
            break

        try:
            stages[0] = f_now
            for i in range(1, 7):
                yi = y + h * (_A[i] @ stages[:i])
                stages[i] = rhs(t + _C[i] * h, yi)
        except RangeExceededError:
            termination = Termination.RANGE_EXCEEDED
            break
        except InadmissibleStateError:
            # a trial stage overshot the domain boundary; retry smaller
            nonfinite_failure = False
            h *= 0.5
            continue

        y_new = y + h * (_B @ stages)
        err_vec = h * (_E @ stages)
        if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err_vec))):
            nonfinite_failure = True
            h *= 0.5
            continue
        nonfinite_failure = False
        err = _error_norm(err_vec, y, y_new, config)

        if err > 1.0:
            # reject: pure proportional shrink, no growth
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))
            continue

        steps += 1
        t_new = t_end if final else t + h
        f_new = stages[6].copy()  # FSAL stage = rhs(t_new, y_new)
        interp = _substep_evaluator(rhs, t, y, f_now, t_new, y_new)

        stop: Event | None = None
        step_events: list[Event] = []
        try:
            mon_now = [m.fn(t_new, y_new) - m.level for m in monitors]
            for i, m in enumerate(monitors):
                g0, g1 = mon_prev[i], mon_now[i]
                if g0 * g1 < 0.0:
                    t_star = locate_sign_change(
                        lambda tt, yy, m=m: m.fn(tt, yy) - m.level,
                        t,
                        t_new,
                        interp,
                        config.event_tol,
                    )
                    ev = Event(m.kind, m.name, t_star, interp(t_star), m.level)
                    step_events.append(ev)
                    if m.terminal and (stop is None or t_star < stop.t):
                        stop = ev
            step_events.sort(key=lambda ev: ev.t)

            if stop is not None:
                if diagnostics is not None:
                    diag_rows.append(dict(diagnostics(stop.t, stop.state)))
                mon_rows.append([m.fn(stop.t, stop.state) for m in monitors])
                events.extend(ev for ev in step_events if ev.t <= stop.t)
                ts.append(stop.t)
                ys.append(stop.state)
                termination = Termination.EVENT_STOP
                break

            if diagnostics is not None:
                diag_rows.append(dict(diagnostics(t_new, y_new)))
        except RangeExceededError:
            termination = Termination.RANGE_EXCEEDED
            break

        events.extend(step_events)
        ts.append(t_new)
        ys.append(y_new.copy())
        mon_rows.append([g + m.level for g, m in zip(mon_now, monitors)])
        mon_prev = mon_now
        t, y, f_now = t_new, y_new, f_new

        # PI controller (Hairer's DOPRI5 constants)
        if err == 0.0:
            factor = 10.0
        else:
            factor = 0.9 * err ** -0.17 * max(err_old, 1e-4) ** 0.04
            factor = min(10.0, max(0.2, factor))
            err_old = err
        h *= factor

    return finish()
