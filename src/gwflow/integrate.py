"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the classic Dormand-Prince 5(4) pair (seven stages, FSAL)
with proportional-integral step-size control.  Monitors only locate events
(``diagnostics`` records per-sample values): each is evaluated at every
accepted step, and a crossing of its level across a step is localized by
Brent's method, with in-step states produced by a single full-order stage
pass from the step's left endpoint (so localized event times inherit the
integrator's accuracy rather than an interpolant's).  The search stops once
the bracket is ``event_tol`` wide or no float lies strictly inside it.  A
monitor marked ``stop`` ends the run at its first located crossing.

The states here have one to three components, where numpy's per-call
overhead costs far more than the arithmetic, so each step runs on Python
floats: the state, the stages, the 5th-order update, the error estimate and
its norm are lists of floats, the stages unrolled as in Hairer's DOPRI5.
The right-hand side still receives every stage state as a fresh ndarray; a
tuple of floats it returns (as gwflow's vector fields do) is used as it is,
and any other result is copied to a list of floats at once.  Monitors and
diagnostics receive ndarrays, and a :class:`Trajectory` and its events hold
ndarrays.

The problems integrated here are smooth and non-stiff by construction; when
a right-hand side reports :class:`~gwflow.flows.RangeExceededError`, or the
step size underflows near a finite-time blow-up, integration terminates
cleanly with the reason recorded on the trajectory rather than raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, *Solving ODEs I*, II.5):
# stage nodes c, stage coefficients a, 5th-order weights b and the
# 5th-minus-4th-order error weights e.  The zero entries a72 = b2 = e2 = 0 are
# left out, and c6 = c7 = 1.  The last stage's coefficients equal b and
# b7 = 0, which makes the pair FSAL: the last stage's state is the 5th-order
# solution and the stage itself the derivative there.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
)


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
    ulp of ``t`` exceeds it).  Every tolerance and limit must be positive and
    finite, except ``max_step``, which may be infinite (no cap): an infinite
    ``t_max`` would let the step size overflow to ``inf``, where every trial
    step is non-finite and halving it never ends.
    """

    t_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 1e-3
    max_step: float = math.inf
    max_steps: int = 1_000_000
    event_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "initial_step", "event_tol", "t_max"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not self.max_step > 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class Monitor:
    """A named scalar functional of ``(t, state)`` watched during a run.

    Every strict crossing of ``fn`` through ``level`` is located and recorded
    as an :class:`Event`; with ``stop`` set, the first one also ends the run.
    """

    name: str
    fn: Callable[[float, np.ndarray], float]
    level: float = 0.0
    stop: bool = False


@dataclass(frozen=True)
class Event:
    """A located crossing of the monitor ``name``: its time and state."""

    name: str
    t: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Recorded samples of one integration run.

    ``t`` is strictly increasing; ``y[i]`` is the state at ``t[i]``;
    ``diagnostics`` maps each diagnostic name to a per-sample array, the
    run's one per-sample record: monitor values are not kept.
    """

    t: np.ndarray
    y: np.ndarray
    diagnostics: dict[str, np.ndarray]
    events: list[Event]
    termination: Termination

    def __len__(self) -> int:
        return self.t.size

    def first_event(self, name: str) -> Event | None:
        for ev in self.events:
            if ev.name == name:
                return ev
        return None


def _stage(rhs, t, y):
    k = rhs(t, np.array(y))
    return k if type(k) is tuple else np.asarray(k, dtype=float).tolist()


def _dopri_update(rhs, t, y, k1, h):
    """The 5th-order solution of a Dormand-Prince step of size ``h`` from
    ``(t, y)``, ``k1 = rhs(t, y)``, and the stages k3 to k6 that the error
    estimate reuses: five ``rhs`` calls, each handed a fresh ndarray.
    States are lists of floats; a stage is ``rhs``'s tuple, or else a copy.
    """
    k2 = _stage(rhs, t + _C2 * h, [a + h * (_A21 * p) for a, p in zip(y, k1)])
    k3 = _stage(rhs, t + _C3 * h, [a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)])
    k4 = _stage(
        rhs, t + _C4 * h,
        [a + h * (_A41 * p + _A42 * q + _A43 * r) for a, p, q, r in zip(y, k1, k2, k3)],
    )
    k5 = _stage(
        rhs, t + _C5 * h,
        [
            a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)
        ],
    )
    k6 = _stage(
        rhs, t + h,
        [
            a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * u)
            for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
        ],
    )
    y_new = [
        a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * v)
        for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)
    ]
    return y_new, k3, k4, k5, k6


def _dopri_step(rhs, t, y, k1, h):
    """One Dormand-Prince step: the 5th-order solution (the state of the last
    stage), the last stage (the derivative there) and the error estimate."""
    y_new, k3, k4, k5, k6 = _dopri_update(rhs, t, y, k1, h)
    k7 = _stage(rhs, t + h, y_new)
    err = [
        h * (_E1 * p + _E3 * r + _E4 * s + _E5 * u + _E6 * v + _E7 * w)
        for p, r, s, u, v, w in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, k7, err


def _substep_evaluator(rhs, t0, y0, f0, t1, y1):
    """In-step state evaluator: one full-order stage pass from ``(t0, y0)``.

    A cubic Hermite interpolant is an order short here: the controller takes
    steps that are a few percent of the solution's own scale, where a
    cubic's interpolation error moves localized event times by far more
    than the integration error does.  The 5th-order update of a single step
    of size ``t - t0`` keeps in-step states at the integrator's own order;
    the last (FSAL) stage serves only the error estimate, so is left out.

    ``y0`` and ``f0 = rhs(t0, y0)`` may be ndarrays, lists or tuples of
    floats; the evaluator returns a fresh ndarray.  :func:`integrate` builds
    one only on a step across which some monitor changes sign.
    """
    y0 = [float(v) for v in y0]
    f0 = [float(v) for v in f0]

    def interp(t: float) -> np.ndarray:
        tau = t - t0
        if tau <= 0.0:
            return np.array(y0)
        if t >= t1:
            return np.array(y1, dtype=float)
        return np.array(_dopri_update(rhs, t0, y0, f0, tau)[0])

    return interp


def locate_sign_change(
    f: Callable[[float, np.ndarray], float],
    t_lo: float,
    t_hi: float,
    interpolant: Callable[[float], np.ndarray],
    event_tol: float = 1e-10,
    g_lo: float | None = None,
    g_hi: float | None = None,
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
    returned time.  ``g_lo`` and ``g_hi``, when given, are the values of
    ``f`` at the ends, which are then not evaluated again.
    """
    if g_lo is None:
        g_lo = f(t_lo, interpolant(t_lo))
    if g_hi is None:
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


def integrate(
    rhs: Callable[[float, np.ndarray], Sequence[float] | np.ndarray],
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
    y_arr = np.array(initial, dtype=float)
    y = y_arr.tolist()
    dim = len(y)
    t = float(t0)
    t_end = t0 + config.t_max
    rel_tol, abs_tol = config.rel_tol, config.abs_tol

    ts: list[float] = [t]
    ys: list = [y]
    diag_rows: list[Mapping[str, float]] = []
    events: list[Event] = []

    f0 = np.asarray(rhs(t, y_arr), dtype=float)
    if f0.shape != y_arr.shape:
        raise ValueError(
            f"right-hand side has shape {f0.shape} for a state of shape {y_arr.shape}"
        )
    if not np.all(np.isfinite(f0)):
        raise ValueError(f"right-hand side non-finite at the initial point {y_arr}")
    f_now = f0.tolist()
    if diagnostics is not None:
        diag_rows.append(dict(diagnostics(t, y_arr)))
    mon_prev = [m.fn(t, y_arr) - m.level for m in monitors]

    h = min(config.initial_step, config.max_step, config.t_max)
    err_old = 1e-4
    termination = Termination.REACHED_TMAX
    nonfinite_failure = False
    steps = 0

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
            y_new, f_new, err_vec = _dopri_step(rhs, t, y, f_now, h)
        except RangeExceededError:
            termination = Termination.RANGE_EXCEEDED
            break
        except InadmissibleStateError:
            # a trial stage overshot the domain boundary; retry smaller
            nonfinite_failure = False
            h *= 0.5
            continue

        if not all(map(math.isfinite, y_new + err_vec)):
            nonfinite_failure = True
            h *= 0.5
            continue
        nonfinite_failure = False
        # RMS of the error relative to abs_tol + rel_tol * max(|y|, |y_new|)
        qs = [e / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err_vec, y, y_new)]
        err = math.sqrt(sum([q * q for q in qs]) / dim)

        if err > 1.0:
            # reject: pure proportional shrink, no growth
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))
            continue

        steps += 1
        t_new = t_end if final else t + h
        y_arr = np.array(y_new)  # monitors and diagnostics see ndarrays

        stop_ev: Event | None = None
        step_events: list[Event] = []
        try:
            mon_now = [m.fn(t_new, y_arr) - m.level for m in monitors]
            interp = None
            for i, m in enumerate(monitors):
                g0, g1 = mon_prev[i], mon_now[i]
                if g0 * g1 < 0.0:
                    if interp is None:
                        interp = _substep_evaluator(rhs, t, y, f_now, t_new, y_arr)
                    t_star = locate_sign_change(
                        lambda tt, yy, m=m: m.fn(tt, yy) - m.level,
                        t,
                        t_new,
                        interp,
                        config.event_tol,
                        g0,
                        g1,
                    )
                    ev = Event(m.name, t_star, interp(t_star))
                    step_events.append(ev)
                    if m.stop and (stop_ev is None or t_star < stop_ev.t):
                        stop_ev = ev
            step_events.sort(key=lambda ev: ev.t)

            if stop_ev is not None:
                if diagnostics is not None:
                    diag_rows.append(dict(diagnostics(stop_ev.t, stop_ev.state)))
                events.extend(ev for ev in step_events if ev.t <= stop_ev.t)
                ts.append(stop_ev.t)
                ys.append(stop_ev.state)
                termination = Termination.EVENT_STOP
                break

            if diagnostics is not None:
                diag_rows.append(dict(diagnostics(t_new, y_arr)))
        except RangeExceededError:
            termination = Termination.RANGE_EXCEEDED
            break

        events.extend(step_events)
        ts.append(t_new)
        ys.append(y_new)
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

    diag_keys = diag_rows[0] if diag_rows else ()
    return Trajectory(
        t=np.array(ts),
        y=np.array(ys),
        diagnostics={key: np.array([row[key] for row in diag_rows]) for key in diag_keys},
        events=events,
        termination=termination,
    )
