"""Adaptive embedded Runge-Kutta integration with event detection.

The stepper is the classic Dormand-Prince 5(4) pair (seven stages, FSAL)
with proportional-integral step-size control.  Monitors only locate events
(``diagnostics`` records per-sample values): each is evaluated at every
accepted step, and a sign change across a step is localized by Brent's
method, with in-step states produced by a single full-order stage pass from
the step's left endpoint (so localized event times inherit the integrator's
accuracy rather than an interpolant's).  The search stops once the bracket
is ``EVENT_TOL`` wide or no float lies strictly inside it.  A monitor
marked ``stop`` ends the run at its first located crossing.

The states here have one to three components, where numpy's per-call
overhead costs far more than the arithmetic, so each step runs on Python
floats, in a kernel generated per state dimension from the Dormand-Prince
tableau (``_dopri_kernel``): every stage state, the 5th-order update, the
error estimate and its norm are written out component by component as
scalar expressions, with no loop and no list in between.  The kernel is
compiled once per process and dimension, when a run first needs it;
``print(inspect.getsource(_dopri_kernel(2)))`` shows its source, which
tracebacks show too.  The kernel hands the right-hand side every state as
its own tuple of Python floats and unpacks the result directly, which is
how gwflow's vector fields take and return states.  ``integrate`` makes the
first call in the caller's form (a fresh ndarray when ``initial`` is one)
and decides there, once, whether to adapt the right-hand side.  It does
when ``initial`` is an ndarray or that first result is not a tuple of
Python floats: the adapted right-hand side is handed the same form as the
first call and its result is copied to a list of floats.  gwflow's vector
fields are never adapted.  A result of the wrong length raises
:class:`ValueError` at that stage.  Monitors and diagnostics receive the
kernel's tuple of floats too, at accepted states and in-step probes alike
(``np.asarray(y)`` makes it an array); a :class:`Trajectory` and its events
hold ndarrays.

The problems integrated here are smooth and non-stiff by construction; when
a right-hand side reports :class:`~gwflow.flows.RangeExceededError`, or the
step size underflows near a finite-time blow-up, integration terminates
cleanly with the reason recorded on the trajectory rather than raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .flows import InadmissibleStateError, RangeExceededError, _compile, _floats

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
# the width below which an event's bracket is not narrowed further (or one
# ulp of t, where that is wider)
EVENT_TOL = 1e-10

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, *Solving ODEs I*, II.5):
# stage nodes c, stage coefficients a (row i for stage i + 1), 5th-order
# weights b and the 5th-minus-4th-order error weights e.  The last stage's
# coefficients equal b and b7 = 0, which makes the pair FSAL: the last
# stage's state is the 5th-order solution and the stage itself the derivative
# there.  The kernels leave out every zero entry (a72 = b2 = e2 = 0), since
# even a zero term can flip the sign of a zero sum, and write c = 1 as ``t + h``.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


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

    Every tolerance and limit must be positive and finite, except
    ``max_step``, which may be infinite (no cap): an infinite ``t_max`` would
    let the step size overflow to ``inf``, where every trial step is
    non-finite and halving it never ends.  ``initial_step`` and
    ``max_step`` must be at least ``MIN_STEP``, below which every run would
    end at ``t = 0`` in step-size underflow; a shorter ``t_max`` is taken as
    the final step and runs.
    """

    t_max: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    initial_step: float = 1e-3
    max_step: float = math.inf
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "initial_step", "t_max"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("initial_step", "max_step"):
            v = getattr(self, name)
            if not v >= MIN_STEP:
                raise ValueError(f"{name} must be at least {MIN_STEP}, got {v}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class Monitor:
    """A named scalar functional of ``(t, state)`` watched during a run.

    Every strict sign change of ``fn`` is located and recorded as an
    :class:`Event`; with ``stop`` set, the first one also ends the run.  To
    watch a crossing of a level ``c``, watch the functional minus ``c``.
    """

    name: str
    fn: Callable[[float, tuple[float, ...]], float]
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


def _kernel_source(dim: int) -> str:
    """Python source of the Dormand-Prince step for states of ``dim``
    components, every state, stage and sum written out per component.  Each
    sum adds its terms in the tableau's order, as a loop over components
    would, so the kernels give that loop's bits."""
    comps = range(dim)

    def names(fmt: str) -> str:  # "y0, y1," for fmt "y{i}": a tuple even for dim 1
        return ", ".join(fmt.format(i=i) for i in comps) + ","

    def time(j: int) -> str:  # the time of stage j
        return "t + h" if _C[j - 1] == 1.0 else f"t + {_C[j - 1]!r} * h"

    def combination(coefs, i: int) -> str:  # sum_j coefs[j] * k{j+1}_i, zeros left out
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coefs, 1) if c)

    lines = [
        f"def dopri5_dim{dim}(rhs, t, y, k1, h, abs_tol=None, rel_tol=None):",
        f"    {names('y{i}')} = y",
        f"    {names('k1_{i}')} = k1",
    ]
    for j in range(2, 7):
        lines.append(f"    {names(f'k{j}_{{i}}')} = rhs({time(j)}, (")
        lines += [f"        y{i} + h * ({combination(_A[j - 1], i)})," for i in comps]
        lines.append("    ))")
    lines += [f"    z{i} = y{i} + h * ({combination(_B, i)})" for i in comps]
    lines += [
        f"    z = {names('z{i}')}",
        "    if abs_tol is None:",
        "        return z",
        f"    k7 = rhs({time(7)}, z)",
        f"    {names('k7_{i}')} = k7",
    ]
    lines += [f"    e{i} = h * ({combination(_E, i)})" for i in comps]
    finite = " and ".join(f"isfinite({v}{i})" for v in "ze" for i in comps)
    lines += [
        f"    if not ({finite}):",
        "        return z, k7, None",
    ]
    # RMS of the error relative to abs_tol + rel_tol * max(|y|, |y_new|);
    # sum() is compensated from Python 3.12 on, so it stays a sum()
    lines += [
        f"    q{i} = e{i} / (abs_tol + rel_tol * max(abs(y{i}), abs(z{i})))" for i in comps
    ]
    squares = ", ".join(f"q{i} * q{i}" for i in comps)
    lines.append(f"    return z, k7, sqrt(sum([{squares}]) / {dim})")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _dopri_kernel(dim: int):
    """The Dormand-Prince step for states of ``dim`` components, generated
    from the tableau once per process and dimension.

    ``kernel(rhs, t, y, k1, h, abs_tol, rel_tol)`` takes ``y`` and
    ``k1 = rhs(t, y)`` as sequences of ``dim`` floats and makes six ``rhs``
    calls, each handed the stage state as a tuple of Python floats and each
    result unpacked as it is, so ``rhs`` must return ``dim`` Python floats
    (:func:`integrate` adapts any other ``rhs``).  It returns the 5th-order
    solution (the last stage's state) as a tuple, the last stage (the
    derivative there) and the RMS error norm, or ``None`` for the norm when
    the solution or the error estimate is not finite.  A stage of the wrong
    length raises :class:`ValueError`.  ``kernel(rhs, t, y, k1, h)`` stops
    after five calls and returns the 5th-order solution alone.

    The source is compiled by ``flows._compile``, as the phase fields are,
    so tracebacks show its lines and ``inspect.getsource(_dopri_kernel(2))``
    prints it.
    """
    filename = f"<gwflow.integrate Dormand-Prince kernel, dim {dim}>"
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt}
    return _compile(_kernel_source(dim), filename, namespace)[f"dopri5_dim{dim}"]


def _substep_evaluator(rhs, t0, y0, f0, t1, y1):
    """In-step state evaluator: one full-order stage pass from ``(t0, y0)``.

    A cubic Hermite interpolant is an order short here: the controller takes
    steps that are a few percent of the solution's own scale, where a
    cubic's interpolation error moves localized event times by far more
    than the integration error does.  The 5th-order update of a single step
    of size ``t - t0`` keeps in-step states at the integrator's own order:
    it is the kernel of :func:`integrate` (``_dopri_kernel``) called without
    tolerances, which stops before the last (FSAL) stage, since that stage
    serves only the error estimate.

    ``y0`` and ``y1`` are tuples of Python floats, ``f0 = rhs(t0, y0)`` a
    sequence of them, and ``rhs`` takes and returns states as the kernel
    does; the evaluator returns tuples of floats.  :func:`integrate` builds
    an evaluator only on a step across which some monitor changes sign.
    """
    update = _dopri_kernel(len(y0))

    def interp(t: float) -> tuple[float, ...]:
        tau = t - t0
        if tau <= 0.0:
            return y0
        if t >= t1:
            return y1
        return update(rhs, t0, y0, f0, tau)

    return interp


def _adapted(rhs, arrays: bool):
    """``rhs`` in the kernel's form: handed a fresh ndarray per call when
    ``arrays`` is set, the kernel's tuple otherwise, with its result copied
    to a list of Python floats."""
    return lambda t, y: _floats(rhs(t, np.array(y) if arrays else y))


def locate_sign_change(
    f: Callable[[float, tuple[float, ...]], float],
    t_lo: float,
    t_hi: float,
    interpolant: Callable[[float], tuple[float, ...]],
    event_tol: float = EVENT_TOL,
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
    if not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
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
    rhs: Callable[[float, tuple[float, ...] | np.ndarray], Sequence[float] | np.ndarray],
    initial: Sequence[float] | np.ndarray,
    config: IntegratorConfig,
    monitors: Iterable[Monitor] = (),
    diagnostics: Callable[[float, tuple[float, ...]], Mapping[str, float]] | None = None,
) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` from ``initial`` at ``t = 0`` to ``config.t_max``.

    ``rhs`` is handed every state as a tuple of Python floats, or, when
    ``initial`` is an ndarray, as a fresh ndarray.  When ``initial`` is an
    ndarray or the first result is not a tuple of Python floats, ``rhs`` is
    adapted after that first call (``_adapted``).  The initial state must
    satisfy the right-hand side's preconditions (a failing initial
    evaluation raises).  Later guard trips and step-size underflow
    terminate the run gracefully with the reason recorded.
    """
    monitors = list(monitors)
    arrays = isinstance(initial, np.ndarray)
    y_arr = np.array(initial, dtype=float)
    y = tuple(y_arr.tolist())
    step = _dopri_kernel(len(y))
    t, t_end = 0.0, config.t_max
    rel_tol, abs_tol = config.rel_tol, config.abs_tol

    ts: list[float] = [t]
    ys: list = [y]
    diag_rows: list[Mapping[str, float]] = []
    events: list[Event] = []

    f0 = rhs(t, y_arr if arrays else y)
    if arrays or type(f0) is not tuple or not all(type(v) is float for v in f0):
        rhs = _adapted(rhs, arrays)
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != y_arr.shape:
        raise ValueError(
            f"right-hand side has shape {f0.shape} for a state of shape {y_arr.shape}"
        )
    if not np.all(np.isfinite(f0)):
        raise ValueError(f"right-hand side non-finite at the initial point {y_arr}")
    f_now = f0.tolist()
    if diagnostics is not None:
        diag_rows.append(dict(diagnostics(t, y)))
    mon_prev = [m.fn(t, y) for m in monitors]

    max_step, max_steps = config.max_step, config.max_steps
    h = min(config.initial_step, max_step, t_end)
    err_old = 1e-4
    termination = Termination.REACHED_TMAX
    nonfinite_failure = False
    steps = 0

    while t < t_end:
        if steps >= max_steps:
            termination = Termination.MAX_STEPS
            break
        h = min(h, max_step)
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
            y_new, f_new, err = step(rhs, t, y, f_now, h, abs_tol, rel_tol)
        except RangeExceededError:
            termination = Termination.RANGE_EXCEEDED
            break
        except InadmissibleStateError:
            # a trial stage overshot the domain boundary; retry smaller
            nonfinite_failure = False
            h *= 0.5
            continue

        if err is None:  # the solution or the error estimate is not finite
            nonfinite_failure = True
            h *= 0.5
            continue
        nonfinite_failure = False

        if err > 1.0:
            # reject: pure proportional shrink, no growth
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))
            continue

        steps += 1
        t_new = t_end if final else t + h

        stop_ev: Event | None = None
        step_events: list[Event] = []
        try:
            mon_now = [m.fn(t_new, y_new) for m in monitors]
            interp = None
            for m, g0, g1 in zip(monitors, mon_prev, mon_now):
                if g0 < 0.0 < g1 or g1 < 0.0 < g0:
                    if interp is None:
                        interp = _substep_evaluator(rhs, t, y, f_now, t_new, y_new)
                    t_star = locate_sign_change(m.fn, t, t_new, interp, EVENT_TOL, g0, g1)
                    y_star = interp(t_star)
                    ev = Event(m.name, t_star, np.array(y_star))
                    step_events.append(ev)
                    if m.stop and (stop_ev is None or t_star < stop_ev.t):
                        stop_ev, stop_y = ev, y_star
            if step_events:
                step_events.sort(key=lambda ev: ev.t)

            if stop_ev is not None:
                if diagnostics is not None:
                    diag_rows.append(dict(diagnostics(stop_ev.t, stop_y)))
                events.extend(ev for ev in step_events if ev.t <= stop_ev.t)
                ts.append(stop_ev.t)
                ys.append(stop_y)
                termination = Termination.EVENT_STOP
                break

            if diagnostics is not None:
                diag_rows.append(dict(diagnostics(t_new, y_new)))
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
