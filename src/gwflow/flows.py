"""Right-hand sides of the volume-normalized Ricci flow on ``P_n``.

Five formulations cross-check the transcription, each a field of :data:`SYSTEMS`:

* ``full`` (:func:`field_full`) -- the blockwise flow in ``(x1, x2, x3)``,
  from the Ricci eigenvalue formula; works on any three-summand space.
* ``reduced`` (:func:`field_reduced`) -- the two equations in ``(x1, x2)``
  on the unit-volume slice of ``P_n``, with ``x3`` eliminated.
* ``phase`` (:func:`field_phase`) -- the slice system in ``(phi, psi)``.
* ``reparam`` (:func:`field_reparam`) -- the phase text with the time change
  ``phi' = 1``, which turns finite-time blow-up into linear growth.
* ``submersion`` (:func:`field_submersion`) -- the invariant axis ``psi = 0``.

A :class:`System` holds its state components, its field ``field(n)`` and
``sample(n, *state)``: the state's ``(x1, x2, x3, phi, psi)`` on the slice
and the Ricci eigenvalues in the system's own coordinates.  The CLI reads
every per-system fact from :data:`SYSTEMS`.  A vector field maps ``(t, y)``
to the derivative as a tuple of Python floats.  It unpacks a tuple ``y`` as
it is, the form :func:`~gwflow.integrate.integrate` hands it, so such a tuple
must hold Python floats; any other ``y`` (a list, an ndarray) is converted to
floats once.  Either way the field gives the same bits.

Every formulation follows one rule.  Its field is built once per ``n`` (per
space, for ``full``) and cached, and it is the only place that holds the
system's guard: one call unpacks the state, runs the guard and evaluates the
formula.  Each ``rhs_*`` is a convenience that evaluates its field at one
point.  The formulas of ``full`` and ``reduced`` live in unguarded kernels
(``_full_values``, ``_reduced_values``), which their fields call.  The phase
formula is written once, as source lines (``_P2`` and ``_PHASE_FORMULA``), and
``_phase_source`` compiles it, with the phase-coordinate guard written once,
into the unguarded kernel ``_phase_values`` and the generated fields
:func:`field_phase`, :func:`field_reparam` and :func:`field_submersion`, each
one frame with the constants of ``_pn(n)`` bound by name.  (The axis speed of
``submersion`` stays a separate transcription in ``u = phi**(2n-1)``.)
``print(inspect.getsource(field_phase(2)))`` shows the generated source,
which tracebacks show too.  The three kernels also take float64 arrays;
:mod:`gwflow.checks` evaluates a whole grid through them.

The guards reject inadmissible states with :class:`InadmissibleStateError`,
and raise :class:`RangeExceededError` wherever the formula could leave the
float range, so that no state inside a guard gives an infinity or ``nan``;
long runs deliberately drive ``phi`` to infinity and integration must stop
cleanly.  What each guard bounds:

* ``full`` keeps every ``x_i`` in ``[1e-76, 1e76]``, which bounds every term
  on the spaces ``P_n`` (the derivation is at ``_X_LIMIT``).
* ``reduced`` keeps ``x_i**2`` and ``(x1*x2)**n`` in range, and
  ``x_i / (x1*x2)**n`` below ``2**1000``.
* ``phase``, ``reparam`` and ``submersion`` (at ``psi = 0``) keep
  ``(phi**2 - psi**2)**n`` and ``phi**(2n)`` in range, and from ``n = 41``
  the term ``4**n n phi / (2q (phi**2 - psi**2)**n)`` finite.

Each slice formulation reads its bounds from one record, built, and ``n``
validated, when its field is built: ``_reduced_bounds`` for the reduced
system and ``_pn``, which also holds the constants, for the phase systems.
So a bad ``n`` is refused before a run.  ``_pn`` refuses with
:class:`ValueError` an ``n`` whose constants overflow a float
(``n >= 504``); the reduced and full systems answer for those too.
"""

from __future__ import annotations

import linecache
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .spaces import GWSpace, _phase_sample, _require_n, _ricci_values, _x3_values, _x_sample, make_pn

__all__ = [
    "RangeExceededError",
    "InadmissibleStateError",
    "ReparamInvalidError",
    "rhs_full",
    "rhs_reduced_x",
    "rhs_phase",
    "rhs_submersion",
    "rhs_reparam",
    "submersion_fixed_points",
    "field_full",
    "field_reduced",
    "field_phase",
    "field_reparam",
    "field_submersion",
    "System",
    "SYSTEMS",
]

RANGE_LIMIT = 1e280
# rhs_full's guard keeps each x_i in [1/L, L], L = _X_LIMIT.  Then every
# x_i/(x_j*x_k) is at most L**3, and on P_n each a_i is below 1/2, so |r_i| <=
# L/2 + 3 L**3 / 4; the trace term, twice a weighted mean of the r_i, is at
# most 2 max|r_i|, so |x_i'| <= 4 max|r_i| L <= 3 L**4 + 2 L**2, below 4e304
_X_LIMIT = 1e76
# (t, state) -> derivative; the state a tuple of Python floats, a list or an ndarray
Field = Callable[[float, Sequence[float] | np.ndarray], tuple[float, ...]]


def _floats(y) -> list[float]:
    # a state or derivative that is not a tuple (a list, an ndarray) as Python floats
    return np.asarray(y, dtype=float).tolist()


class RangeExceededError(ArithmeticError):
    """A guarded power left the representable range; integration should stop."""


class InadmissibleStateError(ValueError):
    """The state violates the domain (``x_i > 0``, ``phi > |psi|``).

    Raised by the right-hand sides; the integrator treats it as a trial
    step that overshot the domain boundary and retries with a smaller step.
    """


class ReparamInvalidError(InadmissibleStateError):
    """The unit-speed time change requires ``phi' > 0`` at the given point.

    A trial stage outside the time change's domain is retried with a smaller
    step, like any inadmissible stage; a run that reaches ``phi' = 0`` ends
    in step-size underflow there.
    """


def _phase_bounds(n: int) -> tuple[float, float]:
    # n, validated, and the bounds that keep (phi**2 - psi**2)**n or (x1*x2)**n in range
    _require_n(n)
    return RANGE_LIMIT ** (-1.0 / n), RANGE_LIMIT ** (1.0 / n)


def _reduced_bounds(n: int) -> tuple[float, float]:
    lo, hi = _phase_bounds(n)
    # The terms x_i / (x1*x2)**n of rhs_reduced_x must stay finite too.  The
    # guard keeps x_i <= sqrt(hi), so (x1*x2)**n >= sqrt(hi) * 2**-1000 keeps
    # them below 2**1000; that raises lo for n <= 6
    return max(lo, (math.sqrt(hi) * 2.0 ** -1000) ** (1 / n)), hi


_Pn = namedtuple("_Pn", "n lo hi pow4q c4 q2 r k6 k4 k2")  # n, guard bounds, constants


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 is still validated, and refused, once 2 is cached
def _pn(n: int) -> _Pn:
    lo, hi = _phase_bounds(n)
    q = (n + 2) * (2 * n - 1)  # each constant in the formula's own order: same bits
    try:
        pow4q = 4.0 ** (n - 1) * q  # the largest constant: c4 = 4.0 ** n * n is smaller
    except OverflowError:  # 4.0 ** (n - 1) itself, from n = 513
        pow4q = math.inf
    if pow4q == math.inf:
        raise ValueError(f"n={n} is too large: the constants of P_n overflow a float")
    c4 = 4.0 ** n * n
    # The term c4 * phi / (q2 * p2**n) of rhs_phase, p2 = phi**2 - psi**2,
    # must stay finite too.  A positive float difference p2 is at least
    # 2**-54 * phi**2 (an ulp of psi**2 near phi**2, or half of phi**2), so
    # phi < 2**28 * sqrt(p2) and the term is below c4 * 2**28 / (q2 * p2**(n - 1/2)).
    # Keeping it below 2**1020, which leaves room for the other terms,
    # raises lo from n = 41 on.
    lo = max(lo, (c4 / 2.0 ** 1020 * 2.0 ** 28 / (2 * q)) ** (1 / (n - 0.5)))
    return _Pn(n, lo, hi, pow4q, c4, 2 * q,
               (n - 1) / (2 * n - 1), 6 * n - 1, -4 * n + 5, 2 * n + 1)


def _compile(source: str, filename: str, namespace: dict) -> dict:
    """Run generated ``source`` in ``namespace`` and return the namespace.

    The source is registered with :mod:`linecache` under ``filename``, so
    tracebacks show its lines and :func:`inspect.getsource` prints it."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def rhs_full(space: GWSpace, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Blockwise flow ``x_i' = -2 r_i x_i + (2 S / d) x_i`` (volume-normalized)."""
    return field_full(space)(0.0, (x1, x2, x3))


def _full_values(space: GWSpace, x1, x2, x3):
    # the formula of rhs_full, unguarded; x1, x2, x3 may be float64 arrays
    r1, r2, r3 = _ricci_values(space, x1, x2, x3)
    trace = 2.0 * (space.d1 * r1 + space.d2 * r2 + space.d3 * r3) / space.d
    return (
        (-2.0 * r1 + trace) * x1,
        (-2.0 * r2 + trace) * x2,
        (-2.0 * r3 + trace) * x3,
    )


def rhs_reduced_x(n: int, x1: float, x2: float) -> tuple[float, float]:
    """The two-equation system on the unit-volume slice of ``P_n``."""
    return field_reduced(n)(0.0, (x1, x2))


def _reduced_values(n: int, x1, x2):
    # the formula of rhs_reduced_x, unguarded; x1, x2 may be float64 arrays
    prod = x1 * x2
    inv_pow = 1.0 / prod ** n
    t12 = x1 ** n * x2 ** (n - 2)
    t21 = x1 ** (n - 2) * x2 ** n
    # grouping (t12 + t21) keeps the x1 <-> x2 exchange symmetry bit-exact
    b = (
        2 * (n + 2) * (1.0 / x1 + 1.0 / x2 + prod ** (n - 1) / (n - 1))
        - (t12 + t21)
        - inv_pow
    ) * (n - 1) / (2 * (n + 2) * (2 * n - 1))
    dx1 = -1.0 - x1 / (2 * (n + 2)) * (t12 - t21 - inv_pow) + x1 * b
    dx2 = -1.0 - x2 / (2 * (n + 2)) * (-t12 + t21 - inv_pow) + x2 * b
    return dx1, dx2


# The formula of rhs_phase, written once and compiled by _phase_source into
# the array kernel _phase_values and the guarded fields; the names are those
# of a _pn record.  Its first line, _P2, is also what the range guard reads.
_P2 = "p2 = phi * phi - psi * psi"
_PHASE_FORMULA = (
    "low = p2 ** (n - 2) / pow4q",
    "high = q2 * p2 ** n",
    "dphi = (-2.0 + low * (3 * phi ** 3 - k6 * phi * psi * psi)",
    "        + c4 * phi / high + r * (4 * phi * phi / p2))",
    "bracket = low * (k4 * phi * phi - k2 * psi * psi) + c4 / high + r * (4 * phi / p2)",
)


def _phase_source() -> str:
    """Python source of ``_phase_values(c, phi, psi)``, the unguarded kernel,
    and of the factories ``field_phase``, ``field_reparam`` and
    ``field_submersion``, which take the fields of a ``_pn`` record and return
    the guarded field for that ``n``: unpacking, guard, formula and (for
    reparam) the time change in one frame, or, for submersion, the axis
    speed after the same guard at ``psi = 0``."""
    record = ", ".join(_Pn._fields)
    unpack = ["phi, psi = y if type(y) is tuple else _floats(y)"]
    unpack_axis = ["(phi,) = y if type(y) is tuple else _floats(y)", "psi = 0.0"]
    guard = [
        "if not phi > abs(psi):",
        '    raise InadmissibleStateError(f"inadmissible phase point (phi={phi}, psi={psi})")',
        _P2,
        "if phi * phi > hi or p2 < lo:",
        "    raise RangeExceededError(",
        '        f"(phi^2 - psi^2)^{n} outside representable range at phi={phi}, psi={psi}"',
        "    )",
    ]
    speed = ["return dphi, psi * bracket"]
    time_change = [
        "if not dphi > 0:",
        "    raise ReparamInvalidError(",
        "        f\"phi' = {dphi} <= 0 at (phi={phi}, psi={psi}); reparametrization undefined\"",
        "    )",
        "return 1.0, psi * bracket / dphi",
    ]
    axis_speed = [
        "u = phi ** (2 * n - 1)",
        "return ((-2.0 + 3 * u / (4.0 ** (n - 1) * (n + 2)) + c4 / (2 * (n + 2) * u)) / (2 * n - 1),)",
    ]

    def factory(name: str, *groups: list[str]) -> list[str]:
        body = [" " * 8 + line for group in groups for line in group]
        return [f"def {name}({record}):", f"    def {name}(t, y):", *body, f"    return {name}", ""]

    lines = [
        "def _phase_values(c, phi, psi):",
        "    # the formula of rhs_phase, unguarded, with c = _pn(n); phi, psi may be float64 arrays",
        f"    {record} = c",
        *("    " + line for line in (_P2, *_PHASE_FORMULA, *speed)),
        "",
        *factory("field_phase", unpack, guard, _PHASE_FORMULA, speed),
        *factory("field_reparam", unpack, guard, _PHASE_FORMULA, time_change),
        *factory("field_submersion", unpack_axis, guard, axis_speed),
    ]
    return "\n".join(lines)


_PHASE = _compile(_phase_source(), "<gwflow.flows phase formula>", {
    "__name__": __name__,
    "_floats": _floats,
    "InadmissibleStateError": InadmissibleStateError,
    "RangeExceededError": RangeExceededError,
    "ReparamInvalidError": ReparamInvalidError,
})
_phase_values = _PHASE["_phase_values"]


def rhs_phase(n: int, phi: float, psi: float) -> tuple[float, float]:
    """The slice system in ``(phi, psi)`` coordinates.

    ``dphi`` is even in ``psi``; ``dpsi`` carries an overall factor ``psi``,
    so the axis ``psi = 0`` is invariant and the sign of ``psi`` is preserved.
    """
    return field_phase(n)(0.0, (phi, psi))


def rhs_submersion(n: int, phi: float) -> float:
    """Axis restriction: the scalar speed of ``phi`` on the locus ``psi = 0``."""
    return field_submersion(n)(0.0, (phi,))[0]


def rhs_reparam(n: int, phi: float, psi: float) -> tuple[float, float]:
    """Unit-speed system ``(1, dpsi/dphi)``.

    Only defined where the original ``phi`` speed is positive; elsewhere the
    time change does not exist and :class:`ReparamInvalidError` is raised.
    """
    return field_reparam(n)(0.0, (phi, psi))


def submersion_fixed_points(n: int) -> tuple[float, float]:
    """The two roots of the axis equation, in increasing order.

    In ``u = phi**(2n-1)`` the axis speed is a shifted sum ``c1*u + c2/u - c``,
    so the roots solve a quadratic; both correspond to fixed points of the
    full slice system (the axis is invariant).  The discriminant
    ``1 - 6n/(n+2)**2`` is positive for every ``n >= 2``.
    """
    _pn(n)  # refuses n, the large n whose constants overflow included
    disc = 1.0 - 6.0 * n / (n + 2) ** 2
    base = 4.0 ** (n - 1) * (n + 2) / 3.0
    u_minus = base * (1.0 - math.sqrt(disc))
    u_plus = base * (1.0 + math.sqrt(disc))
    e = 1.0 / (2 * n - 1)
    return u_minus ** e, u_plus ** e


@lru_cache  # per space: a GWSpace is any three-summand space, so the cache is bounded
def field_full(space: GWSpace) -> Field:
    """Vector field of the blockwise flow on ``space`` (state ``[x1, x2, x3]``),
    returning its tuple; the range test runs first, and only a state it
    refuses is tested again for the reason to raise."""
    lo, hi = 1.0 / _X_LIMIT, _X_LIMIT

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
        x1, x2, x3 = y if type(y) is tuple else _floats(y)
        if not (lo <= x1 <= hi and lo <= x2 <= hi and lo <= x3 <= hi):
            for x in (x1, x2, x3):
                if not x > 0:
                    raise InadmissibleStateError(
                        f"scale factors must be positive, got ({x1}, {x2}, {x3})"
                    )
                if x > hi or x < lo:
                    raise RangeExceededError(f"scale factor {x} outside guarded range")
        return _full_values(space, x1, x2, x3)

    return f


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 is still validated, and refused, once 2 is cached
def field_reduced(n: int) -> Field:
    """Vector field of the two-equation system on the unit-volume slice of
    ``P_n`` (state ``[x1, x2]``), returning its tuple."""
    lo, hi = _reduced_bounds(n)

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
        x1, x2 = y if type(y) is tuple else _floats(y)
        if not (x1 > 0 and x2 > 0):
            raise InadmissibleStateError(f"x1, x2 must be positive, got ({x1}, {x2})")
        # squares by product: a float ** raises OverflowError where * gives inf
        if x1 * x1 > hi or x2 * x2 > hi or x1 * x2 < lo:
            raise RangeExceededError(f"powers of ({x1}, {x2}) outside guarded range")
        return _reduced_values(n, x1, x2)

    return f


@lru_cache(maxsize=None, typed=True)
def field_phase(n: int) -> Field:
    """Vector field of the slice system in ``(phi, psi)`` (state ``[phi, psi]``),
    returning its tuple; one generated function per ``n`` (``_phase_source``)."""
    return _PHASE["field_phase"](*_pn(n))


@lru_cache(maxsize=None, typed=True)
def field_reparam(n: int) -> Field:
    """Vector field of the unit-speed system (state ``[phi, psi]``), returning
    its tuple; one generated function per ``n`` (``_phase_source``)."""
    return _PHASE["field_reparam"](*_pn(n))


@lru_cache(maxsize=None, typed=True)
def field_submersion(n: int) -> Field:
    """Vector field of the axis restriction (state ``[phi]``), returning
    ``(phi',)``; one generated function per ``n`` (``_phase_source``), which
    refuses as :func:`field_phase` does at ``psi = 0``."""
    return _PHASE["field_submersion"](*_pn(n))


@dataclass(frozen=True)
class System:
    """One formulation on ``P_n``: its state components, in order; ``field(n)``,
    the vector field it integrates; and ``sample(n, *state)``, unguarded, the
    ``(x1, x2, x3, phi, psi, r1, r2, r3)`` of the module docstring."""

    name: str
    state: tuple[str, ...]
    field: Callable[[int], Field]
    sample: Callable[..., tuple[float, ...]]


SYSTEMS: dict[str, System] = {
    s.name: s
    for s in (
        System("full", ("x1", "x2", "x3"), lambda n: field_full(make_pn(n)), _x_sample),
        System("reduced", ("x1", "x2"), field_reduced,
               lambda n, x1, x2: _x_sample(n, x1, x2, _x3_values(n, x1, x2))),
        System("phase", ("phi", "psi"), field_phase, _phase_sample),
        System("reparam", ("phi", "psi"), field_reparam, _phase_sample),
        System("submersion", ("phi",), field_submersion, lambda n, phi: _phase_sample(n, phi, 0.0)),
    )
}
