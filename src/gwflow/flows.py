"""Right-hand sides of the volume-normalized Ricci flow on ``P_n``.

Four equivalent formulations are implemented independently of each other so
they can cross-check the transcription:

* :func:`rhs_full` -- generic blockwise flow in ``(x1, x2, x3)``, derived
  from the Ricci eigenvalue formula; works on any three-summand space.
* :func:`rhs_reduced_x` -- the two-equation system in ``(x1, x2)`` on the
  unit-volume slice of ``P_n``, with ``x3`` eliminated.
* :func:`rhs_phase` -- the same system in ``(phi, psi)`` coordinates.
* :func:`rhs_submersion` -- the restriction to the invariant axis
  ``psi = 0``.

:func:`rhs_reparam` rescales time so that ``phi' = 1`` identically, which
turns finite-time blow-up of the original system into linear growth
``phi(t) = t + phi(0)``.

:data:`SYSTEMS` names the five formulations with their state components and
integrator-ready vector fields (the ``field_*`` constructors); the CLI reads
every per-system fact from it.  A vector field maps ``(t, y)`` to the
derivative as a tuple of Python floats.  It unpacks a tuple ``y`` as it is,
the form :func:`~gwflow.integrate.integrate` hands it, so such a tuple must
hold Python floats; any other ``y`` (a list, an ndarray) is converted to
floats once.  Either way the field gives the same bits.

The formulas of :func:`rhs_full`, :func:`rhs_reduced_x` and :func:`rhs_phase`
live in unguarded kernels (``_full_values``, ``_reduced_values``,
``_phase_values``) that also take float64 arrays; :mod:`gwflow.checks`
evaluates a whole grid through them.  Each ``rhs_*`` is its guard plus one
kernel call: the guards reject inadmissible states with
:class:`InadmissibleStateError`, and raise :class:`RangeExceededError`
wherever the kernel could leave the float range, so that no state inside a
guard gives an infinity or ``nan``; long runs deliberately drive ``phi`` to
infinity and integration must stop cleanly.  What each guard bounds:

* :func:`rhs_full` keeps every ``x_i`` in ``[1e-76, 1e76]``, which bounds
  every term on the spaces ``P_n`` (the derivation is at ``_X_LIMIT``).
* :func:`rhs_reduced_x` keeps ``x_i**2`` and ``(x1*x2)**n`` in range, and
  ``x_i / (x1*x2)**n`` below ``2**1000``.
* :func:`rhs_phase` (and :func:`rhs_reparam`, :func:`rhs_submersion`) keeps
  ``(phi**2 - psi**2)**n`` and ``phi**(2n)`` in range, and from ``n = 41``
  the term ``4**n n phi / (2q (phi**2 - psi**2)**n)`` finite.
  :func:`rhs_submersion` refuses through the guard of :func:`rhs_phase` at
  ``psi = 0``, with the same exception and reason.

Each slice formulation reads its bounds from one record, built, and ``n``
validated, once per ``n``: ``_reduced_bounds`` for the reduced system and
``_pn``, which also holds the constants, for the phase systems.  Each
``field_*`` fetches its record when it is built, so a bad ``n`` is refused
before a run.  ``_pn`` refuses with :class:`ValueError` an ``n`` whose
constants overflow a float (``n >= 504``); the reduced and full systems
answer for those too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .spaces import GWSpace, _require_n, _ricci_values, make_pn

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


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 is still validated, and refused, once 2 is cached
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


def rhs_full(space: GWSpace, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    """Blockwise flow ``x_i' = -2 r_i x_i + (2 S / d) x_i`` (volume-normalized)."""
    for x in (x1, x2, x3):
        if not x > 0:
            raise InadmissibleStateError(
                f"scale factors must be positive, got ({x1}, {x2}, {x3})"
            )
        if x > _X_LIMIT or x < 1.0 / _X_LIMIT:
            raise RangeExceededError(f"scale factor {x} outside guarded range")
    return _full_values(space, x1, x2, x3)


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
    lo, hi = _reduced_bounds(n)
    if not (x1 > 0 and x2 > 0):
        raise InadmissibleStateError(f"x1, x2 must be positive, got ({x1}, {x2})")
    # squares by product: a float ** raises OverflowError where * gives inf
    if x1 * x1 > hi or x2 * x2 > hi or x1 * x2 < lo:
        raise RangeExceededError(f"powers of ({x1}, {x2}) outside guarded range")
    return _reduced_values(n, x1, x2)


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


def rhs_phase(n: int, phi: float, psi: float) -> tuple[float, float]:
    """The slice system in ``(phi, psi)`` coordinates.

    ``dphi`` is even in ``psi``; ``dpsi`` carries an overall factor ``psi``,
    so the axis ``psi = 0`` is invariant and the sign of ``psi`` is preserved.
    """
    return _phase(_pn(n), phi, psi)


def _phase(c: _Pn, phi: float, psi: float) -> tuple[float, float]:
    # rhs_phase for the constants c of one n: its guard, then its kernel
    if not phi > abs(psi):
        raise InadmissibleStateError(f"inadmissible phase point (phi={phi}, psi={psi})")
    if phi * phi > c.hi or phi * phi - psi * psi < c.lo:
        raise RangeExceededError(
            f"(phi^2 - psi^2)^{c.n} outside representable range at phi={phi}, psi={psi}"
        )
    return _phase_values(c, phi, psi)


def _phase_values(c: _Pn, phi, psi):
    # the formula of rhs_phase, unguarded, with c = _pn(n); phi, psi may be float64 arrays
    n, _, _, pow4q, c4, q2, r, k6, k4, k2 = c
    p2 = phi * phi - psi * psi
    low = p2 ** (n - 2) / pow4q
    high = q2 * p2 ** n
    dphi = (-2.0 + low * (3 * phi ** 3 - k6 * phi * psi * psi)
            + c4 * phi / high + r * (4 * phi * phi / p2))
    bracket = low * (k4 * phi * phi - k2 * psi * psi) + c4 / high + r * (4 * phi / p2)
    return dphi, psi * bracket


def rhs_submersion(n: int, phi: float) -> float:
    """Axis restriction: the scalar speed of ``phi`` on the locus ``psi = 0``."""
    c = _pn(n)
    if not (phi > 0 and c.lo <= phi * phi <= c.hi):
        _phase(c, phi, 0.0)  # the guard of rhs_phase at psi = 0 refuses such a phi
    u = phi ** (2 * n - 1)
    return (
        -2.0 + 3 * u / (4.0 ** (n - 1) * (n + 2)) + c.c4 / (2 * (n + 2) * u)
    ) / (2 * n - 1)


def rhs_reparam(n: int, phi: float, psi: float) -> tuple[float, float]:
    """Unit-speed system ``(1, dpsi/dphi)``.

    Only defined where the original ``phi`` speed is positive; elsewhere the
    time change does not exist and :class:`ReparamInvalidError` is raised.
    """
    return _reparam(_pn(n), phi, psi)


def _reparam(c: _Pn, phi: float, psi: float) -> tuple[float, float]:
    dphi, dpsi = _phase(c, phi, psi)
    if not dphi > 0:
        raise ReparamInvalidError(
            f"phi' = {dphi} <= 0 at (phi={phi}, psi={psi}); reparametrization undefined"
        )
    return 1.0, dpsi / dphi


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


def field_full(space: GWSpace) -> Field:
    """Vector field for :func:`rhs_full` (state ``[x1, x2, x3]``), returning its tuple."""

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
        x1, x2, x3 = y if type(y) is tuple else _floats(y)
        return rhs_full(space, x1, x2, x3)

    return f


def field_reduced(n: int) -> Field:
    """Vector field for :func:`rhs_reduced_x` (state ``[x1, x2]``), returning its tuple."""
    _reduced_bounds(n)  # refuses n before the run, as field_phase does

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
        x1, x2 = y if type(y) is tuple else _floats(y)
        return rhs_reduced_x(n, x1, x2)

    return f


def field_phase(n: int) -> Field:
    """Vector field for :func:`rhs_phase` (state ``[phi, psi]``), returning its tuple."""
    c = _pn(n)

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
        phi, psi = y if type(y) is tuple else _floats(y)
        return _phase(c, phi, psi)

    return f


def field_reparam(n: int) -> Field:
    """Vector field for :func:`rhs_reparam` (state ``[phi, psi]``), returning its tuple."""
    c = _pn(n)

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
        phi, psi = y if type(y) is tuple else _floats(y)
        return _reparam(c, phi, psi)

    return f


def field_submersion(n: int) -> Field:
    """Vector field for :func:`rhs_submersion` (state ``[phi]``), returning ``(phi',)``."""
    _pn(n)  # refuses n before the run, as field_phase does

    def f(t: float, y: Sequence[float] | np.ndarray) -> tuple[float]:
        (phi,) = y if type(y) is tuple else _floats(y)
        return (rhs_submersion(n, phi),)

    return f


@dataclass(frozen=True)
class System:
    """One formulation on ``P_n``: its state components, in order, and
    ``field(n)``, the vector field it integrates, which returns a tuple."""

    name: str
    state: tuple[str, ...]
    field: Callable[[int], Field]


SYSTEMS: dict[str, System] = {
    s.name: s
    for s in (
        System("full", ("x1", "x2", "x3"), lambda n: field_full(make_pn(n))),
        System("reduced", ("x1", "x2"), field_reduced),
        System("phase", ("phi", "psi"), field_phase),
        System("reparam", ("phi", "psi"), field_reparam),
        System("submersion", ("phi",), field_submersion),
    )
}
