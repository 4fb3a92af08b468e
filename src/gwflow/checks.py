"""Cross-consistency checks between the independent formulations.

Each check compares two routes to the same quantity: the coordinate maps must
invert each other, the eigenvalue formulas in the two coordinate systems must
agree, the three right-hand sides must be images of one another under the
coordinate maps, and the volume must stay constant along an integrated
full-system trajectory that reaches ``t_max``.

The spectrum and right-hand-side checks evaluate the whole :func:`phase_grid`
at once, as float64 arrays, through the unguarded kernels
(``spaces._chart_values``, ``spaces._ricci_values``,
``spaces._phase_ricci_values``, ``flows._full_values``,
``flows._reduced_values``, ``flows._phase_values``) that the guarded
``from_phase``, ``ricci_*`` and ``rhs_*`` functions call; they look them up
through their modules at call time.  A check that cannot evaluate its grid or
run (a numpy floating-point error, an overflow, a range guard, an ``n``
whose constants overflow) fails and names the reason.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import flows, spaces
from .flows import field_full, submersion_fixed_points
from .integrate import IntegratorConfig, Termination, integrate
from .spaces import Metric, from_phase, make_pn, to_phase, volume, x3_from_volume_one

__all__ = ["CheckResult", "run_invariant_checks", "phase_grid"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    passed: bool
    detail: str


def phase_grid(n_points: int = 20, phi_lo: float = 1.0, phi_hi: float = 5.0,
               ratio: float = 0.85) -> tuple[np.ndarray, np.ndarray]:
    """Admissible grid ``psi = u * phi`` for ``|u| <= ratio``, as two flat
    float64 arrays ``(phi, psi)`` of ``n_points**2`` points."""
    phis = np.linspace(phi_lo, phi_hi, n_points)
    us = np.linspace(-ratio, ratio, n_points)
    return np.repeat(phis, n_points), np.outer(phis, us).ravel()


def _check(name: str):
    """Make a per-``n`` check from ``fn(n) -> (passed, detail)``.

    Runs ``fn`` with numpy floating-point errors raised; any arithmetic
    error, and any ``ValueError`` (an ``n`` the formulas refuse, an
    inadmissible start), becomes a FAIL that names it.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(n: int) -> CheckResult:
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    passed, detail = fn(n)
            except (ArithmeticError, ValueError) as exc:
                return CheckResult(name, n, False, f"cannot evaluate: {type(exc).__name__}: {exc}")
            return CheckResult(name, n, bool(passed), detail)

        return run

    return decorate


def _deviation(a, b, floor: float, rtol: float, atol: float) -> tuple[bool, float]:
    """Whether ``a`` and ``b`` agree elementwise within ``atol + rtol*max|.|``,
    and the largest ``|a - b| / max(|a|, |b|, floor)``."""
    a, b = np.asarray(a), np.asarray(b)
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return bool(np.all(diff <= atol + rtol * scale)), float(np.max(diff / np.maximum(scale, floor)))


def _slice_grid(n: int):
    """:func:`phase_grid` with its scale factors: ``from_phase`` on arrays."""
    phi, psi = phase_grid()
    return (phi, psi, *spaces._chart_values(n, phi, psi))


@_check("coordinate-round-trip")
def _check_round_trip(n: int):
    worst = 0.0
    xs = np.geomspace(0.2, 5.0, 12).tolist()
    for x1 in xs:
        for x2 in xs:
            y1, y2, _ = from_phase(to_phase(n, x1, x2))
            worst = max(worst, abs(y1 - x1) / x1, abs(y2 - x2) / x2)
    return worst < 1e-14, f"max rel error {worst:.2e}"


@_check("spectrum-agreement")
def _check_spectrum_agreement(n: int):
    phi, psi, x1, x2, x3 = _slice_grid(n)
    ok, worst = _deviation(
        spaces._phase_ricci_values(n, phi, psi),
        spaces._ricci_values(make_pn(n), x1, x2, x3),
        floor=1e-2, rtol=1e-12, atol=1e-14,
    )
    return ok, f"max rel deviation {worst:.2e}"


@_check("rhs-consistency")
def _check_rhs_consistency(n: int):
    phi, psi, x1, x2, x3 = _slice_grid(n)
    dx_full = flows._full_values(make_pn(n), x1, x2, x3)
    dx_red = flows._reduced_values(n, x1, x2)
    d_phase = flows._phase_values(flows._pn(n), phi, psi)
    ok, worst = _deviation(
        (dx_full[0], dx_full[1], d_phase[0], d_phase[1]),
        (dx_red[0], dx_red[1], dx_red[0] + dx_red[1], dx_red[0] - dx_red[1]),
        floor=1.0, rtol=1e-10, atol=1e-12,
    )
    return ok, f"max rel deviation {worst:.2e}"


@_check("volume-conservation")
def _check_volume_conservation(n: int):
    space = make_pn(n)
    # a start on the axis between the fixed points lo < hi flows to lo; above
    # hi the run blows up in finite time.  1.1 lo lies above hi from n = 12,
    # so from there the start is sqrt(lo hi) instead
    lo, hi = submersion_fixed_points(n)
    phi0 = 1.1 * lo if 1.1 * lo < hi else (lo * hi) ** 0.5
    x = phi0 / 2
    y0 = [x, x, x3_from_volume_one(n, x, x)]
    cfg = IntegratorConfig(t_max=5.0)
    traj = integrate(field_full(space), y0, cfg)
    drift = max(abs(volume(space, Metric(*state)) - 1.0) for state in traj.y.tolist())
    detail = f"max |V-1| = {drift:.2e}"
    if traj.termination is not Termination.REACHED_TMAX:
        # a run that stops early has not shown conservation up to t_max
        return False, (
            f"{detail}, but the run ended in {traj.termination.value} "
            f"at t = {traj.t[-1]:.3g} < t_max = {cfg.t_max:g}"
        )
    return drift < 1e-8, detail


def run_invariant_checks(n_max: int = 6) -> list[CheckResult]:
    """All consistency checks for every ``n`` from 2 to ``n_max``."""
    if not (isinstance(n_max, int) and n_max >= 2):
        raise ValueError(f"n_max must be an integer >= 2, got {n_max!r}")
    results = []
    for n in range(2, n_max + 1):
        results.append(_check_round_trip(n))
        results.append(_check_spectrum_agreement(n))
        results.append(_check_rhs_consistency(n))
        results.append(_check_volume_conservation(n))
    return results
