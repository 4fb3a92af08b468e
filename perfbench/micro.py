"""Per-layer microbenchmarks: the cost of one call into a layer, measured
directly rather than through spans, so it carries no tracing overhead.

Each figure is the median over repeats of a loop over seeded admissible
points.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

import workloads  # noqa: F401  (puts the checkout's gwflow on sys.path)
from gwflow import cli
from gwflow.flows import (
    field_full,
    field_phase,
    field_reduced,
    field_reparam,
    field_submersion,
    rhs_full,
    rhs_phase,
    rhs_reduced_x,
    rhs_reparam,
    rhs_submersion,
)
from gwflow.integrate import IntegratorConfig, integrate
from gwflow.spaces import Metric, PhasePoint, make_pn, ricci_coefficients, ricci_phase, x3_from_volume_one

REPEATS = 9
POINTS = 1000


def _per_call_us(fn, args: list[tuple]) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        samples.append((time.perf_counter() - t0) / len(args))
    return statistics.median(samples) * 1e6


def _points(seed: int) -> list[tuple[int, float, float]]:
    """Admissible ``(n, phi, psi)`` with ``phi' > 0``, so that every
    formulation, the unit-speed one included, is defined there."""
    rng = random.Random(f"micro/{seed}")
    out = []
    while len(out) < POINTS:
        n = rng.randint(2, 6)
        phi = rng.uniform(2.3, 3.0)
        psi = rng.uniform(-0.5, 0.5) * phi
        if rhs_phase(n, phi, psi)[0] > 0:
            out.append((n, phi, psi))
    return out


def _trivial_overhead_us() -> float:
    """Integrator cost per accepted step with a near-free right-hand side."""

    def rhs(t, y):
        return -y

    cfg = IntegratorConfig(t_max=2.0, max_step=1e-3)
    y0 = np.array([1.0, 1.0])
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        traj = integrate(rhs, y0, cfg)
        elapsed = time.perf_counter() - t0
        steps = len(traj.t) - 1
        samples.append(elapsed / steps)
    rhs_us = _per_call_us(rhs, [(0.0, y0)] * POINTS)
    return statistics.median(samples) * 1e6 - 6 * rhs_us


def _csv_us_per_row(points) -> float:
    """CSV formatting cost per row, over a short trajectory of each system."""
    cases = []
    for system in ("full", "reduced", "phase", "reparam", "submersion"):
        n, phi, psi = points[len(cases)]
        x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
        field, y0 = {
            "full": (field_full(make_pn(n)), [x1, x2, x3_from_volume_one(n, x1, x2)]),
            "reduced": (field_reduced(n), [x1, x2]),
            "phase": (field_phase(n), [phi, psi]),
            "reparam": (field_reparam(n), [phi, psi]),
            "submersion": (field_submersion(n), [phi]),
        }[system]
        cases.append((system, n, integrate(field, y0, IntegratorConfig(t_max=0.1, max_step=0.005))))
    rows = sum(len(traj.t) for _, _, traj in cases)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for system, n, traj in cases:
            list(cli._csv_lines(system, n, traj))
        samples.append((time.perf_counter() - t0) / rows)
    return statistics.median(samples) * 1e6


def measure(seed: int) -> dict[str, tuple[float, str]]:
    points = _points(seed)
    spaces_ = {n: make_pn(n) for n in range(2, 7)}
    xs = [(n, 0.5 * (phi + psi), 0.5 * (phi - psi)) for n, phi, psi in points]
    full_args = [(spaces_[n], x1, x2, x3_from_volume_one(n, x1, x2)) for n, x1, x2 in xs]
    phase_args = [(n, phi, psi) for n, phi, psi in points]
    # the wrapper cost is field_phase(n)(t, y) minus rhs_phase(n, phi, psi) at n = 3
    f3 = field_phase(3)
    phase3 = [(3, phi, psi) for _, phi, psi in points]
    field3 = [(0.0, np.array([phi, psi])) for _, phi, psi in points]
    m = {
        "flows.rhs_phase_us": _per_call_us(rhs_phase, phase_args),
        "flows.rhs_reparam_us": _per_call_us(rhs_reparam, phase_args),
        "flows.rhs_full_us": _per_call_us(rhs_full, full_args),
        "flows.rhs_reduced_x_us": _per_call_us(rhs_reduced_x, xs),
        "flows.rhs_submersion_us": _per_call_us(rhs_submersion, [(n, phi) for n, phi, _ in points]),
        "flows.field_wrap_us": _per_call_us(f3, field3) - _per_call_us(rhs_phase, phase3),
        "spaces.ricci_phase_us": _per_call_us(
            ricci_phase, [(PhasePoint(phi, psi, n),) for n, phi, psi in points]
        ),
        "spaces.ricci_coefficients_us": _per_call_us(
            ricci_coefficients, [(space, Metric(x1, x2, x3)) for space, x1, x2, x3 in full_args]
        ),
        "integrate.overhead_trivial_us_per_step": _trivial_overhead_us(),
        "cli.csv_us_per_row": _csv_us_per_row(points),
    }
    return {k: (v, "us/row" if k.endswith("per_row") else "us/step" if k.endswith("per_step") else "us")
            for k, v in m.items()}
