"""The normalized flow is the gradient flow of the scalar curvature.

Along every system of ``SYSTEMS`` the scalar curvature ``S = sum d_i r_i``
of the system's own ``sample`` grows at the rate
``dS/dt = 2 sum d_i (r_i - S/d)**2``.  The test is driven by the table
alone: ``system.field(n)`` gives the velocity and ``system.sample`` the
eigenvalues.  The left side is a complex-step derivative of ``S`` along the
field, ``Im S(y + i h f/|f|) / h * |f|``, exact to rounding with no finite
difference; the field is evaluated at real states, and only ``sample`` sees
complex ones.  ``reparam`` runs in the time ``tau`` with ``dphi/dtau = 1``,
so its right side is divided by ``phi'`` of ``rhs_phase``.
"""

import math
import random

import pytest

from gwflow import SYSTEMS, make_pn, rhs_phase
from gwflow import flows
from gwflow.spaces import _chart_values

H = 1e-30  # the complex step
BOUND = 1e-12  # on the deviation, relative to 2 sum d_i r_i**2
NS = [2, 3, 4, 5, 6, 7, 8, 41]


def _points(n, count=200):
    # seeded admissible phase points: phi in [1.2, 4], |psi| <= 0.8 phi
    rng = random.Random(f"gradient/{n}")
    return [(phi, rng.uniform(-0.8, 0.8) * phi)
            for phi in (rng.uniform(1.2, 4.0) for _ in range(count))]


def _state(name, n, phi, psi):
    # the system's state at the phase point (phi, psi), on the axis psi = 0 for submersion
    x1, x2, x3 = _chart_values(n, phi, psi)
    return {
        "full": (x1, x2, x3),
        "reduced": (x1, x2),
        "phase": (phi, psi),
        "reparam": (phi, psi),
        "submersion": (phi,),
    }[name]


def _deviation(field, sample, n, y, time_change=1.0):
    """``|dS/dt - 2 sum d_i (r_i - S/d)**2 / time_change|`` relative to
    ``2 sum d_i r_i**2 / time_change``, at the real state ``y``."""
    dims = make_pn(n).dims
    d = sum(dims)
    f = field(0.0, y)
    norm = math.sqrt(sum(v * v for v in f))
    moved = [yi + 1j * H * fi / norm for yi, fi in zip(y, f)]
    slope = sum(di * r for di, r in zip(dims, sample(n, *moved)[5:])).imag / H * norm
    r = sample(n, *y)[5:]
    s = sum(di * ri for di, ri in zip(dims, r))
    rhs = 2 * sum(di * (ri - s / d) ** 2 for di, ri in zip(dims, r))
    scale = 2 * sum(di * ri * ri for di, ri in zip(dims, r))
    return abs(slope * time_change - rhs) / scale


def _deviations(name, n, field, sample):
    out = []
    for phi, psi in _points(n):
        if name == "submersion":
            psi = 0.0
        time_change = rhs_phase(n, phi, psi)[0] if name == "reparam" else 1.0
        if time_change > 0:  # else the unit-speed time change does not exist there
            out.append(_deviation(field, sample, n, _state(name, n, phi, psi), time_change))
    return out


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_scalar_curvature_grows_at_the_gradient_rate(name, n):
    system = SYSTEMS[name]
    deviations = _deviations(name, n, system.field(n), system.sample)
    assert len(deviations) >= 50  # reparam keeps the points where phi' > 0
    assert max(deviations) <= BOUND


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("constant", ["pow4q", "c4", "q2", "r", "k6", "k4", "k2"])
def test_a_perturbed_phase_constant_breaks_the_identity(constant, n):
    # the phase formula with one constant of _pn(n) off by a relative 1e-9
    c = flows._pn(n)
    c = c._replace(**{constant: getattr(c, constant) * (1 + 1e-9)})
    field = lambda t, y: flows._phase_values(c, *y)  # noqa: E731
    assert max(_deviations("phase", n, field, SYSTEMS["phase"].sample)) > BOUND
