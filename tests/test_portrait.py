"""Trajectory overlays in ``render_portrait`` end where they leave the window."""

import contextlib
import itertools
import math

import pytest

from gwflow import flows, portrait
from gwflow.flows import RangeExceededError, field_phase, rhs_phase
from gwflow.integrate import IntegratorConfig, Termination, integrate

PHI_RANGE = (0.0, 4.0)
PSI_RANGE = (-3.0, 3.0)
CRAWL_START = (1.0, -0.6)  # below the upper axis fixed point: crawls toward phi = |psi|
BLOWUP_START = (3.1, -0.31)  # above it: blows up along the axis


@pytest.fixture
def recorded(monkeypatch):
    """The trajectories that ``render_portrait`` gets from ``integrate``."""
    trajectories = []

    def recording_integrate(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        trajectories.append(traj)
        return traj

    monkeypatch.setattr(portrait, "integrate", recording_integrate)
    return trajectories


def _px(phi, psi):
    sx = (portrait._WIDTH - 2 * portrait._MARGIN) / (PHI_RANGE[1] - PHI_RANGE[0])
    sy = (portrait._HEIGHT - 2 * portrait._MARGIN) / (PSI_RANGE[1] - PSI_RANGE[0])
    x = portrait._MARGIN + (phi - PHI_RANGE[0]) * sx
    y = portrait._HEIGHT - portrait._MARGIN - (psi - PSI_RANGE[0]) * sy
    return portrait._fmt(x), portrait._fmt(y)


def _inside(phi, psi):
    return PHI_RANGE[0] <= phi <= PHI_RANGE[1] and PSI_RANGE[0] <= psi <= PSI_RANGE[1]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("start", [CRAWL_START, BLOWUP_START], ids=["crawl", "blowup"])
def test_overlay_stops_on_the_window_edge(recorded, n, start):
    svg = portrait.render_portrait(n, PHI_RANGE, PSI_RANGE, starts=(start,))

    (traj,) = recorded
    assert traj.termination is Termination.EVENT_STOP
    assert len(traj.t) - 1 <= 100

    coords = svg.split('<polyline points="', 1)[1].split('"', 1)[0]
    vertices = [tuple(v.split(",")) for v in coords.split()]
    # Monitors do not take part in step control, so a run without one
    # produces the same samples; 100 steps cover the exit.
    cfg = IntegratorConfig(t_max=20.0, rel_tol=1e-8, abs_tol=1e-10, max_steps=100)
    reference = integrate(field_phase(n), list(start), cfg).y
    k = len(vertices) - 1
    assert all(_inside(p, q) for p, q in reference[:k])
    assert not _inside(*reference[k])  # where the run without a monitor was cut
    assert vertices[:-1] == [_px(p, q) for p, q in reference[:k]]

    (left, bottom), (right, top) = _px(PHI_RANGE[0], PSI_RANGE[0]), _px(PHI_RANGE[1], PSI_RANGE[1])
    x, y = vertices[-1]
    assert x in (left, right) or y in (bottom, top)


def test_start_outside_the_window_is_not_integrated(recorded):
    svg = portrait.render_portrait(2, PHI_RANGE, PSI_RANGE, starts=((5.0, 0.5),))
    assert recorded == []
    assert "<polyline" not in svg


def test_start_on_the_edge_leaving_the_window_is_not_integrated(recorded):
    # on psi = psi_min, with the flow heading to smaller psi
    svg = portrait.render_portrait(2, PHI_RANGE, (CRAWL_START[1], 3.0), starts=(CRAWL_START,))
    assert recorded == []
    assert "<polyline" not in svg


def test_start_on_the_edge_entering_the_window_is_drawn(recorded):
    # on psi = psi_max, with the flow heading into the window
    svg = portrait.render_portrait(2, PHI_RANGE, (-3.0, CRAWL_START[1]), starts=(CRAWL_START,))
    (traj,) = recorded
    assert traj.termination is Termination.EVENT_STOP
    assert len(traj.t) - 1 <= 100
    assert svg.count("<polyline") == 1


def test_start_outside_the_cone_is_not_integrated(recorded):
    svg = portrait.render_portrait(2, PHI_RANGE, PSI_RANGE, starts=((1.0, 2.0),))
    assert recorded == []
    assert "<polyline" not in svg


@pytest.mark.parametrize("n,start", [(200, (6.0, 0.1)), (503, (2.0, 0.1))])
def test_start_refused_by_the_range_guard_is_not_integrated(recorded, n, start):
    # (phi^2 - psi^2)^n is out of range there, so integrate would raise
    with pytest.raises(RangeExceededError):
        rhs_phase(n, *start)
    svg = portrait.render_portrait(n, (0.0, 8.0), (-3.0, 3.0), grid=(2, 1), starts=(start,))
    assert recorded == []
    assert "<polyline" not in svg


@pytest.mark.parametrize("grid", [(1, 9), (15, 0), (0, 0)])
def test_grid_below_two_by_one_is_refused(grid):
    with pytest.raises(ValueError, match="grid must be at least 2x1"):
        portrait.render_portrait(2, PHI_RANGE, PSI_RANGE, grid=grid)


@pytest.mark.parametrize("n", [1, 2.0, 505])
def test_n_is_refused_as_rhs_phase_refuses_it(n):
    # n = 1 used to render a portrait with no arrows
    with pytest.raises(ValueError, match=str(n)):
        portrait.render_portrait(n, PHI_RANGE, PSI_RANGE)


def test_a_huge_finite_field_still_gets_its_arrow():
    # at n = 45, just above the guard's lower bound on phi^2 - psi^2, the field
    # is finite, about 3e303, but its pixel vector in a window 1e-3 wide
    # (720 px across) overflows, and the arrow was drawn with nan coordinates
    n, phi0 = 45, 100.0
    psi0 = math.sqrt(phi0 * phi0 - 1.01 * flows._pn(n).lo)
    (phi_min, phi_max), (psi_min, psi_max) = window = ((phi0, phi0 + 1e-3), (psi0, psi0 + 1e-3))
    dphi, _ = rhs_phase(n, phi0, psi0)
    assert math.isfinite(dphi) and math.isinf(dphi * 720.0 / 1e-3)
    svg = portrait.render_portrait(n, *window)
    arrows = svg.split('<g id="vectors">')[1].split("</g>")[0]
    assert "nan" not in arrows
    drawn = 0
    grid = itertools.product(
        [phi_min + i * (phi_max - phi_min) / 14 for i in range(15)],
        [psi_min + j * (psi_max - psi_min) / 8 for j in range(9)],
    )
    for phi, psi in grid:
        if phi - abs(psi) > 1e-9:
            with contextlib.suppress(ValueError, RangeExceededError):
                drawn += all(map(math.isfinite, rhs_phase(n, phi, psi)))
    assert drawn > 0
    assert arrows.count("<line") == drawn
