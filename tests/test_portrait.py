"""Trajectory overlays in ``render_portrait`` end where they leave the window."""

import contextlib
import itertools
import math

import pytest

from gwflow import portrait
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


@pytest.mark.parametrize("n", [1, 2.0, 505])
def test_n_is_refused_as_rhs_phase_refuses_it(n):
    # n = 1 used to render a portrait with no arrows
    with pytest.raises(ValueError, match=str(n)):
        portrait.render_portrait(n, PHI_RANGE, PSI_RANGE)


def test_a_huge_finite_field_still_gets_its_arrow():
    # at n = 277 the field at (8/7, -1) is finite, about 1.5e306, but its pixel
    # vector overflowed and the arrow was drawn with nan coordinates
    n, window = 277, ((1.0, 3.0), (-1.0, 1.0))
    dphi, _ = rhs_phase(n, 8 / 7, -1.0)
    assert math.isfinite(dphi) and math.isinf(dphi * 360.0)
    svg = portrait.render_portrait(n, *window)
    arrows = svg.split('<g id="vectors">')[1].split("</g>")[0]
    assert "nan" not in arrows
    drawn = 0
    grid = itertools.product([1.0 + i * 2.0 / 14 for i in range(15)], [-1.0 + j * 2.0 / 8 for j in range(9)])
    for phi, psi in grid:
        if phi - abs(psi) > 1e-9:
            with contextlib.suppress(ValueError, RangeExceededError):
                drawn += all(map(math.isfinite, rhs_phase(n, phi, psi)))
    assert arrows.count("<line") == drawn
