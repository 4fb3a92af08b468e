"""``render_portrait``: its arrow grid against a per-point reference
renderer, and trajectory overlays that end where they leave the window."""

import contextlib
import itertools
import math

import pytest

from gwflow import cli, flows, portrait
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
    return f"{x:.2f}", f"{y:.2f}"


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
    assert svg == reference_render(n, *window)
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


def reference_render(n, phi_range, psi_range, grid=(15, 9), starts=(), traj_t_max=20.0):
    """``render_portrait`` as a per-point loop: each grid point through the
    guarded ``rhs_phase`` and ``math``, each number through its own
    ``f"{v:.2f}"``.  The window and grid are taken as valid."""

    def fmt(v):
        return f"{v:.2f}"

    W, H, M = portrait._WIDTH, portrait._HEIGHT, portrait._MARGIN
    c = flows._pn(n)
    (phi_min, phi_max), (psi_min, psi_max) = phi_range, psi_range
    nx, ny = grid
    sx = (W - 2 * M) / (phi_max - phi_min)
    sy = (H - 2 * M) / (psi_max - psi_min)

    def to_px(phi, psi):
        return M + (phi - phi_min) * sx, H - M - (psi - psi_min) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    boundary = []
    for sign in (1.0, -1.0):
        seg = portrait._clip_line_to_box(sign, phi_min, phi_max, psi_min, psi_max)
        if seg is not None:
            (x0, y0), (x1, y1) = (to_px(p, q) for p, q in seg)
            boundary.append(
                f'<line x1="{fmt(x0)}" y1="{fmt(y0)}" x2="{fmt(x1)}" y2="{fmt(y1)}" '
                f'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
            )
    if boundary:
        parts += ['<g id="boundary">', *boundary, "</g>"]
    if psi_min <= 0.0 <= psi_max:
        x0, y0 = to_px(max(phi_min, 0.0), 0.0)
        x1, y1 = to_px(phi_max, 0.0)
        parts.append(
            f'<g id="axis"><line x1="{fmt(x0)}" y1="{fmt(y0)}" x2="{fmt(x1)}" '
            f'y2="{fmt(y1)}" stroke="#0066cc" stroke-width="2"/></g>'
        )

    arrows, markers = [], []
    for j in range(ny):
        psi = psi_min if ny == 1 else psi_min + j * (psi_max - psi_min) / (ny - 1)
        for i in range(nx):
            phi = phi_min + i * (phi_max - phi_min) / (nx - 1)
            if phi - abs(psi) <= 1e-9:
                continue
            try:
                dphi, dpsi = rhs_phase(n, phi, psi)
            except (RangeExceededError, ValueError):
                continue
            cx, cy = to_px(phi, psi)
            if math.hypot(dphi, dpsi) < portrait._FIXED_POINT_SPEED:
                markers.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="3.5" fill="#cc3300"/>')
                continue
            _, e = math.frexp(max(abs(dphi), abs(dpsi)))
            ux, uy = math.ldexp(dphi, -e) * sx, -math.ldexp(dpsi, -e) * sy
            speed = math.hypot(ux, uy)
            if not math.isfinite(speed):
                continue
            ux, uy = ux / speed, uy / speed
            half = portrait._ARROW_LEN / 2.0
            x0, y0 = cx - ux * half, cy - uy * half
            x1, y1 = cx + ux * half, cy + uy * half
            arrows.append(
                f'<line x1="{fmt(x0)}" y1="{fmt(y0)}" x2="{fmt(x1)}" y2="{fmt(y1)}" '
                f'stroke="#555555" stroke-width="1"/>'
            )
            bx, by = -ux * 3.5, -uy * 3.5
            px, py = -uy * 2.0, ux * 2.0
            arrows.append(
                f'<path d="M {fmt(x1)} {fmt(y1)} L {fmt(x1 + bx + px)} {fmt(y1 + by + py)} '
                f'L {fmt(x1 + bx - px)} {fmt(y1 + by - py)} Z" fill="#555555"/>'
            )
    parts += ['<g id="vectors">', *arrows, "</g>"]
    if markers:
        parts += ['<g id="fixed-points">', *markers, "</g>"]

    if starts:
        parts.append('<g id="trajectories">')
        for phi0, psi0 in starts:
            points = portrait._trajectory_points(
                c, phi0, psi0, traj_t_max, phi_min, phi_max, psi_min, psi_max
            )
            if len(points) >= 2:
                coords = " ".join(f"{fmt(to_px(p, q)[0])},{fmt(to_px(p, q)[1])}" for p, q in points)
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="#cc3300" stroke-width="1.5"/>'
                )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _guard_verdicts(n, phi_range, psi_range, grid):
    """How many off-edge grid points ``rhs_phase``'s range guard refuses and keeps."""
    (phi_min, phi_max), (psi_min, psi_max), (nx, ny) = phi_range, psi_range, grid
    refused = kept = 0
    for j in range(ny):
        psi = psi_min if ny == 1 else psi_min + j * (psi_max - psi_min) / (ny - 1)
        for i in range(nx):
            phi = phi_min + i * (phi_max - phi_min) / (nx - 1)
            if phi - abs(psi) > 1e-9:
                try:
                    rhs_phase(n, phi, psi)
                    kept += 1
                except RangeExceededError:
                    refused += 1
    return refused, kept


# the guard's lo is raised from n = 41: p2 >= 1.5e-7 refuses phi < 3.9e-4 near the axis
LO_WINDOW = (41, (0.0, 1e-3), (-5e-4, 5e-4))
# at n = 300 the guard keeps 0.394 <= phi^2 - psi^2 and phi^2 <= 8.58 (phi <= 2.93)
HI_WINDOW = (300, PHI_RANGE, PSI_RANGE)


@pytest.mark.parametrize("grid", [(15, 9), (48, 32)], ids=["15x9", "48x32"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_grid_matches_the_per_point_reference_on_the_pool_window(n, grid):
    starts = (CRAWL_START, BLOWUP_START)
    svg = portrait.render_portrait(n, PHI_RANGE, PSI_RANGE, grid=grid, starts=starts)
    assert svg == reference_render(n, PHI_RANGE, PSI_RANGE, grid=grid, starts=starts)
    assert svg.count("<polyline") == 2


@pytest.mark.parametrize("window", [LO_WINDOW, HI_WINDOW], ids=["lo-n41", "hi-n300"])
@pytest.mark.parametrize("grid", [(15, 9), (48, 32)], ids=["15x9", "48x32"])
def test_grid_matches_the_reference_where_the_range_guard_trips_for_some_points(window, grid):
    refused, kept = _guard_verdicts(*window, grid)
    assert refused > 0 and kept > 0
    svg = portrait.render_portrait(*window, grid=grid)
    assert svg == reference_render(*window, grid=grid)
    assert svg.count("<path ") == kept


def test_grid_matches_the_reference_where_the_range_guard_refuses_every_point():
    # the minimal-deps CI window: at n = 300 no grid point of (0, 1000) x
    # (-1000, 1000) is inside the guard, so the arrow group is empty
    window = (300, (0.0, 1000.0), (-1000.0, 1000.0))
    refused, kept = _guard_verdicts(*window, (15, 9))
    assert refused > 0 and kept == 0
    svg = portrait.render_portrait(*window)
    assert svg == reference_render(*window)
    assert '<g id="vectors">\n</g>' in svg


def test_grid_point_on_the_fixed_point_draws_a_marker():
    # the default 15x9 grid over (0, 4) x (-3, 3) hits (2.0, 0.0), the upper
    # axis fixed point at n = 2, where the field is exactly zero
    assert rhs_phase(2, 2.0, 0.0) == (0.0, 0.0)
    svg = portrait.render_portrait(2, PHI_RANGE, PSI_RANGE)
    assert svg == reference_render(2, PHI_RANGE, PSI_RANGE)
    assert svg.count("<circle") == 1
    assert f'<circle cx="{_px(2.0, 0.0)[0]}" cy="{_px(2.0, 0.0)[1]}"' in svg


@pytest.mark.parametrize("grid", [(2, 1), (7, 1)])
@pytest.mark.parametrize("psi_range", [PSI_RANGE, (-0.5, 3.0)])
def test_grid_matches_the_reference_on_a_single_row(grid, psi_range):
    svg = portrait.render_portrait(2, PHI_RANGE, psi_range, grid=grid)
    assert svg == reference_render(2, PHI_RANGE, psi_range, grid=grid)
    assert svg.count("<path ") > 0


def test_a_window_too_thin_for_a_finite_pixel_scale_is_refused(capsys):
    # a window 1e-307 high scales psi by an infinite sy, which would put the
    # axis and the markers at nan or infinite pixel coordinates
    window = ((1.0, 3.0), (0.0, 1e-307))
    assert math.isinf((portrait._HEIGHT - 2 * portrait._MARGIN) / 1e-307)
    for phi_range, psi_range in (window, ((0.0, 1e-307), (-1.0, 1.0))):
        with pytest.raises(ValueError, match="too thin to draw"):
            portrait.render_portrait(2, phi_range, psi_range)
    argv = ["portrait", "--n", "2", "--phi-range", "1:3", "--psi-range", "0:1e-307"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too thin to draw" in captured.err
    assert "Traceback" not in captured.err
