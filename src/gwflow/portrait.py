"""Static SVG phase portraits of the ``(phi, psi)`` vector field.

Arrows of fixed pixel length are sampled on a uniform grid over the
admissible cone ``phi > |psi|``; grid points where the field vanishes get a
dot marker instead (fixed points).  The invariant axis ``psi = 0`` is
highlighted and requested trajectories are overlaid as polylines.  Output
is plain SVG 1.1 text and is byte-identical for identical inputs.

The arrow grid is evaluated in one float64 array pass: the grid points come
from the same expressions, in the same order, as a per-point loop's would,
and the points that :func:`~gwflow.flows.rhs_phase`'s guard refuses are
masked out with its own comparisons before the unguarded kernel
``flows._phase_values`` runs once on the rest.  The kernel's powers go
through numpy's ``pow`` and the arrow lengths through its ``hypot``, which
can differ from libm's and ``math``'s by an ulp; that sits far below the
0.01-px resolution of the SVG.  Every coordinate in the SVG is written
with one rule, ``%.2f``.
"""

from __future__ import annotations

import math

import numpy as np

from .flows import InadmissibleStateError, RangeExceededError, _phase_values, _pn, field_phase
from .integrate import IntegratorConfig, Monitor, integrate

__all__ = ["render_portrait"]

_WIDTH = 800
_HEIGHT = 560
_MARGIN = 40.0
_ARROW_LEN = 11.0
_FIXED_POINT_SPEED = 1e-9

_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
# an arrow's shaft, then its head: two barbs at the tip
_ARROW = (_LINE + 'stroke="#555555" stroke-width="1"/>\n'
          '<path d="M %.2f %.2f L %.2f %.2f L %.2f %.2f Z" fill="#555555"/>')
_MARKER = '<circle cx="%.2f" cy="%.2f" r="3.5" fill="#cc3300"/>'


def render_portrait(
    n: int,
    phi_range: tuple[float, float],
    psi_range: tuple[float, float],
    grid: tuple[int, int] = (15, 9),
    starts: tuple[tuple[float, float], ...] = (),
    traj_t_max: float = 20.0,
) -> str:
    """Render the vector field of the slice system as a standalone SVG.

    Each point of ``starts`` inside the window is overlaid with its
    trajectory, drawn until it leaves the window (its last vertex is then
    the located exit on the window's edge), or until the run ends first:
    ``traj_t_max`` of flow time, a blow-up, or the step cap.  A start
    outside the window or the cone or refused by :func:`rhs_phase`'s range
    guard draws nothing, nor does one on the window's edge whose flow does
    not point into the window.  A non-finite window bound or start, or a
    ``traj_t_max`` that is not positive and finite, is refused with
    :class:`ValueError`, and so is an ``n`` that :func:`rhs_phase` refuses
    or a window too thin for a finite pixel scale.  A grid point where the
    field is not finite draws nothing.
    """
    c = _pn(n)
    phi_min, phi_max = phi_range
    psi_min, psi_max = psi_range
    if not all(map(math.isfinite, (*phi_range, *psi_range))):
        raise ValueError(f"bounding box {phi_range} x {psi_range} must be finite")
    for start in starts:
        if not all(map(math.isfinite, start)):
            raise ValueError(f"start {start} must be finite")
    if not 0 < traj_t_max < math.inf:
        raise ValueError(f"traj_t_max must be positive and finite, got {traj_t_max}")
    if not (phi_max > phi_min and psi_max > psi_min):
        raise ValueError(f"empty bounding box {phi_range} x {psi_range}")
    border = 0.0 if psi_min <= 0.0 <= psi_max else min(abs(psi_min), abs(psi_max))
    if phi_max <= border:
        raise ValueError(
            f"bounding box {phi_range} x {psi_range} contains no admissible point"
        )
    nx, ny = grid
    if nx < 2 or ny < 1:
        raise ValueError(f"grid must be at least 2x1, got {grid}")

    sx = (_WIDTH - 2 * _MARGIN) / (phi_max - phi_min)
    sy = (_HEIGHT - 2 * _MARGIN) / (psi_max - psi_min)
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise ValueError(
            f"bounding box {phi_range} x {psi_range} is too thin to draw: "
            f"pixel scale ({sx}, {sy}) is not finite"
        )

    def to_px(phi, psi):
        # floats or float64 arrays, with the same bits either way
        return (
            _MARGIN + (phi - phi_min) * sx,
            _HEIGHT - _MARGIN - (psi - psi_min) * sy,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    # admissible-cone boundary phi = |psi|, clipped to the box
    boundary = []
    for sign in (1.0, -1.0):
        seg = _clip_line_to_box(sign, phi_min, phi_max, psi_min, psi_max)
        if seg is not None:
            (p0, q0), (p1, q1) = seg
            boundary.append(
                (_LINE + 'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>')
                % (*to_px(p0, q0), *to_px(p1, q1))
            )
    if boundary:
        parts.append('<g id="boundary">')
        parts.extend(boundary)
        parts.append("</g>")

    if psi_min <= 0.0 <= psi_max:
        parts.append(
            '<g id="axis">' + _LINE % (*to_px(max(phi_min, 0.0), 0.0), *to_px(phi_max, 0.0))
            + 'stroke="#0066cc" stroke-width="2"/></g>'
        )

    # the grid, psi rows outer and phi inner, each point from the expression
    # a scalar loop would evaluate, left to right
    phis = phi_min + np.arange(nx) * (phi_max - phi_min) / (nx - 1)
    psis = (np.full(1, psi_min) if ny == 1
            else psi_min + np.arange(ny) * (psi_max - psi_min) / (ny - 1))
    phi, psi = (a.ravel() for a in np.meshgrid(phis, psis))
    # a window past the guard overflows phi * phi, and a huge field the
    # pixel vector: such points are masked or skipped, never drawn
    with np.errstate(all="ignore"):
        # off the cone's edge, and inside rhs_phase's range guard
        keep = ((phi - np.abs(psi) > 1e-9)
                & (phi * phi <= c.hi) & (phi * phi - psi * psi >= c.lo))
        phi, psi = phi[keep], psi[keep]
        dphi, dpsi = _phase_values(c, phi, psi)
        cx, cy = to_px(phi, psi)
        fixed = np.hypot(dphi, dpsi) < _FIXED_POINT_SPEED
        markers = list(zip(cx[fixed].tolist(), cy[fixed].tolist()))
        # scaled by a power of two, which is exact: the pixel vector
        # cannot overflow, and its direction keeps every bit
        _, e = np.frexp(np.maximum(np.abs(dphi), np.abs(dpsi)))
        ux, uy = np.ldexp(dphi, -e) * sx, -np.ldexp(dpsi, -e) * sy
        speed = np.hypot(ux, uy)
        # not where the field or the window's scale is not finite
        drawn = ~fixed & np.isfinite(speed)
        cx, cy, speed = cx[drawn], cy[drawn], speed[drawn]
        ux, uy = ux[drawn] / speed, uy[drawn] / speed
        half = _ARROW_LEN / 2.0
        x0, y0 = cx - ux * half, cy - uy * half
        x1, y1 = cx + ux * half, cy + uy * half
        bx, by = -ux * 3.5, -uy * 3.5
        px, py = -uy * 2.0, ux * 2.0
        arrows = np.column_stack((x0, y0, x1, y1, x1, y1,
                                  x1 + bx + px, y1 + by + py, x1 + bx - px, y1 + by - py))
    parts.append('<g id="vectors">')
    if len(arrows):  # all arrows in one %; an empty group has no line between its tags
        parts.append("\n".join([_ARROW] * len(arrows)) % tuple(arrows.ravel().tolist()))
    parts.append("</g>")
    if markers:
        parts.append('<g id="fixed-points">')
        parts.extend(_MARKER % xy for xy in markers)
        parts.append("</g>")

    if starts:
        parts.append('<g id="trajectories">')
        for phi0, psi0 in starts:
            points = _trajectory_points(c, phi0, psi0, traj_t_max, phi_min, phi_max, psi_min, psi_max)
            if len(points) >= 2:
                coords = " ".join("%.2f,%.2f" % to_px(p, q) for p, q in points)
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="#cc3300" stroke-width="1.5"/>'
                )
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _clip_line_to_box(sign, phi_min, phi_max, psi_min, psi_max):
    # the ray psi = sign*phi, phi >= 0, clipped to the box
    lo = max(phi_min, 0.0, min(sign * psi_min, sign * psi_max))
    hi = min(phi_max, max(sign * psi_min, sign * psi_max))
    if hi <= lo:
        return None
    return (lo, sign * lo), (hi, sign * hi)


def _trajectory_points(c, phi0, psi0, t_max, phi_min, phi_max, psi_min, psi_max):
    def depth(t, y):
        # signed distance into the box: the run ends where it turns negative
        phi, psi = y
        return min(phi - phi_min, phi_max - phi, psi - psi_min, psi_max - psi)

    if depth(0.0, (phi0, psi0)) < 0.0:
        return []  # one point draws no polyline
    field = field_phase(c.n)
    try:
        dphi, dpsi = field(0.0, (phi0, psi0))
    except (InadmissibleStateError, RangeExceededError):
        return []  # outside the cone, or integrate's first evaluation would raise
    # on an edge the monitor starts at 0 and never sees a strict sign
    # change, so a flow that does not point into the box is not drawn
    edges = (
        (phi0 - phi_min, dphi),
        (phi_max - phi0, -dphi),
        (psi0 - psi_min, dpsi),
        (psi_max - psi0, -dpsi),
    )
    if any(dist == 0.0 and inward <= 0.0 for dist, inward in edges):
        return []
    cfg = IntegratorConfig(t_max=t_max, rel_tol=1e-8, abs_tol=1e-10, max_steps=20_000)
    traj = integrate(field, [phi0, psi0], cfg, [Monitor("window", depth, stop=True)])
    points = []
    for phi, psi in traj.y:
        points.append((float(phi), float(psi)))
        if not (phi_min <= phi <= phi_max and psi_min <= psi <= psi_max):
            break
    return points
