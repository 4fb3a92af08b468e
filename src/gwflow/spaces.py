"""Three-summand homogeneous spaces, invariant metrics and their Ricci spectra.

A space is described by the constants ``(a1, a2, a3)`` and the summand
dimensions ``(d1, d2, d3)``; an invariant metric by three positive scale
factors ``(x1, x2, x3)``.  The Ricci tensor of such a metric is diagonal
with eigenvalues ``r1, r2, r3`` of multiplicities ``d1, d2, d3``.

For the family ``P_n`` (total dimension ``8n - 4``) the module also provides
the sum/difference coordinates ``phi = x1 + x2``, ``psi = x1 - x2`` on the
unit-volume slice, where ``x3`` is determined by ``x3 = (x1*x2)**-(n-1)``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

__all__ = [
    "GWSpace",
    "Metric",
    "PhasePoint",
    "RicciSpectrum",
    "make_pn",
    "kn",
    "ricci_coefficients",
    "volume",
    "normalize_to_unit_volume",
    "x3_from_volume_one",
    "to_phase",
    "from_phase",
    "ricci_phase",
    "k_positive",
    "negative_count",
    "smallest_k_positive",
]

_PROPORTIONALITY_RTOL = 1e-12


@dataclass(frozen=True)
class GWSpace:
    """A three-summand homogeneous space with pairwise inequivalent summands.

    The products ``d_i * a_i`` must agree across ``i``: this proportionality
    is exactly what makes the volume ``prod x_i**(1/a_i)`` a conserved
    quantity of the volume-normalized flow, which the rest of the library
    relies on (the reduction ``x3 = x3(x1, x2)`` breaks without it).
    """

    a1: float
    a2: float
    a3: float
    d1: int
    d2: int
    d3: int

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("d1", "d2", "d3"):
            d = getattr(self, name)
            if not (isinstance(d, int) and d >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {d!r}")
        products = (self.d1 * self.a1, self.d2 * self.a2, self.d3 * self.a3)
        ref = products[0]
        for p in products[1:]:
            if abs(p - ref) > _PROPORTIONALITY_RTOL * max(abs(p), abs(ref)):
                raise ValueError(
                    "inconsistent space constants: d_i * a_i must be equal across "
                    f"summands, got {products}"
                )

    @property
    def d(self) -> int:
        """Total dimension ``d1 + d2 + d3``."""
        return self.d1 + self.d2 + self.d3

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)


@dataclass(frozen=True)
class Metric:
    """Scale factors of an invariant metric on the three summands."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3"):
            x = getattr(self, name)
            if not (x > 0 and math.isfinite(x)):
                raise ValueError(f"{name} must be positive and finite, got {x}")

    @property
    def xs(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class PhasePoint:
    """Sum/difference coordinates on the unit-volume slice of ``P_n``.

    ``phi = x1 + x2`` and ``psi = x1 - x2``; admissibility (``x1, x2 > 0``)
    is equivalent to ``phi > abs(psi)``.
    """

    phi: float
    psi: float
    n: int

    def __post_init__(self) -> None:
        _require_n(self.n)
        if not (self.phi > 0 and math.isfinite(self.phi)):
            raise ValueError(f"phi must be positive and finite, got {self.phi}")
        if not self.phi > abs(self.psi):
            raise ValueError(
                f"phi must exceed |psi| (phi={self.phi}, psi={self.psi})"
            )


@dataclass(frozen=True)
class RicciSpectrum:
    """Eigenvalues of the Ricci tensor with their multiplicities.

    ``scalar`` is derived, never stored: the multiplicity-weighted sum
    ``d1*r1 + d2*r2 + d3*r3`` (the scalar curvature).
    """

    r1: float
    r2: float
    r3: float
    d1: int
    d2: int
    d3: int

    @property
    def scalar(self) -> float:
        return self.d1 * self.r1 + self.d2 * self.r2 + self.d3 * self.r3

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.r1, self.r2, self.r3)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    @property
    def d(self) -> int:
        return self.d1 + self.d2 + self.d3


@functools.lru_cache(maxsize=None, typed=True)
def make_pn(n: int) -> GWSpace:
    """Space descriptor for ``P_n`` (``n >= 2``), of total dimension ``8n - 4``.

    ``a1 = a2 = 1/(2(n+2))``, ``a3 = (n-1)/(2(n+2))``, ``d1 = d2 = 4(n-1)``,
    ``d3 = 4``.  Built once per ``n``; ``typed`` keeps ``make_pn(2.0)`` a
    cache miss, so it is rejected even after ``make_pn(2)``.
    """
    _require_n(n)
    a12 = 1.0 / (2 * (n + 2))
    a3 = (n - 1) / (2 * (n + 2))
    return GWSpace(a12, a12, a3, 4 * (n - 1), 4 * (n - 1), 4)


def kn(n: int) -> int:
    """Intermediate-Ricci positivity grade attached to ``P_n``: ``4n - 7``,
    except ``6`` for ``n = 3``."""
    _require_n(n)
    return 6 if n == 3 else 4 * n - 7


def _require_n(n: int) -> None:
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if 8 * n - 4 > sys.float_info.max:  # dim P_n, the largest integer taken as a float
        raise ValueError(f"n={n} is too large for a float")


def _ricci_values(space: GWSpace, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
    # r_i = 1/(2 x_i) + (a_i/2) * (x_i/(x_j x_k) - x_j/(x_i x_k) - x_k/(x_i x_j));
    # r3's subtrahend is grouped so that swapping x1 and x2 fixes r3 bit-exactly
    a1, a2, a3 = space.a1, space.a2, space.a3
    r1 = 1.0 / (2 * x1) + 0.5 * a1 * (x1 / (x2 * x3) - x2 / (x1 * x3) - x3 / (x1 * x2))
    r2 = 1.0 / (2 * x2) + 0.5 * a2 * (x2 / (x1 * x3) - x1 / (x2 * x3) - x3 / (x1 * x2))
    r3 = 1.0 / (2 * x3) + 0.5 * a3 * (x3 / (x1 * x2) - (x1 / (x2 * x3) + x2 / (x1 * x3)))
    return r1, r2, r3


def ricci_coefficients(space: GWSpace, metric: Metric) -> RicciSpectrum:
    """Ricci eigenvalues of ``metric`` on ``space``.

    Homogeneous of degree -1 in the metric: scaling ``x -> c*x`` divides
    every eigenvalue by ``c``.  Refuses with :class:`ValueError` a metric
    whose eigenvalues leave the float range.
    """
    values = _finite_spectrum(metric, _ricci_values, space, *metric.xs)
    return RicciSpectrum(*values, *space.dims)


def _finite_spectrum(point, kernel, *args) -> tuple[float, float, float]:
    # kernel(*args), the eigenvalues at point, refused unless all three are finite
    try:
        values = kernel(*args)
    except (OverflowError, ZeroDivisionError):  # a float ** or / out of range
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"the Ricci eigenvalues at {point} leave the float range")
    return values


def _log_volume(space: GWSpace, x1, x2, x3, log=math.log):
    # the log of the volume functional; x1, x2, x3 may be float64 arrays, with log=np.log
    return log(x1) / space.a1 + log(x2) / space.a2 + log(x3) / space.a3


def _volume_values(space: GWSpace, x1: float, x2: float, x3: float) -> float:
    # the volume of volume(), unguarded: beyond the float range it is inf
    try:
        return math.exp(_log_volume(space, x1, x2, x3))
    except OverflowError:
        return math.inf


def volume(space: GWSpace, metric: Metric) -> float:
    """Volume functional ``x1**(1/a1) * x2**(1/a2) * x3**(1/a3)``.

    Accumulated in log space, as the exponents ``1/a_i`` reach ``2(n+2)``
    on ``P_n``; a volume beyond the float range is ``inf``.
    """
    return _volume_values(space, metric.x1, metric.x2, metric.x3)


def normalize_to_unit_volume(space: GWSpace, metric: Metric) -> Metric:
    """Rescale ``metric`` to volume one."""
    exponent_sum = 1.0 / space.a1 + 1.0 / space.a2 + 1.0 / space.a3
    c = math.exp(-_log_volume(space, metric.x1, metric.x2, metric.x3) / exponent_sum)
    return Metric(c * metric.x1, c * metric.x2, c * metric.x3)


def x3_from_volume_one(n: int, x1: float, x2: float) -> float:
    """The third scale factor forced by volume one on ``P_n``:
    ``(x1*x2)**-(n-1)``."""
    _require_n(n)
    if not (x1 > 0 and x2 > 0):
        raise ValueError(f"x1, x2 must be positive, got ({x1}, {x2})")
    return _x3_values(n, x1, x2)


def _x3_values(n: int, x1, x2):
    # the formula of x3_from_volume_one, unguarded; x1, x2 may be float64 arrays
    return (x1 * x2) ** (-(n - 1))


def to_phase(n: int, x1: float, x2: float) -> PhasePoint:
    """Sum/difference coordinates of ``(x1, x2)`` on the unit-volume slice."""
    if not (x1 > 0 and x2 > 0):
        raise ValueError(f"x1, x2 must be positive, got ({x1}, {x2})")
    return PhasePoint(*_to_phase_values(x1, x2), n)


def _to_phase_values(x1, x2):
    # the formula of to_phase, (x1, x2) -> (phi, psi), unguarded; x1, x2 may be float64 arrays
    return x1 + x2, x1 - x2


def from_phase(p: PhasePoint) -> tuple[float, float, float]:
    """Inverse of :func:`to_phase`, with the ``x3`` of :func:`x3_from_volume_one`."""
    return _chart_values(p.n, p.phi, p.psi)


def _phase_ricci_values(n: int, phi: float, psi: float) -> tuple[float, float, float]:
    # Eigenvalues on the unit-volume slice in (phi, psi) coordinates.
    # r2(phi, psi) = r1(phi, -psi): the term odd in psi flips sign, the rest
    # is shared.  r3 carries the even factor (phi^2 + psi^2)/2.
    p2 = phi * phi - psi * psi
    pow4, p2n, p2n2 = 4.0 ** (n - 1), p2 ** n, p2 ** (n - 2)
    shared = -pow4 / ((n + 2) * p2n)
    odd = phi * psi * p2n2 / (pow4 * (n + 2))
    r1 = 1.0 / (phi + psi) + odd + shared
    r2 = 1.0 / (phi - psi) - odd + shared
    r3 = (
        p2 ** (n - 1) / (2 * pow4)
        - (n - 1) * (phi * phi + psi * psi) * p2n2 / (2 * pow4 * (n + 2))
        + pow4 * (n - 1) / ((n + 2) * p2n)
    )
    return r1, r2, r3


def _chart_values(n: int, phi, psi):
    # the chart of from_phase, (phi, psi) -> (x1, x2, x3), unguarded; phi, psi may be arrays
    x1 = 0.5 * (phi + psi)
    x2 = 0.5 * (phi - psi)
    return x1, x2, _x3_values(n, x1, x2)


def _x_sample(n: int, x1: float, x2: float, x3: float) -> tuple[float, ...]:
    # (x1, x2, x3, phi, psi, r1, r2, r3) at scale factors on P_n, unguarded
    return (x1, x2, x3, *_to_phase_values(x1, x2), *_ricci_values(make_pn(n), x1, x2, x3))


def _phase_sample(n: int, phi: float, psi: float) -> tuple[float, ...]:
    # (x1, x2, x3, phi, psi, r1, r2, r3) at a phase point of P_n, unguarded
    return (*_chart_values(n, phi, psi), phi, psi, *_phase_ricci_values(n, phi, psi))


def ricci_phase(p: PhasePoint) -> RicciSpectrum:
    """Ricci eigenvalues in phase coordinates on the unit-volume slice.

    Agrees with :func:`ricci_coefficients` composed with :func:`from_phase`;
    implemented directly in ``(phi, psi)`` so the two routes cross-check each
    other.  Refuses an ``n`` above 508: ``2 * 4**(n-1) * (n+2)`` overflows;
    and refuses with :class:`ValueError` a point whose eigenvalues leave the
    float range.
    """
    if p.n > 508:
        raise ValueError(f"n={p.n} is too large: the constants of P_n overflow a float")
    values = _finite_spectrum(p, _phase_ricci_values, p.n, p.phi, p.psi)
    return RicciSpectrum(*values, *make_pn(p.n).dims)


def _sorted_blocks(spectrum: RicciSpectrum) -> list[tuple[float, int]]:
    return sorted(zip(spectrum.values, spectrum.dims))


def k_positive(spectrum: RicciSpectrum, k: int) -> bool:
    """Whether the sum of the ``k`` smallest eigenvalues (with multiplicity)
    is strictly positive."""
    if not (isinstance(k, int) and 1 <= k <= spectrum.d):
        raise ValueError(f"k must be in [1, {spectrum.d}], got {k!r}")
    total = 0.0
    remaining = k
    for value, mult in _sorted_blocks(spectrum):
        take = min(mult, remaining)
        total += take * value
        remaining -= take
        if remaining == 0:
            break
    return total > 0.0


def negative_count(spectrum: RicciSpectrum) -> int:
    """Number of strictly negative eigenvalues, counted with multiplicity."""
    return sum(d for r, d in zip(spectrum.values, spectrum.dims) if r < 0.0)


def smallest_k_positive(spectrum: RicciSpectrum) -> int | None:
    """Smallest ``k`` with :func:`k_positive`, or ``None`` when even the full
    trace is nonpositive (the same blockwise sums, so both agree on roundoff)."""
    return next((k for k in range(1, spectrum.d + 1) if k_positive(spectrum, k)), None)
