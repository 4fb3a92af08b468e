"""The long-time flow experiment and its asymptotic diagnostics.

A run starts at ``(phi, psi) = (N, -epsilon)`` -- a slightly asymmetric
perturbation of a fast-expanding locus point -- and integrates the
unit-speed system.  Four monitors locate where the Ricci eigenvalues r1 and
r2 change sign and where the two divergence functionals ``psi * phi**(2n-2)``
and ``r1 * phi`` cross their thresholds, ``-1e3`` and ``-1e2``: the fixed
levels of acceptance criterion 8.  One observer records r1, r2, r3 and
both functionals at every sample; r3 is recorded for
:func:`positivity_timeline` but not monitored, since nothing reads its sign
changes.  The report records when eigenvalues turn negative, the final count
of negative Ricci eigenvalues, the measured late-time decay slope of ``psi``
against its predicted value ``(-4n+5)/3``, and whether the integrated decay
bound and divergence thresholds were met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flows
from .flows import RangeExceededError, field_reparam, rhs_phase, rhs_reparam, rhs_submersion
from .integrate import IntegratorConfig, Monitor, Termination, Trajectory, integrate
from .spaces import (
    GWSpace,
    RicciSpectrum,
    _phase_ricci_values,
    make_pn,
    negative_count,
    smallest_k_positive,
)

__all__ = [
    "BadInitialDataError",
    "ExperimentConfig",
    "ExperimentReport",
    "default_initial_phi",
    "run_theorem_experiment",
    "asymptotic_slope",
    "decay_bound_check",
    "positivity_timeline",
]

_DEFAULT_PHI_CANDIDATES = (4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0)
_DECAY_SLACK = 1e-9
# the divergence levels of acceptance criterion 8
_PSI_PHI_THRESHOLD = -1e3
_R1_PHI_THRESHOLD = -1e2


class BadInitialDataError(ValueError):
    """The starting point does not realize the experiment's assumptions."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run.

    ``N`` is the initial ``phi``; ``None`` selects the smallest candidate for
    which the axis speed is at least 1.1 and the initial spectrum is
    positive (see :func:`default_initial_phi`).  ``epsilon`` is the initial
    ``|psi|`` (the run starts at ``psi = -epsilon``); ``epsilon = 0`` is the
    degenerate on-axis run used as a control.  Every number must be finite.
    """

    n: int
    N: float | None = None
    epsilon: float = 1e-3
    t_max: float = 1e4
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        flows._pn(self.n)  # n >= 2, and small enough for float constants
        for name in ("N", "epsilon"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.N is not None:
            if not self.N > 0:
                raise ValueError(f"N must be positive, got {self.N}")
            if not self.N > self.epsilon:
                raise ValueError(f"need N > epsilon, got N={self.N}, epsilon={self.epsilon}")
        self.integrator_config()  # validates t_max, rel_tol and abs_tol

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(t_max=self.t_max, rel_tol=self.rel_tol, abs_tol=self.abs_tol)


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of :func:`run_theorem_experiment`.

    ``expected_negative_count`` is ``d1 = 4(n-1)``, the multiplicity of the
    r1 block.  On the unit-volume slice
    ``r1 + r2 = 2*phi/p2 - 2*4**(n-1)/((n+2)*p2**n)`` with
    ``p2 = phi**2 - psi**2``, which is positive while
    ``phi*p2**(n-1) > 4**(n-1)/(n+2)``.  That holds at the start, where the
    spectrum is positive (the run refuses otherwise), and keeps holding
    while ``phi`` grows and ``|psi|`` shrinks (``phi_prime_gt_1``, and
    ``psi_prime_gt_0`` with ``psi < 0``), so once r1 is negative r2 stays
    positive.
    """

    n: int
    N: float
    epsilon: float
    t_r1_negative: float | None
    t_r2_negative: float | None
    final_negative_count: int
    expected_negative_count: int
    initial_spectrum: RicciSpectrum
    final_spectrum: RicciSpectrum
    phi_prime_gt_1: bool
    psi_prime_gt_0: bool
    slope_estimate: float | None
    slope_target: float
    decay_bound_holds: bool
    decay_t0: float | None
    divergence_psi_phi_pow: bool
    divergence_r1_phi: bool
    termination: Termination

    def to_json_dict(self) -> dict:
        """The machine-readable report (schema used by the CLI)."""
        return {
            "n": self.n,
            "N": self.N,
            "epsilon": self.epsilon,
            "t_r1_negative": self.t_r1_negative,
            "t_r2_negative": self.t_r2_negative,
            "final_negative_count": self.final_negative_count,
            "expected_negative_count": self.expected_negative_count,
            "slope_estimate": self.slope_estimate,
            "slope_target": self.slope_target,
            "decay_bound_holds": self.decay_bound_holds,
            "divergence": {
                "psi_phi_pow": self.divergence_psi_phi_pow,
                "r1_phi": self.divergence_r1_phi,
            },
            "monotonicity": {
                "phi_prime_gt_1": self.phi_prime_gt_1,
                "psi_prime_gt_0": self.psi_prime_gt_0,
            },
            "termination": self.termination.value,
        }


def default_initial_phi(n: int, epsilon: float = ExperimentConfig.epsilon) -> float:
    """Smallest candidate ``N`` with axis speed >= 1.1 and a positive
    spectrum at ``(N, -epsilon)``; a candidate outside the representable
    range of the flow is not admissible.

    Makes the otherwise loose requirement "initial ``phi`` large" concrete
    and reproducible.
    """
    for cand in _DEFAULT_PHI_CANDIDATES:
        try:
            speed = rhs_submersion(n, cand)
        except RangeExceededError:
            continue
        if speed < 1.1:
            continue
        if min(_phase_ricci_values(n, cand, -epsilon)) > 0:
            return cand
    raise BadInitialDataError(
        f"no candidate in {_DEFAULT_PHI_CANDIDATES} gives a positive initial "
        f"spectrum for n={n}, epsilon={epsilon}; reduce epsilon"
    )


def run_theorem_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Integrate the unit-speed system from ``(N, -epsilon)`` and report.

    Raises :class:`BadInitialDataError` when the start is outside the range
    the flow is evaluated in, when the initial spectrum has a nonpositive
    eigenvalue, or when the starting ``phi`` speed is not above 1 (either way
    ``N`` does not realize the "large initial phi" setup).
    One observer evaluates each state once.  Its record is the run's
    per-sample record, which the report reads, and it feeds the ``r1``,
    ``r2`` and ``r1_phi`` monitors; the ``psi_phi_pow`` monitor evaluates no
    spectrum.  The two divergence monitors and flags use criterion 8's
    fixed levels, ``psi * phi**(2n-2) < -1e3`` and ``r1 * phi < -1e2``.
    ``r3`` is recorded for :func:`positivity_timeline` but not monitored, as
    no report field reads its sign changes.
    No monitor stops the run: it ends at ``t_max`` unless a range guard
    or an integrator limit ends it first.  (A stop once both ``r1`` and
    ``r2`` are negative could never fire: the ``r1 + r2`` identity in
    :class:`ExperimentReport` keeps ``r2`` positive on every accepted run.
    Nor is the sign of ``psi`` watched: the axis ``psi = 0`` is invariant.)
    """
    n = cfg.n
    space = make_pn(n)
    N = cfg.N if cfg.N is not None else default_initial_phi(n, cfg.epsilon)
    psi0 = -cfg.epsilon
    pow_exp = 2 * n - 2

    # the monitors and the per-sample record ask for the same state in turn;
    # states are compared by value, component by component, so an ndarray
    # state works too
    last_phi = last_psi = None
    last_record = {}

    def observe(t: float, y: tuple[float, float]) -> dict[str, float]:
        nonlocal last_phi, last_psi, last_record
        phi, psi = y
        if phi != last_phi or psi != last_psi:
            r1, r2, r3 = _phase_ricci_values(n, phi, psi)
            last_phi, last_psi = phi, psi
            last_record = {"r1": r1, "r2": r2, "r3": r3,
                           "psi_phi_pow": psi * phi ** pow_exp, "r1_phi": r1 * phi}
        return last_record

    def psi_phi_pow_level(t: float, y: tuple[float, float]) -> float:
        phi, psi = y
        return psi * phi ** pow_exp - _PSI_PHI_THRESHOLD

    def spectrum(r1: float, r2: float, r3: float, **_) -> RicciSpectrum:
        return RicciSpectrum(r1, r2, r3, *space.dims)

    try:
        dphi0, _ = rhs_phase(n, N, psi0)
    except RangeExceededError as exc:
        raise BadInitialDataError(f"initial state out of range: {exc}") from None
    y0 = (float(N), float(psi0))
    initial_spectrum = spectrum(**observe(0.0, y0))
    if min(initial_spectrum.values) <= 0:
        raise BadInitialDataError(
            f"initial spectrum {initial_spectrum.values} not positive at "
            f"(phi={N}, psi={psi0}); N is too small for the setup"
        )
    if dphi0 <= 1.0:
        raise BadInitialDataError(
            f"initial phi speed {dphi0} <= 1 at phi={N}; N is not large enough"
        )

    monitors = [
        Monitor("r1", lambda t, y: observe(t, y)["r1"]),
        Monitor("r2", lambda t, y: observe(t, y)["r2"]),
        Monitor("psi_phi_pow", psi_phi_pow_level),
        Monitor("r1_phi", lambda t, y: observe(t, y)["r1_phi"] - _R1_PHI_THRESHOLD),
    ]
    traj = integrate(field_reparam(n), y0, cfg.integrator_config(), monitors, observe)
    diag = traj.diagnostics
    ev_r1 = traj.first_event("r1")
    ev_r2 = traj.first_event("r2")
    final_spectrum = spectrum(**{key: values[-1].item() for key, values in diag.items()})

    # monotonicity of the original-time system, sampled along the run; the
    # field ran rhs_phase, guard included, on every sample (at the start and
    # as each step's last stage), so the unguarded kernel is enough here
    dphi, dpsi = flows._phase_values(flows._pn(n), traj.y[:, 0], traj.y[:, 1])

    if np.all(traj.y[:, 1] < 0):
        slope = asymptotic_slope(traj, n)
    else:
        slope = None
    decay_holds, decay_t0 = decay_bound_check(traj, n)

    return ExperimentReport(
        n=n,
        N=N,
        epsilon=cfg.epsilon,
        t_r1_negative=ev_r1.t if ev_r1 else None,
        t_r2_negative=ev_r2.t if ev_r2 else None,
        final_negative_count=negative_count(final_spectrum),
        expected_negative_count=space.d1,  # only r1 turns negative; see ExperimentReport
        initial_spectrum=initial_spectrum,
        final_spectrum=final_spectrum,
        phi_prime_gt_1=bool(dphi.min() > 1.0),
        psi_prime_gt_0=bool(dpsi.min() > 0.0),
        slope_estimate=slope,
        slope_target=(-4 * n + 5) / 3.0,
        decay_bound_holds=decay_holds,
        decay_t0=decay_t0,
        divergence_psi_phi_pow=bool(np.any(diag["psi_phi_pow"] < _PSI_PHI_THRESHOLD)),
        divergence_r1_phi=bool(np.any(diag["r1_phi"] < _R1_PHI_THRESHOLD)),
        termination=traj.termination,
    )


def asymptotic_slope(trajectory: Trajectory, n: int) -> float:
    """The quotient ``psi' * phi / psi`` (unit-speed time) at the last sample.

    Requires ``psi`` nonvanishing along the trajectory; converges to
    ``(-4n+5)/3`` as ``phi`` grows.
    """
    psi = trajectory.y[:, 1]
    if np.any(psi == 0):
        raise ValueError("psi vanishes along the trajectory; slope undefined")
    phi_end, psi_end = trajectory.y[-1]
    _, dpsi = rhs_reparam(n, phi_end, psi_end)
    return dpsi * phi_end / psi_end


def decay_bound_check(trajectory: Trajectory, n: int) -> tuple[bool, float | None]:
    """Check that ``psi * phi**eta`` with ``eta = 4n/3 - 1`` eventually
    decreases monotonically.

    Scans for the first sample index from which the sequence is
    nonincreasing (per-step slack ``1e-9``) through the end; the check
    passes when that index lies before the final 10% of samples.  Returns
    ``(holds, t0)`` with ``t0`` the onset time, or ``(False, None)``.
    """
    eta = 4 * n / 3.0 - 1.0
    phi = trajectory.y[:, 0]
    psi = trajectory.y[:, 1]
    seq = psi * phi ** eta
    if seq.size < 2:
        return False, None
    violations = np.nonzero(np.diff(seq) > _DECAY_SLACK)[0]
    k0 = int(violations[-1]) + 1 if violations.size else 0
    if k0 < 0.9 * seq.size:
        return True, float(trajectory.t[k0])
    return False, None


def positivity_timeline(
    trajectory: Trajectory, space: GWSpace
) -> list[tuple[float, int, int | None]]:
    """Per-sample ``(t, negative_count, smallest k with a k-positive Ricci
    tensor)``; the last entry is ``None`` when no ``k <= d`` works.

    Requires the eigenvalues ``r1, r2, r3`` among the trajectory
    diagnostics.
    """
    diag = trajectory.diagnostics
    if not all(key in diag for key in ("r1", "r2", "r3")):
        raise ValueError("trajectory diagnostics must include r1, r2, r3")
    out = []
    for t, r1, r2, r3 in zip(trajectory.t, diag["r1"], diag["r2"], diag["r3"]):
        spec = RicciSpectrum(r1, r2, r3, *space.dims)
        out.append((float(t), negative_count(spec), smallest_k_positive(spec)))
    return out
