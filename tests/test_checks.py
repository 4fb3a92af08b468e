"""The invariant checks behind ``gwflow check``: array kernels, verdicts and
refusals."""

import itertools
import warnings

import numpy as np
import pytest

from gwflow import checks, flows, spaces
from gwflow.checks import CheckResult, phase_grid, run_invariant_checks
from gwflow.flows import InadmissibleStateError, rhs_full, rhs_phase, rhs_reduced_x
from gwflow.integrate import integrate
from gwflow.spaces import (
    Metric,
    PhasePoint,
    from_phase,
    make_pn,
    ricci_phase,
    to_phase,
    volume,
    x3_from_volume_one,
)

PER_N_CHECKS = [
    checks._check_round_trip,
    checks._check_spectrum_agreement,
    checks._check_rhs_consistency,
    checks._check_volume_conservation,
]


def test_phase_grid_is_admissible_and_flat():
    phi, psi = phase_grid()
    assert phi.shape == psi.shape == (400,)
    assert phi.dtype == psi.dtype == np.float64
    assert np.all(phi > np.abs(psi))
    # row-major: phi is constant along a row of 20 values of u = psi/phi
    assert phi[0] == phi[19] == 1.0 and phi[20] > 1.0
    assert psi[0] == pytest.approx(-0.85) and psi[19] == pytest.approx(0.85)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_array_kernels_match_the_guarded_functions(n):
    # on the grid the kernels, given arrays, agree with the guarded scalar
    # functions; numpy's vectorized pow may differ from libm's in the last bit
    phi, psi = phase_grid()
    x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
    x3 = (x1 * x2) ** (-(n - 1))
    space = make_pn(n)
    arrays = {
        "phase": np.array(flows._phase_values(flows._pn(n), phi, psi)).T,
        "reduced": np.array(flows._reduced_values(n, x1, x2)).T,
        "full": np.array(flows._full_values(space, x1, x2, x3)).T,
        "ricci": np.array(spaces._phase_ricci_values(n, phi, psi)).T,
    }
    for i, (p, s) in enumerate(zip(phi.tolist(), psi.tolist())):
        a, b = 0.5 * (p + s), 0.5 * (p - s)
        scalar = {
            "phase": rhs_phase(n, p, s),
            "reduced": rhs_reduced_x(n, a, b),
            "full": rhs_full(space, a, b, x3_from_volume_one(n, a, b)),
            "ricci": ricci_phase(PhasePoint(p, s, n)).values,
        }
        for key, values in scalar.items():
            assert arrays[key][i] == pytest.approx(values, rel=1e-13, abs=1e-300), key


@pytest.mark.parametrize("n", [2, 3, 7, 41, 221])
def test_array_round_trip_is_the_scalar_round_trip_bit_for_bit(n):
    # the check evaluates its 12 x 12 grid in one pass through the kernels of
    # to_phase and from_phase; each point gives the scalar maps' bits
    x1, x2, y1, y2 = checks._round_trip(n)
    xs = np.geomspace(0.2, 5.0, 12).tolist()
    assert list(zip(x1.tolist(), x2.tolist())) == list(itertools.product(xs, xs))
    for a, b, c, d in zip(x1.tolist(), x2.tolist(), y1.tolist(), y2.tolist()):
        assert (c, d) == from_phase(to_phase(n, a, b))[:2], (a, b)


def test_round_trip_refuses_the_n_that_to_phase_refuses():
    r = checks._check_round_trip(1)
    assert r.passed is False
    assert r.detail == "cannot evaluate: ValueError: n must be an integer >= 2, got 1"


@pytest.mark.parametrize("n", [*range(2, 9), 11, 38, 41])
def test_array_drift_is_the_scalar_volumes_drift(monkeypatch, n):
    # the check takes volume() of all of its run's states in one pass, bit for
    # bit; numpy's AVX-512 log is not libm's in the last bit, which at n = 11
    # and 38 moves the drift by an ulp of the volume, far below its detail
    runs = []

    def recording(field, y0, cfg):
        runs.append(integrate(field, y0, cfg))
        return runs[-1]

    monkeypatch.setattr(checks, "integrate", recording)
    r = checks._check_volume_conservation(n)
    (traj,) = runs
    space = make_pn(n)
    drift = max(abs(volume(space, Metric(*state)) - 1.0) for state in traj.y.tolist())
    error = abs(checks._volume_drift(space, traj.y) - drift)
    assert error <= 2.0 ** -52 if n in (11, 38) else error == 0.0
    assert r.passed is True and r.detail == f"max |V-1| = {drift:.2e}"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 16: r3 cancels in both routes at n = 83, where "
    "spectrum-agreement reads 3.33e-12 against its 1e-12 bound",
)
def test_spectrum_agreement_passes_at_n_83():
    r = checks._check_spectrum_agreement(83)
    assert r.passed, r.detail


def test_passed_is_a_python_bool():
    results = run_invariant_checks(3)
    assert len(results) == 8
    assert all(type(r.passed) is bool for r in results)
    assert all(r.passed for r in results)


def test_volume_conservation_fails_on_a_run_that_stops_early(monkeypatch):
    # a field that refuses every state after t = 1 ends the run in
    # StepUnderflow there, before t_max = 5: it shows nothing about
    # conservation up to t_max
    def integrate_until_1(field, y0, cfg):
        def refusing(t, y):
            if t > 1.0:
                raise InadmissibleStateError(f"t = {t} > 1")
            return field(t, y)

        return integrate(refusing, y0, cfg)

    monkeypatch.setattr(checks, "integrate", integrate_until_1)
    r = checks._check_volume_conservation(2)
    assert r.passed is False
    assert "StepUnderflow" in r.detail
    assert "at t = 1 " in r.detail


@pytest.mark.parametrize("n", [*range(12, 41), 100, 250, 503])
def test_volume_conservation_passes_where_1_1_lo_lies_above_hi(n):
    # from n = 12 the start 1.1 lo lies above the upper fixed point, where
    # the axis run blows up in finite time; the check starts at sqrt(lo hi)
    lo, hi = flows.submersion_fixed_points(n)
    assert 1.1 * lo > hi
    r = checks._check_volume_conservation(n)
    assert r.passed is True, r.detail


def test_volume_conservation_passes_on_a_run_that_reaches_t_max():
    r = checks._check_volume_conservation(2)
    assert r.passed is True
    assert r.detail.startswith("max |V-1| = ") and "ended" not in r.detail


@pytest.mark.parametrize("n", [122, 250, 1000])
@pytest.mark.parametrize("check", PER_N_CHECKS, ids=lambda f: f.__name__)
def test_large_n_gives_a_verdict_without_raising_or_warning(check, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = check(n)
    assert isinstance(r, CheckResult) and r.n == n
    assert type(r.passed) is bool
    assert "nan" not in r.detail
    if not r.passed:
        assert r.detail


def test_grid_that_cannot_be_evaluated_fails_with_the_reason():
    r = checks._check_spectrum_agreement(250)
    assert r.passed is False
    assert r.detail == "cannot evaluate: FloatingPointError: overflow encountered in power"
    # the round trip evaluates x3, as from_phase does, in the same array pass
    r = checks._check_round_trip(250)
    assert r.passed is False
    assert r.detail == "cannot evaluate: FloatingPointError: overflow encountered in power"

