"""The invariant checks behind ``gwflow check``: array kernels, verdicts and
refusals."""

import warnings

import numpy as np
import pytest

from gwflow import checks, flows, spaces
from gwflow.checks import CheckResult, phase_grid, run_invariant_checks
from gwflow.flows import InadmissibleStateError, rhs_full, rhs_phase, rhs_reduced_x
from gwflow.integrate import integrate
from gwflow.spaces import PhasePoint, make_pn, ricci_phase, x3_from_volume_one

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
    r = checks._check_round_trip(250)
    assert r.passed is False
    assert r.detail.startswith("cannot evaluate: OverflowError")

