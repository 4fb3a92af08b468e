import math

import numpy as np
import pytest

from gwflow import (
    BadInitialDataError,
    ExperimentConfig,
    IntegratorConfig,
    Termination,
    Trajectory,
    asymptotic_slope,
    decay_bound_check,
    default_initial_phi,
    field_phase,
    field_reparam,
    integrate,
    make_pn,
    positivity_timeline,
    rhs_phase,
    rhs_reparam,
    rhs_submersion,
    run_theorem_experiment,
    smallest_k_positive,
)
from gwflow import experiment
from gwflow.spaces import _phase_ricci_values


@pytest.fixture(scope="module")
def report_n2():
    return run_theorem_experiment(ExperimentConfig(n=2, t_max=1e6))


@pytest.fixture(scope="module")
def trajectory_n2():
    cfg = IntegratorConfig(t_max=1e6)
    return integrate(field_reparam(2), [4.0, -1e-3], cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=1)
        with pytest.raises(ValueError, match="n=512 is too large"):
            ExperimentConfig(n=512)
        with pytest.raises(ValueError):
            ExperimentConfig(n=2, epsilon=-1e-3)
        for N in (0.0, -4.0):
            with pytest.raises(ValueError, match="N must be positive"):
                ExperimentConfig(n=2, N=N)
        with pytest.raises(ValueError):
            ExperimentConfig(n=2, N=1e-3, epsilon=1e-2)
        with pytest.raises(ValueError):
            ExperimentConfig(n=2, t_max=0.0)
        with pytest.raises(ValueError, match="rel_tol"):
            ExperimentConfig(n=2, rel_tol=-1.0)
        with pytest.raises(ValueError, match="abs_tol"):
            ExperimentConfig(n=2, abs_tol=0.0)

    @pytest.mark.parametrize("name", ["N", "epsilon"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentConfig(n=2, **{name: value})

    def test_defaults(self):
        cfg = ExperimentConfig(n=3)
        assert cfg.epsilon == 1e-3
        assert cfg.t_max == 1e4


class TestDefaultInitialPhi:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_selection_rule(self, n):
        N = default_initial_phi(n)
        assert rhs_submersion(n, N) >= 1.1
        assert min(_phase_ricci_values(n, N, -1e-3)) > 0
        # smallest candidate wins: 4 satisfies both conditions for these n
        assert N == 4.0


class TestRunMechanics:
    def test_small_initial_phi_rejected(self):
        with pytest.raises(BadInitialDataError):
            run_theorem_experiment(ExperimentConfig(n=2, N=2.0))

    def test_non_positive_initial_spectrum_rejected(self):
        # near the cone's edge r1 and r2 are negative; the phi speed is not the reason
        with pytest.raises(BadInitialDataError, match="initial spectrum .* not positive"):
            run_theorem_experiment(ExperimentConfig(n=2, N=1.0, epsilon=0.9))

    def test_monitors_read_the_recorded_observer(self, monkeypatch):
        # r3 is recorded for positivity_timeline but not monitored
        calls = []

        def recorded(rhs, y0, config, monitors, diagnostics):
            calls.append((monitors, diagnostics))
            return integrate(rhs, y0, config, monitors, diagnostics)

        monkeypatch.setattr(experiment, "integrate", recorded)
        cfg = ExperimentConfig(n=2, t_max=10.0)
        run_theorem_experiment(cfg)
        ((monitors, observe),) = calls
        assert [m.name for m in monitors] == ["r1", "r2", "psi_phi_pow", "r1_phi"]
        y = np.array([5.0, -2e-3])
        record = observe(0.0, y)
        assert set(record) == {"r1", "r2", "r3", "psi_phi_pow", "r1_phi"}
        assert tuple(record[k] for k in ("r1", "r2", "r3")) == _phase_ricci_values(2, 5.0, -2e-3)
        # the threshold monitors watch their functional minus criterion 8's level
        levels = {"psi_phi_pow": experiment._PSI_PHI_THRESHOLD,
                  "r1_phi": experiment._R1_PHI_THRESHOLD}
        for m in monitors:
            assert m.fn(0.0, y) == record[m.name] - levels.get(m.name, 0.0)

    def test_r1_block_turns_negative(self, report_n2):
        rep = report_n2
        assert rep.N == 4.0
        assert min(rep.initial_spectrum.values) > 0
        assert rep.t_r1_negative is not None
        assert rep.t_r1_negative == pytest.approx(3753.28, rel=1e-3)
        assert rep.final_spectrum.r1 < 0
        assert rep.termination is Termination.REACHED_TMAX

    def test_r2_block_stays_positive(self, report_n2):
        # r1 + r2 = 2*phi/(phi^2-psi^2) - 2*4^(n-1)/((n+2)(phi^2-psi^2)^n)
        # is positive on the whole run, so the r2 block cannot join r1:
        # the negative eigenvalue count is d1 = 4(n-1)
        rep = report_n2
        assert rep.t_r2_negative is None
        assert rep.final_spectrum.r2 > 0
        assert rep.final_negative_count == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_negative_count_is_first_block(self, n):
        rep = run_theorem_experiment(ExperimentConfig(n=n, t_max=1e6))
        assert rep.t_r1_negative is not None
        assert rep.final_negative_count == 4 * (n - 1)
        assert rep.final_spectrum.r2 > 0
        assert rep.final_spectrum.r3 > 0

    def test_monotonicity_flags(self, report_n2):
        assert report_n2.phi_prime_gt_1 is True
        assert report_n2.psi_prime_gt_0 is True

    def test_slope_and_divergence(self, report_n2):
        rep = report_n2
        assert rep.slope_target == -1.0
        assert rep.slope_estimate == pytest.approx(-1.0, rel=5e-2)
        assert rep.decay_bound_holds is True
        assert rep.divergence_psi_phi_pow is True
        assert rep.divergence_r1_phi is True

    def test_degenerate_on_axis_run(self):
        rep = run_theorem_experiment(ExperimentConfig(n=2, epsilon=0.0, t_max=50.0))
        assert rep.t_r1_negative is None
        assert rep.t_r2_negative is None
        assert rep.final_negative_count == 0
        assert rep.psi_prime_gt_0 is False  # psi' is identically zero
        assert rep.slope_estimate is None
        assert rep.divergence_psi_phi_pow is False
        assert rep.divergence_r1_phi is False

    def test_halving_epsilon_keeps_count(self):
        a = run_theorem_experiment(ExperimentConfig(n=2, epsilon=1e-3, t_max=2e4))
        b = run_theorem_experiment(ExperimentConfig(n=2, epsilon=5e-4, t_max=2e4))
        assert a.final_negative_count == b.final_negative_count
        assert a.t_r1_negative is not None and b.t_r1_negative is not None

    def test_one_ricci_evaluation_per_state(self, monkeypatch):
        # the r-monitors, r1_phi and the diagnostics share one evaluation
        calls = []
        trajectories = []

        def counting_ricci(*args):
            calls.append(args)
            return _phase_ricci_values(*args)

        def recording_integrate(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            trajectories.append(traj)
            return traj

        monkeypatch.setattr(experiment, "_phase_ricci_values", counting_ricci)
        monkeypatch.setattr(experiment, "integrate", recording_integrate)
        run_theorem_experiment(ExperimentConfig(n=2, t_max=1e6))

        (traj,) = trajectories
        assert len(calls) <= 3 * (len(traj) - 1)
        # and every sample's diagnostics hold the spectrum at that sample
        for key, i in (("r1", 0), ("r2", 1), ("r3", 2)):
            expected = [_phase_ricci_values(2, phi, psi)[i] for phi, psi in traj.y]
            assert traj.diagnostics[key].tolist() == expected

    def test_json_schema(self, report_n2):
        d = report_n2.to_json_dict()
        assert list(d.keys()) == [
            "n", "N", "epsilon", "t_r1_negative", "t_r2_negative",
            "final_negative_count", "expected_negative_count",
            "slope_estimate", "slope_target", "decay_bound_holds",
            "divergence", "monotonicity", "termination",
        ]
        # d1 = 4(n-1): only the r1 block turns negative, since
        # r1 + r2 = 2*phi/p2 - 2*4^(n-1)/((n+2)*p2^n) > 0 along the run
        # (proved in tests/test_symbolic.py)
        assert d["expected_negative_count"] == 4
        assert set(d["divergence"]) == {"psi_phi_pow", "r1_phi"}
        assert set(d["monotonicity"]) == {"phi_prime_gt_1", "psi_prime_gt_0"}


class TestAsymptoticSlope:
    def test_matches_target_late(self, trajectory_n2):
        assert asymptotic_slope(trajectory_n2, 2) == pytest.approx(-1.0, rel=1e-3)

    def test_rejects_vanishing_psi(self):
        traj = integrate(field_phase(2), [1.8, 0.0], IntegratorConfig(t_max=1.0))
        with pytest.raises(ValueError):
            asymptotic_slope(traj, 2)


class TestDecayBound:
    def test_holds_on_experiment_run(self, trajectory_n2):
        holds, t0 = decay_bound_check(trajectory_n2, 2)
        assert holds is True
        assert t0 == 0.0

    def test_vacuous_on_axis(self):
        traj = integrate(field_phase(2), [1.8, 0.0], IntegratorConfig(t_max=1.0))
        holds, t0 = decay_bound_check(traj, 2)
        assert holds is True
        assert t0 == 0.0

    def test_fails_when_sequence_keeps_rising(self):
        # synthetic run in which psi * phi^eta rises through the end
        t = np.linspace(0.0, 1.0, 50)
        phi = np.full_like(t, 2.0)
        psi = -1.0 / (1.0 + t)  # |psi| decreasing at fixed phi => product rising
        traj = Trajectory(
            t=t,
            y=np.column_stack([phi, psi]),
            diagnostics={},
            events=[],
            termination=Termination.REACHED_TMAX,
        )
        holds, t0 = decay_bound_check(traj, 2)
        assert holds is False
        assert t0 is None


def divergence_check(trajectory, n):
    """Whether the two divergence functionals dipped below criterion 8's
    levels at any sample, with the spectrum evaluated afresh at every
    sample: the oracle for the flags the report reads off its record."""
    phi = trajectory.y[:, 0]
    psi = trajectory.y[:, 1]
    psi_phi = psi * phi ** (2 * n - 2)
    r1 = np.array([_phase_ricci_values(n, p, q)[0] for p, q in trajectory.y])
    return {
        "psi_phi_pow": bool(np.any(psi_phi < -1e3)),
        "r1_phi": bool(np.any(r1 * phi < -1e2)),
    }


class TestDivergenceCheck:
    # the oracle's own verdicts on three runs whose outcome is known
    def test_thresholds_reached(self, trajectory_n2):
        flags = divergence_check(trajectory_n2, 2)
        assert flags == {"psi_phi_pow": True, "r1_phi": True}

    def test_axis_reaches_nothing(self):
        traj = integrate(field_phase(2), [1.8, 0.0], IntegratorConfig(t_max=1.0))
        flags = divergence_check(traj, 2)
        assert flags == {"psi_phi_pow": False, "r1_phi": False}

    def test_truncated_run_reaches_nothing(self):
        traj = integrate(field_reparam(2), [4.0, -1e-3], IntegratorConfig(t_max=1.0))
        flags = divergence_check(traj, 2)
        assert flags == {"psi_phi_pow": False, "r1_phi": False}


class TestDivergenceFromDiagnostics:
    @pytest.mark.parametrize("n,t_max", [(2, 1e6), (3, 1e6), (4, 1e6), (5, 1e6), (2, 1.0)])
    def test_report_flags_match_divergence_check(self, monkeypatch, n, t_max):
        true_values = experiment._phase_ricci_values
        calls = {"total": 0, "at_return": 0}
        trajectories = []

        def counted(*args):
            calls["total"] += 1
            return true_values(*args)

        def recorded(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            calls["at_return"] = calls["total"]
            trajectories.append(traj)
            return traj

        monkeypatch.setattr(experiment, "_phase_ricci_values", counted)
        monkeypatch.setattr(experiment, "integrate", recorded)
        report = run_theorem_experiment(ExperimentConfig(n=n, t_max=t_max))
        # once integration is over, only the final spectrum is evaluated
        assert calls["total"] - calls["at_return"] <= 1
        (traj,) = trajectories
        flags = divergence_check(traj, n)
        assert flags == {
            "psi_phi_pow": report.divergence_psi_phi_pow,
            "r1_phi": report.divergence_r1_phi,
        }


class TestPositivityTimeline:
    def test_requires_spectra(self, trajectory_n2):
        with pytest.raises(ValueError):
            positivity_timeline(trajectory_n2, make_pn(2))

    def test_timeline_of_experiment(self):
        cfg = ExperimentConfig(n=2, t_max=1e6)
        n = cfg.n
        space = make_pn(n)

        def diag(t, y):
            r1, r2, r3 = _phase_ricci_values(n, y[0], y[1])
            return {"r1": r1, "r2": r2, "r3": r3}

        traj = integrate(
            field_reparam(n), [4.0, -cfg.epsilon],
            IntegratorConfig(t_max=cfg.t_max), diagnostics=diag,
        )
        timeline = positivity_timeline(traj, space)
        assert len(timeline) == len(traj)
        t0, neg0, k0 = timeline[0]
        assert (neg0, k0) == (0, 1)  # all eigenvalues positive at the start
        t_end, neg_end, k_end = timeline[-1]
        assert neg_end == 4
        # the sum of the 4(n-1) negative r1 values plus as many positive r2
        # values stays positive, so k-positivity is lost only below k = 8
        assert k_end == 8

    @pytest.mark.parametrize("n,last", [(2, (4, 8)), (3, (8, 16))])
    def test_timeline_of_the_experiments_own_trajectory(self, monkeypatch, n, last):
        # reads the diagnostics run_theorem_experiment records
        trajectories = []

        def recorded(*args, **kwargs):
            trajectories.append(integrate(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(experiment, "integrate", recorded)
        run_theorem_experiment(ExperimentConfig(n=n, t_max=1e6))
        (traj,) = trajectories
        timeline = positivity_timeline(traj, make_pn(n))
        assert [t for t, _, _ in timeline] == traj.t.tolist()
        assert timeline[0][1:] == (0, 1)
        assert timeline[-1][1:] == last



def scipy_t_r1_negative(n, epsilon, t_max):
    """``t_r1_negative`` from scipy's DOP853 at tight tolerances on ``psi`` as
    a function of ``phi`` (unit-speed time is ``t = phi - N``)."""
    integrate_mod = pytest.importorskip("scipy.integrate")
    N = default_initial_phi(n, epsilon)

    def r1(phi, y):
        return _phase_ricci_values(n, phi, y[0])[0]

    r1.terminal = True
    sol = integrate_mod.solve_ivp(
        lambda phi, y: [rhs_reparam(n, phi, y[0])[1]],
        (N, N + t_max),
        [-epsilon],
        method="DOP853",
        rtol=1e-13,
        atol=1e-300,
        events=r1,
    )
    (phi_star,) = sol.t_events[0]
    return phi_star - N


def test_scipy_oracle_t_r1_negative():
    # the value in notes/decisions.md; DOP853 in log-log coordinates agrees to 4e-14
    oracle = scipy_t_r1_negative(3, 1e-4, 1e6)
    assert abs(oracle - 490.6305098246) <= 1e-10 * oracle


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2: abs_tol floor")
def test_t_r1_negative_matches_scipy_oracle():
    # psi falls below abs_tol long before r1 turns negative for n >= 3, so
    # the event time carries the error of an unresolved psi (1.2e-5 relative)
    n, epsilon, t_max = 3, 1e-4, 1e6
    oracle = scipy_t_r1_negative(n, epsilon, t_max)
    report = run_theorem_experiment(ExperimentConfig(n=n, epsilon=epsilon, t_max=t_max))
    assert abs(report.t_r1_negative - oracle) <= 1e-6 * oracle
