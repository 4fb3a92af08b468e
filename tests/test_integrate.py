import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwflow import (
    IntegratorConfig,
    Metric,
    Monitor,
    NoBracketError,
    RangeExceededError,
    Termination,
    field_full,
    field_phase,
    field_reparam,
    integrate,
    locate_sign_change,
    make_pn,
    submersion_fixed_points,
    volume,
    x3_from_volume_one,
)
from gwflow import ExperimentConfig, experiment, run_theorem_experiment
from gwflow.integrate import _substep_evaluator
from gwflow.spaces import _phase_ricci_values


def constant_field(value):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return lambda t, y: v


def identity(t):
    return np.array([t])


def recording(g):
    """``(f, probes)``: ``f(t, y) = g(y[0])``, with every ``(t, f)`` recorded."""
    probes = []

    def f(t, y):
        value = g(y[0])
        probes.append((t, value))
        return value

    return f, probes


def brackets_within(t, probes, tol):
    """Whether two probes of opposite sign, or one exact zero, lie within
    ``tol`` of ``t``."""
    near = [g for p, g in probes if abs(p - t) <= tol]
    return 0.0 in near or (min(near) < 0.0 < max(near))


class TestConfig:
    def test_defaults(self):
        cfg = IntegratorConfig(t_max=1.0)
        assert cfg.rel_tol == 1e-10
        assert cfg.abs_tol == 1e-12
        assert cfg.event_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_max": -1.0},
            {"t_max": 1.0, "rel_tol": 0.0},
            {"t_max": 1.0, "event_tol": -1e-3},
            {"t_max": 1.0, "max_steps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_infinite_t_max_is_refused(self):
        # an infinite horizon lets h overflow to inf, where halving a
        # non-finite trial step never ends: refused before any step
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            IntegratorConfig(t_max=math.inf)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "initial_step", "event_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_tolerance_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            IntegratorConfig(t_max=1.0, **{name: value})


class TestBasicRuns:
    def test_unit_speed_system_is_linear(self):
        traj = integrate(field_reparam(2), [10.0, -1e-3], IntegratorConfig(t_max=100.0))
        assert traj.termination is Termination.REACHED_TMAX
        assert traj.t[-1] == 100.0
        assert abs(traj.y[-1, 0] - 110.0) < 1e-12

    def test_einstein_fixed_point_stays_put(self):
        traj = integrate(field_full(make_pn(2)), [1.0, 1.0, 1.0], IntegratorConfig(t_max=50.0))
        assert traj.termination is Termination.REACHED_TMAX
        assert np.abs(traj.y - 1.0).max() < 1e-9

    def test_times_strictly_increasing(self):
        traj = integrate(field_phase(2), [4.0, -1e-3], IntegratorConfig(t_max=0.4))
        assert len(traj) > 10
        assert np.all(np.diff(traj.t) > 0)

    def test_initial_precondition_failure_raises(self):
        with pytest.raises(ValueError):
            integrate(field_phase(2), [1.0, 2.0], IntegratorConfig(t_max=1.0))

    def test_max_steps_surfaced(self):
        traj = integrate(
            field_phase(2), [1.8, 0.1], IntegratorConfig(t_max=5.0, max_steps=3)
        )
        assert traj.termination is Termination.MAX_STEPS
        assert len(traj) == 4  # initial sample + 3 steps


class TestEvents:
    def test_linear_monitor_crossing(self):
        mon = Monitor("crossing", lambda t, y: t - 1.0)
        traj = integrate(
            constant_field([0.0]),
            [0.0],
            IntegratorConfig(t_max=2.0, initial_step=0.3),
            [mon],
        )
        assert len(traj.events) == 1
        assert traj.events[0].name == "crossing"
        assert abs(traj.events[0].t - 1.0) <= 1e-10

    def test_events_reported_in_time_order(self):
        mons = [
            Monitor("late", lambda t, y: y[0] - 1.7),
            Monitor("early", lambda t, y: y[0] - 0.3),
            Monitor("mid", lambda t, y: y[0] - 1.0),
        ]
        traj = integrate(constant_field([1.0]), [0.0], IntegratorConfig(t_max=2.0), mons)
        names = [ev.name for ev in traj.events]
        times = [ev.t for ev in traj.events]
        assert names == ["early", "mid", "late"]
        assert times == sorted(times)

    def test_threshold_monitor_records_level(self):
        mon = Monitor("level", lambda t, y: y[0], level=5.0)
        traj = integrate(constant_field([2.0]), [0.0], IntegratorConfig(t_max=5.0), [mon])
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.name == "level"
        assert abs(ev.t - 2.5) <= 1e-10

    def test_level_is_a_shift_of_the_functional(self):
        # a crossing of fn through L is located where fn - L changes sign
        level = 2.5
        mons = [
            Monitor("level", lambda t, y: y[0], level=level),
            Monitor("shifted", lambda t, y: y[0] - level),
        ]
        traj = integrate(field_phase(2), [1.8, -0.3], IntegratorConfig(t_max=5.0), mons)
        (by_level,) = [ev for ev in traj.events if ev.name == "level"]
        (shifted,) = [ev for ev in traj.events if ev.name == "shifted"]
        assert by_level.t == shifted.t

    def test_stop_monitor_truncates_run(self):
        mon = Monitor("stop_here", lambda t, y: y[0] - 1.0, stop=True)
        traj = integrate(constant_field([1.0]), [0.0], IntegratorConfig(t_max=5.0), [mon])
        assert traj.termination is Termination.EVENT_STOP
        assert abs(traj.t[-1] - 1.0) <= 1e-10
        assert traj.events[-1].name == "stop_here"
        assert traj.t[-1] == traj.events[-1].t

    def test_monitor_identically_zero_never_fires(self):
        mon = Monitor("psi", lambda t, y: y[1])
        traj = integrate(field_phase(2), [1.8, 0.0], IntegratorConfig(t_max=5.0), [mon])
        assert traj.events == []


class TestLocateSignChange:
    def test_linear_root_at_midpoint(self):
        interp = lambda t: np.array([t])
        t = locate_sign_change(lambda tt, yy: yy[0] - 1.0, 0.0, 2.0, interp, 1e-10)
        assert abs(t - 1.0) <= 1e-10

    def test_given_end_values_are_not_evaluated_again(self):
        f, probes = recording(math.cos)
        t = locate_sign_change(f, 1.0, 2.0, identity, 1e-10, math.cos(1.0), math.cos(2.0))
        assert abs(t - math.pi / 2) <= 1e-10
        assert all(1.0 < p < 2.0 for p, _ in probes)

    def test_integrate_passes_the_bracket_ends(self):
        # a crossing inside one step: the locator only probes inside it
        probes = []

        def mon(t, y):
            probes.append(t)
            return y[0] - 1.0

        traj = integrate(
            constant_field([1.0]), [0.0], IntegratorConfig(t_max=2.0, initial_step=0.3),
            [Monitor("crossing", mon)],
        )
        (event,) = traj.events
        t_lo = traj.t[traj.t < event.t][-1]
        t_hi = traj.t[traj.t > event.t][0]
        inside = [t for t in probes if t_lo < t < t_hi]
        assert len(probes) == len(traj.t) + len(inside)

    def test_no_bracket(self):
        interp = lambda t: np.array([t])
        with pytest.raises(NoBracketError):
            locate_sign_change(lambda tt, yy: yy[0] + 5.0, 0.0, 2.0, interp, 1e-10)

    def test_tightening_tolerance_refines(self):
        interp = lambda t: np.array([np.cos(t)])
        f = lambda tt, yy: yy[0]
        coarse = locate_sign_change(f, 1.0, 2.0, interp, 1e-6)
        fine = locate_sign_change(f, 1.0, 2.0, interp, 1e-7)
        assert abs(fine - coarse) < 1e-6
        assert abs(fine - np.pi / 2) <= 1e-7

    def test_smooth_root_in_few_probes(self):
        # bisection from width 1 down to 1e-10 takes 34 halvings plus the ends
        f, probes = recording(math.cos)
        t = locate_sign_change(f, 1.0, 2.0, identity, 1e-10)
        assert abs(t - math.pi / 2) <= 1e-10
        assert len(probes) <= 12

    def test_one_ulp_bracket_does_not_stall(self):
        # near 6e5 one ulp (1.16e-10) exceeds event_tol, so no bracket can be
        # event_tol wide; the search ends when no float lies inside it
        root = 6e5 + 0.3712345
        f, probes = recording(lambda x: x - root)
        t = locate_sign_change(f, 6e5, 6e5 + 1.0, identity, 1e-10)
        assert math.ulp(root) > 1e-10
        assert abs(t - root) <= math.ulp(root)
        assert len(probes) <= 15

    def test_kinked_functional(self):
        # signed distance into the unit box along a line that leaves it near
        # the corner (1, 1), as the portrait's window monitor sees it
        def depth(s):
            phi, psi = 0.5 + s, 0.5 + 0.999 * s
            return min(phi, 1.0 - phi, psi, 1.0 - psi)

        f, probes = recording(depth)
        t = locate_sign_change(f, 0.0, 1.0, identity, 1e-10)
        assert abs(t - 0.5) <= 1e-10
        assert brackets_within(t, probes, 1e-10)

    @given(
        roots=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
        scale=st.sampled_from([-3.0, -1e-3, 1e-3, 3.0]),
        lo=st.floats(min_value=-3.0, max_value=0.0),
        hi=st.floats(min_value=0.0, max_value=3.0),
        event_tol=st.sampled_from([1e-6, 1e-10, 1e-14]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cubic_sign_change_within_tolerance(self, roots, scale, lo, hi, event_tol):
        r1, r2, r3 = roots
        f, probes = recording(lambda x: scale * (x - r1) * (x - r2) * (x - r3))
        assume(f(lo, identity(lo)) * f(hi, identity(hi)) < 0.0)
        t = locate_sign_change(f, lo, hi, identity, event_tol)
        assert lo <= t <= hi
        assert brackets_within(t, probes, event_tol)

    def test_agrees_with_brentq_on_a_step(self):
        optimize = pytest.importorskip("scipy.optimize")
        rhs = field_reparam(2)
        r1 = lambda t, y: _phase_ricci_values(2, y[0], y[1])[0]
        traj = integrate(rhs, [4.0, -1e-3], IntegratorConfig(t_max=1e6), [Monitor("r1", r1)])
        (event,) = traj.events
        k = int(np.searchsorted(traj.t, event.t))
        t0, t1 = traj.t[k - 1], traj.t[k]
        y0 = traj.y[k - 1]
        interp = _substep_evaluator(rhs, t0, y0, rhs(t0, y0), t1, traj.y[k])

        t = locate_sign_change(r1, t0, t1, interp, 1e-10)
        reference = optimize.brentq(lambda tt: r1(tt, interp(tt)), t0, t1, xtol=1e-13)
        assert t == event.t
        assert abs(t - reference) <= 1e-10

    def test_in_step_probe_makes_five_rhs_calls(self):
        # the 5th-order update needs stages 2 to 6; the 7th (FSAL) stage only
        # serves the error estimate and the next step
        calls = []
        field = field_reparam(2)

        def rhs(t, y):
            calls.append(t)
            return field(t, y)

        y0 = np.array([4.0, -1e-3])
        interp = _substep_evaluator(rhs, 0.0, y0, field(0.0, y0), 0.5, y0)
        y_mid = interp(0.25)
        assert len(calls) == 5
        assert type(y_mid) is np.ndarray and y_mid.shape == (2,)


class TestConservationAndInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_volume_constant_along_full_system(self, n):
        space = make_pn(n)
        x = 0.55 * submersion_fixed_points(n)[0]
        y0 = [x, x, x3_from_volume_one(n, x, x)]
        traj = integrate(field_full(space), y0, IntegratorConfig(t_max=50.0))
        assert traj.termination is Termination.REACHED_TMAX
        drift = max(abs(volume(space, Metric(*s)) - 1.0) for s in traj.y)
        assert drift < 1e-8

    def test_axis_is_invariant(self):
        traj = integrate(field_phase(2), [1.8, 0.0], IntegratorConfig(t_max=10.0))
        assert traj.termination is Termination.REACHED_TMAX
        assert np.abs(traj.y[:, 1]).max() < 1e-10

    def test_negative_psi_stays_negative(self):
        traj = integrate(field_phase(2), [4.0, -1e-3], IntegratorConfig(t_max=10.0))
        assert np.all(traj.y[:, 1] < 0)
        # the original-time system blows up in finite time; the run must
        # stop cleanly rather than return non-finite samples
        assert traj.termination in (
            Termination.STEP_UNDERFLOW,
            Termination.RANGE_EXCEEDED,
        )
        assert np.all(np.isfinite(traj.y))

    def test_tolerance_convergence(self):
        y0 = [4.0, -1e-3]
        cfg_a = IntegratorConfig(t_max=200.0, rel_tol=1e-10)
        cfg_b = IntegratorConfig(t_max=200.0, rel_tol=5e-11)
        end_a = integrate(field_reparam(2), y0, cfg_a).y[-1]
        end_b = integrate(field_reparam(2), y0, cfg_b).y[-1]
        rel = np.max(np.abs(end_a - end_b) / np.maximum(np.abs(end_a), 1e-30))
        assert rel < 10 * 1e-10


class TestFailureModes:
    def test_range_exceeded_stops_cleanly(self):
        def rhs(t, y):
            if y[0] > 2.0:
                raise RangeExceededError("guard")
            return np.array([1.0])

        traj = integrate(rhs, [0.0], IntegratorConfig(t_max=10.0))
        assert traj.termination is Termination.RANGE_EXCEEDED
        assert traj.y[-1, 0] <= 2.0

    def test_non_finite_rhs_surfaced(self):
        def rhs(t, y):
            return np.array([np.nan if y[0] > 2.0 else 1.0])

        traj = integrate(rhs, [0.0], IntegratorConfig(t_max=10.0))
        assert traj.termination is Termination.NON_FINITE
        assert np.all(np.isfinite(traj.y))

    def test_diagnostics_recorded_per_sample(self):
        diag = lambda t, y: {"double": 2.0 * y[0]}
        traj = integrate(constant_field([1.0]), [0.0], IntegratorConfig(t_max=1.0), diagnostics=diag)
        assert traj.diagnostics["double"] == pytest.approx(2.0 * traj.y[:, 0])
        assert traj.diagnostics["double"].shape == traj.t.shape


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5), written
# out independently of gwflow.integrate
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = np.zeros((7, 7))
DP_A[1, :1] = [1 / 5]
DP_A[2, :2] = [3 / 40, 9 / 40]
DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
DP_B = DP_A[6]


def coupled_field(dim):
    """A nonlinear field in which every component reads the next one."""

    def f(t, y):
        return np.array([math.cos(t + y[(i + 1) % dim]) - 0.3 * y[i] for i in range(dim)])

    return f


class TestFloatKernel:
    def test_callbacks_receive_ndarrays(self):
        seen = []

        def rhs(t, y):
            seen.append(("rhs", y))
            return np.array([1.0, -0.5 * y[1]])

        def mon(t, y):
            seen.append(("monitor", y))
            return y[0] - 0.55

        def stop(t, y):
            seen.append(("stop", y))
            return y[0] - 1.05

        def diag(t, y):
            seen.append(("diagnostics", y))
            return {"psi": y[1]}

        traj = integrate(
            rhs, [0.0, 1.0], IntegratorConfig(t_max=2.0, initial_step=0.1),
            [Monitor("half", mon), Monitor("end", stop, stop=True)], diag,
        )
        assert [ev.name for ev in traj.events] == ["half", "end"]
        assert {who for who, _ in seen} == {"rhs", "monitor", "stop", "diagnostics"}
        for who, y in seen:
            assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == (2,), who
        # every stage state is a fresh array
        stage_states = [y for who, y in seen if who == "rhs"]
        assert len({id(y) for y in stage_states}) == len(stage_states)
        assert type(traj.y) is np.ndarray and traj.y.shape == (len(traj), 2)
        assert type(traj.t) is np.ndarray
        for ev in traj.events:
            assert type(ev.state) is np.ndarray and ev.state.shape == (2,)
        assert all(type(v) is np.ndarray for v in traj.diagnostics.values())

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_step_matches_the_tableau(self, dim):
        f = coupled_field(dim)
        t0, h = 0.25, 0.1
        y0 = np.linspace(0.5, 1.5, dim)
        cfg = IntegratorConfig(t_max=1.0, initial_step=h, rel_tol=1e-3, abs_tol=1e-3, max_steps=1)
        traj = integrate(f, y0, cfg, t0=t0)
        assert traj.t[1] == t0 + h  # the first trial step was accepted

        k = np.zeros((7, dim))
        k[0] = f(t0, y0)
        for i in range(1, 7):
            k[i] = f(t0 + DP_C[i] * h, y0 + h * (DP_A[i, :i] @ k[:i]))
        expected = y0 + h * (DP_B @ k)
        assert np.all(np.abs(traj.y[1] - expected) <= 4 * np.spacing(np.abs(expected)))

    def test_rhs_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            integrate(lambda t, y: np.array([1.0]), [0.0, 0.0], IntegratorConfig(t_max=1.0))

    # the counts recorded for these runs in perfbench/reference.json
    @pytest.mark.parametrize("n,epsilon,steps", [(2, 1e-3, 107), (5, 1e-3, 113), (8, 1e-4, 93)])
    def test_experiment_step_counts_pinned(self, monkeypatch, n, epsilon, steps):
        runs = []

        def recorded(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(experiment, "integrate", recorded)
        run_theorem_experiment(ExperimentConfig(n=n, epsilon=epsilon, t_max=1e6))
        (traj,) = runs
        assert len(traj) - 1 == steps


def _result_forms(field):
    """``field`` wrapped to return its result as a tuple, a list, a fresh
    ndarray, one reused ndarray buffer and one reused list buffer."""
    array_buf, list_buf = np.empty(2), [0.0, 0.0]

    def reused_ndarray(t, y):
        array_buf[:] = field(t, y)
        return array_buf

    def reused_list(t, y):
        list_buf[:] = field(t, y)
        return list_buf

    return {
        "tuple": lambda t, y: tuple(field(t, y)),
        "list": lambda t, y: list(field(t, y)),
        "fresh ndarray": lambda t, y: np.array(field(t, y)),
        "reused ndarray": reused_ndarray,
        "reused list": reused_list,
    }


class TestResultForms:
    @pytest.mark.parametrize("form", list(_result_forms(None)))
    def test_every_result_form_gives_the_same_run(self, form):
        field = field_reparam(2)
        r1 = Monitor("r1", lambda t, y: _phase_ricci_values(2, y[0], y[1])[0])
        cfg = IntegratorConfig(t_max=1e6)
        ref = integrate(field, [4.0, -1e-3], cfg, [r1])
        run = integrate(_result_forms(field)[form], [4.0, -1e-3], cfg, [r1])
        assert len(ref.events) == 1
        assert run.t.tobytes() == ref.t.tobytes()
        assert run.y.tobytes() == ref.y.tobytes()
        assert [(ev.t, ev.state.tobytes()) for ev in run.events] == [
            (ev.t, ev.state.tobytes()) for ev in ref.events
        ]
