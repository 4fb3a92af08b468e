import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwflow import (
    SYSTEMS,
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
from gwflow import ExperimentConfig, cli, experiment, run_theorem_experiment
from gwflow.integrate import EVENT_TOL, MIN_STEP, _adapted, _dopri_kernel, _substep_evaluator
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
        assert EVENT_TOL == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_max": -1.0},
            {"t_max": 1.0, "rel_tol": 0.0},
            {"t_max": 1.0, "abs_tol": -1e-3},
            {"t_max": 1.0, "max_steps": 0},
            {"t_max": 1.0, "max_step": math.nan},
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

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "initial_step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_tolerance_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            IntegratorConfig(t_max=1.0, **{name: value})

    @pytest.mark.parametrize("name", ["initial_step", "max_step"])
    @pytest.mark.parametrize("value", [1e-20, MIN_STEP / 2])
    def test_step_below_min_step_is_refused(self, name, value):
        # every run would end at t = 0 in step-size underflow
        with pytest.raises(ValueError, match=f"{name} must be at least 1e-14, got {value}"):
            IntegratorConfig(t_max=1.0, **{name: value})
        assert getattr(IntegratorConfig(t_max=1.0, **{name: MIN_STEP}), name) == MIN_STEP

    def test_t_max_below_min_step_runs(self):
        # a short horizon is the final step, not an underflow
        traj = integrate(field_phase(2), [2.0, 0.0], IntegratorConfig(t_max=1e-20))
        assert traj.termination is Termination.REACHED_TMAX
        assert traj.t.tolist() == [0.0, 1e-20]


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

    def test_sign_change_whose_product_underflows_is_located(self):
        # the product of the two values underflows to -0.0 below about 1e-162
        mons = [Monitor("tiny", lambda t, y: y[0] * 1e-200), Monitor("unit", lambda t, y: y[0])]
        traj = integrate(lambda t, y: (1.0,), (-1.0,), IntegratorConfig(t_max=2.0), mons)
        assert [ev.name for ev in traj.events] in (["tiny", "unit"], ["unit", "tiny"])
        tiny, unit = traj.first_event("tiny"), traj.first_event("unit")
        assert abs(tiny.t - unit.t) <= EVENT_TOL
        assert abs(unit.t - 1.0) <= EVENT_TOL

    def test_threshold_monitor_records_level(self):
        # a crossing of a level is the sign change of the functional minus it
        mon = Monitor("level", lambda t, y: y[0] - 5.0)
        traj = integrate(constant_field([2.0]), [0.0], IntegratorConfig(t_max=5.0), [mon])
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.name == "level"
        assert abs(ev.t - 2.5) <= 1e-10

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

    def test_bracket_whose_product_underflows(self):
        t = locate_sign_change(lambda t, y: (t - 0.5) * 1e-200, 0.0, 1.0, lambda t: (t,))
        assert abs(t - 0.5) <= EVENT_TOL

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
        t0, t1 = traj.t[k - 1].item(), traj.t[k].item()
        y0, y1 = tuple(traj.y[k - 1].tolist()), tuple(traj.y[k].tolist())
        interp = _substep_evaluator(rhs, t0, y0, rhs(t0, y0), t1, y1)

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

        y0 = (4.0, -1e-3)
        interp = _substep_evaluator(rhs, 0.0, y0, field(0.0, y0), 0.5, y0)
        y_mid = interp(0.25)
        assert len(calls) == 5
        assert type(y_mid) is tuple and [type(v) for v in y_mid] == [float, float]


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

    def test_non_finite_initial_rhs_is_refused(self):
        with pytest.raises(ValueError, match="non-finite at the initial point"):
            integrate(lambda t, y: (math.nan, 1.0), [0.0, 0.0], IntegratorConfig(t_max=1.0))

    @pytest.mark.parametrize("where", ["monitor", "diagnostics"])
    def test_range_exceeded_in_a_callback_ends_the_run(self, where):
        # a guarded evaluation in a monitor or in diagnostics ends the run
        # like one in the rhs: the samples before the step are kept
        def guarded(t, y):
            if y[0] > 2.0:
                raise RangeExceededError("guard")
            return y[0] - 10.0

        monitors = [Monitor("far", guarded)] if where == "monitor" else []
        diagnostics = (lambda t, y: {"v": guarded(t, y)}) if where == "diagnostics" else None
        cfg = IntegratorConfig(t_max=10.0, max_step=0.5)
        traj = integrate(constant_field([1.0]), [0.0], cfg, monitors, diagnostics)
        assert traj.termination is Termination.RANGE_EXCEEDED
        assert 1.5 <= traj.y[-1, 0] <= 2.0 and traj.events == []
        if diagnostics is not None:
            assert traj.diagnostics["v"].tolist() == (traj.y[:, 0] - 10.0).tolist()

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
DP_E = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]

# The comprehension-based step that gwflow.integrate's generated kernels
# replaced, kept as their bit-for-bit reference, with the tableau above.
_C2, _C3, _C4, _C5 = DP_C[1:5].tolist()
(_A21,) = DP_A[1, :1].tolist()
_A31, _A32 = DP_A[2, :2].tolist()
_A41, _A42, _A43 = DP_A[3, :3].tolist()
_A51, _A52, _A53, _A54 = DP_A[4, :4].tolist()
_A61, _A62, _A63, _A64, _A65 = DP_A[5, :5].tolist()
_B1, _, _B3, _B4, _B5, _B6 = DP_B[:6].tolist()
_E1, _, _E3, _E4, _E5, _E6, _E7 = DP_E


def _stage(rhs, t, y):
    k = rhs(t, np.array(y))
    return k if type(k) is tuple else np.asarray(k, dtype=float).tolist()


def reference_update(rhs, t, y, k1, h):
    """The 5th-order solution of a step of size ``h`` and the stages k3 to k6."""
    k2 = _stage(rhs, t + _C2 * h, [a + h * (_A21 * p) for a, p in zip(y, k1)])
    k3 = _stage(rhs, t + _C3 * h, [a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)])
    k4 = _stage(
        rhs, t + _C4 * h,
        [a + h * (_A41 * p + _A42 * q + _A43 * r) for a, p, q, r in zip(y, k1, k2, k3)],
    )
    k5 = _stage(
        rhs, t + _C5 * h,
        [
            a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)
        ],
    )
    k6 = _stage(
        rhs, t + h,
        [
            a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * s + _A65 * u)
            for a, p, q, r, s, u in zip(y, k1, k2, k3, k4, k5)
        ],
    )
    y_new = [
        a + h * (_B1 * p + _B3 * r + _B4 * s + _B5 * u + _B6 * v)
        for a, p, r, s, u, v in zip(y, k1, k3, k4, k5, k6)
    ]
    return y_new, k3, k4, k5, k6


def reference_step(rhs, t, y, k1, h, abs_tol, rel_tol):
    """One step: the 5th-order solution, the last (FSAL) stage, and the RMS
    error norm, or ``None`` where the solution or the error is not finite."""
    y_new, k3, k4, k5, k6 = reference_update(rhs, t, y, k1, h)
    k7 = _stage(rhs, t + h, y_new)
    err_vec = [
        h * (_E1 * p + _E3 * r + _E4 * s + _E5 * u + _E6 * v + _E7 * w)
        for p, r, s, u, v, w in zip(k1, k3, k4, k5, k6, k7)
    ]
    if not all(map(math.isfinite, y_new + err_vec)):
        return y_new, k7, None
    qs = [e / (abs_tol + rel_tol * max(abs(a), abs(b))) for e, a, b in zip(err_vec, y, y_new)]
    return y_new, k7, math.sqrt(sum([q * q for q in qs]) / len(y))


def coupled_field(dim):
    """A nonlinear field in which every component reads the next one."""

    def f(t, y):
        return np.array([math.cos(t + y[(i + 1) % dim]) - 0.3 * y[i] for i in range(dim)])

    return f


class TestFloatKernel:
    def test_callbacks_receive_float_tuples(self):
        # from a list initial, the rhs, the monitors and diagnostics all get
        # the kernel's tuple of floats: at every stage, accepted state,
        # in-step probe and the stop
        seen = []

        def rhs(t, y):
            seen.append(("rhs", t, y))
            return np.array([1.0, -0.5 * y[1]])

        def mon(t, y):
            seen.append(("monitor", t, y))
            return y[1] - 0.75  # crosses at t = 2 ln(4/3), off every step's end

        def stop(t, y):
            seen.append(("stop", t, y))
            return y[0] - 1.05

        def diag(t, y):
            seen.append(("diagnostics", t, y))
            return {"psi": y[1]}

        traj = integrate(
            rhs, [0.0, 1.0], IntegratorConfig(t_max=2.0, initial_step=0.1),
            [Monitor("half", mon), Monitor("end", stop, stop=True)], diag,
        )
        assert [ev.name for ev in traj.events] == ["half", "end"]
        assert traj.termination is Termination.EVENT_STOP
        assert {who for who, _, _ in seen} == {"rhs", "monitor", "stop", "diagnostics"}
        for who, _, y in seen:
            assert type(y) is tuple and [type(v) for v in y] == [float, float], who
        samples = set(traj.t.tolist())
        probes = [t for who, t, _ in seen if who in ("monitor", "stop") and t not in samples]
        assert probes  # Brent's in-step probes
        stop_t = traj.events[-1].t
        assert traj.t[-1] == stop_t
        assert [t for who, t, _ in seen if who == "diagnostics"] == traj.t.tolist()
        assert type(traj.y) is np.ndarray and traj.y.shape == (len(traj), 2)
        assert type(traj.t) is np.ndarray
        for ev in traj.events:
            assert type(ev.state) is np.ndarray and ev.state.shape == (2,)
        assert all(type(v) is np.ndarray for v in traj.diagnostics.values())

    @pytest.mark.parametrize(
        "result",
        [np.array, list, lambda v: [np.float64(x) for x in v],
         lambda v: tuple(np.float64(x) for x in v)],
        ids=["ndarray", "list", "list of float64", "tuple of float64"],
    )
    @pytest.mark.parametrize("initial", [[0.0, 1.0], (0.0, 1.0)], ids=["list", "tuple"])
    def test_stage_states_are_float_tuples(self, initial, result):
        # whatever the rhs returns, it is copied to floats before the next
        # stage, so event times are floats too
        seen = []

        def rhs(t, y):
            seen.append(y)
            return result([1.0, -0.5 * y[1]])

        half = Monitor("half", lambda t, y: y[1] - 0.75)
        traj = integrate(rhs, initial, IntegratorConfig(t_max=2.0, initial_step=0.1), [half])
        assert len(traj.events) == 1  # so in-step probes made stage calls too
        assert type(traj.events[0].t) is float
        assert len(seen) > 6 * (len(traj) - 1)
        for y in seen:
            assert type(y) is tuple and [type(v) for v in y] == [float, float]

    def test_ndarray_initial_gets_fresh_ndarray_stages(self):
        # perfbench's trivial-rhs case, whose -y needs an ndarray
        seen = []

        def rhs(t, y):
            seen.append(y)
            return -y

        traj = integrate(rhs, np.array([1.0, 1.0]), IntegratorConfig(t_max=2.0, max_step=1e-3))
        assert traj.termination is Termination.REACHED_TMAX
        assert np.all(np.abs(traj.y[-1] - math.exp(-2.0)) < 1e-12)
        assert len(seen) == 1 + 6 * (len(traj) - 1)
        for y in seen:
            assert type(y) is np.ndarray and y.dtype == np.float64 and y.shape == (2,)
        assert len({id(y) for y in seen}) == len(seen)

    def test_ndarray_initial_gets_ndarray_stages_in_step_probes_too(self):
        seen = []

        def rhs(t, y):
            seen.append(y)
            return -y

        fall = Monitor("fall", lambda t, y: y[0] - 0.5)
        traj = integrate(rhs, np.array([1.0]), IntegratorConfig(t_max=1.0), [fall])
        assert abs(traj.events[0].t - math.log(2.0)) < 1e-9
        assert len(seen) > 1 + 6 * (len(traj) - 1)
        assert all(type(y) is np.ndarray for y in seen)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_step_matches_the_tableau(self, dim):
        f = coupled_field(dim)
        t0, h = 0.25, 0.1
        y0 = np.linspace(0.5, 1.5, dim)
        cfg = IntegratorConfig(t_max=1.0, initial_step=h, rel_tol=1e-3, abs_tol=1e-3, max_steps=1)
        # integrate starts at t = 0: the field shifted by t0 runs f from t0
        traj = integrate(lambda t, y: f(t + t0, y), y0, cfg)
        assert traj.t[1] == h  # the first trial step was accepted

        k = np.zeros((7, dim))
        k[0] = f(t0, y0)
        for i in range(1, 7):
            k[i] = f(t0 + DP_C[i] * h, y0 + h * (DP_A[i, :i] @ k[:i]))
        expected = y0 + h * (DP_B @ k)
        assert np.all(np.abs(traj.y[1] - expected) <= 4 * np.spacing(np.abs(expected)))

    def test_rhs_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            integrate(lambda t, y: np.array([1.0]), [0.0, 0.0], IntegratorConfig(t_max=1.0))

    @pytest.mark.parametrize(
        "wrong", [(1.0,), [1.0], np.array([1.0, 0.5, 0.25]), (1.0, 0.5, 0.25)], ids=repr
    )
    def test_a_stage_of_the_wrong_length_fails_there(self, wrong):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return wrong if len(calls) == 3 else (1.0, -0.5 * y[1])

        with pytest.raises(ValueError, match="values to unpack"):
            integrate(rhs, [0.0, 1.0], IntegratorConfig(t_max=1.0))
        assert len(calls) == 3  # the initial call, stage 2, and the wrong stage 3

    def test_gwflow_callers_never_adapt_the_rhs(self, monkeypatch, tmp_path):
        # every gwflow field takes and returns tuples of floats, so no gwflow
        # run goes through the adapter
        def refused(rhs, arrays):
            raise AssertionError("rhs adapted")

        monkeypatch.setattr(importlib.import_module("gwflow.integrate"), "_adapted", refused)
        out = str(tmp_path / "out")
        starts = {"phi": "3.0", "psi": "-0.2", "x1": "1.1", "x2": "0.9", "x3": "1.0"}
        for name, system in SYSTEMS.items():
            state = [a for c in system.state for a in (f"--{c}", starts[c])]
            argv = ["flow", "--n", "3", "--system", name, *state, "--t-max", "0.1"]
            assert cli.main([*argv, "--output", out]) == 0, name
        assert cli.main(["experiment", "--n", "3", "--t-max", "1e4", "--output", out]) == 0
        assert cli.main(["portrait", "--n", "2", "--phi-range", "1:3", "--psi-range", "-1:1",
                         "--start", "2,0.2", "--output", out]) == 0
        assert cli.main(["check", "--n-max", "3"]) == 0

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


def _kernel_cases():
    """``(id, rhs, t0, y0, steps)`` for dimensions 1 to 4, each ``rhs`` as the
    kernel takes it: the coupled field, which returns an ndarray, adapted as
    ``integrate`` adapts it for an ndarray ``initial``, the coupled field
    returning a tuple of floats, and gwflow's vector fields."""
    cases = []
    for dim in range(1, 5):
        f = coupled_field(dim)
        y0 = np.linspace(0.5, 1.5, dim)
        cases.append((f"coupled-{dim}", _adapted(f, True), 0.25, y0, (1e-3, 0.1, 0.7, 3.0)))
        cases.append((f"coupled-tuple-{dim}", lambda t, y, f=f: tuple(f(t, y).tolist()), 0.25, y0,
                      (0.1, 3.0)))
        blow_up = lambda t, y: tuple(v * v for v in np.asarray(y).tolist())  # noqa: E731
        cases.append((f"blow-up-{dim}", blow_up, 0.0, np.full(dim, 1e100), (1.0,)))
    starts = {"phi": 3.0, "psi": -0.2, "x1": 1.1, "x2": 0.9, "x3": 1.0 / (1.1 * 0.9)}
    for name, system in SYSTEMS.items():
        for n in (2, 5):
            y0 = np.array([starts[c] for c in system.state])
            cases.append((f"{name}-{n}", system.field(n), 0.0, y0, (1e-4, 1e-3, 0.01)))
    return cases


_KERNEL_CASES = _kernel_cases()


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestGeneratedKernels:
    """The generated kernels against the comprehension-based reference step,
    bit for bit."""

    @pytest.mark.parametrize("case", _KERNEL_CASES, ids=[c[0] for c in _KERNEL_CASES])
    def test_step_matches_the_reference(self, case):
        _, rhs, t0, y0, steps = case
        y, k1 = tuple(y0.tolist()), np.asarray(rhs(t0, y0), dtype=float).tolist()
        step = _dopri_kernel(len(y))
        for h in steps:
            for abs_tol, rel_tol in ((1e-12, 1e-10), (1e-6, 1e-3)):
                y_new, k7, err = step(rhs, t0, y, k1, h, abs_tol, rel_tol)
                ref_y, ref_k7, ref_err = reference_step(rhs, t0, y, k1, h, abs_tol, rel_tol)
                assert bits(y_new) == bits(ref_y)
                assert bits(k7) == bits(ref_k7)
                assert (err is None) == (ref_err is None)
                if err is not None:
                    assert bits(err) == bits(ref_err)

    @pytest.mark.parametrize("case", _KERNEL_CASES, ids=[c[0] for c in _KERNEL_CASES])
    def test_in_step_states_match_the_reference(self, case):
        _, rhs, t0, y0, steps = case
        y, f0 = tuple(y0.tolist()), np.asarray(rhs(t0, y0), dtype=float).tolist()
        for h in steps:
            interp = _substep_evaluator(rhs, t0, y, f0, t0 + h, y)
            for frac in (0.1, 0.37, 0.5, 0.999):
                t = t0 + frac * h
                assert bits(interp(t)) == bits(reference_update(rhs, t0, y, f0, t - t0)[0])

    def test_kernel_source_is_shown(self):
        source = inspect.getsource(_dopri_kernel(2))
        assert source.startswith("def dopri5_dim2(")
        assert "sum([q0 * q0, q1 * q1])" in source
        assert "k7 = rhs(t + h, z)" in source
        # one form: the stages are unpacked as rhs returns them
        for other_form in ("floats(", "type(k", "array("):
            assert other_form not in source
        assert _dopri_kernel(2) is _dopri_kernel(2)


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
