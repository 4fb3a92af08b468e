import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwflow import (
    SYSTEMS,
    InadmissibleStateError,
    IntegratorConfig,
    Metric,
    PhasePoint,
    RangeExceededError,
    ReparamInvalidError,
    field_reparam,
    from_phase,
    integrate,
    make_pn,
    rhs_full,
    rhs_phase,
    rhs_reduced_x,
    rhs_reparam,
    rhs_submersion,
    ricci_coefficients,
    submersion_fixed_points,
    x3_from_volume_one,
)
from gwflow import flows

scales = st.floats(min_value=0.2, max_value=5.0)
small_n = st.integers(min_value=2, max_value=6)


def grid_points():
    for phi in (1.2, 2.0, 3.0, 4.5):
        for u in (-0.8, -0.4, 0.0, 0.3, 0.7):
            yield phi, u * phi


@pytest.mark.parametrize(
    "rhs,state",
    [(lambda *x: rhs_full(make_pn(2), *x), (1.0, 0.0, 1.0)),
     (lambda *x: rhs_full(make_pn(2), *x), (1.0, 1.0, -2.0)),
     (lambda *x: rhs_reduced_x(2, *x), (-1.0, 1.0)),
     (lambda *x: rhs_reduced_x(2, *x), (1.0, 0.0)),
     (lambda *x: rhs_submersion(2, *x), (0.0,)),
     (lambda *x: rhs_submersion(2, *x), (-1.0,))],
    ids=["full-x2", "full-x3", "reduced-x1", "reduced-x2", "submersion-0", "submersion-neg"],
)
def test_state_off_the_domain_is_inadmissible(rhs, state):
    # the integrator retries such a trial stage with a smaller step
    with pytest.raises(InadmissibleStateError):
        rhs(*state)


def _refusal(call):
    """The type and message of the guard's refusal, or None if ``call`` runs."""
    try:
        call()
    except (InadmissibleStateError, RangeExceededError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [2, 41, 300])
def test_submersion_refuses_as_rhs_phase_refuses_on_the_axis(n):
    c = flows._pn(n)
    for phi in (0.0, -1.0, math.nan):
        assert _refusal(lambda: rhs_submersion(n, phi)) == _refusal(lambda: rhs_phase(n, phi, 0.0))
        assert _refusal(lambda: rhs_submersion(n, phi)) is not None
    for edge in (math.sqrt(c.lo), math.sqrt(c.hi)):
        refused = []
        for phi in (math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            got = _refusal(lambda: rhs_submersion(n, phi))
            assert got == _refusal(lambda: rhs_phase(n, phi, 0.0)), phi
            refused.append(got is not None)
        # one ulp either side of the edge lies on either side of the guard
        assert sorted(refused) == [False, True]


class TestFullSystem:
    def test_einstein_point_is_stationary(self):
        assert rhs_full(make_pn(2), 1.0, 1.0, 1.0) == (0.0, 0.0, 0.0)

    def test_p3_normal_metric_moves(self):
        # r = (0.45, 0.45, 0.40), S = 8.8, so dx = (-0.02, -0.02, +0.08)
        dx = rhs_full(make_pn(3), 1.0, 1.0, 1.0)
        assert dx == pytest.approx((-0.02, -0.02, 0.08), rel=1e-12)

    @given(n=small_n, x1=scales, x2=scales, x3=scales)
    @settings(max_examples=80, deadline=None)
    def test_volume_conservation_in_differential_form(self, n, x1, x2, x3):
        space = make_pn(n)
        dx = rhs_full(space, x1, x2, x3)
        div = sum(d / (a * x) for d, a, x in zip(dx, space.coefficients, (x1, x2, x3)))
        scale = sum(abs(d / (a * x)) for d, a, x in zip(dx, space.coefficients, (x1, x2, x3)))
        assert abs(div) <= 1e-12 * max(1.0, scale)

    def test_guard_on_extreme_scale(self):
        with pytest.raises(RangeExceededError):
            rhs_full(make_pn(2), 1e141, 1.0, 1.0)

    @pytest.mark.parametrize("n", [2, 100, 503, 1000])
    def test_finite_on_the_corners_of_the_guard_box(self, n):
        # a bound of 1e140 let (1e140, 1e-140, 1e-140) through, which gives nan
        big = flows._X_LIMIT
        space = make_pn(n)
        for xs in itertools.product((1.0 / big, 1.0, big), repeat=3):
            assert all(map(math.isfinite, rhs_full(space, *xs))), xs
        for xs in ((math.nextafter(big, math.inf), 1.0, 1.0), (1.0, 1.0, 0.99 / big)):
            with pytest.raises(RangeExceededError):
                rhs_full(space, *xs)


class TestReducedSystem:
    def test_einstein_point(self):
        assert rhs_reduced_x(2, 1.0, 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_full_system_on_slice(self, n):
        space = make_pn(n)
        for phi, psi in grid_points():
            x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
            x3 = x3_from_volume_one(n, x1, x2)
            want = rhs_full(space, x1, x2, x3)[:2]
            got = rhs_reduced_x(n, x1, x2)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    @given(n=small_n, x1=scales, x2=scales)
    @settings(max_examples=80, deadline=None)
    def test_swap_symmetry(self, n, x1, x2):
        d12 = rhs_reduced_x(n, x1, x2)
        d21 = rhs_reduced_x(n, x2, x1)
        assert d12 == (d21[1], d21[0])

    def test_guard(self):
        with pytest.raises(RangeExceededError):
            rhs_reduced_x(2, 1e80, 1e80)
        with pytest.raises(RangeExceededError):  # x1**2 overflows: a float ** would raise
            rhs_reduced_x(505, 1e200, 1.0)

    @pytest.mark.parametrize("n", sorted({*range(2, 504, 9), 3, 4, 5, 6, 503, 600, 1000}))
    def test_no_nan_just_inside_the_guard(self, n):
        # the lower bound on x1*x2 that keeps (x1*x2)**n in range alone lets
        # x_i / (x1*x2)**n overflow for n <= 6: (2, 1e70, 1e-210) gives nan
        for x1, x2 in _reduced_guard_edge_points(n):
            try:
                values = rhs_reduced_x(n, x1, x2)
            except RangeExceededError:
                continue
            assert all(map(math.isfinite, values)), (n, x1, x2, values)


def _reduced_guard_edge_points(n):
    """Points just inside rhs_reduced_x's guard at ``n``: ``x_i**2`` just
    below its upper bound, and ``x1*x2`` just above its lower bound, for a
    spread of ``x1``, and both factors swapped."""
    lo, hi = flows._reduced_bounds(n)
    x_hi = math.sqrt(hi)
    while x_hi * x_hi > hi:
        x_hi = math.nextafter(x_hi, 0.0)
    points = [(x_hi, x_hi)]
    for x1 in np.geomspace(lo / x_hi, x_hi, 13).tolist():
        x2 = lo / x1
        for _ in range(3):  # the smallest x2 with x1 * x2 >= lo
            if x1 * x2 < lo:
                x2 = math.nextafter(x2, math.inf)
        for y in (x2, math.nextafter(x2, math.inf), x_hi):
            points += [(x1, y), (y, x1)]
    return points


class TestPhaseSystem:
    def test_einstein_point(self):
        dphi, dpsi = rhs_phase(2, 2.0, 0.0)
        assert dphi == pytest.approx(0.0, abs=1e-15)
        assert dpsi == 0.0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_axis_reduces_to_submersion_speed(self, n):
        for phi in (1.0, 1.5, 2.5, 4.0, 8.0):
            dphi, dpsi = rhs_phase(n, phi, 0.0)
            assert dpsi == 0.0
            assert dphi == pytest.approx(rhs_submersion(n, phi), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_rule_against_reduced_system(self, n):
        for phi, psi in grid_points():
            x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
            dx1, dx2 = rhs_reduced_x(n, x1, x2)
            dphi, dpsi = rhs_phase(n, phi, psi)
            assert dphi == pytest.approx(dx1 + dx2, rel=1e-10, abs=1e-12)
            assert dpsi == pytest.approx(dx1 - dx2, rel=1e-10, abs=1e-12)

    @given(n=small_n, phi=st.floats(min_value=0.6, max_value=6.0),
           u=st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=80, deadline=None)
    def test_parity(self, n, phi, u):
        psi = u * phi
        dphi_p, dpsi_p = rhs_phase(n, phi, psi)
        dphi_m, dpsi_m = rhs_phase(n, phi, -psi)
        assert dphi_p == dphi_m
        assert dpsi_p == -dpsi_m

    def test_axis_is_invariant_exactly(self):
        for n in (2, 3, 5):
            for phi in (1.1, 3.3, 7.7):
                assert rhs_phase(n, phi, 0.0)[1] == 0.0

    def test_inadmissible_point_rejected(self):
        with pytest.raises(ValueError):
            rhs_phase(2, 1.0, 2.0)

    def test_range_guard_large_phi(self):
        with pytest.raises(RangeExceededError):
            rhs_phase(2, 1e80, 0.0)

    def test_range_guard_near_boundary(self):
        # (phi^2 - psi^2)^n underflows for n = 7 once phi^2 - psi^2 < 1e-40
        with pytest.raises(RangeExceededError):
            rhs_phase(7, 1e-21, 0.0)


class TestSubmersionEquation:
    def test_einstein_radius(self):
        assert rhs_submersion(2, 2.0) == 0.0

    def test_hand_value(self):
        # (1/3) * (-2 + 12 + 1/16)
        assert rhs_submersion(2, 4.0) == pytest.approx(10.0625 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fixed_points_are_roots(self, n):
        lo, hi = submersion_fixed_points(n)
        assert 0 < lo < hi
        assert rhs_submersion(n, lo) == pytest.approx(0.0, abs=1e-12)
        assert rhs_submersion(n, hi) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_speed_exceeds_one_beyond_bisected_threshold(self, n):
        # find the largest root of speed = 1 by bisection; beyond it the
        # positive power dominates and the speed keeps growing
        _, hi = submersion_fixed_points(n)
        lo = hi
        up = 2.0 * hi
        while rhs_submersion(n, up) <= 1.0:
            up *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + up)
            if rhs_submersion(n, mid) > 1.0:
                up = mid
            else:
                lo = mid
            if up - lo < 1e-12:
                break
        threshold = up
        for factor in (1.0, 1.5, 4.0, 32.0):
            assert rhs_submersion(n, threshold * factor) > 1.0


class TestReparam:
    def test_axis_gives_unit_speed_and_no_drift(self):
        dphi, dpsi = rhs_reparam(2, 4.0, 0.0)
        assert dphi == 1.0
        assert dpsi == 0.0

    def test_invalid_at_fixed_point(self):
        with pytest.raises(ReparamInvalidError):
            rhs_reparam(2, 2.0, 0.0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_late_time_slope_constant(self, n):
        # psi' * phi / psi approaches (-4n+5)/3 as phi grows
        phi, psi = 1e4, -1e-3
        _, dpsi = rhs_reparam(n, phi, psi)
        target = (-4 * n + 5) / 3.0
        assert dpsi * phi / psi == pytest.approx(target, rel=0.01)


class TestFixedPoints:
    def test_p2_values(self):
        lo, hi = submersion_fixed_points(2)
        assert hi == pytest.approx(2.0, rel=1e-14)
        assert lo == pytest.approx((8.0 / 3.0) ** (1.0 / 3.0), rel=1e-14)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            submersion_fixed_points(1)


def _phase_formula(n, phi, psi):
    # rhs_phase's formula with every constant written out in place
    p2 = phi * phi - psi * psi
    pow4 = 4.0 ** (n - 1)
    q = (n + 2) * (2 * n - 1)
    dphi = (
        -2.0
        + p2 ** (n - 2) / (pow4 * q) * (3 * phi ** 3 - (6 * n - 1) * phi * psi * psi)
        + 4.0 ** n * n * phi / (2 * q * p2 ** n)
        + (n - 1) / (2 * n - 1) * (4 * phi * phi / p2)
    )
    bracket = (
        p2 ** (n - 2) / (pow4 * q) * ((-4 * n + 5) * phi * phi - (2 * n + 1) * psi * psi)
        + 4.0 ** n * n / (2 * q * p2 ** n)
        + (n - 1) / (2 * n - 1) * (4 * phi / p2)
    )
    return dphi, psi * bracket


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


cone_points = st.lists(
    st.tuples(st.floats(min_value=0.3, max_value=20.0), st.floats(min_value=-0.95, max_value=0.95)),
    min_size=1,
    max_size=20,
)


class TestPerNConstants:
    @given(n=st.integers(min_value=2, max_value=12), points=cone_points)
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_the_formula_bit_for_bit(self, n, points):
        phi = np.array([p for p, _ in points])
        psi = phi * np.array([u for _, u in points])
        c = flows._pn(n)
        assert bits(flows._phase_values(c, phi, psi)) == bits(_phase_formula(n, phi, psi))
        for p, s in zip(phi.tolist(), psi.tolist()):
            assert bits(flows._phase_values(c, p, s)) == bits(_phase_formula(n, p, s))

    @pytest.mark.parametrize("bad", [1, 2.0, True])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_field_refuses_n_when_built(self, name, bad):
        SYSTEMS[name].field(2)
        with pytest.raises(ValueError, match=f"n must be an integer >= 2, got {bad!r}"):
            SYSTEMS[name].field(bad)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_non_integer_n_refused_after_a_call_with_2(self, bad):
        y = np.array([4.0, -1e-3])
        calls = [
            lambda n: rhs_phase(n, 2.5, 0.1),
            lambda n: rhs_reduced_x(n, 1.2, 0.8),
            lambda n: rhs_submersion(n, 2.5),
            lambda n: rhs_reparam(n, 4.0, -1e-3),
            lambda n: field_reparam(n)(0.0, y),
        ]
        for call in calls:
            call(2)
            with pytest.raises(ValueError, match="n must be an integer"):
                call(bad)


    @pytest.mark.parametrize("n", [504, 509, 512, 513, 600])
    def test_n_whose_constants_overflow_is_refused(self, n):
        # 4**(n-1) (n+2)(2n-1) is inf from n = 504, and 4.0**(n-1) raises from n = 513
        calls = [
            lambda: rhs_phase(n, 2.5, 0.1),
            lambda: rhs_submersion(n, 2.5),
            lambda: rhs_reparam(n, 4.0, -1e-3),
            lambda: SYSTEMS["submersion"].field(n),
            lambda: submersion_fixed_points(n),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"n={n} is too large"):
                call()

    def test_largest_n_has_finite_constants(self):
        assert all(map(np.isfinite, flows._pn(503)))

    @pytest.mark.parametrize("n", sorted({*range(2, 504, 9), 278, 300, 503}))
    def test_no_infinity_just_inside_the_guard(self, n):
        # under the old lower bound, the term c4 * phi / (q2 * p2**n) overflowed
        # at such points for every n from 46 on
        for phi, psi in _guard_edge_points(n):
            try:
                values = rhs_phase(n, phi, psi)
            except RangeExceededError:
                continue
            assert all(map(math.isfinite, values)), (n, phi, psi, values)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_lower_bound_unchanged_where_the_terms_stay_finite(self, n):
        assert flows._pn(n).lo == flows._phase_bounds(n)[0]


def _guard_edge_points(n):
    """Cone points just inside rhs_phase's guard at ``n``: ``phi**2`` just
    below its upper bound, and ``phi**2 - psi**2`` just above its lower bound
    (or as small as floats make it) for a spread of ``phi``."""
    c = flows._pn(n)
    phi_hi = math.sqrt(c.hi)
    while phi_hi * phi_hi > c.hi:
        phi_hi = math.nextafter(phi_hi, 0.0)
    phi_lo = math.sqrt(c.lo)
    while phi_lo * phi_lo < c.lo:
        phi_lo = math.nextafter(phi_lo, math.inf)
    points = [(phi_hi, u * phi_hi) for u in (0.0, 0.5, -0.99)] + [(phi_lo, 0.0)]
    for phi in sorted({1.5 * phi_lo, 1.0, 8 / 7, math.sqrt(phi_lo * phi_hi), phi_hi}):
        if not phi_lo <= phi <= phi_hi:
            continue
        # psi from the largest below phi down, and from p2 = lo up and down
        starts = (math.nextafter(phi, 0.0), math.sqrt(max(phi * phi - c.lo, 0.0)))
        for psi in starts:
            for k in range(-3, 4):
                s = psi
                for _ in range(abs(k)):
                    s = math.nextafter(s, math.copysign(math.inf, k))
                if 0.0 <= s < phi:
                    points += [(phi, s), (phi, -s)]
    return points


class TestVectorFields:
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_field_returns_a_tuple_of_floats(self, name):
        # for the integrator's tuple, a list and an ndarray alike, with the same bits
        n, phi, psi = 3, 2.5, -0.3
        x1, x2 = 0.5 * (phi + psi), 0.5 * (phi - psi)
        values = {"x1": x1, "x2": x2, "x3": x3_from_volume_one(n, x1, x2), "phi": phi, "psi": psi}
        system = SYSTEMS[name]
        state = [values[k] for k in system.state]
        outs = [system.field(n)(0.0, y) for y in (tuple(state), state, np.array(state))]
        for out in outs:
            assert type(out) is tuple and len(out) == len(system.state)
            assert all(type(v) is float for v in out)
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_list_and_ndarray_starts_give_the_same_trajectory(self, name, n):
        # a list start hands the field tuples, an ndarray start ndarrays
        starts = {"phi": 3.0, "psi": -0.2, "x1": 1.1, "x2": 0.9, "x3": 1.0 / (1.1 * 0.9)}
        y0 = [starts[k] for k in SYSTEMS[name].state]
        cfg = IntegratorConfig(t_max=0.5)
        runs = [integrate(SYSTEMS[name].field(n), y, cfg) for y in (y0, np.array(y0))]
        assert len(runs[0]) > 5
        assert runs[1].termination is runs[0].termination
        assert runs[1].t.tobytes() == runs[0].t.tobytes()
        assert runs[1].y.tobytes() == runs[0].y.tobytes()
