import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwflow import (
    GWSpace,
    Metric,
    PhasePoint,
    RicciSpectrum,
    from_phase,
    k_positive,
    kn,
    make_pn,
    negative_count,
    normalize_to_unit_volume,
    ricci_coefficients,
    ricci_phase,
    smallest_k_positive,
    to_phase,
    volume,
    x3_from_volume_one,
)
from gwflow import flows, spaces

positive_scales = st.floats(min_value=0.05, max_value=20.0)
small_n = st.integers(min_value=2, max_value=8)


def spectrum(r1, r2, r3, d1=4, d2=4, d3=4):
    return RicciSpectrum(r1, r2, r3, d1, d2, d3)


def term_magnitudes(space, x1, x2, x3):
    """Per eigenvalue, the sum of the absolute values of the terms that
    ``ricci_coefficients`` adds up: ``1/(2 x_i)`` and the three
    ``(a_i/2) x/(x x)`` quotients, all positive."""
    return [
        1 / (2 * xi) + 0.5 * a * (xi / (xj * xk) + xj / (xi * xk) + xk / (xi * xj))
        for a, (xi, xj, xk) in zip(
            space.coefficients, ((x1, x2, x3), (x2, x1, x3), (x3, x1, x2))
        )
    ]


class TestMakePn:
    def test_p2(self):
        s = make_pn(2)
        assert s.coefficients == (0.125, 0.125, 0.125)
        assert s.dims == (4, 4, 4)
        assert s.d == 12

    def test_p3(self):
        s = make_pn(3)
        assert s.coefficients == pytest.approx((0.1, 0.1, 0.2), rel=1e-15)
        assert s.dims == (8, 8, 4)
        assert s.d == 20

    @pytest.mark.parametrize("n", range(2, 12))
    def test_dimension_formula(self, n):
        assert make_pn(n).d == 8 * n - 4

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.0, "2"])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError):
            make_pn(bad)

    @pytest.mark.parametrize(
        "make",
        [make_pn, kn, lambda n: x3_from_volume_one(n, 0.7, 0.6), lambda n: PhasePoint(2.0, 0.1, n),
         flows._pn, flows._reduced_bounds],
        ids=["make_pn", "kn", "x3_from_volume_one", "PhasePoint", "_pn", "_reduced_bounds"],
    )
    @pytest.mark.parametrize(
        "n", [10**400, (int(sys.float_info.max) + 4) // 8 + 1], ids=["10**400", "dim-beyond-max"]
    )
    def test_n_beyond_the_float_range_is_refused_with_one_reason(self, make, n):
        # 8n - 4, the dimension of P_n, would not be a float; one check in
        # _require_n refuses such an n before any arithmetic can overflow
        with pytest.raises(ValueError, match=f"^n={n} is too large for a float$"):
            make(n)

    def test_largest_n_taken_as_a_float_is_admitted(self):
        n = (int(sys.float_info.max) + 4) // 8
        assert make_pn(n).d == 8 * n - 4

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_built_once_per_n(self, n):
        assert make_pn(n) is make_pn(n)
        with pytest.raises(ValueError):  # an equal float is not a cached int
            make_pn(float(n))


class TestKn:
    def test_values(self):
        assert kn(2) == 1
        assert kn(3) == 6
        assert kn(4) == 9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            kn(1)


class TestGWSpaceInvariants:
    def test_rejects_inconsistent_proportionality(self):
        with pytest.raises(ValueError, match="d_i \\* a_i"):
            GWSpace(0.125, 0.125, 0.125, 4, 4, 8)

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            GWSpace(0.0, 0.125, 0.125, 4, 4, 4)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            GWSpace(0.125, 0.125, 0.125, 4, 4, 0)


class TestRicciCoefficients:
    def test_p2_normal_metric(self):
        spec = ricci_coefficients(make_pn(2), Metric(1, 1, 1))
        assert spec.values == (0.4375, 0.4375, 0.4375)  # = 7/16 exactly
        assert spec.scalar == 12 * 0.4375

    def test_p3_normal_metric(self):
        spec = ricci_coefficients(make_pn(3), Metric(1, 1, 1))
        assert spec.values == pytest.approx((0.45, 0.45, 0.40), rel=1e-14)

    @pytest.mark.parametrize("c", [0.5, 2.0, 17.3])
    def test_p2_scaled_normal_metric(self, c):
        spec = ricci_coefficients(make_pn(2), Metric(c, c, c))
        assert spec.values == pytest.approx((0.4375 / c,) * 3, rel=1e-14)

    @given(n=small_n, x1=positive_scales, x2=positive_scales, x3=positive_scales,
           c=st.floats(min_value=0.1, max_value=10.0))
    # r2's terms, of size 9.8, cancel to 9.6e-4 here
    @example(n=7, x1=0.9, x2=0.05078125, x3=0.05, c=0.1015625)
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_degree_minus_one(self, n, x1, x2, x3, c):
        # Rounding the scaled scale factors and evaluating each side costs a
        # few roundings per term, each relative to the term, so the bound is
        # eps times the terms' total magnitude, times 16 (the largest ratio
        # seen over 3e5 random points is under 4); relative to an eigenvalue
        # whose terms cancel it can be far looser than 1e-12.
        space = make_pn(n)
        base = ricci_coefficients(space, Metric(x1, x2, x3))
        scaled = ricci_coefficients(space, Metric(c * x1, c * x2, c * x3))
        magnitudes = term_magnitudes(space, x1, x2, x3)
        for rb, rs, m in zip(base.values, scaled.values, magnitudes):
            assert abs(rs - rb / c) <= 16 * sys.float_info.epsilon * m / c

    @given(n=small_n, x1=positive_scales, x2=positive_scales, x3=positive_scales)
    @settings(max_examples=60, deadline=None)
    def test_index_swap_symmetry_is_exact(self, n, x1, x2, x3):
        space = make_pn(n)
        a = ricci_coefficients(space, Metric(x1, x2, x3))
        b = ricci_coefficients(space, Metric(x2, x1, x3))
        assert (a.r1, a.r2, a.r3) == (b.r2, b.r1, b.r3)

    def test_rejects_nonpositive_metric(self):
        with pytest.raises(ValueError):
            Metric(1.0, -1.0, 1.0)


class TestRicciSpectrumType:
    @given(r=st.tuples(*[st.floats(-1e6, 1e6)] * 3), d=st.tuples(*[st.integers(1, 40)] * 3))
    def test_scalar_is_the_weighted_sum(self, r, d):
        (r1, r2, r3), (d1, d2, d3) = r, d
        # in this order, bit for bit: the CSV ``S`` column prints these bits
        assert RicciSpectrum(r1, r2, r3, d1, d2, d3).scalar == d1 * r1 + d2 * r2 + d3 * r3

    def test_factory_scalar(self):
        s = spectrum(0.1, 0.2, 0.3)
        assert s.scalar == pytest.approx(4 * 0.1 + 4 * 0.2 + 4 * 0.3, rel=1e-15)
        assert s.d == 12


class TestVolume:
    def test_unit(self):
        assert volume(make_pn(2), Metric(1, 1, 1)) == 1.0

    def test_p2_doubled(self):
        # every exponent is 8, so V = 2**24
        assert volume(make_pn(2), Metric(2, 2, 2)) == pytest.approx(2 ** 24, rel=1e-12)

    def test_p3_balanced(self):
        assert volume(make_pn(3), Metric(2, 0.5, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_beyond_the_float_range_is_inf(self):
        # log V = 24 * ln(1e20), about 1105
        assert volume(make_pn(2), Metric(1e20, 1e20, 1e20)) == math.inf

    def test_finite_up_to_the_float_range(self):
        # log V = 709.5, just below the overflow of exp near 709.78
        x = math.exp(709.5 / 24)
        v = volume(make_pn(2), Metric(x, x, x))
        assert math.isfinite(v) and math.log(v) == pytest.approx(709.5, rel=1e-14)

    def test_no_overflow_at_large_scales(self):
        v = volume(make_pn(6), Metric(1e3, 1e3, 1.0))
        assert math.isfinite(math.log(v)) or v == math.inf  # log-space path

    def test_normalize_halves_doubled_metric(self):
        m = normalize_to_unit_volume(make_pn(2), Metric(2, 2, 2))
        assert m.xs == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)

    def test_normalize_fixes_unit_metric(self):
        m = normalize_to_unit_volume(make_pn(2), Metric(1, 1, 1))
        assert m.xs == pytest.approx((1.0, 1.0, 1.0), rel=1e-14)

    @given(n=small_n, x1=positive_scales, x2=positive_scales, x3=positive_scales)
    @settings(max_examples=60, deadline=None)
    def test_normalize_gives_unit_volume(self, n, x1, x2, x3):
        space = make_pn(n)
        m = normalize_to_unit_volume(space, Metric(x1, x2, x3))
        assert volume(space, m) == pytest.approx(1.0, rel=1e-10)


class TestVolumeOneSlice:
    def test_examples(self):
        assert x3_from_volume_one(3, 2, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert x3_from_volume_one(2, 2, 2) == pytest.approx(0.25, rel=1e-14)

    @given(n=small_n, x1=positive_scales, x2=positive_scales)
    @settings(max_examples=60, deadline=None)
    def test_completed_triple_has_unit_volume(self, n, x1, x2):
        x3 = x3_from_volume_one(n, x1, x2)
        assert volume(make_pn(n), Metric(x1, x2, x3)) == pytest.approx(1.0, rel=1e-10)


class TestPhaseCoordinates:
    def test_to_phase(self):
        p = to_phase(2, 3, 1)
        assert (p.phi, p.psi) == (4.0, 2.0)

    @pytest.mark.parametrize("x1,x2", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("chart", [x3_from_volume_one, to_phase])
    def test_non_positive_scale_factor_is_refused(self, chart, x1, x2):
        with pytest.raises(ValueError, match="x1, x2 must be positive"):
            chart(2, x1, x2)

    def test_from_phase(self):
        assert from_phase(PhasePoint(4.0, 2.0, 2)) == pytest.approx(
            (3.0, 1.0, 1.0 / 3.0), rel=1e-14
        )

    def test_inadmissible_point_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint(1.0, 1.5, 2)
        with pytest.raises(ValueError):
            PhasePoint(-1.0, 0.0, 2)

    @given(n=small_n, points=st.lists(
        st.tuples(st.floats(min_value=0.2, max_value=10.0),
                  st.floats(min_value=-0.95, max_value=0.95)),
        min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_chart_kernel_is_from_phase_bit_for_bit(self, n, points):
        # the unguarded chart gives from_phase's floats, whose x3 is
        # x3_from_volume_one's; on float64 arrays x1 and x2 keep every bit,
        # and x3 is numpy's power, which may round its last bit otherwise
        phi = np.array([p for p, _ in points])
        psi = phi * np.array([u for _, u in points])
        want = [from_phase(PhasePoint(p, s, n)) for p, s in zip(phi.tolist(), psi.tolist())]
        assert [spaces._chart_values(n, p, s) for p, s in zip(phi.tolist(), psi.tolist())] == want
        assert all(x3 == x3_from_volume_one(n, x1, x2) for x1, x2, x3 in want)
        x1, x2, x3 = spaces._chart_values(n, phi, psi)
        want_x1, want_x2, want_x3 = np.array(want).T
        assert x1.tobytes() == want_x1.tobytes() and x2.tobytes() == want_x2.tobytes()
        np.testing.assert_array_max_ulp(x3, want_x3, maxulp=1)

    @given(n=small_n, x1=positive_scales, x2=positive_scales)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, x1, x2):
        y1, y2, _ = from_phase(to_phase(n, x1, x2))
        assert y1 == pytest.approx(x1, rel=1e-14)
        assert y2 == pytest.approx(x2, rel=1e-14)


class TestRicciPhase:
    def test_matches_normal_metric(self):
        spec = ricci_phase(PhasePoint(2.0, 0.0, 2))
        assert spec.values == (0.4375, 0.4375, 0.4375)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_agrees_with_scale_factor_route(self, n):
        space = make_pn(n)
        for phi in (1.2, 2.0, 3.7, 5.0):
            for u in (-0.8, -0.3, 0.0, 0.45, 0.8):
                p = PhasePoint(phi, u * phi, n)
                got = ricci_phase(p).values
                want = ricci_coefficients(space, Metric(*from_phase(p))).values
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-14)

    @given(n=small_n, phi=st.floats(min_value=0.5, max_value=6.0),
           u=st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=80, deadline=None)
    def test_psi_reflection_swaps_r1_r2_exactly(self, n, phi, u):
        psi = u * phi
        a = ricci_phase(PhasePoint(phi, psi, n))
        b = ricci_phase(PhasePoint(phi, -psi, n))
        assert (a.r1, a.r2, a.r3) == (b.r2, b.r1, b.r3)


def reference_phase_ricci_values(n, phi, psi):
    """``spaces._phase_ricci_values`` with each power of ``p2`` written where
    it is used: ``p2 ** n`` and ``p2 ** (n - 2)`` are each evaluated twice."""
    p2 = phi * phi - psi * psi
    pow4 = 4.0 ** (n - 1)
    shared = -pow4 / ((n + 2) * p2 ** n)
    odd = phi * psi * p2 ** (n - 2) / (pow4 * (n + 2))
    r1 = 1.0 / (phi + psi) + odd + shared
    r2 = 1.0 / (phi - psi) - odd + shared
    r3 = (
        p2 ** (n - 1) / (2 * pow4)
        - (n - 1) * (phi * phi + psi * psi) * p2 ** (n - 2) / (2 * pow4 * (n + 2))
        + pow4 * (n - 1) / ((n + 2) * p2 ** n)
    )
    return r1, r2, r3


def _outcome(fn, *args):
    """The bytes of each value ``fn`` returns, or the type and text of what it raised."""
    try:
        values = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _phase_points(rng, size):
    """Seeded ``(phi, psi)``: admissible and not, with ``psi = ±phi`` and
    scales from 1e-200 to 1e200, where the powers underflow or overflow."""
    phi = np.exp(rng.uniform(-4.0, 4.0, size))
    psi = phi * rng.uniform(-1.2, 1.2, size)
    k = size // 8
    psi[:k] = phi[:k] * rng.choice([-1.0, 0.0, 1.0], k)
    scale = rng.choice([1e-200, 1e-20, 1e20, 1e200], k)
    phi[k:2 * k] *= scale
    psi[k:2 * k] *= scale
    return phi, psi


class TestPhaseRicciKernel:
    def test_scalars_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for n in range(2, 504):
            for phi, psi in zip(*(a.tolist() for a in _phase_points(rng, 24))):
                assert _outcome(spaces._phase_ricci_values, n, phi, psi) == _outcome(
                    reference_phase_ricci_values, n, phi, psi
                ), (n, phi, psi)

    @pytest.mark.parametrize("n", [2, 3, 6, 41, 300])
    def test_arrays_match_the_reference_bit_for_bit(self, n):
        phi, psi = _phase_points(np.random.default_rng(n), 4000)
        with np.errstate(all="ignore"):
            got = _outcome(spaces._phase_ricci_values, n, phi, psi)
            want = _outcome(reference_phase_ricci_values, n, phi, psi)
        assert got == want

    @pytest.mark.parametrize("n", [509, 512, 513, 600])
    def test_ricci_phase_refuses_an_n_whose_constants_overflow(self, n):
        # from 509 the kernel returned r3 = nan and r1, r2 without their
        # n-dependent terms; from 513 it raised a bare OverflowError
        with pytest.raises(ValueError, match=f"n={n} is too large"):
            ricci_phase(PhasePoint(2.0, 0.1, n))

    def test_ricci_phase_keeps_its_bits_at_the_largest_n(self):
        p = PhasePoint(2.0, 0.1, 508)
        got = ricci_phase(p).values
        assert got == reference_phase_ricci_values(508, 2.0, 0.1)
        want = ricci_coefficients(make_pn(508), Metric(*from_phase(p))).values
        assert got == pytest.approx(want, rel=1e-12)


class TestPositivity:
    def test_definitional_sums(self):
        s = spectrum(-0.1, -0.1, 1.0)
        assert k_positive(s, 8) is False  # sum of 8 smallest = -0.8
        assert k_positive(s, 12) is True  # total = 3.2

    def test_all_positive(self):
        s = spectrum(0.3, 0.1, 0.2)
        assert all(k_positive(s, k) for k in range(1, 13))
        assert negative_count(s) == 0
        assert smallest_k_positive(s) == 1

    def test_negative_count_uses_multiplicity(self):
        assert negative_count(spectrum(-1.0, 0.5, -0.2)) == 8
        assert negative_count(spectrum(-1.0, 0.5, -0.2, d1=8, d2=8, d3=4)) == 12

    def test_negative_count_matches_the_sorted_block_count(self):
        rng = np.random.default_rng(24)
        pool = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                *rng.normal(size=9).tolist()]
        for _ in range(3000):
            r = [pool[i] for i in rng.integers(len(pool), size=3)]
            s = spectrum(*r, *rng.integers(1, 40, size=3).tolist())
            assert negative_count(s) == sum(d for v, d in spaces._sorted_blocks(s) if v < 0.0)

    def test_k_bounds_enforced(self):
        s = spectrum(1.0, 1.0, 1.0)
        for bad in (0, 13, -1):
            with pytest.raises(ValueError):
                k_positive(s, bad)

    def test_nonpositive_trace_has_no_k(self):
        assert smallest_k_positive(spectrum(-1.0, -1.0, 1.0)) is None  # trace -4

    @given(
        r1=st.floats(min_value=-5, max_value=5),
        r2=st.floats(min_value=-5, max_value=5),
        r3=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_k_positive_monotone_in_k(self, r1, r2, r3):
        s = spectrum(r1, r2, r3)
        flags = [k_positive(s, k) for k in range(1, s.d + 1)]
        # once true, stays true: no True followed by False
        assert flags == sorted(flags)

    @given(
        r1=st.floats(min_value=-5, max_value=5),
        r2=st.floats(min_value=-5, max_value=5),
        r3=st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    # the exact total is 0; adding the 12 eigenvalues one at a time gives 8.9e-16
    @example(r1=0.0, r2=2.999999999999999, r3=-2.999999999999999)
    def test_smallest_k_matches_scan(self, r1, r2, r3):
        s = spectrum(r1, r2, r3)
        expected = next((k for k in range(1, s.d + 1) if k_positive(s, k)), None)
        assert smallest_k_positive(s) == expected
