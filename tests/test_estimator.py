"""Tests for the deconvolution estimator, risk metrics and ball diagnostic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdeconv.errors import (
    DegenerateInputError,
    IllPosedError,
    NumericalError,
    ParameterError,
)
from fdeconv.estimator import (
    DEFAULT_GAMMA,
    LevelSelection,
    MeyerDeconvolver,
    RiskReport,
    ThresholdPolicy,
    besov_diagnostic,
    beta_tilde,
    epsilon_from_sigma,
    estimate,
    estimate_coefficients,
    finest_levels,
    lp_risk,
    mise,
    resolve_levels,
    threshold_lambda,
    validate_field,
)
from fdeconv.lrdnoise import LongMemoryParams, noise_sheet
from fdeconv.estimator import _deconvolved_rows
from fdeconv.meyer import forward_2d, inverse_2d, meyer_filter
from fdeconv.model import (
    SampledField,
    calibrate_sigma,
    convolve_columns,
    make_kernel,
    make_power_kernel,
    make_target,
    observe,
)


def identity_kernel(N):
    """Samples whose column transform is identically one (no blur)."""
    samples = np.zeros((N, N))
    samples[0, :] = N
    return samples


def band_limited_field(N, J1, J2, seed):
    """Random field supported on levels up to (J1, J2)."""
    rng = np.random.default_rng(seed)
    coeffs = forward_2d(rng.standard_normal((N, N)), J1=J1, J2=J2)
    return inverse_2d(coeffs, N).real


class TestValidateField:
    def test_accepts_sampled_field(self):
        values = np.eye(8)
        assert np.array_equal(validate_field(SampledField(values)), values)

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            validate_field(np.zeros((8, 4)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ParameterError):
            validate_field(np.zeros(8))

    def test_rejects_nan(self):
        bad = np.zeros((8, 8))
        bad[3, 5] = np.nan
        with pytest.raises(NumericalError):
            validate_field(bad)

    def test_rejects_inf(self):
        bad = np.zeros((8, 8))
        bad[0, 0] = np.inf
        with pytest.raises(NumericalError):
            validate_field(bad)


class TestEpsilonFromSigma:
    def test_white_noise_reduces_to_sigma_over_n(self):
        eps = epsilon_from_sigma(0.5, 256, LongMemoryParams(1.0, 1.0))
        assert eps == pytest.approx(0.5 / 256, rel=1e-14)

    def test_defining_identity(self):
        alpha = LongMemoryParams(0.8, 0.6)
        sigma, N = 0.02, 1024
        eps = epsilon_from_sigma(sigma, N, alpha)
        ab = alpha.alpha_bar
        assert eps ** (2 * ab) == pytest.approx(sigma**2 * N ** (-2 * ab), rel=1e-12)

    @given(
        sigma=st.floats(1e-4, 10.0),
        a1=st.floats(0.1, 1.0),
        a2=st.floats(0.1, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_identity_holds_across_parameters(self, sigma, a1, a2):
        alpha = LongMemoryParams(a1, a2)
        eps = epsilon_from_sigma(sigma, 512, alpha)
        ab = alpha.alpha_bar
        assert eps ** (2 * ab) == pytest.approx(sigma**2 * 512.0 ** (-2 * ab), rel=1e-9)

    def test_monotone_in_sigma(self):
        alpha = LongMemoryParams(0.4, 0.2)
        values = [epsilon_from_sigma(s, 256, alpha) for s in (0.01, 0.1, 1.0)]
        assert values[0] < values[1] < values[2]

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DegenerateInputError):
            epsilon_from_sigma(0.0, 256, LongMemoryParams(0.5, 0.5))


class TestThresholdLambda:
    def test_hand_computed_value(self):
        # gamma=2, eps=0.1, alpha=(0.8, 0.6): 2 * 0.1^0.7 * sqrt(ln 10)
        policy = ThresholdPolicy(2.0, 0.1, LongMemoryParams(0.8, 0.6), nu=0.5)
        assert threshold_lambda(policy, 0, 0) == pytest.approx(
            0.6055330333947179, rel=1e-14
        )

    def test_zero_gamma_gives_zero(self):
        policy = ThresholdPolicy(0.0, 0.3, LongMemoryParams(0.8, 0.6))
        assert threshold_lambda(policy, 4, 6) == 0.0

    def test_level_step_factors(self):
        policy = ThresholdPolicy(1.7, 0.05, LongMemoryParams(0.8, 0.6), nu=0.5)
        lam = threshold_lambda(policy, 3, 4)
        up1 = threshold_lambda(policy, 4, 4)
        up2 = threshold_lambda(policy, 3, 5)
        assert up1 / lam == pytest.approx(2 ** (0.5 * (2 * 0.5 + 0.8 - 1)), rel=1e-12)
        assert up2 / lam == pytest.approx(2 ** (0.5 * (0.6 - 1)), rel=1e-12)

    def test_threshold_decreases_in_x_level_for_weak_memory(self):
        policy = ThresholdPolicy(1.0, 0.05, LongMemoryParams(0.8, 0.6))
        assert threshold_lambda(policy, 2, 5) < threshold_lambda(policy, 2, 2)

    def test_policy_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError):
            ThresholdPolicy(1.0, 1.0, LongMemoryParams(0.5, 0.5))
        with pytest.raises(ParameterError):
            ThresholdPolicy(1.0, 0.0, LongMemoryParams(0.5, 0.5))

    def test_policy_rejects_negative_gamma_and_nu(self):
        with pytest.raises(ParameterError):
            ThresholdPolicy(-1.0, 0.1, LongMemoryParams(0.5, 0.5))
        with pytest.raises(ParameterError):
            ThresholdPolicy(1.0, 0.1, LongMemoryParams(0.5, 0.5), nu=-0.1)


class TestFinestLevels:
    def test_unit_memory_budget_ten(self):
        # eps^(2 ab) = 2^-10 with alpha = (1, 1): J2 = 10, J1 = 10 / (2 nu + 1)
        sel = finest_levels(2.0**-5, 1.0, LongMemoryParams(1.0, 1.0), 0.5, 4096)
        assert (sel.j2, sel.j2_raw, sel.j2_capped) == (10, 10.0, False)
        assert (sel.j1, sel.j1_raw, sel.j1_capped) == (5, 5.0, False)

    def test_smaller_alpha2_doubles_x_levels(self):
        # alpha = (1, 0.5), same eps^(2 ab) = 2^-10: J2_raw = 20, Nyquist-capped
        alpha = LongMemoryParams(1.0, 0.5)
        eps = 2.0 ** (-10 / (2 * alpha.alpha_bar))
        sel = finest_levels(eps, 1.0, alpha, 0.5, 4096)
        assert sel.j2_raw == pytest.approx(20.0, rel=1e-12)
        assert (sel.j2, sel.j2_capped) == (11, True)

    def test_budget_twelve_gives_j1_six(self):
        sel = finest_levels(2.0**-6, 1.0, LongMemoryParams(1.0, 1.0), 0.5, 4096)
        assert (sel.j1, sel.j1_raw) == (6, 6.0)

    def test_amplitude_enters_through_budget(self):
        alpha = LongMemoryParams(1.0, 1.0)
        base = finest_levels(2.0**-5, 1.0, alpha, 0.5, 2**14)
        wide = finest_levels(2.0**-5, 2.0, alpha, 0.5, 2**14)
        assert wide.j2_raw - base.j2_raw == pytest.approx(2.0, rel=1e-12)

    def test_fractional_budget_floors(self):
        sel = finest_levels(2.0**-5.3, 1.0, LongMemoryParams(1.0, 1.0), 0.5, 4096)
        assert sel.j2_raw == pytest.approx(10.6, rel=1e-12)
        assert sel.j2 == 10

    def test_near_one_epsilon_clamps_to_coarsest(self):
        sel = finest_levels(0.9, 1.0, LongMemoryParams(0.5, 0.5), 0.5, 256)
        assert (sel.j1, sel.j2) == (2, 2)
        assert sel.j1_capped and sel.j2_capped

    def test_tiny_epsilon_clamps_to_nyquist(self):
        sel = finest_levels(1e-9, 1.0, LongMemoryParams(0.8, 0.6), 0.5, 1024)
        assert (sel.j1, sel.j2) == (9, 9)
        assert sel.j1_capped and sel.j2_capped

    def test_rejects_bad_inputs(self):
        alpha = LongMemoryParams(0.5, 0.5)
        with pytest.raises(ParameterError):
            finest_levels(1.5, 1.0, alpha, 0.5, 256)
        with pytest.raises(ParameterError):
            finest_levels(0.1, 0.0, alpha, 0.5, 256)
        with pytest.raises(ParameterError):
            finest_levels(0.1, 1.0, alpha, 0.5, 100)


class TestEstimateNoiseless:
    def test_recovers_band_limited_field_through_blur(self):
        # x-dependent kernel, so this exercises the per-column division
        N = 64
        f = band_limited_field(N, 4, 4, seed=5)
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(f, kernel)
        policy = ThresholdPolicy(0.0, 0.01, LongMemoryParams(0.8, 0.6))
        levels = LevelSelection(4, 4, 4.0, 4.0)
        est, _ = estimate(q, kernel, policy, levels)
        assert np.max(np.abs(est.values - f)) < 1e-8

    def test_zero_observation_gives_zero_field(self):
        N = 32
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        policy = ThresholdPolicy(DEFAULT_GAMMA, 0.01, LongMemoryParams(0.8, 0.6))
        est, coeffs = estimate(np.zeros((N, N)), kernel, policy, LevelSelection(3, 3, 3.0, 3.0))
        assert np.all(est.values == 0)
        assert all(np.all(block == 0) for _, _, block in coeffs.blocks())

    def test_projection_when_threshold_is_zero(self):
        # sigma = 0 and lambda = 0 reduce the estimator to a level projection
        N = 64
        f = make_target("doppler", N).values
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(f, kernel)
        policy = ThresholdPolicy(0.0, 0.3, LongMemoryParams(0.5, 0.5))
        est, _ = estimate(q, kernel, policy, LevelSelection(3, 4, 3.0, 4.0))
        projected = inverse_2d(forward_2d(f, J1=3, J2=4), N).real
        assert np.max(np.abs(est.values - projected)) < 1e-8


class TestThresholdApplication:
    def coefficient_survives(self, value, gamma):
        """Plant one coefficient at block (3, 3) and report whether it survives."""
        N = 64
        policy = ThresholdPolicy(gamma, 0.1, LongMemoryParams(0.8, 0.6))
        coeffs = forward_2d(np.zeros((N, N)), J1=4, J2=4)
        coeffs.block(3, 3)[1, 2] = value
        field = inverse_2d(coeffs, N).real
        est, out = estimate(field, identity_kernel(N), policy, LevelSelection(4, 4, 4.0, 4.0))
        return abs(out.block(3, 3)[1, 2]) > 0

    def test_coefficient_just_below_threshold_is_killed(self):
        gamma = 2.0
        lam = threshold_lambda(
            ThresholdPolicy(gamma, 0.1, LongMemoryParams(0.8, 0.6)), 3, 3
        )
        assert not self.coefficient_survives(lam * (1 - 1e-9), gamma)

    def test_coefficient_just_above_threshold_survives(self):
        gamma = 2.0
        lam = threshold_lambda(
            ThresholdPolicy(gamma, 0.1, LongMemoryParams(0.8, 0.6)), 3, 3
        )
        assert self.coefficient_survives(lam * (1 + 1e-6), gamma)

    def test_scaling_block_is_never_thresholded(self):
        N = 64
        rng = np.random.default_rng(3)
        coeffs = forward_2d(np.zeros((N, N)), J1=4, J2=4)
        coeffs.block(2, 2)[:] = 1e-9 * rng.standard_normal((8, 8))
        field = inverse_2d(coeffs, N).real
        policy = ThresholdPolicy(1e6, 0.5, LongMemoryParams(0.8, 0.6))
        est, out = estimate(field, identity_kernel(N), policy, LevelSelection(4, 4, 4.0, 4.0))
        assert np.max(np.abs(est.values - field)) < 1e-12

    def test_mixed_scaling_blocks_are_thresholded(self):
        N = 64
        coeffs = forward_2d(np.zeros((N, N)), J1=4, J2=4)
        coeffs.block(2, 3)[0, 1] = 1e-9
        field = inverse_2d(coeffs, N).real
        policy = ThresholdPolicy(1e6, 0.5, LongMemoryParams(0.8, 0.6))
        est, out = estimate(field, identity_kernel(N), policy, LevelSelection(4, 4, 4.0, 4.0))
        assert np.all(out.block(2, 3) == 0)
        assert np.max(np.abs(est.values)) < 1e-12

    def test_huge_gamma_keeps_only_the_scaling_block(self):
        N = 64
        f = make_target("lidar", N).values
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(f, kernel)
        alpha = LongMemoryParams(0.8, 0.6)
        levels = LevelSelection(4, 4, 4.0, 4.0)
        est_big, coeffs_big = estimate(
            q, kernel, ThresholdPolicy(1e9, 0.1, alpha), levels
        )
        raw = forward_2d(f, J1=4, J2=4)
        for j1, j2, block in raw.blocks():
            if (j1, j2) != (2, 2):
                block[:] = 0.0
        expected = inverse_2d(raw, N).real
        assert np.max(np.abs(est_big.values - expected)) < 1e-8
        kept = [(j1, j2) for j1, j2, b in coeffs_big.blocks() if np.any(b != 0)]
        assert kept == [(2, 2)]


class TestIllPosed:
    def notch_kernel(self, N, dead_mode):
        """Blur whose stored column transform vanishes exactly at +-dead_mode."""
        from fdeconv.model import BlurKernel

        column = 0.5 * np.exp(-np.arange(N) / N)
        samples = np.tile(column[:, None], (1, N))
        fourier_t = np.fft.fft(samples, axis=0) / N
        fourier_t[dead_mode, :] = 0.0
        fourier_t[N - dead_mode, :] = 0.0
        return BlurKernel(
            samples=samples,
            fourier_t=fourier_t,
            nu_declared=0.5,
            nu_measured=1.0,
            c1=0.1,
            c2=1.0,
            periodization="grid",
            unit_mass=False,
        )

    def zero_mean_kernel(self, N):
        """Samples summing to exactly zero, so the DC mode divides by zero."""
        samples = np.zeros((N, N))
        samples[0, :] = 1.0
        samples[1, :] = -1.0
        return samples

    def test_zero_mode_on_needed_band_raises(self):
        N = 64
        kernel = self.notch_kernel(N, 20)
        policy = ThresholdPolicy(1.0, 0.1, LongMemoryParams(0.8, 0.6))
        # level-4 band reaches |m| < 64/3, which includes the dead mode
        with pytest.raises(IllPosedError, match="m=20"):
            estimate(np.ones((N, N)), kernel, policy, LevelSelection(4, 4, 4.0, 4.0))

    def test_zero_mode_outside_needed_band_is_harmless(self):
        N = 64
        kernel = self.notch_kernel(N, 20)
        policy = ThresholdPolicy(1.0, 0.1, LongMemoryParams(0.8, 0.6))
        est, _ = estimate(np.ones((N, N)), kernel, policy, LevelSelection(3, 3, 3.0, 3.0))
        assert np.all(np.isfinite(est.values))

    def test_zero_mean_samples_kill_the_dc_mode(self):
        N = 64
        policy = ThresholdPolicy(1.0, 0.1, LongMemoryParams(0.8, 0.6))
        with pytest.raises(IllPosedError, match="m=0"):
            estimate(
                np.ones((N, N)),
                self.zero_mean_kernel(N),
                policy,
                LevelSelection(3, 3, 3.0, 3.0),
            )

    @pytest.mark.parametrize("dead_bin, signed", [(20, 20), (64 - 20, -20), (64 - 1, -1)])
    def test_zero_on_either_half_of_the_spectrum_raises(self, dead_bin, signed):
        # The division builds negative rows from a real FFT by conjugate
        # symmetry; a zero of g on a negative row alone must still be caught.
        N = 64
        kernel = self.notch_kernel(N, 20)
        kernel.fourier_t[:] = np.fft.fft(kernel.samples, axis=0) / N
        kernel.fourier_t[dead_bin, 5] = 0.0
        policy = ThresholdPolicy(1.0, 0.1, LongMemoryParams(0.8, 0.6))
        with pytest.raises(IllPosedError, match=f"on 1 required .*m={signed}, column 5$"):
            estimate(np.ones((N, N)), kernel, policy, LevelSelection(4, 4, 4.0, 4.0))

    def test_beta_tilde_reports_dead_level(self):
        N = 64
        kernel = self.notch_kernel(N, 20)
        with pytest.raises(IllPosedError, match="level 4"):
            beta_tilde(np.ones((N, N)), kernel, 4, 0, 4, 0)


class TestBetaTilde:
    def test_matches_packed_transform_route(self):
        N = 64
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((N, N))
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        policy = ThresholdPolicy(0.0, 0.1, LongMemoryParams(0.8, 0.6))
        _, coeffs = estimate(Y, kernel, policy, LevelSelection(4, 4, 4.0, 4.0))
        for j1, k1, j2, k2 in [(3, 5, 3, 2), (2, 1, 4, 9), (4, 15, 2, 7)]:
            direct = beta_tilde(Y, kernel, j1, k1, j2, k2)
            packed = complex(coeffs.block(j1, j2)[k1, k2])
            assert direct == pytest.approx(packed, abs=1e-12)

    def test_zero_observation_gives_zero_coefficient(self):
        N = 32
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        assert beta_tilde(np.zeros((N, N)), kernel, 3, 1, 3, 2) == 0

    def test_noiseless_coefficients_match_truth(self):
        N = 64
        f = band_limited_field(N, 4, 4, seed=9)
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(f, kernel)
        truth = forward_2d(f, J1=4, J2=4)
        for j1, k1, j2, k2 in [(3, 0, 2, 4), (4, 15, 3, 6)]:
            est = beta_tilde(q, kernel, j1, k1, j2, k2)
            assert est == pytest.approx(complex(truth.block(j1, j2)[k1, k2]), abs=1e-8)


class TestDivisionRoutes:
    def test_column_division_equals_spectrum_division_for_x_free_blur(self):
        # with no x-dependence the per-column route and dividing the full
        # 2-d spectrum row-wise must coincide after projection
        N = 64
        rng = np.random.default_rng(23)
        Y = rng.standard_normal((N, N))
        column = 0.5 * np.exp(-np.arange(N) / N)
        kernel = np.tile(column[:, None], (1, N))
        policy = ThresholdPolicy(0.0, 0.1, LongMemoryParams(0.8, 0.6))
        est, _ = estimate(Y, kernel, policy, LevelSelection(4, 4, 4.0, 4.0))

        # blurring divides spectra by the normalized transform g~ = fft(g)/N
        g_t = np.fft.fft(column) / N
        divided = np.fft.ifft2(np.fft.fft2(Y) / g_t[:, None]).real
        expected = inverse_2d(forward_2d(divided, J1=4, J2=4), N).real
        assert np.max(np.abs(est.values - expected)) < 1e-10


class TestFusedPath:
    @pytest.mark.parametrize("N", [16, 64, 256, 1024])
    @pytest.mark.parametrize("m0", [1, 3])
    def test_divided_rows_are_the_window_support(self, N, m0):
        # The division fills two contiguous slices of rows; they must be
        # exactly the rows where some kept window is non-zero.
        Y = np.random.default_rng(N).standard_normal((N, N))
        filt = meyer_filter(N, m0)
        for J1 in filt.levels:
            needed = np.zeros(N, dtype=bool)
            for j in filt.levels_up_to(J1):
                needed |= np.abs(filt.window(j)) > 0
            D = _deconvolved_rows(Y, np.ones((N, N)), filt, J1)
            assert np.array_equal(np.any(D != 0, axis=1), needed), J1

    @pytest.mark.parametrize("kernel_name", ["grid", "circular", "power"])
    @pytest.mark.parametrize("levels", [(3, 4), (5, 2), (6, 6), None])
    def test_coefficients_match_an_independent_division(self, kernel_name, levels):
        N = 128
        if kernel_name == "power":
            kernel = make_power_kernel(N, 0.7)
        else:
            kernel = make_kernel(N, periodization=kernel_name, unit_mass=True)
        rng = np.random.default_rng(31)
        f = make_target("doppler", N).values
        Y = convolve_columns(f, kernel) + 0.05 * rng.standard_normal((N, N))
        policy = ThresholdPolicy(DEFAULT_GAMMA, 0.01, LongMemoryParams(0.8, 0.6))
        selection = None if levels is None else LevelSelection(*levels, *map(float, levels))
        coeffs = estimate_coefficients(Y, kernel, policy, selection)
        _, from_estimate = estimate(Y, kernel, policy, selection)
        assert np.array_equal(coeffs.values, from_estimate.values)

        divided = np.fft.ifft(np.fft.fft(Y, axis=0) / kernel.fourier_t, axis=0).real
        expected = forward_2d(divided, J1=coeffs.J1, J2=coeffs.J2)
        for j1, j2, block in expected.blocks():
            if (j1, j2) != (2, 2):
                block[np.abs(block) <= threshold_lambda(policy, j1, j2)] = 0.0
        assert np.max(np.abs(coeffs.values - expected.values)) <= 1e-12
        assert np.array_equal(coeffs.values != 0, expected.values != 0)


class TestRiskMetrics:
    def test_perfect_estimate_has_zero_risk(self):
        f = make_target("doppler", 64)
        report = mise(f, [f.values])
        assert report.mise == 0.0
        assert report.se == 0.0
        assert report.runs == 1

    def test_zero_estimate_of_unit_norm_truth(self):
        f = make_target("lidar", 128)
        report = mise(f, [np.zeros((128, 128))])
        assert report.mise == pytest.approx(1.0, rel=1e-12)

    def test_mean_and_standard_error_over_runs(self):
        truth = np.zeros((4, 4))
        runs = [np.full((4, 4), 1.0), np.full((4, 4), 3.0)]
        report = mise(truth, runs)
        assert report.per_run == (1.0, 9.0)
        assert report.mise == pytest.approx(5.0)
        assert report.se == pytest.approx(np.std([1.0, 9.0], ddof=1) / np.sqrt(2))

    def test_from_errors_is_the_reducer_mise_uses(self):
        truth = np.zeros((4, 4))
        runs = [np.full((4, 4), 1.0), np.full((4, 4), 3.0)]
        report = RiskReport.from_errors([1.0, 9.0], j1=3, j2=5)
        assert report == mise(truth, runs, j1=3, j2=5)
        assert (report.runs, report.j1, report.j2) == (2, 3, 5)
        assert RiskReport.from_errors([0.25]).se == 0.0
        with pytest.raises(ParameterError):
            RiskReport.from_errors([])

    def test_empty_run_list_rejected(self):
        with pytest.raises(ParameterError):
            mise(np.zeros((4, 4)), [])
        with pytest.raises(ParameterError):
            lp_risk(np.zeros((4, 4)), [], 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            mise(np.zeros((4, 4)), [np.zeros((8, 8))])

    def test_l1_risk_of_zero_estimate_is_mean_abs(self):
        f = make_target("doppler", 64)
        risk = lp_risk(f, [np.zeros((64, 64))], 1)
        assert risk == pytest.approx(np.mean(np.abs(f.values)), rel=1e-12)

    def test_p_two_recovers_mise(self):
        rng = np.random.default_rng(7)
        truth = rng.standard_normal((16, 16))
        runs = [rng.standard_normal((16, 16)) for _ in range(3)]
        assert lp_risk(truth, runs, 2) == pytest.approx(mise(truth, runs).mise, rel=1e-12)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ParameterError):
            lp_risk(np.zeros((4, 4)), [np.zeros((4, 4))], 0)


class TestResolveLevels:
    def test_fixed_levels_never_consult_the_level_rule(self):
        # epsilon = 0 is outside finest_levels' domain; fixed levels never need it
        levels = resolve_levels(0.0, LongMemoryParams(0.8, 0.6), 0.5, 64, j1=3, j2=5)
        assert levels == LevelSelection(3, 5, 3.0, 5.0, False, False)
        with pytest.raises(ParameterError, match="epsilon"):
            resolve_levels(0.0, LongMemoryParams(0.8, 0.6), 0.5, 64, j1=3)

    def test_fixed_levels_are_range_checked(self):
        alpha = LongMemoryParams(0.8, 0.6)
        with pytest.raises(ParameterError, match=r"j1 must lie in \[2, 5\] for N=64, got 6"):
            resolve_levels(0.01, alpha, 0.5, 64, j1=6, j2=3)
        with pytest.raises(ParameterError, match=r"j2 must lie in \[1, 5\] for N=64, got 0"):
            resolve_levels(0.01, alpha, 0.5, 64, j1=3, j2=0, m0=2)


class TestBesovDiagnostic:
    def test_zero_coefficients_need_no_amplitude(self):
        coeffs = forward_2d(np.zeros((64, 64)), J1=4, J2=4)
        assert besov_diagnostic(coeffs, 0.5, 0.5, 2, 2) == 0.0

    def test_single_scaling_coefficient_gives_its_magnitude(self):
        coeffs = forward_2d(np.zeros((64, 64)), J1=4, J2=4)
        coeffs.block(2, 2)[0, 0] = 0.7
        for p, pi in [(2, 2), (4, 1), (1.5, 3)]:
            assert besov_diagnostic(coeffs, 0.9, 0.4, p, pi) == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("pi", [1, 2])
    def test_one_coefficient_per_level_at_critical_decay(self, pi):
        # beta = 2^(-o1 s1 - o2 s2 - (o1 + o2)/2), one per block, calibrates A = 1
        s1, s2 = 0.6, 0.9
        coeffs = forward_2d(np.zeros((64, 64)), J1=5, J2=5)
        base = coeffs.m0 - 1
        for j1, j2, block in coeffs.blocks():
            o1, o2 = j1 - base, j2 - base
            block[0, 0] = 2.0 ** (-o1 * s1 - o2 * s2 - 0.5 * (o1 + o2))
        amplitude = besov_diagnostic(coeffs, s1, s2, 2, pi)
        assert 0.5 < amplitude < 2.0
        assert amplitude == pytest.approx(1.0, rel=1e-10)

    def test_rejects_bad_parameters(self):
        coeffs = forward_2d(np.zeros((32, 32)), J1=3, J2=3)
        with pytest.raises(ParameterError):
            besov_diagnostic(coeffs, 0.0, 0.5, 2, 2)
        with pytest.raises(ParameterError):
            besov_diagnostic(coeffs, 0.5, 0.5, 0.5, 2)


class TestMeyerDeconvolver:
    def noisy_case(self, N=64, seed=4):
        alpha = LongMemoryParams(0.8, 0.6)
        f = make_target("lidar", N)
        kernel = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(f.values, kernel)
        sigma = calibrate_sigma(q, 20.0)
        Y = observe(q, sigma, noise_sheet(alpha, N, seed=seed))
        return Y, kernel, sigma, alpha

    def test_get_params_lists_all_constructor_arguments(self):
        model = MeyerDeconvolver(gamma=1.5, sigma=0.1, alpha=(0.8, 0.6))
        params = model.get_params()
        assert params["gamma"] == 1.5
        assert params["sigma"] == 0.1
        assert set(params) == {
            "gamma", "nu", "alpha", "sigma", "epsilon", "amplitude", "j1", "j2", "m0",
        }

    def test_set_params_round_trip(self):
        model = MeyerDeconvolver()
        model.set_params(gamma=2.0, j1=4)
        assert model.get_params()["gamma"] == 2.0
        assert model.get_params()["j1"] == 4

    def test_set_params_rejects_unknown_names(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            MeyerDeconvolver().set_params(threshold=3.0)

    def test_matches_functional_pipeline_exactly(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        model = MeyerDeconvolver(alpha=alpha, sigma=sigma, j1=3, j2=4)
        out = model.fit(kernel).transform(Y)
        eps = epsilon_from_sigma(sigma, Y.values.shape[0], alpha)
        policy = ThresholdPolicy(DEFAULT_GAMMA, eps, alpha)
        est, _ = estimate(Y, kernel, policy, LevelSelection(3, 4, 3.0, 4.0))
        assert np.array_equal(out, est.values)

    def test_predict_is_transform(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        model = MeyerDeconvolver(alpha=alpha, sigma=sigma).fit(kernel)
        assert np.array_equal(model.predict(Y), model.transform(Y))

    def test_fit_transform_is_fit_then_transform(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        a = MeyerDeconvolver(alpha=alpha, sigma=sigma).fit_transform(kernel, Y)
        b = MeyerDeconvolver(alpha=alpha, sigma=sigma).fit(kernel).transform(Y)
        assert np.array_equal(a, b)

    def test_transform_before_fit_rejected(self):
        Y, _, sigma, alpha = self.noisy_case()
        with pytest.raises(ParameterError, match="not fitted"):
            MeyerDeconvolver(alpha=alpha, sigma=sigma).transform(Y)

    def test_needs_sigma_or_epsilon(self):
        Y, kernel, _, alpha = self.noisy_case()
        with pytest.raises(ParameterError, match="sigma or epsilon"):
            MeyerDeconvolver(alpha=alpha).fit(kernel).transform(Y)

    def test_explicit_epsilon_wins_over_sigma(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        model = MeyerDeconvolver(alpha=alpha, sigma=sigma, epsilon=0.01).fit(kernel)
        model.transform(Y)
        assert model.policy_.epsilon == 0.01

    def test_auto_levels_follow_the_level_rule(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        model = MeyerDeconvolver(alpha=alpha, sigma=sigma).fit(kernel)
        model.transform(Y)
        eps = epsilon_from_sigma(sigma, Y.values.shape[0], alpha)
        assert model.levels_ == finest_levels(eps, 1.0, alpha, 0.5, Y.values.shape[0])

    def test_level_overrides_are_validated(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        with pytest.raises(ParameterError, match="j1"):
            MeyerDeconvolver(alpha=alpha, sigma=sigma, j1=1).fit(kernel).transform(Y)
        with pytest.raises(ParameterError, match="j2"):
            MeyerDeconvolver(alpha=alpha, sigma=sigma, j2=6).fit(kernel).transform(Y)

    def test_fit_rejects_non_square_kernel_array(self):
        with pytest.raises(ParameterError):
            MeyerDeconvolver().fit(np.zeros((8, 4)))

    def test_exposes_fitted_state(self):
        Y, kernel, sigma, alpha = self.noisy_case()
        model = MeyerDeconvolver(alpha=alpha, sigma=sigma, j1=3, j2=3).fit(kernel)
        model.transform(Y)
        assert model.levels_.j1 == 3
        assert model.policy_.gamma == DEFAULT_GAMMA
        assert any(np.any(b != 0) for _, _, b in model.coefficients_.blocks())


class TestMonteCarloBehavior:
    """Slower statistical properties of the full estimation pipeline."""

    def run_mise(self, N, signal, snr_db, alpha_pair, gamma, runs, tag, levels=None):
        alpha = LongMemoryParams(*alpha_pair)
        f = make_target(signal, N)
        kernel = make_power_kernel(N, nu=0.5)
        q = convolve_columns(f.values, kernel)
        sigma = calibrate_sigma(q, snr_db)
        eps = epsilon_from_sigma(sigma, N, alpha)
        policy = ThresholdPolicy(gamma, eps, alpha, nu=0.5)
        if levels is None:
            levels = finest_levels(eps, 1.0, alpha, 0.5, N)
        errors = []
        for run in range(runs):
            sheet = noise_sheet(alpha, N, seed=np.random.SeedSequence([tag, run]))
            Y = observe(q, sigma, sheet)
            est, _ = estimate(Y, kernel, policy, levels)
            errors.append(float(np.mean((est.values - f.values) ** 2)))
        return float(np.mean(errors))

    def test_default_gamma_beats_no_and_infinite_thresholding(self):
        results = {
            gamma: self.run_mise(256, "lidar", 20.0, (0.8, 0.6), gamma, 50, tag=21)
            for gamma in (0.0, DEFAULT_GAMMA, 1000.0)
        }
        assert results[DEFAULT_GAMMA] <= results[0.0]
        assert results[DEFAULT_GAMMA] <= results[1000.0]

    def test_error_grows_as_memory_strengthens(self):
        chain = [(0.8, 0.6), (0.6, 0.4), (0.4, 0.2)]
        values = [
            self.run_mise(256, "lidar", 20.0, pair, DEFAULT_GAMMA, 20, tag=22)
            for pair in chain
        ]
        assert values[0] <= values[1] <= values[2]

    def test_memory_in_x_direction_hurts_more(self):
        low = self.run_mise(1024, "lidar", 10.0, (0.2, 0.8), DEFAULT_GAMMA, 20, tag=23)
        high = self.run_mise(1024, "lidar", 10.0, (0.8, 0.2), DEFAULT_GAMMA, 20, tag=23)
        assert low <= high
