"""Tests for the forward model: signals, kernels, convolution, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdeconv.errors import DegenerateInputError, ParameterError
from fdeconv.meyer import forward_2d
from fdeconv.model import (
    BlurKernel,
    SampledField,
    calibrate_sigma,
    convolve_columns,
    make_kernel,
    make_power_kernel,
    make_target,
    make_test_signal,
    make_x_profile,
    observe,
    time_grid,
)
from fdeconv.lrdnoise import LongMemoryParams, noise_sheet


def convolve_direct(field, kernel_samples):
    """O(N^3) reference: q[i, l] = (1/N) sum_s f[s, l] g[(i - s) % N, l]."""
    N = field.shape[0]
    out = np.zeros_like(field)
    for l in range(N):
        for i in range(N):
            acc = 0.0
            for s in range(N):
                acc += field[s, l] * kernel_samples[(i - s) % N, l]
            out[i, l] = acc / N
    return out


class TestGridAndField:
    def test_time_grid_values(self):
        assert np.array_equal(time_grid(4), np.array([0.0, 0.25, 0.5, 0.75]))

    def test_time_grid_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            time_grid(0)

    def test_field_requires_square(self):
        with pytest.raises(ParameterError):
            SampledField(np.zeros((4, 5)))

    def test_field_norm_is_riemann(self):
        field = SampledField(np.full((8, 8), 3.0))
        assert field.norm() == pytest.approx(3.0, abs=1e-15)


class TestSignals:
    @pytest.mark.parametrize("name", ["lidar", "doppler"])
    def test_unit_norm(self, name):
        f = make_test_signal(name, 512)
        assert np.sqrt(np.mean(f**2)) == pytest.approx(1.0, abs=1e-12)

    def test_x_profile_unit_norm(self):
        p = make_x_profile(512)
        assert np.sqrt(np.mean(p**2)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="lidar"):
            make_test_signal("bumps", 64)

    def test_doppler_matches_formula(self):
        N = 256
        t = np.arange(N) / N
        raw = np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * 1.05 / (t + 0.05))
        raw = raw / np.sqrt(np.mean(raw**2))
        np.testing.assert_allclose(make_test_signal("doppler", N), raw, atol=1e-14)

    def test_lidar_is_pulse_train(self):
        f = make_test_signal("lidar", 1024)
        # piecewise constant: few distinct values, zero baseline included
        values = np.unique(f)
        assert len(values) <= 5
        assert values[0] == 0.0
        # a pulse train, not a single box: at least two separated pulses
        on = f > 0
        runs = np.diff(on.astype(int))
        assert (runs == 1).sum() >= 2

    def test_x_profile_matches_formula(self):
        N = 256
        x = np.arange(N) / N
        raw = np.exp(-np.abs(x - 0.5) * x**3)
        raw = raw / np.sqrt(np.mean(raw**2))
        np.testing.assert_allclose(make_x_profile(N), raw, atol=1e-14)

    def test_target_is_outer_product(self):
        N = 128
        target = make_target("doppler", N)
        expected = np.outer(make_test_signal("doppler", N), make_x_profile(N))
        np.testing.assert_allclose(target.values, expected, atol=1e-15)
        assert target.norm() == pytest.approx(1.0, abs=1e-12)

    def test_lidar_energy_is_reachable_at_level_five(self):
        # A 30 dB reconstruction error near 0.013 is only possible at
        # levels (5, 5) if the signal's own energy above those levels
        # leaves room for it, noise aside.
        target = make_target("lidar", 1024).values
        kept = forward_2d(target, J1=5, J2=5).energy()
        floor = np.mean(target**2) - kept
        assert floor < 0.02

    def test_doppler_floor_at_coarse_levels(self):
        target = make_target("doppler", 1024).values
        kept = forward_2d(target, J1=3, J2=5).energy()
        floor = np.mean(target**2) - kept
        assert 0.15 < floor < 0.40


class TestKernel:
    def test_value_at_origin_centre_column(self):
        # g(0, 1/2) = 0.5 exactly, on-grid for both periodizations
        for periodization in ("circular", "grid"):
            k = make_kernel(64, periodization=periodization)
            assert k.samples[0, 32] == pytest.approx(0.5, abs=1e-15)

    def test_grid_samples_match_formula(self):
        N = 64
        t = np.arange(N) / N
        x = np.arange(N) / N
        expected = 0.5 * np.exp(-np.outer(t, 1.0 + (x - 0.5) ** 2))
        k = make_kernel(N, periodization="grid")
        np.testing.assert_allclose(k.samples, expected, atol=1e-15)

    def test_circular_samples_symmetric(self):
        k = make_kernel(64, periodization="circular")
        # g(t) = g(1 - t) for t != 0 under the circular distance
        np.testing.assert_allclose(k.samples[1:], k.samples[1:][::-1], atol=1e-15)

    def test_unit_mass_exact(self):
        k = make_kernel(128, periodization="grid", unit_mass=True)
        assert np.mean(k.samples) == pytest.approx(1.0, abs=1e-12)

    def test_unit_mass_preserves_x_shape(self):
        raw = make_kernel(128, periodization="grid", unit_mass=False)
        scaled = make_kernel(128, periodization="grid", unit_mass=True)
        ratio = scaled.samples / raw.samples
        assert np.ptp(ratio) < 1e-12

    def test_measured_decay_grid(self):
        k = make_kernel(1024, periodization="grid")
        assert k.nu_measured == pytest.approx(1.0, abs=0.35)

    def test_measured_decay_circular(self):
        k = make_kernel(1024, periodization="circular")
        assert k.nu_measured == pytest.approx(2.0, abs=0.35)

    def test_fourier_t_is_normalized_fft(self):
        k = make_kernel(64, periodization="grid")
        np.testing.assert_allclose(
            k.fourier_t, np.fft.fft(k.samples, axis=0) / 64, atol=1e-15
        )

    def test_rejects_unknown_periodization(self):
        with pytest.raises(ParameterError):
            make_kernel(64, periodization="mirror")

    def test_power_kernel_spectrum_exact(self):
        N = 256
        nu = 0.5
        k = make_power_kernel(N, nu)
        m = np.arange(N)
        m[m >= N // 2] -= N
        expected = (1.0 + np.abs(m)) ** -nu
        np.testing.assert_allclose(np.abs(k.fourier_t[:, 0]), expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(k.fourier_t[:, 100]), expected, atol=1e-12)

    def test_power_kernel_sandwich_constants_tight(self):
        # |g~|^2 (1+|m|)^(2 nu) == 1 identically for the synthetic kernel
        k = make_power_kernel(128, 0.7)
        assert k.c1 == pytest.approx(1.0, abs=1e-10)
        assert k.c2 == pytest.approx(1.0, abs=1e-10)

    def test_power_kernel_rejects_negative_nu(self):
        with pytest.raises(ParameterError):
            make_power_kernel(64, -0.5)

    def test_sandwich_constants_ordered(self):
        k = make_kernel(256, periodization="grid", unit_mass=True)
        assert 0.0 < k.c1 <= k.c2


class TestConvolution:
    def test_constant_times_constant(self):
        N = 32
        out = convolve_columns(np.ones((N, N)), np.ones((N, N)))
        np.testing.assert_allclose(out, np.ones((N, N)), atol=1e-13)

    def test_scaled_delta_is_identity(self):
        N = 64
        rng = np.random.default_rng(7)
        f = rng.standard_normal((N, N))
        delta = np.zeros((N, N))
        delta[0, :] = N
        np.testing.assert_allclose(convolve_columns(f, delta), f, atol=1e-12)

    def test_matches_direct_sum(self):
        N = 32
        rng = np.random.default_rng(11)
        f = rng.standard_normal((N, N))
        k = make_kernel(N, periodization="grid", unit_mass=True)
        np.testing.assert_allclose(
            convolve_columns(f, k), convolve_direct(f, k.samples), atol=1e-10
        )

    def test_accepts_kernel_or_array(self):
        N = 32
        f = np.eye(N)
        k = make_kernel(N)
        np.testing.assert_allclose(
            convolve_columns(f, k), convolve_columns(f, k.samples), atol=1e-15
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            convolve_columns(np.ones((8, 8)), np.ones((16, 16)))

    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("kind", ["power", "grid", "circular"])
    def test_real_ffts_match_complex_reference(self, N, kind):
        """Real FFTs and the stored ``fourier_t`` give the complex-FFT product."""
        if kind == "power":
            k = make_power_kernel(N, 0.5)
        else:
            k = make_kernel(N, periodization=kind, unit_mass=True)
        f = make_target("doppler", N).values
        reference = np.fft.ifft(np.fft.fft(f, axis=0) * np.fft.fft(k.samples, axis=0), axis=0)
        reference = reference.real / N
        for kernel in (k, k.samples):
            out = convolve_columns(f, kernel)
            gap = np.linalg.norm(out - reference) / np.linalg.norm(reference)
            assert gap <= 1e-12


class TestCalibration:
    def test_twenty_db_of_unit_norm(self):
        q = np.full((16, 16), 1.0)
        assert calibrate_sigma(q, 20.0) == pytest.approx(0.1, abs=1e-15)

    def test_zero_signal_rejected(self):
        with pytest.raises(DegenerateInputError):
            calibrate_sigma(np.zeros((8, 8)), 20.0)

    def test_experiment_sigma_near_reference_level(self):
        # the 20 dB level for the blurred pulse train should sit near 0.06
        N = 1024
        k = make_kernel(N, periodization="grid", unit_mass=True)
        q = convolve_columns(make_target("lidar", N).values, k)
        sigma = calibrate_sigma(q, 20.0)
        assert abs(sigma - 0.06) <= 0.2 * 0.06

    def test_oscillator_sigma_ladder_near_reference_levels(self):
        # blurred through the power-spectrum kernel, the oscillating target
        # calibrates to sigma near 0.15 / 0.05 / 0.015 at 10 / 20 / 30 dB
        N = 1024
        k = make_power_kernel(N, 0.5)
        q = convolve_columns(make_target("doppler", N).values, k)
        for snr_db, reference in [(10.0, 0.15), (20.0, 0.05), (30.0, 0.015)]:
            sigma = calibrate_sigma(q, snr_db)
            assert abs(sigma - reference) <= 0.15 * reference

    @given(
        snr_db=st.floats(min_value=-40.0, max_value=60.0),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_sigma_inverts_snr_definition(self, snr_db, scale):
        q = np.full((4, 4), scale)
        sigma = calibrate_sigma(q, snr_db)
        recovered = 10.0 * np.log10(scale**2 / sigma**2)
        assert recovered == pytest.approx(snr_db, abs=1e-9)


class TestObserve:
    def test_noiseless_is_identity(self):
        N = 64
        q = make_target("doppler", N)
        sheet = noise_sheet(LongMemoryParams(0.6, 0.8), N, seed=0)
        out = observe(q, 0.0, sheet)
        np.testing.assert_array_equal(out.values, q.values)

    def test_realized_noise_power_is_exact(self):
        # sheets are normalized to unit rms, so mean((Y - q)^2) == sigma^2
        N = 128
        q = make_target("lidar", N)
        sheet = noise_sheet(LongMemoryParams(0.4, 0.8), N, seed=3)
        sigma = 0.07
        out = observe(q, sigma, sheet)
        assert np.mean((out.values - q.values) ** 2) == pytest.approx(
            sigma**2, rel=1e-12
        )

    def test_negative_sigma_rejected(self):
        q = make_target("lidar", 32)
        sheet = noise_sheet(LongMemoryParams(0.5, 0.5), 32, seed=0)
        with pytest.raises(ParameterError):
            observe(q, -0.1, sheet)

    def test_shape_mismatch_rejected(self):
        q = make_target("lidar", 32)
        sheet = noise_sheet(LongMemoryParams(0.5, 0.5), 16, seed=0)
        with pytest.raises(ParameterError):
            observe(q, 0.1, sheet)
