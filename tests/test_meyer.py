"""Tests for the periodized Meyer transform.

The brute-force oracle below evaluates every coefficient as an explicit
double sum over integer frequencies using only ``filter_coefficient`` and the
2-d FFT, independently of the fast folding path in the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdeconv import meyer
from fdeconv.errors import ParameterError

RNG = np.random.default_rng(20260817)


def packed_labels(J, m0):
    labels = []
    for j in (m0 - 1,) + tuple(range(m0, J + 1)):
        length = 2**m0 if j == m0 - 1 else 2**j
        labels.extend((j, k) for k in range(length))
    return labels


def brute_force_2d(field, J1, J2, m0=3):
    """O(N^4) double-sum evaluation of all coefficients up to (J1, J2)."""
    N = field.shape[0]
    filt = meyer.meyer_filter(N, m0)
    m = np.arange(N)
    F = np.fft.fft2(field) / N**2
    P1 = np.array([filt.filter_coefficient(j, k, m) for j, k in packed_labels(J1, m0)])
    P2 = np.array([filt.filter_coefficient(j, k, m) for j, k in packed_labels(J2, m0)])
    return np.conj(P1) @ F @ np.conj(P2).T


class TestWindows:
    def test_frozen_band_support(self):
        # Hand-computed integer bands: level j covers 2^j/3 < |m| < 2^(j+2)/3,
        # the scaling block |m| < 2^(m0+1)/3, and the top level runs from
        # 2^(top)/3 (exclusive) out to the Nyquist bin.
        filt = meyer.meyer_filter(32, m0=3)
        assert set(filt.band(2)) == set(range(-5, 6))
        assert set(filt.band(3)) == set(range(3, 11)) | set(range(-10, -2))
        assert set(filt.band(4)) == set(range(6, 16)) | set(range(-16, -5))

        filt = meyer.meyer_filter(64, m0=3)
        assert set(filt.band(4)) == set(range(6, 22)) | set(range(-21, -5))
        assert set(filt.band(5)) == set(range(11, 32)) | set(range(-32, -10))

    def test_amplitude_bound(self):
        # |psi~_{j,k}(m)| <= 2^{-j/2}, approached on the flat part of the band.
        filt = meyer.meyer_filter(4096, m0=3)
        for j in filt.levels:
            L = filt.block_length(j)
            amp = np.abs(filt.window(j)) / np.sqrt(L)
            assert amp.max() <= 1 / np.sqrt(L) + 1e-12
            assert amp.max() >= 0.99 / np.sqrt(L)

    def test_partition_of_unity(self):
        for N in (16, 256, 4096):
            filt = meyer.meyer_filter(N)
            power = sum(np.abs(filt.window(j)) ** 2 for j in filt.levels)
            assert np.max(np.abs(power - 1)) < 1e-14

    def test_filter_coefficient_conjugate_symmetry(self):
        filt = meyer.meyer_filter(64)
        m = np.arange(1, 32)
        for j, k in ((3, 0), (4, 5), (5, 17), (2, 3)):
            plus = filt.filter_coefficient(j, k, m)
            minus = filt.filter_coefficient(j, k, -m)
            # conj(psi~(m)) relates to psi~(-m) through the shift phase
            assert np.allclose(
                np.conj(plus) * np.exp(-2j * np.pi * m * k / filt.block_length(j)) ** 2,
                minus * np.exp(0),
                atol=1e-12,
            ) or np.allclose(np.abs(plus), np.abs(minus), atol=1e-12)

    def test_filter_coefficient_zero_outside_band(self):
        filt = meyer.meyer_filter(64)
        assert filt.filter_coefficient(3, 0, 0) == 0
        assert filt.filter_coefficient(3, 0, 2) == 0
        assert filt.filter_coefficient(3, 0, 22) == 0
        assert filt.filter_coefficient(2, 0, 6) == 0

    def test_level_and_shift_validation(self):
        filt = meyer.meyer_filter(64)
        with pytest.raises(ParameterError, match=r"levels"):
            filt.filter_coefficient(7, 0, 1)
        with pytest.raises(IndexError):
            filt.filter_coefficient(3, 8, 1)
        with pytest.raises(ParameterError, match="power of two"):
            meyer.MeyerFilter(48)


class TestOracle:
    def test_brute_force_double_sum_full_depth(self):
        N = 32
        field = RNG.standard_normal((N, N))
        expected = brute_force_2d(field, 4, 4)
        got = meyer.forward_2d(field).values
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_brute_force_double_sum_truncated(self):
        N = 32
        field = RNG.standard_normal((N, N))
        expected = brute_force_2d(field, 3, 4)
        got = meyer.forward_2d(field, J1=3, J2=4).values
        assert got.shape == (16, 32)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_gram_orthonormality(self):
        # Coefficient map applied to the canonical basis: columns must be
        # orthonormal for the (1/N) sum inner product.
        N = 64
        T = np.array([meyer.forward_1d(row) for row in np.eye(N)]).T
        gram = N * (T.T @ T)
        assert np.max(np.abs(gram - np.eye(N))) < 1e-12


class TestRoundTrip:
    @pytest.mark.parametrize("N", [16, 64, 256, 1024])
    def test_roundtrip_and_plancherel_1d(self, N):
        x = RNG.standard_normal(N)
        c = meyer.forward_1d(x)
        assert c.shape == (N,)
        assert np.max(np.abs(meyer.inverse_1d(c, N) - x)) < 1e-10
        assert abs(np.sum(c**2) - np.sum(x**2) / N) < 1e-10

    def test_roundtrip_special_signals(self):
        N = 128
        for x in (np.ones(N), np.eye(N)[3], np.sin(2 * np.pi * np.arange(N) / N)):
            y = meyer.inverse_1d(meyer.forward_1d(x), N)
            assert np.max(np.abs(y - x)) < 1e-11

    def test_constant_hits_only_scaling(self):
        c = meyer.forward_1d(np.ones(64))
        sl = meyer.level_slice(2, 3)
        wavelet_part = np.delete(c, np.arange(sl.start, sl.stop))
        assert np.max(np.abs(wavelet_part)) < 1e-13
        assert abs(np.sum(c[sl] ** 2) - 1.0) < 1e-13

    def test_roundtrip_2d(self):
        N = 256
        x = RNG.standard_normal((N, N))
        C = meyer.forward_2d(x)
        assert np.max(np.abs(meyer.inverse_2d(C, N) - x)) < 1e-10
        assert abs(C.energy() - np.sum(x**2) / N**2) < 1e-12

    def test_complex_input(self):
        N = 64
        z = RNG.standard_normal(N) + 1j * RNG.standard_normal(N)
        c = meyer.forward_1d(z)
        assert np.iscomplexobj(c)
        assert np.max(np.abs(meyer.inverse_1d(c, N) - z)) < 1e-11

    def test_atom_roundtrip(self):
        N = 64
        c = np.zeros(N)
        idx = 2**4 + 2  # level 4, shift 2 in the packed layout
        c[idx] = 1.0
        atom = meyer.inverse_1d(c, N)
        assert abs(np.sum(atom**2) / N - 1.0) < 1e-12
        back = meyer.forward_1d(atom)
        assert abs(back[idx] - 1.0) < 1e-12
        back[idx] = 0.0
        assert np.max(np.abs(back)) < 1e-12


def full_fold_analysis(spectra, filt, J):
    """Axis-0 analysis that folds every one of the N rows, for comparison."""
    N = filt.size
    pieces = []
    for j in filt.levels_up_to(J):
        L = filt.block_length(j)
        z = np.conj(filt.window(j))[:, None] * spectra
        folded = z.reshape(N // L, L, -1).sum(axis=0)
        pieces.append(np.sqrt(L) * np.fft.ifft(folded, axis=0))
    return np.concatenate(pieces, axis=0)


def full_tile_synthesis(coeffs, filt, J):
    """Adjoint of ``full_fold_analysis``: every block tiled over all N rows."""
    N = filt.size
    spectra = np.zeros((N, coeffs.shape[1]), dtype=np.complex128)
    for j in filt.levels_up_to(J):
        L = filt.block_length(j)
        shifted = np.fft.fft(coeffs[meyer.level_slice(j, filt.m0)], axis=0) / np.sqrt(L)
        spectra += filt.window(j)[:, None] * np.tile(shifted, (N // L, 1))
    return np.fft.ifft(spectra * N, axis=0)


class TestBandLimitedFolds:
    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_truncated_forward_is_the_leading_block_bit_for_bit(self, N, kind):
        rng = np.random.default_rng(N)
        x = rng.standard_normal((N, N))
        if kind == "complex":
            x = x + 1j * rng.standard_normal((N, N))
        full = meyer.forward_2d(x).values
        top = N.bit_length() - 2
        for J1, J2 in [(2, 2), (3, top), (top, 2), (top - 1, top - 1), (top, top)]:
            part = meyer.forward_2d(x, J1=J1, J2=J2).values
            assert np.array_equal(part, full[: 2 ** (J1 + 1), : 2 ** (J2 + 1)]), (J1, J2)

    @pytest.mark.parametrize("N, m0", [(4, 1), (16, 2), (128, 1), (128, 3), (1024, 3)])
    def test_support_folds_equal_the_folds_over_every_row(self, N, m0):
        rng = np.random.default_rng(7)
        spectra = rng.standard_normal((N, 8)) + 1j * rng.standard_normal((N, 8))
        filt = meyer.meyer_filter(N, m0)
        for J in filt.levels:
            assert np.array_equal(
                meyer._analyze(spectra, filt, J), full_fold_analysis(spectra, filt, J)
            ), J
            coeffs = rng.standard_normal((2 ** (J + 1), 8)) + 0j
            assert np.array_equal(
                meyer._synthesize(coeffs, filt, J), full_tile_synthesis(coeffs, filt, J)
            ), J

    @pytest.mark.parametrize("N, m0", [(4, 1), (64, 2), (4096, 3)])
    def test_support_runs_cover_the_window_and_fold_at_most_twice(self, N, m0):
        filt = meyer.meyer_filter(N, m0)
        for j in filt.levels:
            L = filt.block_length(j)
            rows = np.concatenate([np.arange(a, b) for a, b in filt.support_runs(j)])
            assert np.array_equal(rows, np.flatnonzero(np.abs(filt.window(j)) > 0)), j
            assert all(b - a <= L and a // L == (b - 1) // L for a, b in filt.support_runs(j))
            assert np.bincount(rows % L).max() <= 2, j

    def test_rows_outside_the_band_are_never_read(self):
        N, J1, J2 = 128, 4, 3
        rng = np.random.default_rng(8)
        spectrum = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        clean = meyer.analyze_spectrum(spectrum, J1, J2).values
        m = np.fft.fftfreq(N, 1.0 / N)
        spectrum[(m < -(2 ** (J1 + 1))) | (m >= 2 ** (J1 + 1))] = np.nan
        assert np.array_equal(meyer.analyze_spectrum(spectrum, J1, J2).values, clean)

    def test_real_spectrum_path_matches_the_complex_one(self):
        N = 64
        x = RNG.standard_normal((N, N))
        real = meyer.forward_2d(x, J1=4, J2=3)
        cplx = meyer.forward_2d(x + 0j, J1=4, J2=3)
        assert not np.iscomplexobj(real.values)
        assert np.max(np.abs(real.values - cplx.values)) < 1e-14
        assert np.max(np.abs(cplx.values.imag)) < 1e-14


class TestProjection:
    def test_truncated_forward_matches_slice(self):
        N = 128
        x = RNG.standard_normal((N, N))
        full = meyer.forward_2d(x)
        part = meyer.forward_2d(x, J1=4, J2=5)
        assert np.allclose(part.values, full.values[:32, :64], atol=1e-12)
        assert np.allclose(full.truncated(4, 5).values, part.values, atol=1e-12)

    def test_projection_idempotent_and_contractive(self):
        N = 128
        x = RNG.standard_normal((N, N))
        C = meyer.forward_2d(x, J1=4, J2=4)
        proj = meyer.inverse_2d(C, N)
        C2 = meyer.forward_2d(proj, J1=4, J2=4)
        assert np.max(np.abs(C2.values - C.values)) < 1e-11
        assert np.sum(proj**2) <= np.sum(x**2) + 1e-9

    def test_separable_field_has_outer_product_coefficients(self):
        N = 64
        a, b = RNG.standard_normal(N), RNG.standard_normal(N)
        C = meyer.forward_2d(np.outer(a, b))
        assert np.max(np.abs(C.values - np.outer(meyer.forward_1d(a), meyer.forward_1d(b)))) < 1e-12

    def test_2d_equals_looped_1d(self):
        N = 32
        x = RNG.standard_normal((N, N))
        U = np.array([meyer.forward_1d(col) for col in x.T]).T
        C = np.array([meyer.forward_1d(row) for row in U])
        assert np.max(np.abs(meyer.forward_2d(x).values - C)) < 1e-12


class TestCoeffs2D:
    def test_block_layout(self):
        C = meyer.forward_2d(RNG.standard_normal((64, 64)))
        assert C.block(2, 2).shape == (8, 8)
        assert C.block(4, 5).shape == (16, 32)
        assert C.levels1 == (2, 3, 4, 5)
        labels = [(j1, j2) for j1, j2, _ in C.blocks()]
        assert len(labels) == 16
        with pytest.raises(ParameterError):
            C.block(6, 2)
        with pytest.raises(ParameterError):
            C.truncated(6, 2)

    def test_blocks_tile_everything(self):
        C = meyer.forward_2d(RNG.standard_normal((64, 64)))
        total = sum(v.size for _, _, v in C.blocks())
        assert total == C.values.size
        assert abs(sum(np.sum(v**2) for _, _, v in C.blocks()) - C.energy()) < 1e-12


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ParameterError, match="square"):
            meyer.forward_2d(np.zeros((8, 16)))
        with pytest.raises(ParameterError, match="1-d"):
            meyer.forward_1d(np.zeros((8, 8)))
        with pytest.raises(ParameterError, match="power of two"):
            meyer.forward_1d(np.zeros(48))

    def test_level_out_of_range_names_maximum(self):
        with pytest.raises(ParameterError, match="5"):
            meyer.forward_1d(np.zeros(64), J=6)
        with pytest.raises(ParameterError):
            meyer.forward_1d(np.zeros(64), J=1)  # below m0 - 1

    def test_m0_bounds(self):
        with pytest.raises(ParameterError, match="m0"):
            meyer.MeyerFilter(16, m0=4)
        filt = meyer.MeyerFilter(16, m0=3)
        assert filt.levels == (2, 3)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([32, 64, 128]),
    m0=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(n, m0, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    c = meyer.forward_1d(x, m0=m0)
    assert np.max(np.abs(meyer.inverse_1d(c, n, m0=m0) - x)) < 1e-10
    assert abs(np.sum(c**2) - np.sum(x**2) / n) < 1e-10


@settings(max_examples=60, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_nu_polynomial_identity(x):
    assert abs(meyer._nu(np.array(x)) + meyer._nu(np.array(1 - x)) - 1.0) < 1e-12
    assert 0.0 <= meyer._nu(np.array(x)) <= 1.0
