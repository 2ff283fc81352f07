"""Wavelet-domain deconvolution by Fourier division and hard thresholding.

The estimator inverts column-wise blur in the Fourier domain and expands
the result in the 2-d Meyer basis without returning to the grid: the
divided spectrum ``D = fft(Y) / (N g)`` is exactly the input the axis-0
Meyer analysis takes, so it goes straight in (the WaveD design of
Johnstone, Kerkyacharian, Picard and Raimondo, 2004). It keeps only
coefficients whose modulus exceeds a level-dependent threshold calibrated
to long-memory noise:

    lambda(j1, j2) = gamma eps^ab sqrt(|ln eps|)
                     2^(j1 (2 nu + alpha1 - 1) / 2) 2^(j2 (alpha2 - 1) / 2)

where ``ab`` is the mean of the two memory exponents and ``nu`` the degree
of ill-posedness the blur is assumed to have. Division happens per column,
so the blur may vary with location ``x``; only the frequency rows actually
used by the kept levels are divided, and an exact zero of the kernel
transform on those rows raises :class:`~fdeconv.errors.IllPosedError`.

:func:`estimate_coefficients` stops at the thresholded coefficients;
:func:`estimate` adds the synthesis onto the grid. Because the basis is
orthonormal, a squared error can be scored on the coefficients alone
(Parseval), which is how the Monte Carlo runs of :mod:`fdeconv.cli` score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    IllPosedError,
    NumericalError,
    ParameterError,
)
from .lrdnoise import LongMemoryParams
from .meyer import (  # forward_2d stays importable from here, as before
    WaveletCoeffs2D,
    analyze_spectrum,
    forward_2d,
    inverse_2d,
    meyer_filter,
)
from .model import BlurKernel, SampledField

#: Threshold multiplier used throughout the experiments.
DEFAULT_GAMMA = math.sqrt(6.0)


def validate_field(Y) -> np.ndarray:
    """Return ``Y`` as a square 2-d float array, rejecting bad input.

    Shape problems raise :class:`ParameterError`; non-finite entries raise
    :class:`NumericalError` (they would silently poison every coefficient).
    """
    values = Y.values if isinstance(Y, SampledField) else np.asarray(Y, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ParameterError(f"expected a square 2-d field, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericalError("observation contains non-finite values")
    return values


def epsilon_from_sigma(sigma: float, N: int, alpha: LongMemoryParams) -> float:
    """Calibration ``eps`` of a discrete experiment with noise level ``sigma``.

    An ``N x N`` sheet carries ``n = N^2`` samples, and matching the
    per-coefficient noise variance of the sampled model to the continuous
    theory gives ``eps^(2 ab) = sigma^2 n^(-ab)`` with ``ab`` the mean memory
    exponent (measured empirical-to-predicted variance ratios sit at 0.3-0.4
    across levels under this scaling, versus ~1e2 off under per-axis ``N``).
    For ``alpha = (1, 1)`` it reduces to the classical white-noise calibration
    ``eps = sigma / sqrt(n) = sigma / N``.
    """
    if sigma <= 0:
        raise DegenerateInputError(f"sigma must be positive, got {sigma}")
    if N < 1:
        raise ParameterError(f"N must be positive, got {N}")
    ab = alpha.alpha_bar
    return float((sigma**2 * float(N) ** (-2.0 * ab)) ** (1.0 / (2.0 * ab)))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Hard-threshold calibration: multiplier, noise scale, memory, blur decay."""

    gamma: float
    epsilon: float
    alpha: LongMemoryParams
    nu: float = 0.5

    def __post_init__(self):
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.nu < 0:
            raise ParameterError(f"nu must be nonnegative, got {self.nu}")


def threshold_lambda(policy: ThresholdPolicy, j1: int, j2: int) -> float:
    """Threshold for block ``(j1, j2)``, evaluated at the stored labels.

    The scaling block is labelled ``m0 - 1`` and gets that value of ``j``;
    only the pure scaling x scaling block is exempt from thresholding, and
    that exemption lives in :func:`estimate`, not here.
    """
    a1, a2 = policy.alpha.alpha1, policy.alpha.alpha2
    ab = policy.alpha.alpha_bar
    base = policy.gamma * policy.epsilon**ab * math.sqrt(abs(math.log(policy.epsilon)))
    return float(
        base
        * 2.0 ** (0.5 * j1 * (2.0 * policy.nu + a1 - 1.0))
        * 2.0 ** (0.5 * j2 * (a2 - 1.0))
    )


@dataclass(frozen=True)
class LevelSelection:
    """Finest levels kept by the estimator, with the unclamped real values.

    ``j1_capped``/``j2_capped`` flag that the formula asked for a level
    outside what the grid supports (above Nyquist or below the coarsest
    block) and the integer was clamped.
    """

    j1: int
    j2: int
    j1_raw: float
    j2_raw: float
    j1_capped: bool = False
    j2_capped: bool = False


def finest_levels(
    epsilon: float,
    amplitude: float,
    alpha: LongMemoryParams,
    nu: float,
    N: int,
    m0: int = 3,
) -> LevelSelection:
    """Level cut-offs balancing bias against long-memory noise.

    ``2^J2 = [eps^(2 ab) / A^2]^(-1 / alpha2)`` and
    ``2^J1 = [eps^(2 ab) / A^2]^(-1 / (2 nu + alpha1))``, floored to
    integers and clamped to the levels a size-``N`` grid supports.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if amplitude <= 0:
        raise ParameterError(f"amplitude must be positive, got {amplitude}")
    if nu < 0:
        raise ParameterError(f"nu must be nonnegative, got {nu}")
    n = N.bit_length() - 1
    if N < 4 or 2**n != N:
        raise ParameterError(f"N must be a power of two >= 4, got {N}")
    # log2 of [eps^(2 ab) / A^2]^(-1), shared by both formulas
    budget = 2.0 * alpha.alpha_bar * math.log2(1.0 / epsilon) + 2.0 * math.log2(amplitude)
    j1_raw = budget / (2.0 * nu + alpha.alpha1)
    j2_raw = budget / alpha.alpha2
    lo, hi = m0 - 1, n - 1
    j1 = min(max(math.floor(j1_raw), lo), hi)
    j2 = min(max(math.floor(j2_raw), lo), hi)
    return LevelSelection(
        j1=j1,
        j2=j2,
        j1_raw=j1_raw,
        j2_raw=j2_raw,
        j1_capped=not lo <= math.floor(j1_raw) <= hi,
        j2_capped=not lo <= math.floor(j2_raw) <= hi,
    )


def resolve_levels(
    epsilon: float,
    alpha: LongMemoryParams,
    nu: float,
    N: int,
    j1: int | None = None,
    j2: int | None = None,
    amplitude: float = 1.0,
    m0: int = 3,
) -> LevelSelection:
    """The levels an estimate keeps: each ``None`` is automatic, each int fixed.

    An automatic level is the component of :func:`finest_levels`, which is
    consulted only when a level is automatic, so fixed levels need no valid
    noise size. A fixed level must lie in ``[m0 - 1, log2(N) - 1]``; it is
    its own raw value and is never capped.
    """
    auto = finest_levels(epsilon, amplitude, alpha, nu, N, m0) if None in (j1, j2) else None
    hi = N.bit_length() - 2
    for name, j in (("j1", j1), ("j2", j2)):
        if j is not None and not m0 - 1 <= j <= hi:
            raise ParameterError(f"{name} must lie in [{m0 - 1}, {hi}] for N={N}, got {j}")
    return LevelSelection(
        j1=auto.j1 if j1 is None else int(j1),
        j2=auto.j2 if j2 is None else int(j2),
        j1_raw=auto.j1_raw if j1 is None else float(j1),
        j2_raw=auto.j2_raw if j2 is None else float(j2),
        j1_capped=auto.j1_capped if j1 is None else False,
        j2_capped=auto.j2_capped if j2 is None else False,
    )


def _kernel_fourier(kernel, N: int) -> np.ndarray:
    """Per-column t-direction kernel transform ``(1/N) fft``, shape (N, N)."""
    if isinstance(kernel, BlurKernel):
        g = kernel.fourier_t
    else:
        samples = np.asarray(kernel, dtype=float)
        if samples.shape != (N, N):
            raise ParameterError(
                f"kernel shape {samples.shape} does not match observation ({N}, {N})"
            )
        g = np.fft.fft(samples, axis=0) / N
    if g.shape != (N, N):
        raise ParameterError(
            f"kernel grid {g.shape} does not match observation ({N}, {N})"
        )
    return g


def _deconvolved_rows(Y: np.ndarray, g: np.ndarray, filt, J1: int) -> np.ndarray:
    """Per-column Fourier division restricted to the rows levels <= J1 use.

    Returns ``D = fft(Y) / (N g)`` along axis 0, in FFT bin order: the
    axis-0 spectrum, divided by ``N``, of the deconvolved field
    ``ifft(fft(Y) / g)``, on those rows and zero elsewhere. The
    windows of the levels up to ``J1`` are non-zero exactly on
    ``|m| < 2^(J1+2)/3`` (on every row at the top level), so the rows form
    two contiguous slices, ``[0, P)`` and ``[N-Q, N)``. One real FFT gives
    the non-negative rows and conjugate symmetry the negative ones.
    """
    N = Y.shape[0]
    needed = np.zeros(N, dtype=bool)
    for j in filt.levels_up_to(J1):
        needed |= np.abs(filt.window(j)) > 0
    P = int(needed[: N // 2].sum())
    Q = int(needed[N // 2 :].sum())
    g_pos, g_neg = g[:P], g[N - Q :]
    dead_pos, dead_neg = g_pos == 0, g_neg == 0
    if dead_pos.any() or dead_neg.any():
        rows, cols = np.nonzero(np.concatenate([dead_pos, dead_neg]))
        signed = rows[0] if rows[0] < P else rows[0] - P - Q
        raise IllPosedError(
            f"kernel transform vanishes on {rows.size} required (frequency, column) "
            f"pairs; first at frequency m={signed}, column {cols[0]}"
        )
    half = np.fft.rfft(Y, axis=0, norm="forward")
    D = np.empty((N, N), dtype=np.complex128)
    np.divide(half[:P], g_pos, out=D[:P])
    D[P : N - Q] = 0.0
    np.divide(np.conj(half[Q:0:-1]), g_neg, out=D[N - Q :])
    return D


def estimate_coefficients(
    Y,
    kernel,
    policy: ThresholdPolicy,
    levels: LevelSelection | None = None,
    m0: int = 3,
) -> WaveletCoeffs2D:
    """Deconvolve, expand and hard-threshold; the coefficient stage of :func:`estimate`.

    The divided spectrum goes straight into the axis-0 analysis, so the
    estimate is never formed on the grid. Every block is thresholded at its
    stored labels except the pure scaling x scaling block, which carries the
    low-frequency bulk of the signal and is always kept.
    """
    values = validate_field(Y)
    N = values.shape[0]
    if levels is None:
        levels = finest_levels(policy.epsilon, 1.0, policy.alpha, policy.nu, N, m0)
    filt = meyer_filter(N, m0)
    D = _deconvolved_rows(values, _kernel_fourier(kernel, N), filt, levels.j1)
    # Y and g are real and the divided rows are +-symmetric, so the divided
    # field is real and so are its coefficients.
    coeffs = analyze_spectrum(D, levels.j1, levels.j2, m0, real=True)
    for j1, j2, block in coeffs.blocks():
        if j1 == m0 - 1 and j2 == m0 - 1:
            continue
        block[np.abs(block) <= threshold_lambda(policy, j1, j2)] = 0.0
    return coeffs


def estimate(
    Y,
    kernel,
    policy: ThresholdPolicy,
    levels: LevelSelection | None = None,
    m0: int = 3,
) -> tuple[SampledField, WaveletCoeffs2D]:
    """Deconvolve, expand, hard-threshold, reconstruct.

    Returns the estimated field, synthesized from the coefficients of
    :func:`estimate_coefficients`, together with those coefficients.
    """
    values = validate_field(Y)
    coeffs = estimate_coefficients(values, kernel, policy, levels, m0)
    return SampledField(np.ascontiguousarray(inverse_2d(coeffs, values.shape[0]))), coeffs


def beta_tilde(
    Y, kernel, j1: int, k1: int, j2: int, k2: int, m0: int = 3
) -> complex:
    """One raw (unthresholded) empirical coefficient, computed directly.

    Evaluates ``sum_m conj(psi1(m1)) conj(psi2(m2)) D~(m1, m2)`` with the
    per-column division done only on the rows of level ``j1``; useful as a
    slow cross-check of the packed transform route.
    """
    values = validate_field(Y)
    N = values.shape[0]
    filt = meyer_filter(N, m0)
    g = _kernel_fourier(kernel, N)
    rows = np.abs(filt.window(j1)) > 0
    if np.any(g[rows] == 0):
        raise IllPosedError(f"kernel transform vanishes on rows of level {j1}")
    D = np.fft.fft(values, axis=0)[rows] / (N * g[rows])
    spectra = np.fft.fft(D, axis=1) / N
    bins = np.arange(N)
    u1 = filt.filter_coefficient(j1, k1, bins[rows])
    u2 = filt.filter_coefficient(j2, k2, bins)
    return complex(np.conj(u1) @ spectra @ np.conj(u2))


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo risk summary over repeated observations."""

    mise: float
    se: float
    per_run: tuple[float, ...]
    runs: int
    j1: int | None = None
    j2: int | None = None

    @classmethod
    def from_errors(cls, per_run, j1: int | None = None, j2: int | None = None) -> "RiskReport":
        """Summarize per-run squared errors: their mean and its standard error."""
        arr = np.asarray(per_run, dtype=float)
        if arr.size == 0:
            raise ParameterError("need at least one estimate")
        se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        return cls(
            mise=float(arr.mean()), se=se, per_run=tuple(per_run), runs=arr.size, j1=j1, j2=j2
        )


def _per_run_errors(truth, estimates, p: float) -> list:
    """``mean(|est - truth|^p)`` for each estimate, a Riemann ``L^p`` error."""
    t = truth.values if isinstance(truth, SampledField) else np.asarray(truth, float)
    errors = []
    for est in estimates:
        e = est.values if isinstance(est, SampledField) else np.asarray(est, float)
        if e.shape != t.shape:
            raise ParameterError(f"estimate shape {e.shape} != truth shape {t.shape}")
        errors.append(float(np.mean(np.abs(e - t) ** p)))
    if not errors:
        raise ParameterError("need at least one estimate")
    return errors


def mise(truth, estimates, j1: int | None = None, j2: int | None = None) -> RiskReport:
    """Mean integrated squared error over a collection of estimates.

    Each per-run error is the Riemann squared norm ``mean((est - truth)^2)``;
    ``se`` is the standard error of their mean.
    """
    return RiskReport.from_errors(_per_run_errors(truth, estimates, 2), j1, j2)


def lp_risk(truth, estimates, p: float) -> float:
    """Average p-th power error ``mean over runs of mean(|est - truth|^p)``.

    ``p = 2`` recovers the MISE.
    """
    if p <= 0:
        raise ParameterError(f"p must be positive, got {p}")
    return float(np.mean(_per_run_errors(truth, estimates, p)))


def besov_diagnostic(
    coeffs: WaveletCoeffs2D, s1: float, s2: float, p: float, pi: float
) -> float:
    """Smallest amplitude ``A`` for which the coefficients satisfy the
    anisotropic ball condition

        sum_k |beta_(j1,j2,k)|^p' <= A^p' 2^(-p' [j1 s1 + j2 s2
                                     + (1/2 - 1/p')(j1 + j2)]),
        p' = min(p, pi),

    with levels counted as offsets from the coarsest block, so a lone
    coefficient of magnitude ``c`` in the scaling x scaling block gives
    exactly ``A = c``.
    """
    if s1 <= 0 or s2 <= 0:
        raise ParameterError(f"smoothness must be positive, got ({s1}, {s2})")
    if p < 1 or pi < 1:
        raise ParameterError(f"p and pi must be >= 1, got ({p}, {pi})")
    pp = min(p, pi)
    base = coeffs.m0 - 1
    worst = 0.0
    for j1, j2, block in coeffs.blocks():
        total = float(np.sum(np.abs(block) ** pp))
        if total == 0.0:
            continue
        o1, o2 = j1 - base, j2 - base
        exponent = o1 * s1 + o2 * s2 + (0.5 - 1.0 / pp) * (o1 + o2)
        worst = max(worst, total * 2.0 ** (pp * exponent))
    return float(worst ** (1.0 / pp))


class MeyerDeconvolver:
    """Deconvolution estimator with a fit/transform interface.

    Parameters mirror the functional pipeline: ``gamma``/``nu`` calibrate the
    threshold, ``alpha`` is the pair of memory exponents, and exactly one of
    ``sigma`` (noise level, converted through :func:`epsilon_from_sigma`) or
    ``epsilon`` must be given before calling :meth:`transform`. ``j1``/``j2``
    override the data-size-driven level selection when set.

    After :meth:`transform`, the fitted state is exposed as ``levels_``,
    ``policy_`` and ``coefficients_``.
    """

    _PARAM_NAMES = (
        "gamma",
        "nu",
        "alpha",
        "sigma",
        "epsilon",
        "amplitude",
        "j1",
        "j2",
        "m0",
    )

    def __init__(
        self,
        gamma: float = DEFAULT_GAMMA,
        nu: float = 0.5,
        alpha=(1.0, 1.0),
        sigma: float | None = None,
        epsilon: float | None = None,
        amplitude: float = 1.0,
        j1: int | None = None,
        j2: int | None = None,
        m0: int = 3,
    ):
        self.gamma = gamma
        self.nu = nu
        self.alpha = alpha
        self.sigma = sigma
        self.epsilon = epsilon
        self.amplitude = amplitude
        self.j1 = j1
        self.j2 = j2
        self.m0 = m0

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._PARAM_NAMES}

    def set_params(self, **params) -> "MeyerDeconvolver":
        for name, value in params.items():
            if name not in self._PARAM_NAMES:
                raise ParameterError(
                    f"unknown parameter {name!r}; options are {self._PARAM_NAMES}"
                )
            setattr(self, name, value)
        return self

    def fit(self, kernel, y=None) -> "MeyerDeconvolver":
        """Store the blur kernel (a :class:`BlurKernel` or a samples array)."""
        if not isinstance(kernel, BlurKernel):
            samples = np.asarray(kernel, dtype=float)
            if samples.ndim != 2 or samples.shape[0] != samples.shape[1]:
                raise ParameterError(
                    f"kernel must be a square 2-d array, got shape {samples.shape}"
                )
        self.kernel_ = kernel
        return self

    def transform(self, Y) -> np.ndarray:
        """Estimate the unknown field from one observation."""
        if not hasattr(self, "kernel_"):
            raise ParameterError("estimator is not fitted; call fit(kernel) first")
        values = validate_field(Y)
        N = values.shape[0]
        memory = (
            self.alpha
            if isinstance(self.alpha, LongMemoryParams)
            else LongMemoryParams(*self.alpha)
        )
        if self.epsilon is not None:
            eps = float(self.epsilon)
        elif self.sigma is not None:
            eps = epsilon_from_sigma(self.sigma, N, memory)
        else:
            raise ParameterError("either sigma or epsilon must be set")
        policy = ThresholdPolicy(gamma=self.gamma, epsilon=eps, alpha=memory, nu=self.nu)
        levels = resolve_levels(eps, memory, self.nu, N, self.j1, self.j2, self.amplitude, self.m0)
        est, coeffs = estimate(values, self.kernel_, policy, levels, self.m0)
        self.levels_ = levels
        self.policy_ = policy
        self.coefficients_ = coeffs
        return est.values

    def fit_transform(self, kernel, Y) -> np.ndarray:
        return self.fit(kernel).transform(Y)

    def predict(self, Y) -> np.ndarray:
        """Alias of :meth:`transform`."""
        return self.transform(Y)
