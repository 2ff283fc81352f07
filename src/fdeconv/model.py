"""Forward model on the unit square.

An unknown ``f(t, x)`` is observed through column-wise circular convolution
in ``t`` with a location-dependent blur ``g(., x)``, plus scaled noise:

    Y(t_i, x_l) = (1/N) sum_s f(t_s, x_l) g(t_i - t_s, x_l) + sigma xi(t_i, x_l)

on the grid ``t_i = i / N``, ``x_l = l / N``, ``i, l = 0..N-1``. Norms are
Riemann approximations of L2([0,1]^2): ``||h||^2 = mean(h**2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .lrdnoise import NoiseSheet

#: Piecewise-constant pulse train used as the "range-gated return" test
#: signal: (start, stop, height) on [0, 1). Two constraints shape it: the
#: unit-norm signal needs mean ~0.6 (that fixes the blurred norm the SNR
#: calibration sees), and the summed squared jump heights must stay modest,
#: since energy beyond frequency M decays like sum(jump^2) / (2 pi^2 M) and
#: a reconstruction truncated at t-level 5 keeps only |m| < 43.
_PULSE_BOXES = (
    (0.20, 0.52, 1.0),
    (0.65, 0.75, 0.55),
    (0.82, 0.87, 0.35),
)


@dataclass(frozen=True)
class SampledField:
    """An N x N real field sampled on the product grid."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ParameterError(f"expected a square field, got shape {v.shape}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def norm(self) -> float:
        """Riemann L2 norm sqrt(mean(values**2))."""
        return float(np.sqrt(np.mean(self.values**2)))


@dataclass(frozen=True)
class BlurKernel:
    """Sampled blur kernel and its per-column Fourier data.

    ``fourier_t[m, l]`` is the t-direction transform ``(1/N) fft`` of column
    ``l``; that is the quantity the estimator divides by. ``nu_declared`` is
    the degree of ill-posedness the thresholds assume, ``nu_measured`` the
    log-log regression slope actually observed on ``|fourier_t|``; the two
    are recorded separately and may disagree. ``c1``/``c2`` bound
    ``|fourier_t|^2 (1 + |m|)^(2 nu_declared)`` from below/above over all
    columns and frequencies, so a large spread flags a mismatch between the
    declared and actual decay.
    """

    samples: np.ndarray
    fourier_t: np.ndarray
    nu_declared: float
    nu_measured: float
    c1: float
    c2: float
    periodization: str
    unit_mass: bool

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def time_grid(N: int) -> np.ndarray:
    """Sampling grid 0, 1/N, ..., (N-1)/N."""
    if N < 1:
        raise ParameterError(f"grid size must be positive, got {N}")
    return np.arange(N) / N


def make_test_signal(name: str, N: int = 1024) -> np.ndarray:
    """A named 1-d test signal on ``time_grid(N)``, scaled to unit norm.

    ``"lidar"``: the pulse train defined by ``_PULSE_BOXES`` (sharp returns
    of varying width and amplitude over a zero baseline).
    ``"doppler"``: sqrt(t (1 - t)) sin(2 pi * 1.05 / (t + 0.05)).
    """
    t = time_grid(N)
    if name == "lidar":
        f = np.zeros(N)
        for start, stop, height in _PULSE_BOXES:
            f[(t >= start) & (t < stop)] = height
    elif name == "doppler":
        f = np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * 1.05 / (t + 0.05))
    else:
        raise ParameterError(f"unknown test signal {name!r}; options are lidar, doppler")
    return _unit_norm(f)


def make_x_profile(N: int = 1024) -> np.ndarray:
    """Location profile exp(-|x - 1/2| x^3) on ``time_grid(N)``, unit norm."""
    x = time_grid(N)
    return _unit_norm(np.exp(-np.abs(x - 0.5) * x**3))


def make_target(name: str, N: int = 1024) -> SampledField:
    """Tensor-product truth f(t, x) = signal(t) * profile(x), unit norm."""
    return SampledField(np.outer(make_test_signal(name, N), make_x_profile(N)))


def _unit_norm(f: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.mean(f**2))
    if scale == 0.0:
        raise DegenerateInputError("signal is identically zero")
    return f / scale


def make_kernel(
    N: int = 1024,
    nu_declared: float = 0.5,
    periodization: str = "circular",
    unit_mass: bool = False,
) -> BlurKernel:
    """Sample the blur g(t, x) = 0.5 exp(-|t| (1 + (x - 1/2)^2)).

    ``periodization`` controls how ``|t|`` is read on the circle:

    * ``"circular"``: |t| = min(t, 1 - t), a symmetric two-sided pulse. Its
      transform decays like m^-2 with alternating even/odd envelopes.
    * ``"grid"``: |t| = t on [0, 1), one-sided with a wrap-around jump at
      zero. Its transform decays smoothly like 1/(2 pi m).

    ``unit_mass=True`` rescales so the kernel has unit Riemann mass
    ``mean(samples) == 1``, preserving the x-shape. The experiment pipeline
    uses grid sampling with unit mass; see the package documentation for the
    measured consequences of each choice.
    """
    if periodization not in ("circular", "grid"):
        raise ParameterError(
            f"periodization must be 'circular' or 'grid', got {periodization!r}"
        )
    t = time_grid(N)
    dist = np.minimum(t, 1.0 - t) if periodization == "circular" else t
    rate = 1.0 + (time_grid(N) - 0.5) ** 2
    samples = 0.5 * np.exp(-np.outer(dist, rate))
    if unit_mass:
        samples = samples / np.mean(samples)
    return _finish_kernel(samples, nu_declared, periodization, unit_mass)


def make_power_kernel(N: int, nu: float = 0.5) -> BlurKernel:
    """Synthetic x-free kernel with exactly |g~(m)| = (1 + |m|)^-nu.

    Useful for checking variance scalings against a kernel whose degree of
    ill-posedness is known exactly rather than fitted.
    """
    if nu < 0:
        raise ParameterError(f"nu must be nonnegative, got {nu}")
    m = np.arange(N)
    m[m >= N // 2] -= N
    spectrum = (1.0 + np.abs(m)) ** -float(nu)
    column = np.fft.ifft(spectrum * N).real
    samples = np.tile(column[:, None], (1, N))
    return _finish_kernel(samples, nu, "synthetic-power", False)


def _finish_kernel(
    samples: np.ndarray, nu_declared: float, periodization: str, unit_mass: bool
) -> BlurKernel:
    N = samples.shape[0]
    fourier_t = np.fft.fft(samples, axis=0) / N
    mags = np.abs(fourier_t)
    m = np.arange(N)
    m[m >= N // 2] -= N
    weight = (1.0 + np.abs(m, dtype=float)) ** (2.0 * nu_declared)
    weighted = mags**2 * weight[:, None]
    # decay regression on the centre column over a dyadic frequency range;
    # a slope needs at least two distinct frequencies, so tiny grids get nan
    fit_m = np.unique(np.round(np.logspace(np.log10(2), np.log10(N // 8), 24)).astype(int))
    centre = mags[:, N // 2]
    if fit_m.size < 2:
        nu_measured = float("nan")
    else:
        nu_measured = -float(np.polyfit(np.log(fit_m), np.log(centre[fit_m]), 1)[0])
    return BlurKernel(
        samples=samples,
        fourier_t=fourier_t,
        nu_declared=float(nu_declared),
        nu_measured=nu_measured,
        c1=float(weighted.min()),
        c2=float(weighted.max()),
        periodization=periodization,
        unit_mass=unit_mass,
    )


def convolve_columns(field, kernel) -> np.ndarray:
    """Circular convolution along axis 0, column by column, with Riemann 1/N.

    ``q(t_i, x_l) = (1/N) sum_s field(t_s, x_l) kernel(t_{i-s mod N}, x_l)``.

    Both factors are real, so the product is taken on the non-negative
    frequencies of real FFTs. A :class:`BlurKernel` supplies its stored
    ``fourier_t``; a raw sample array is transformed here.
    """
    f = np.asarray(field, dtype=float)
    g = kernel.samples if isinstance(kernel, BlurKernel) else np.asarray(kernel, dtype=float)
    if f.shape != g.shape or f.ndim != 2:
        raise ParameterError(
            f"field and kernel must be equal square arrays, got {f.shape} and {g.shape}"
        )
    N = f.shape[0]
    if isinstance(kernel, BlurKernel):
        spectrum = kernel.fourier_t[: N // 2 + 1]
    else:
        spectrum = np.fft.rfft(g, axis=0, norm="forward")
    return np.fft.irfft(np.fft.rfft(f, axis=0) * spectrum, n=N, axis=0)


def calibrate_sigma(q, snr_db: float) -> float:
    """Noise level giving the requested blurred signal-to-noise ratio in dB.

    SNR = 10 log10(||q||^2 / sigma^2), so sigma = ||q|| 10^(-SNR/20).
    """
    qv = q.values if isinstance(q, SampledField) else np.asarray(q, dtype=float)
    norm = np.sqrt(np.mean(qv**2))
    if norm == 0.0:
        raise DegenerateInputError("blurred signal is identically zero; SNR undefined")
    return float(norm * 10.0 ** (-snr_db / 20.0))


def observe(q, sigma: float, sheet: NoiseSheet) -> SampledField:
    """Noisy observation Y = q + sigma * noise."""
    qv = q.values if isinstance(q, SampledField) else np.asarray(q, dtype=float)
    if sigma < 0:
        raise ParameterError(f"sigma must be nonnegative, got {sigma}")
    if qv.shape != sheet.values.shape:
        raise ParameterError(
            f"signal shape {qv.shape} does not match sheet shape {sheet.values.shape}"
        )
    return SampledField(qv + sigma * sheet.values)
