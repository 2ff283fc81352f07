"""Orthonormal periodized Meyer wavelets on dyadic grids.

Everything here works in the Fourier domain. A function sampled on the grid
``t_i = i/N`` (``N = 2^n``) is identified with its Fourier coefficients
``f~(m) = (1/N) sum_i f(t_i) exp(-2 pi i m t_i)``, and a wavelet coefficient
is the inner product ``beta_{j,k} = sum_m conj(psi~_{j,k}(m)) f~(m)`` taken
over the ``N`` integer frequencies ``m in [-N/2, N/2)``.

The basis consists of one scaling block and wavelet blocks:

* scaling block, stored under the label ``j = m0 - 1``, holding the ``2^m0``
  shifts of the periodized Meyer scaling function at scale ``m0``;
* wavelet levels ``j = m0, ..., log2(N) - 2`` with the classical window
  ``psi~_{j,k}(m) = 2^{-j/2} exp(i pi m / 2^j) b(2 pi m / 2^j)
  exp(-2 pi i m k / 2^j)``, supported on ``2^j/3 < |m| < 2^{j+2}/3``;
* a completion level ``j = log2(N) - 1`` whose window magnitude is
  ``sqrt(1 - (sum of all coarser squared windows))``. On ``(N/6, N/3]`` this
  coincides with the classical window; on ``(N/3, N/2]`` it equals one and
  absorbs the mass that finer scales would carry on a longer grid. Without
  this completion the top-level band would fold over the Nyquist frequency
  and the system would not be orthonormal.

With the completion the ``N`` atoms form an exactly orthonormal basis of
``C^N`` for the inner product above, so round trips and Plancherel identities
hold to rounding error, not just asymptotically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: Coefficients of the usual degree-7 auxiliary polynomial
#: nu(x) = x^4 (35 - 84 x + 70 x^2 - 20 x^3), in ``np.polyval`` order.
#: It satisfies nu(x) + nu(1 - x) = 1, which is what every orthogonality
#: identity below rests on.
_NU_COEFFS = (-20.0, 70.0, -84.0, 35.0, 0.0, 0.0, 0.0, 0.0)

_TWO_PI = 2.0 * np.pi


def _nu(x: np.ndarray) -> np.ndarray:
    """Auxiliary smoothing polynomial, input and value both clipped to [0, 1].

    Near the ramp ends the evaluated polynomial can round a few ulps outside
    [0, 1]; clipping the value keeps the window formulas exactly in range.
    """
    return np.clip(np.polyval(_NU_COEFFS, np.clip(x, 0.0, 1.0)), 0.0, 1.0)


def _scaling_window(u: np.ndarray) -> np.ndarray:
    """Meyer scaling symbol phi^(u).

    Equals 1 for |u| <= 2 pi / 3, decays as cos(pi/2 nu(3|u|/(2 pi) - 1)) on
    the ramp 2 pi / 3 < |u| <= 4 pi / 3, and vanishes beyond.
    """
    a = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(a)
    out[a <= _TWO_PI / 3] = 1.0
    ramp = (a > _TWO_PI / 3) & (a <= 2 * _TWO_PI / 3)
    out[ramp] = np.cos(np.pi / 2 * _nu(3 * a[ramp] / _TWO_PI - 1))
    return out


def _wavelet_window(u: np.ndarray) -> np.ndarray:
    """Magnitude of the Meyer wavelet symbol, supported on 2 pi/3 <= |u| <= 8 pi/3."""
    a = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(a)
    lo = (a >= _TWO_PI / 3) & (a <= 2 * _TWO_PI / 3)
    out[lo] = np.sin(np.pi / 2 * _nu(3 * a[lo] / _TWO_PI - 1))
    hi = (a > 2 * _TWO_PI / 3) & (a <= 4 * _TWO_PI / 3)
    out[hi] = np.cos(np.pi / 2 * _nu(3 * a[hi] / (2 * _TWO_PI) - 1))
    return out


def _signed_bins(size: int) -> np.ndarray:
    """Integer frequencies in FFT bin order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
    m = np.arange(size, dtype=np.int64)
    m[m >= size // 2] -= size
    return m


class MeyerFilter:
    """Cached Fourier windows of the discrete Meyer system for one grid size.

    Parameters
    ----------
    size : int
        Grid length ``N``; must be a power of two with ``N >= 2^(m0+1)``.
    m0 : int
        Coarsest wavelet scale. The scaling block is stored under the label
        ``m0 - 1`` and holds ``2^m0`` coefficients.

    Notes
    -----
    Window arrays are stored in FFT bin order and frozen (read-only views are
    handed out). Levels run over ``m0-1, m0, ..., log2(N)-1``; the last one
    carries the completion window described in the module docstring.
    """

    def __init__(self, size: int, m0: int = 3):
        if size < 4 or size & (size - 1):
            raise ParameterError(f"grid size must be a power of two >= 4, got {size}")
        n = size.bit_length() - 1
        if not 1 <= m0 <= n - 1:
            raise ParameterError(
                f"m0 must lie in [1, {n - 1}] for size {size}, got {m0}"
            )
        self.size = size
        self.m0 = m0
        self.max_level = n - 1

        m = _signed_bins(size)
        self._m = m
        windows: dict[int, np.ndarray] = {}

        scaling = _scaling_window(_TWO_PI * m / 2.0**m0)
        windows[m0 - 1] = scaling.astype(np.complex128)
        for j in range(m0, self.max_level):
            b = _wavelet_window(_TWO_PI * m / 2.0**j)
            windows[j] = np.exp(1j * np.pi * m / 2.0**j) * b

        # Completion window: the classical level-(n-1) window on the lower
        # third of the spectrum, constant one beyond it. Algebraically this is
        # sqrt(1 - sum of all coarser squared windows), but it must not be
        # computed that way: near the band edges the subtraction cancels
        # catastrophically and the basis loses orthogonality at ~1e-9.
        top = self.max_level
        c = _wavelet_window(_TWO_PI * m / 2.0**top)
        c[3 * np.abs(m) > 2 ** (top + 1)] = 1.0
        c[3 * np.abs(m) <= 2**top] = 0.0
        windows[top] = np.exp(1j * np.pi * m / 2.0**top) * c

        for w in windows.values():
            w.flags.writeable = False
        self._windows = windows
        self._runs = {
            j: _support_runs(np.abs(w) > 0, self.block_length(j))
            for j, w in windows.items()
        }

    @property
    def levels(self) -> tuple[int, ...]:
        """All block labels, coarsest first: (m0-1, m0, ..., log2(N)-1)."""
        return (self.m0 - 1,) + tuple(range(self.m0, self.max_level + 1))

    def levels_up_to(self, J: int) -> tuple[int, ...]:
        """Block labels for a transform truncated at level ``J``."""
        if not self.m0 - 1 <= J <= self.max_level:
            raise ParameterError(
                f"J must lie in [{self.m0 - 1}, {self.max_level}] "
                f"for size {self.size}, got {J}"
            )
        return (self.m0 - 1,) + tuple(range(self.m0, J + 1))

    def block_length(self, j: int) -> int:
        """Number of shifts in block ``j`` (the scaling block has 2^m0)."""
        self._check_level(j)
        return 2 ** self.m0 if j == self.m0 - 1 else 2**j

    def window(self, j: int) -> np.ndarray:
        """Read-only complex window of block ``j`` in FFT bin order."""
        self._check_level(j)
        return self._windows[j]

    def support_runs(self, j: int) -> tuple[tuple[int, int], ...]:
        """Rows where block ``j``'s window is non-zero, as ``(start, stop)`` runs.

        Rows are in FFT bin order, and each run maps onto consecutive
        residues modulo the block length ``L``: row ``m`` folds onto residue
        ``m mod L``. A wavelet window is non-zero on ``L/3 < |m| < 4L/3``, the
        scaling window on ``|m| <= 2L/3`` and the completion window on
        ``|m| > N/6``; each of these sets is shorter than ``2L`` and each
        of its signs is one interval, so every residue receives at most two
        rows. A fold over the runs therefore adds exactly the non-zero terms
        of a fold over all ``N`` rows, and two terms sum the same in either
        order.
        """
        self._check_level(j)
        return self._runs[j]

    def band(self, j: int) -> np.ndarray:
        """Sorted signed integer frequencies where block ``j`` is non-zero."""
        w = self.window(j)
        return np.sort(self._m[np.abs(w) > 0])

    def filter_coefficient(self, j: int, k: int, m) -> complex | np.ndarray:
        """Fourier coefficient ``psi~_{j,k}(m)`` of one basis atom.

        ``m`` may be a scalar or an array of integers; it is reduced modulo
        the grid size, which is consistent because the shift phase
        ``exp(-2 pi i m k / L)`` has period ``N`` in ``m`` as well.
        """
        self._check_level(j)
        L = self.block_length(j)
        if not 0 <= k < L:
            raise IndexError(f"shift k must lie in [0, {L}) at level {j}, got {k}")
        mm = np.asarray(m)
        w = self._windows[j][np.mod(mm, self.size)]
        val = w * np.exp(-2j * np.pi * mm * k / L) / np.sqrt(L)
        return complex(val) if np.isscalar(m) else val

    def _check_level(self, j: int) -> None:
        if j not in self._windows:
            raise ParameterError(f"no block labelled {j}; levels are {self.levels}")


def _support_runs(mask: np.ndarray, L: int) -> tuple[tuple[int, int], ...]:
    """Runs of consecutive ``True`` rows of ``mask``, also split at multiples of ``L``."""
    rows = np.flatnonzero(mask)
    breaks = np.flatnonzero((np.diff(rows) != 1) | (rows[1:] % L == 0)) + 1
    return tuple((int(run[0]), int(run[-1]) + 1) for run in np.split(rows, breaks))


@functools.lru_cache(maxsize=None)
def meyer_filter(size: int, m0: int = 3) -> MeyerFilter:
    """Memoized :class:`MeyerFilter` for the given grid size."""
    return MeyerFilter(size, m0)


def level_slice(j: int, m0: int) -> slice:
    """Rows of a packed coefficient array occupied by block ``j``.

    The scaling block sits in ``[0, 2^m0)`` and wavelet level ``j`` in
    ``[2^j, 2^(j+1))``; together the blocks up to ``J`` tile ``[0, 2^(J+1))``.
    """
    if j == m0 - 1:
        return slice(0, 2**m0)
    if j < m0:
        raise ParameterError(f"no block labelled {j} when m0 = {m0}")
    return slice(2**j, 2 ** (j + 1))


def _analyze(spectra: np.ndarray, filt: MeyerFilter, J: int) -> np.ndarray:
    """Wavelet analysis along axis 0.

    ``spectra`` has shape (N, B) and holds the axis-0 DFT of the data divided
    by N; only the rows ``[-2^(J+1), 2^(J+1))`` are read. Returns packed
    coefficients of shape (2^(J+1), B). For each block the band content is
    folded onto residues modulo the block length, using only the rows of
    :meth:`MeyerFilter.support_runs`; the inverse DFT of the folded array
    evaluates all shifts at once.
    """
    B = spectra.shape[1]
    out = np.empty((2 ** (J + 1), B), dtype=np.complex128)
    for j in filt.levels_up_to(J):
        L = filt.block_length(j)
        w = filt.window(j)
        folded = np.zeros((L, B), dtype=np.complex128)
        for start, stop in filt.support_runs(j):
            r = start % L
            z = np.conj(w[start:stop])[:, None] * spectra[start:stop]
            folded[r : r + stop - start] += z
        np.multiply(np.sqrt(L), np.fft.ifft(folded, axis=0), out=out[level_slice(j, filt.m0)])
    return out


def _synthesize(coeffs: np.ndarray, filt: MeyerFilter, J: int) -> np.ndarray:
    """Adjoint of :func:`_analyze`: packed (2^(J+1), B) coefficients -> (N, B) data."""
    N = filt.size
    B = coeffs.shape[1]
    spectra = np.zeros((N, B), dtype=np.complex128)
    for j in filt.levels_up_to(J):
        L = filt.block_length(j)
        w = filt.window(j)
        shifted = np.fft.fft(coeffs[level_slice(j, filt.m0)], axis=0) / np.sqrt(L)
        for start, stop in filt.support_runs(j):
            r = start % L
            spectra[start:stop] += w[start:stop, None] * shifted[r : r + stop - start]
    return np.fft.ifft(spectra * N, axis=0)


def _real_spectrum(half: np.ndarray, N: int, J: int) -> np.ndarray:
    """Axis-0 spectrum in FFT bin order of a real signal, from its ``rfft``.

    ``half`` holds the rows ``0..N/2`` of the spectrum. Only the rows
    ``[-2^(J+1), 2^(J+1))`` that :func:`_analyze` reads at level ``J`` are
    filled, the negative ones by conjugate symmetry; the rest are zero.
    """
    K = min(2 ** (J + 1), N // 2)
    out = np.zeros((N,) + half.shape[1:], dtype=np.complex128)
    out[:K] = half[:K]
    out[N - K :] = np.conj(half[K:0:-1])
    return out


def _resolve_J(filt: MeyerFilter, J: int | None) -> int:
    J = filt.max_level if J is None else J
    filt.levels_up_to(J)  # validates J against N and m0
    return J


def forward_1d(signal, J: int | None = None, m0: int = 3) -> np.ndarray:
    """Packed Meyer coefficients of a 1-d signal.

    Parameters
    ----------
    signal : array_like
        Samples on ``t_i = i/N`` with ``N`` a power of two ``>= 2^(m0+1)``.
    J : int, optional
        Finest level to include; defaults to ``log2(N) - 1`` (a complete,
        invertible transform). Smaller ``J`` computes the coefficients of the
        orthogonal projection onto the blocks up to ``J``.

    Returns
    -------
    ndarray of shape (2^(J+1),), real when the input is real.
    """
    x = np.asarray(signal)
    if x.ndim != 1:
        raise ParameterError(f"expected a 1-d signal, got shape {x.shape}")
    filt = meyer_filter(x.size, m0)
    J = _resolve_J(filt, J)
    spectra = (np.fft.fft(x) / x.size)[:, None]
    coeffs = _analyze(spectra, filt, J)[:, 0]
    return coeffs.real if not np.iscomplexobj(x) else coeffs


def inverse_1d(coeffs, N: int, m0: int = 3) -> np.ndarray:
    """Reconstruct ``N`` samples from packed 1-d coefficients.

    When the coefficients cover all levels of the size-``N`` system this is
    the exact inverse of :func:`forward_1d`; with fewer levels it synthesizes
    the corresponding orthogonal projection.
    """
    c = np.asarray(coeffs)
    if c.ndim != 1 or c.size < 4 or c.size & (c.size - 1):
        raise ParameterError(
            f"coefficients must be a packed dyadic vector, got shape {c.shape}"
        )
    filt = meyer_filter(N, m0)
    J = c.size.bit_length() - 2
    filt.levels_up_to(J)  # validates J against N and m0
    out = _synthesize(c[:, None].astype(np.complex128), filt, J)[:, 0]
    return out.real if not np.iscomplexobj(c) else out


@dataclass(eq=False)
class WaveletCoeffs2D:
    """Packed 2-d Meyer coefficients.

    ``values[r1, r2]`` holds the coefficient of the atom
    ``psi_{j1,k1} x psi_{j2,k2}`` where row index ``r1`` encodes ``(j1, k1)``
    through the packing of :func:`level_slice` (and likewise columns).

    The scaling block is labelled ``m0 - 1`` in both directions; that label is
    a storage and bookkeeping convention (thresholds and CSV output use it),
    while the block itself holds the ``2^m0`` scaling shifts.
    """

    values: np.ndarray
    m0: int
    J1: int
    J2: int

    def __post_init__(self):
        expect = (2 ** (self.J1 + 1), 2 ** (self.J2 + 1))
        if self.values.shape != expect:
            raise ParameterError(
                f"values shape {self.values.shape} does not match levels "
                f"(J1={self.J1}, J2={self.J2}); expected {expect}"
            )

    @property
    def levels1(self) -> tuple[int, ...]:
        return (self.m0 - 1,) + tuple(range(self.m0, self.J1 + 1))

    @property
    def levels2(self) -> tuple[int, ...]:
        return (self.m0 - 1,) + tuple(range(self.m0, self.J2 + 1))

    def block(self, j1: int, j2: int) -> np.ndarray:
        """View of the (j1, j2) coefficient block."""
        if j1 not in self.levels1 or j2 not in self.levels2:
            raise ParameterError(
                f"no block ({j1}, {j2}); levels are {self.levels1} x {self.levels2}"
            )
        return self.values[level_slice(j1, self.m0), level_slice(j2, self.m0)]

    def blocks(self):
        """Iterate ``(j1, j2, view)`` over all blocks."""
        for j1 in self.levels1:
            for j2 in self.levels2:
                yield j1, j2, self.block(j1, j2)

    def truncated(self, J1: int, J2: int) -> "WaveletCoeffs2D":
        """Coefficients of the orthogonal projection onto levels <= (J1, J2)."""
        if not (self.m0 - 1 <= J1 <= self.J1 and self.m0 - 1 <= J2 <= self.J2):
            raise ParameterError(
                f"truncation levels ({J1}, {J2}) must not exceed ({self.J1}, {self.J2})"
            )
        vals = self.values[: 2 ** (J1 + 1), : 2 ** (J2 + 1)].copy()
        return WaveletCoeffs2D(vals, self.m0, J1, J2)

    def copy(self) -> "WaveletCoeffs2D":
        return WaveletCoeffs2D(self.values.copy(), self.m0, self.J1, self.J2)

    def energy(self) -> float:
        """Sum of squared moduli; equals the squared L2([0,1]^2) norm."""
        return float(np.sum(np.abs(self.values) ** 2))


def analyze_spectrum(
    spectrum: np.ndarray,
    J1: int | None = None,
    J2: int | None = None,
    m0: int = 3,
    real: bool = False,
) -> WaveletCoeffs2D:
    """Separable 2-d Meyer analysis of a field given by its axis-0 spectrum.

    ``spectrum`` is the ``N x N`` axis-0 DFT of the field divided by ``N``, in
    FFT bin order; only its rows ``[-2^(J1+1), 2^(J1+1))`` are read, so the
    others may be left at zero. Axis 0 is analysed first, then axis 1. With
    ``real`` the field is known to be real: its coefficients are real, so the
    imaginary rounding dust of the axis-0 stage is dropped, axis 1 uses a real
    FFT, and the returned values are real.
    """
    S = np.asarray(spectrum)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ParameterError(f"expected a square 2-d spectrum, got shape {S.shape}")
    N = S.shape[0]
    filt = meyer_filter(N, m0)
    J1 = _resolve_J(filt, J1)
    J2 = _resolve_J(filt, J2)
    U = _analyze(S, filt, J1)
    if real:
        half = np.fft.rfft(U.real, axis=1, norm="forward").T
        C = _analyze(_real_spectrum(half, N, J2), filt, J2).T.real
    else:
        C = _analyze(np.fft.fft(U, axis=1, norm="forward").T, filt, J2).T
    return WaveletCoeffs2D(C, m0, J1, J2)


def forward_2d(field, J1: int | None = None, J2: int | None = None, m0: int = 3) -> WaveletCoeffs2D:
    """Separable 2-d Meyer analysis: axis 0 first, then axis 1.

    ``field`` must be a square ``N x N`` array sampled on the product grid.
    Truncating at ``(J1, J2)`` yields the coefficients of the orthogonal
    projection onto the tensor blocks up to those levels. Real fields get
    real coefficients.
    """
    x = np.asarray(field)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ParameterError(f"expected a square 2-d field, got shape {x.shape}")
    if np.iscomplexobj(x):
        return analyze_spectrum(np.fft.fft(x, axis=0, norm="forward"), J1, J2, m0)
    N = x.shape[0]
    J1 = _resolve_J(meyer_filter(N, m0), J1)
    half = np.fft.rfft(x, axis=0, norm="forward")
    return analyze_spectrum(_real_spectrum(half, N, J1), J1, J2, m0, real=True)


def inverse_2d(coeffs: WaveletCoeffs2D, N: int) -> np.ndarray:
    """Reconstruct an ``N x N`` field from 2-d coefficients.

    Exact inverse of :func:`forward_2d` when the coefficients carry all
    levels of the size-``N`` system; otherwise the orthogonal projection.
    """
    filt = meyer_filter(N, coeffs.m0)
    filt.levels_up_to(coeffs.J1)
    filt.levels_up_to(coeffs.J2)
    vals = coeffs.values.astype(np.complex128)
    U = _synthesize(vals.T, filt, coeffs.J2).T
    out = _synthesize(U, filt, coeffs.J1)
    return out.real if not np.iscomplexobj(coeffs.values) else out
