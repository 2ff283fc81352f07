"""Correctness checks on the files the ``fdeconv`` command writes.

Every check compares against a bound, a closed form or an independent
path, never against a stored copy of earlier output. Each returns a list
of problems; an empty list means the check passed. Reports are read by
key, so added keys (a later schema version) do not break a check.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Coarsest wavelet scale of the program's transforms; the scaling block
#: is labelled M0 - 1, the lowest level any selection can clamp to.
M0 = 3

#: Allowed gap between a sheet's lag-1 sample autocorrelation and the fGn
#: value. Sixteen seeds at N = 1024 gave a standard deviation of 0.0013
#: and a largest gap of 0.0026.
ACF_TOLERANCE = 0.01

#: Round-trip and Plancherel tolerances of the transform workload.
TRANSFORM_TOLERANCE = 1e-10


def read_kv(path: str) -> dict:
    """``key=value`` report lines into a dict of strings."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def read_csv_dicts(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def projection_floor(truth_coeffs: np.ndarray, j1: int, j2: int) -> float:
    """Energy of the truth outside the blocks up to ``(j1, j2)``.

    ``truth_coeffs`` are the full-depth packed coefficients of the truth.
    An estimate built from the kept blocks only cannot come closer.
    """
    energy = np.abs(truth_coeffs) ** 2
    kept = np.zeros(energy.shape, dtype=bool)
    kept[: 2 ** (j1 + 1), : 2 ** (j2 + 1)] = True
    return float(energy[~kept].sum())


def check_errors(errors, floor: float, label: str = "run") -> list:
    """Each error finite and between the projection floor and ||f||^2 = 1."""
    problems = []
    for i, err in enumerate(errors):
        if not math.isfinite(err):
            problems.append(f"{label} {i}: error {err!r} is not finite")
        elif err < floor:
            problems.append(f"{label} {i}: error {err!r} below the projection floor {floor!r}")
        elif err > 1.0:
            problems.append(f"{label} {i}: error {err!r} above the zero estimator's 1")
    return problems


def check_epsilon(report: dict) -> list:
    """``epsilon`` equals sigma^(1/alpha_bar) / N."""
    sigma = float(report["sigma"])
    n = int(report["n"])
    alpha_bar = 0.5 * (float(report["alpha1"]) + float(report["alpha2"]))
    expected = sigma ** (1.0 / alpha_bar) / n
    got = float(report["epsilon"])
    if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0):
        return [f"epsilon {got!r} differs from sigma^(1/alpha_bar)/N = {expected!r}"]
    return []


def auto_j1(report: dict) -> int:
    """Closed-form first-axis level, floored and clamped to the grid."""
    eps = float(report["epsilon"])
    a1 = float(report["alpha1"])
    alpha_bar = 0.5 * (a1 + float(report["alpha2"]))
    nu = float(report["nu"])
    raw = 2.0 * alpha_bar * math.log2(1.0 / eps) / (2.0 * nu + a1)
    top = int(report["n"]).bit_length() - 2
    return min(max(math.floor(raw), M0 - 1), top)


def check_level(report: dict, key: str, expected: int) -> list:
    got = int(report[key])
    if got != expected:
        return [f"{key} = {got}, expected {expected}"]
    return []


def lag1_autocorrelations(values: np.ndarray) -> tuple:
    """Lag-1 sample autocorrelation along axis 0 and axis 1 (no centring)."""
    v = np.asarray(values, dtype=float)
    power = np.mean(v * v)
    return (
        float(np.mean(v[:-1] * v[1:]) / power),
        float(np.mean(v[:, :-1] * v[:, 1:]) / power),
    )


def check_sheet_acf(values: np.ndarray, alpha) -> list:
    """Lag-1 autocorrelations match fGn's 0.5 (2^(2H) - 2), H = 1 - alpha/2."""
    problems = []
    for axis, (got, a) in enumerate(zip(lag1_autocorrelations(values), alpha)):
        hurst = 1.0 - a / 2.0
        expected = 0.5 * (2.0 ** (2.0 * hurst) - 2.0)
        if abs(got - expected) > ACF_TOLERANCE:
            problems.append(
                f"axis {axis}: lag-1 autocorrelation {got:.5f}, fGn value {expected:.5f}"
            )
    return problems


def check_table(rows, cells: int, floors: dict) -> list:
    """All cells ok, each MISE between its floor and 1.

    ``floors`` maps ``(signal, j1)`` to the projection floor.
    """
    problems = []
    if len(rows) != cells:
        problems.append(f"table has {len(rows)} cells, expected {cells}")
    for i, row in enumerate(rows):
        if row["status"] != "ok":
            problems.append(f"cell {i}: status {row['status']!r}")
            continue
        floor = floors[(row["signal"], int(row["j1"]))]
        problems += check_errors([float(row["mise"])], floor, label=f"cell {i} mise")
    return problems


def check_recompute(table_mise: float, simulate_mise: float) -> list:
    """A cell recomputed at one job matches the sweep bit for bit."""
    if table_mise != simulate_mise:
        return [f"table mise {table_mise!r} != jobs-1 simulate mise {simulate_mise!r}"]
    return []


def field_grid(rows: np.ndarray, N: int) -> np.ndarray:
    """``t,x,value`` rows (as a float array) into an N x N grid."""
    grid = np.full((N, N), np.nan)
    i = np.rint(rows[:, 0] * N).astype(int)
    j = np.rint(rows[:, 1] * N).astype(int)
    grid[i, j] = rows[:, 2]
    return grid


def check_transform(field: np.ndarray, coeff_rows: np.ndarray, back: np.ndarray) -> list:
    """Round trip, coefficient count and Plancherel of a forward/inverse pair.

    ``field`` is the input grid, ``coeff_rows`` the ``j1,k1,j2,k2,real,imag``
    rows of the forward output, ``back`` the grid the inverse wrote.
    """
    problems = []
    N = field.shape[0]
    if coeff_rows.shape[0] != N * N:
        problems.append(f"{coeff_rows.shape[0]} coefficient rows, expected {N * N}")
    gap = float(np.max(np.abs(back - field)))
    if not gap <= TRANSFORM_TOLERANCE:
        problems.append(f"inverse of forward is {gap:.3e} from the input")
    energy = float(np.sum(coeff_rows[:, 4] ** 2 + coeff_rows[:, 5] ** 2))
    power = float(np.mean(field**2))
    if not abs(energy - power) <= TRANSFORM_TOLERANCE * power:
        problems.append(f"sum |c|^2 = {energy!r} but mean(field^2) = {power!r}")
    return problems
