"""Command line workflows around the deconvolution estimator.

Four subcommands cover the full experiment cycle:

``simulate``
    One Monte Carlo experiment at a fixed configuration. Writes a
    configuration echo, per-run errors, a one-row summary, and a flat
    risk report into the output directory.

``table``
    Risk sweep over a grid of signals, signal-to-noise ratios, and
    long-memory pairs, one row per cell. Failed cells are marked in a
    status column and do not abort the sweep; each (signal, SNR) group
    gets a flag recording whether risk degrades from the weakest-memory
    pair to the strongest.

``rates``
    Theoretical convergence-rate curves for a smoothness/loss query,
    optionally plotted and optionally compared against empirical risk
    reports produced by ``simulate`` across several grid sizes.

``transform``
    Standalone forward or inverse wavelet transform between a sampled
    field CSV and a coefficient CSV.

All artifacts are comma-separated UTF-8 with a header row, ``.`` as the
decimal mark, and ``repr`` floats, so a fixed seed gives bit-identical
files. Per-run random streams are seeded from ``(seed, run index)``,
which makes results independent of the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import multiprocessing
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from .errors import ConfigError, FdeconvError
from .estimator import (
    DEFAULT_GAMMA,
    RiskReport,
    ThresholdPolicy,
    epsilon_from_sigma,
    estimate_coefficients,
    resolve_levels,
)
from .lrdnoise import _CONSTRUCTIONS as NOISE_CONSTRUCTIONS
from .lrdnoise import LongMemoryParams, noise_sheet
from .meyer import WaveletCoeffs2D, forward_2d, inverse_2d
from .model import (
    calibrate_sigma,
    convolve_columns,
    make_kernel,
    make_power_kernel,
    make_target,
    observe,
)
from .rates import RateQuery, classify, rate_curve, write_rate_curve

SCHEMA_VERSION = 2

SIGNALS = ("lidar", "doppler")
KERNELS = ("power", "grid", "circular")

DEFAULT_SNRS = (10.0, 20.0, 30.0)
DEFAULT_ALPHA_PAIRS = (
    (0.8, 0.6),
    (0.8, 0.4),
    (0.8, 0.2),
    (0.6, 0.4),
    (0.6, 0.2),
    (0.4, 0.2),
)

# Finest levels used by the reference experiments at the standard
# operating points; selected by mode "preset".
PRESET_J1 = {10.0: 3, 20.0: 4, 30.0: 5}
PRESET_J2 = {10.0: 5, 20.0: 5, 30.0: 5}

DEFAULT_EPSILONS = tuple(float(x) for x in np.geomspace(0.5, 1e-3, 13))

_M0 = 3
_LEVEL_FLOOR = _M0 - 1


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}") from None


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {text!r}") from None


def _parse_bool(name: str, text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{name} must be 'true' or 'false', got {text!r}")


def _level_arg(label: str, text: str, snr_db: float) -> int | None:
    """A level mode as :func:`resolve_levels` takes it: ``None`` for auto, else the level."""
    if text == "auto":
        return None
    if text == "preset":
        table = PRESET_J1 if label == "j1" else PRESET_J2
        if float(snr_db) not in table:
            raise ConfigError(
                f"{label}=preset needs snr_db in {sorted(table)}, got {snr_db}"
            )
        return table[float(snr_db)]
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"{label} must be 'auto', 'preset', or an integer level, got {text!r}"
        ) from None


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one Monte Carlo deconvolution experiment.

    ``j1``/``j2`` are strings: ``"auto"`` selects the level from the
    noise size, ``"preset"`` uses the stored 10/20/30 dB values, and a
    decimal integer fixes the level directly. ``snr_db = inf`` runs the
    noiseless limit: the noise amplitude is zero, the threshold vanishes,
    and fixed levels are required. ``kernel_unit_mass`` only affects the
    sampled kernels ("grid", "circular"); the "power" kernel is defined
    by its spectrum and ignores it.
    """

    signal: str = "lidar"
    N: int = 1024
    snr_db: float = 20.0
    alpha1: float = 0.8
    alpha2: float = 0.6
    gamma: float = DEFAULT_GAMMA
    nu: float = 0.5
    kernel: str = "power"
    kernel_unit_mass: bool = True
    j1: str = "auto"
    j2: str = "5"
    noise: str = "farima-product"
    runs: int = 200
    seed: int = 0
    outdir: str = "out"

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise ConfigError(f"signal must be one of {SIGNALS}, got {self.signal!r}")
        if isinstance(self.N, bool) or not isinstance(self.N, int):
            raise ConfigError(f"N must be an integer, got {self.N!r}")
        if self.N < 16 or self.N & (self.N - 1):
            raise ConfigError(f"N must be a power of two >= 16, got {self.N}")
        for name in ("snr_db", "alpha1", "alpha2", "gamma", "nu"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError(f"snr_db must be a real number or inf, got {self.snr_db}")
        try:
            LongMemoryParams(self.alpha1, self.alpha2)
        except FdeconvError as exc:
            raise ConfigError(str(exc)) from None
        if not self.gamma >= 0 or math.isinf(self.gamma):
            raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not self.nu >= 0 or math.isinf(self.nu):
            raise ConfigError(f"nu must be finite and >= 0, got {self.nu}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if not isinstance(self.kernel_unit_mass, bool):
            raise ConfigError(
                f"kernel_unit_mass must be a bool, got {self.kernel_unit_mass!r}"
            )
        if self.noise not in NOISE_CONSTRUCTIONS:
            raise ConfigError(
                f"noise must be one of {NOISE_CONSTRUCTIONS}, got {self.noise!r}"
            )
        for name in ("runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.outdir, str) or not self.outdir:
            raise ConfigError(f"outdir must be a non-empty path, got {self.outdir!r}")
        for label in ("j1", "j2"):
            text = getattr(self, label)
            if isinstance(text, int) and not isinstance(text, bool):
                text = str(text)
                object.__setattr__(self, label, text)
            if not isinstance(text, str):
                raise ConfigError(f"{label} must be a string or integer, got {text!r}")
            j, top = _level_arg(label, text, self.snr_db), self.N.bit_length() - 2
            if j is not None and not _LEVEL_FLOOR <= j <= top:
                raise ConfigError(
                    f"{label}={j} outside the level range [{_LEVEL_FLOOR}, {top}] "
                    f"supported by N={self.N}"
                )
            if j is None and math.isinf(self.snr_db):
                raise ConfigError(
                    f"{label}=auto: automatic level selection needs a noise size "
                    "0 < epsilon < 1, and snr_db = inf has none; use fixed j1/j2"
                )

    def level_args(self) -> tuple:
        """``(j1, j2)`` as :func:`resolve_levels` takes them: ``None`` for auto."""
        return tuple(_level_arg(name, getattr(self, name), self.snr_db) for name in ("j1", "j2"))

    def to_mapping(self) -> dict:
        """Serialize to an ordered str -> str mapping, losslessly."""
        out = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool):
                out[field.name] = "true" if value else "false"
            elif isinstance(value, float):
                out[field.name] = repr(value)
            else:
                out[field.name] = str(value)
        return out

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        """Build a config from str -> str pairs; unknown keys are errors."""
        parsers = {
            "signal": None,
            "N": _parse_int,
            "snr_db": _parse_float,
            "alpha1": _parse_float,
            "alpha2": _parse_float,
            "gamma": _parse_float,
            "nu": _parse_float,
            "kernel": None,
            "kernel_unit_mass": _parse_bool,
            "j1": None,
            "j2": None,
            "noise": None,
            "runs": _parse_int,
            "seed": _parse_int,
            "outdir": None,
        }
        kwargs = {}
        for key, text in mapping.items():
            if key not in parsers:
                raise ConfigError(f"unknown configuration key {key!r}")
            parse = parsers[key]
            kwargs[key] = text if parse is None else parse(key, text)
        return cls(**kwargs)

    def to_file(self, path: str) -> None:
        _write_kv(path, self.to_mapping().items())

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        return cls.from_mapping(_read_kv_file(path))

    def to_line(self) -> str:
        """One-line echo of every field, for error context."""
        return " ".join(f"{k}={v}" for k, v in self.to_mapping().items())


def _write_kv(path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_kv_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        out[key.strip()] = value.strip()
    return out


def _build_kernel(cfg: ExperimentConfig):
    if cfg.kernel == "power":
        return make_power_kernel(cfg.N, cfg.nu)
    return make_kernel(
        cfg.N, cfg.nu, periodization=cfg.kernel, unit_mass=cfg.kernel_unit_mass
    )


def _signal_key(cfg: ExperimentConfig) -> tuple:
    """The configuration fields a :class:`_SignalSetup` depends on."""
    return (cfg.signal, cfg.N, cfg.nu, cfg.kernel, cfg.kernel_unit_mass)


class _SignalSetup:
    """The N x N arrays that every cell of one signal shares.

    The truth, the blur kernel and the blurred truth ``q = g * f`` depend on
    the signal, the grid and the blur, but not on the SNR or the memory
    pair, so a sweep builds them once per signal in each process. The
    setup also memoizes what is built per cell: the :class:`_RunContext`
    of each configuration, and the truth's kept coefficients for each pair
    of levels, which cells at the same levels share.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.key = _signal_key(cfg)
        self.truth = make_target(cfg.signal, cfg.N).values
        self.kernel = _build_kernel(cfg)
        self.q = convolve_columns(self.truth, self.kernel)
        self._energy = float(np.mean(self.truth**2))
        self._kept = {}
        self._contexts = {}

    def kept(self, j1: int, j2: int) -> tuple:
        """The truth's coefficients up to ``(j1, j2)`` and its energy beyond them."""
        if (j1, j2) not in self._kept:
            kept = forward_2d(self.truth, j1, j2, m0=_M0)
            self._kept[j1, j2] = (kept.values, max(self._energy - kept.energy(), 0.0))
        return self._kept[j1, j2]

    def context(self, cfg: ExperimentConfig) -> "_RunContext":
        if cfg not in self._contexts:
            self._contexts[cfg] = _RunContext(cfg, self)
        return self._contexts[cfg]


class _RunContext:
    """The per-cell part of what a run needs; cheap next to the signal's set-up.

    Per signal (:class:`_SignalSetup`): the truth, the kernel and ``q``.
    Per cell (here): ``sigma``, ``epsilon``, the threshold policy, the
    levels, the truth's kept coefficients and the tail energy. The context
    holds no N x N array, so a finished cell's context can outlive its
    signal's set-up.

    A run never forms its estimate on the grid. The Meyer basis is
    orthonormal, so by Parseval the run's Riemann squared error
    ``mean((estimate - truth)^2)`` splits into the distance between the
    thresholded coefficients and the truth's coefficients on the kept
    blocks, plus the truth's energy outside them. The context stores the
    truth's coefficients truncated at the run levels ``(j1, j2)`` and that
    energy beyond them, ``||f||^2 - sum of kept squares``, so scoring a run
    is one subtraction and one sum.

    In the noiseless limit (``sigma == 0``) the per-level threshold
    vanishes, so the estimate is the plain truncated reconstruction of
    the deconvolved data; the policy is built with ``gamma = 0`` and a
    placeholder noise size to encode exactly that.
    """

    def __init__(self, cfg: ExperimentConfig, setup: _SignalSetup):
        self.alpha = LongMemoryParams(cfg.alpha1, cfg.alpha2)
        self.sigma = calibrate_sigma(setup.q, cfg.snr_db)
        self.noiseless = self.sigma == 0.0
        if self.noiseless:
            self.epsilon = 0.0
            self.policy = ThresholdPolicy(
                gamma=0.0, epsilon=0.5, alpha=self.alpha, nu=cfg.nu
            )
        else:
            self.epsilon = epsilon_from_sigma(self.sigma, cfg.N, self.alpha)
            self.policy = ThresholdPolicy(
                gamma=cfg.gamma, epsilon=self.epsilon, alpha=self.alpha, nu=cfg.nu
            )
        self.levels = resolve_levels(self.epsilon, self.alpha, cfg.nu, cfg.N, *cfg.level_args())
        self.truth_coeffs, self.tail = setup.kept(self.levels.j1, self.levels.j2)


#: This process's current signal set-up; a sweep replaces it at each new signal.
_SETUP = None


def _setup(cfg: ExperimentConfig) -> _SignalSetup:
    """This process's set-up for ``cfg``'s signal, built if the signal changed."""
    global _SETUP
    if _SETUP is None or _SETUP.key != _signal_key(cfg):
        _SETUP = None  # free the previous signal's arrays before building the next
        _SETUP = _SignalSetup(cfg)
    return _SETUP


def _run_one(cfg: ExperimentConfig, run: int) -> float:
    """Squared error of one run, scored in the coefficient domain."""
    setup = _setup(cfg)
    ctx = setup.context(cfg)
    if ctx.noiseless:
        Y = setup.q
    else:
        seq = np.random.SeedSequence([cfg.seed, run])
        sheet = noise_sheet(ctx.alpha, cfg.N, seed=seq, construction=cfg.noise)
        Y = observe(setup.q, ctx.sigma, sheet)
    coeffs = estimate_coefficients(Y, setup.kernel, ctx.policy, ctx.levels, _M0)
    return float(np.sum((coeffs.values - ctx.truth_coeffs) ** 2)) + ctx.tail


def _sweep(cfgs, jobs: int = 1) -> list:
    """Run the experiments ``cfgs`` in order; one result per experiment.

    A result is ``(RiskReport, _RunContext)``, or the :class:`FdeconvError`
    that stopped that experiment; the others still run. Runs go to
    ``min(jobs, runs)`` workers; with one, they run in this process. Else
    one process pool serves the whole sweep and every experiment's runs are
    queued at once, so workers never wait for the next cell. The pool is
    forked at the first experiment that needs it, so its workers start
    with the parent's set-up of that signal, and each process builds every
    later signal's set-up once. The sweep should be ordered by signal: a
    process keeps one signal's set-up at a time.

    Per-run seeds depend only on ``(cfg.seed, run)`` and every run goes
    through :func:`_run_one`, so the worker count never changes a result.
    """
    global _SETUP
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, max((cfg.runs for cfg in cfgs), default=1))
    pool = None
    pending, results = [], []
    try:
        for cfg in cfgs:
            try:
                ctx = _setup(cfg).context(cfg)
                tasks = [(cfg, run) for run in range(cfg.runs)]
                if workers == 1:
                    errors = [_run_one(*task) for task in tasks]
                else:
                    if pool is None:
                        pool = multiprocessing.Pool(processes=workers)
                    errors = pool.starmap_async(_run_one, tasks)
                pending.append((ctx, errors))
            except FdeconvError as exc:
                pending.append((None, exc))
        for ctx, outcome in pending:
            if ctx is not None and not isinstance(outcome, list):  # still an AsyncResult
                try:
                    outcome = outcome.get()
                except FdeconvError as exc:
                    ctx, outcome = None, exc
            if ctx is not None:
                outcome = RiskReport.from_errors(outcome, ctx.levels.j1, ctx.levels.j2), ctx
            results.append(outcome)
    finally:
        if pool is not None:
            pool.terminate()
        _SETUP = None
    return results


def _simulate(cfg: ExperimentConfig, jobs: int = 1):
    """Run one experiment, a sweep of one cell; return ``(RiskReport, _RunContext)``."""
    (result,) = _sweep([cfg], jobs)
    if isinstance(result, FdeconvError):
        raise result
    return result


@contextlib.contextmanager
def _staged(outdir: str):
    """Yield a staging directory; on success move each file in it into ``outdir``.

    The staging directory is made inside ``outdir``, so every move is a
    rename on one file system: ``outdir`` only ever gains complete files,
    and a write that fails or is interrupted leaves the files of an earlier
    run as they were. The staging directory is removed on every exit Python
    sees; a process killed outright leaves it behind, never a partial file.
    """
    os.makedirs(outdir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=outdir)
    try:
        yield stage
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(outdir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run_simulation(cfg: ExperimentConfig, jobs: int = 1) -> RiskReport:
    """Run one experiment and write its artifacts into ``cfg.outdir``.

    Files: ``config.txt`` (exact configuration echo), ``per_run_errors.csv``
    (run, error), ``summary.csv`` (one row), ``risk_report.txt`` (flat
    key=value report). Everything is computed before anything is written,
    and the files only replace an earlier run's once all of them are written
    (:func:`_staged`).
    """
    report, ctx = _simulate(cfg, jobs)
    with _staged(cfg.outdir) as stage:
        cfg.to_file(os.path.join(stage, "config.txt"))

        _write_csv(
            os.path.join(stage, "per_run_errors.csv"),
            ["run", "error"],
            ([run, repr(error)] for run, error in enumerate(report.per_run)),
        )
        _write_csv(
            os.path.join(stage, "summary.csv"),
            [
                "signal",
                "snr_db",
                "sigma",
                "alpha1",
                "alpha2",
                "gamma",
                "j1",
                "j2",
                "runs",
                "mise",
                "se",
            ],
            [
                [
                    cfg.signal,
                    repr(cfg.snr_db),
                    repr(ctx.sigma),
                    repr(cfg.alpha1),
                    repr(cfg.alpha2),
                    repr(cfg.gamma),
                    ctx.levels.j1,
                    ctx.levels.j2,
                    cfg.runs,
                    repr(report.mise),
                    repr(report.se),
                ]
            ],
        )
        _write_kv(
            os.path.join(stage, "risk_report.txt"),
            [
                ("schema_version", SCHEMA_VERSION),
                ("signal", cfg.signal),
                ("n", cfg.N),
                ("snr_db", repr(cfg.snr_db)),
                ("sigma", repr(ctx.sigma)),
                ("epsilon", repr(ctx.epsilon)),
                ("alpha1", repr(cfg.alpha1)),
                ("alpha2", repr(cfg.alpha2)),
                ("gamma", repr(cfg.gamma)),
                ("nu", repr(cfg.nu)),
                ("kernel", cfg.kernel),
                ("noise", cfg.noise),
                ("j1", ctx.levels.j1),
                ("j2", ctx.levels.j2),
                ("j1_raw", repr(ctx.levels.j1_raw)),
                ("j1_capped", "true" if ctx.levels.j1_capped else "false"),
                ("j2_raw", repr(ctx.levels.j2_raw)),
                ("j2_capped", "true" if ctx.levels.j2_capped else "false"),
                ("runs", cfg.runs),
                ("mise", repr(report.mise)),
                ("se", repr(report.se)),
            ],
        )
    return report


def run_table(
    cfg: ExperimentConfig,
    jobs: int = 1,
    signals=SIGNALS,
    snrs=DEFAULT_SNRS,
    pairs=DEFAULT_ALPHA_PAIRS,
):
    """Risk sweep over a (signal, SNR, memory pair) grid.

    Each cell reruns the experiment with those three fields replaced and
    everything else taken from ``cfg``. A failing cell is recorded as
    ``status = "error: <Type>"`` with empty numbers and the sweep
    continues. Within each (signal, SNR) group the ``trend_ok`` column
    records whether the weakest-memory pair (largest alpha sum) has risk
    no larger than the strongest (smallest alpha sum); it is empty when
    either endpoint failed. All cells run as one :func:`_sweep`, so one
    process pool serves the whole grid and each signal's set-up is built
    once per process. Writes ``config.txt`` and ``table.csv`` into
    ``cfg.outdir`` and returns the rows as dictionaries.
    """
    groups, runnable = [], []
    for signal in signals:
        for snr in snrs:
            group = []
            for a1, a2 in pairs:
                cell = {
                    "signal": signal,
                    "snr_db": float(snr),
                    "alpha1": float(a1),
                    "alpha2": float(a2),
                    "mise": None,
                    "se": None,
                    "j1": None,
                    "trend_ok": "",
                    "status": "ok",
                }
                try:
                    cell_cfg = dataclasses.replace(
                        cfg,
                        signal=signal,
                        snr_db=float(snr),
                        alpha1=float(a1),
                        alpha2=float(a2),
                    )
                except FdeconvError as exc:
                    cell["status"] = f"error: {type(exc).__name__}"
                else:
                    runnable.append((cell, cell_cfg))
                group.append(cell)
            groups.append(group)

    results = _sweep([cell_cfg for _, cell_cfg in runnable], jobs)
    for (cell, _), result in zip(runnable, results):
        if isinstance(result, FdeconvError):
            cell["status"] = f"error: {type(result).__name__}"
        else:
            report, ctx = result
            cell["mise"] = report.mise
            cell["se"] = report.se
            cell["j1"] = ctx.levels.j1

    rows = []
    for group in groups:
        rows.extend(group)
        if not group:
            continue
        weakest = max(group, key=lambda c: c["alpha1"] + c["alpha2"])
        strongest = min(group, key=lambda c: c["alpha1"] + c["alpha2"])
        if weakest["mise"] is not None and strongest["mise"] is not None:
            flag = "true" if weakest["mise"] <= strongest["mise"] else "false"
            for cell in group:
                cell["trend_ok"] = flag

    with _staged(cfg.outdir) as stage:
        cfg.to_file(os.path.join(stage, "config.txt"))

        _write_csv(
            os.path.join(stage, "table.csv"),
            [
                "signal",
                "snr_db",
                "alpha1",
                "alpha2",
                "mise",
                "se",
                "j1",
                "trend_ok",
                "status",
            ],
            (
                [
                    cell["signal"],
                    repr(cell["snr_db"]),
                    repr(cell["alpha1"]),
                    repr(cell["alpha2"]),
                    "" if cell["mise"] is None else repr(cell["mise"]),
                    "" if cell["se"] is None else repr(cell["se"]),
                    "" if cell["j1"] is None else cell["j1"],
                    cell["trend_ok"],
                    cell["status"],
                ]
                for cell in rows
            ),
        )
    return rows


def _plot_curve(points, path: str) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError(
            "plotting needs matplotlib; install the 'plots' extra"
        ) from exc
    xs = [pt.epsilon for pt in points]
    ys = [pt.bound for pt in points]
    fig, ax = plt.subplots(figsize=(5.0, 4.0))
    ax.loglog(xs, ys, marker="o")
    ax.set_xlabel("epsilon")
    ax.set_ylabel("risk bound (normalized)")
    if points:
        ax.set_title(f"regime: {points[0].regime}")
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


def _load_empirical(dirs) -> list:
    """Read ``risk_report.txt`` from each directory into point dicts."""
    points = []
    for directory in dirs:
        path = os.path.join(directory, "risk_report.txt")
        data = _read_kv_file(path)
        point = {"dir": directory}
        for key, parse in [
            ("n", _parse_int),
            ("sigma", _parse_float),
            ("epsilon", _parse_float),
            ("alpha1", _parse_float),
            ("alpha2", _parse_float),
            ("mise", _parse_float),
        ]:
            if key not in data:
                raise ConfigError(f"{path} is missing key {key!r}")
            point[key] = parse(key, data[key])
        if not point["epsilon"] > 0:
            raise ConfigError(
                f"{path}: empirical comparison needs epsilon > 0, got {point['epsilon']}"
            )
        points.append(point)
    return points


def _compare_empirical(query: RateQuery, result, dirs, stage: str) -> None:
    if query.r != 2:
        raise ConfigError(
            f"empirical comparison needs a two-dimensional query, got r={query.r}"
        )
    points = _load_empirical(dirs)
    if len(points) < 2:
        raise ConfigError(f"empirical comparison needs >= 2 runs, got {len(points)}")
    alpha_pairs = {(pt["alpha1"], pt["alpha2"]) for pt in points}
    if len(alpha_pairs) > 1:
        raise ConfigError(f"empirical runs disagree on the memory pair: {sorted(alpha_pairs)}")
    pair = next(iter(alpha_pairs))
    if pair != query.alpha:
        raise ConfigError(
            f"empirical memory pair {pair} does not match the query alpha {query.alpha}"
        )
    epsilons = {pt["epsilon"] for pt in points}
    if len(epsilons) < 2:
        raise ConfigError("empirical comparison needs at least two distinct noise sizes")
    points.sort(key=lambda pt: pt["n"])

    x = np.array([2.0 * query.alpha_bar * math.log(pt["epsilon"]) for pt in points])
    y = np.array([math.log(pt["mise"]) for pt in points])
    slope = float(np.polyfit(x, y, 1)[0])
    gap = abs(slope - result.exponent)
    tolerance = 0.2
    within = gap <= tolerance

    _write_csv(
        os.path.join(stage, "rates_empirical.csv"),
        ["n", "sigma", "epsilon", "mise"],
        ([pt["n"], repr(pt["sigma"]), repr(pt["epsilon"]), repr(pt["mise"])] for pt in points),
    )

    _write_kv(
        os.path.join(stage, "rates_comparison.txt"),
        [
            ("schema_version", SCHEMA_VERSION),
            ("points", len(points)),
            ("fitted_slope", repr(slope)),
            ("theory_exponent", repr(result.exponent)),
            ("gap", repr(gap)),
            ("tolerance", repr(tolerance)),
            ("within_tolerance", "true" if within else "false"),
            ("regime", result.regime),
        ],
    )


def run_rates(
    query: RateQuery,
    epsilons=DEFAULT_EPSILONS,
    outdir: str = "out",
    plot: bool = False,
    empirical_dirs=(),
):
    """Classify a query, tabulate its rate curve, optionally compare.

    Writes ``rates_config.txt`` and ``rates_curve.csv`` into ``outdir``;
    with ``plot`` also ``rates_curve.png``; with ``empirical_dirs`` also
    ``rates_empirical.csv`` and ``rates_comparison.txt``, where the
    fitted slope of log risk against ``2 alpha_bar log epsilon`` is
    compared to the theoretical exponent. Returns ``(result, points)``.
    """
    result = classify(query)
    points = rate_curve(query, epsilons)
    with _staged(outdir) as stage:
        _write_kv(
            os.path.join(stage, "rates_config.txt"),
            [
                ("schema_version", SCHEMA_VERSION),
                ("s", ",".join(repr(v) for v in query.s)),
                ("pi", repr(query.pi)),
                ("q", repr(query.q)),
                ("p", repr(query.p)),
                ("nu", repr(query.nu)),
                ("alpha", ",".join(repr(v) for v in query.alpha)),
                ("A", repr(query.A)),
                ("epsilons", ",".join(repr(pt.epsilon) for pt in points)),
                ("regime", result.regime),
                ("exponent", repr(result.exponent)),
                ("log_exponent_upper", repr(result.log_exponent_upper)),
                ("xi1", result.xi1),
                ("xi2", result.xi2),
            ],
        )

        path = os.path.join(stage, "rates_curve.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_rate_curve(points, fh)

        if plot:
            _plot_curve(points, os.path.join(stage, "rates_curve.png"))

        if empirical_dirs:
            _compare_empirical(query, result, empirical_dirs, stage)
    return result, points


_FIELD_COLUMNS = (("t", float), ("x", float), ("value", float))
_COEFF_COLUMNS = (
    ("j1", int), ("k1", int), ("j2", int), ("k2", int), ("real", float), ("imag", float)
)


def _read_csv_table(path: str, columns, what: str) -> np.ndarray:
    """The rows below a CSV's header as a structured array, one field per column."""
    header = [name for name, _ in columns]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if next((row for row in csv.reader(fh) if row), None) != header:
                raise ConfigError(f"{path} must start with the header {','.join(header)}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    return np.loadtxt(
                        fh, delimiter=",", comments=None, dtype=list(columns), ndmin=1
                    )
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad {what} row: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _read_field_csv(path: str) -> np.ndarray:
    rows = _read_csv_table(path, _FIELD_COLUMNS, "field")
    count = rows.size
    N = math.isqrt(count)
    if N * N != count or N < 2 ** (_M0 + 1) or N & (N - 1):
        raise ConfigError(
            f"{path} must hold N*N rows for a power of two N >= {2 ** (_M0 + 1)} "
            f"(the transform's coarsest scale m0 = {_M0} needs N >= 2^(m0+1)), "
            f"got {count} rows"
        )
    t, x = rows["t"], rows["x"]
    i, j = np.rint(t * N), np.rint(x * N)
    outside = ~((0 <= i) & (i < N) & (0 <= j) & (j < N))
    if outside.any():
        r = int(np.argmax(outside))
        raise ConfigError(f"{path}: coordinates ({t[r]}, {x[r]}) fall outside the unit grid")
    cell = i.astype(np.intp) * N + j.astype(np.intp)
    first = np.unique(cell, return_index=True)[1]
    if first.size < count:  # N*N distinct in-range cells are the whole grid
        r = int(np.setdiff1d(np.arange(count), first)[0])
        raise ConfigError(f"{path}: duplicate grid cell ({t[r]}, {x[r]})")
    grid = np.empty(count)
    grid[cell] = rows["value"]
    return grid.reshape(N, N)


def _write_field_csv(field: np.ndarray, path: str) -> None:
    N = field.shape[0]
    coords = [repr(k / N) for k in range(N)]
    values = np.asarray(field, dtype=float).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _ in _FIELD_COLUMNS) + "\n")
        fh.writelines(
            f"{t},{x},{v!r}\n" for t, row in zip(coords, values) for x, v in zip(coords, row)
        )


def _transform_forward(input_path: str, output_path: str, j1, j2) -> None:
    coeffs = forward_2d(_read_field_csv(input_path), J1=j1, J2=j2)
    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(name for name, _ in _COEFF_COLUMNS) + "\n")
        for b1, b2, view in coeffs.blocks():
            fh.writelines(
                f"{b1},{k1},{b2},{k2},{re!r},{im!r}\n"
                for k1, (res, ims) in enumerate(zip(view.real.tolist(), view.imag.tolist()))
                for k2, (re, im) in enumerate(zip(res, ims))
            )


def _block_rows(b: np.ndarray, J: int) -> tuple:
    """First packed row and row count of each block label, as ``level_slice`` packs them."""
    size = 2 ** np.clip(b, _M0, max(J, _M0))
    return np.where(b == _M0 - 1, 0, size), size


def _transform_inverse(input_path: str, output_path: str, n) -> None:
    rows = _read_csv_table(input_path, _COEFF_COLUMNS, "coefficient")
    if not rows.size:
        raise ConfigError(f"{input_path} holds no coefficient rows")
    b1, k1, b2, k2 = (rows[name] for name in ("j1", "k1", "j2", "k2"))
    J1, J2 = int(b1.max()), int(b2.max())
    N = n if n is not None else 2 ** (max(J1, J2) + 1)
    packed = np.zeros((2 ** (J1 + 1), 2 ** (J2 + 1)), dtype=complex)
    coeffs = WaveletCoeffs2D(values=packed, m0=_M0, J1=J1, J2=J2)
    known = np.isin(b1, coeffs.levels1) & np.isin(b2, coeffs.levels2)
    start1, size1 = _block_rows(b1, J1)
    start2, size2 = _block_rows(b2, J2)
    inside = (0 <= k1) & (k1 < size1) & (0 <= k2) & (k2 < size2)
    bad = ~(known & inside)
    if bad.any():  # report the first offending row
        r = int(np.argmax(bad))
        if not known[r]:
            raise ConfigError(
                f"{input_path}: no block ({b1[r]}, {b2[r]}) in levels "
                f"{coeffs.levels1} x {coeffs.levels2}"
            )
        raise ConfigError(
            f"{input_path}: shift ({k1[r]}, {k2[r]}) outside block ({b1[r]}, {b2[r]}) "
            f"of shape {(int(size1[r]), int(size2[r]))}"
        )
    packed.real[start1 + k1, start2 + k2] = rows["real"]
    packed.imag[start1 + k1, start2 + k2] = rows["imag"]
    _write_field_csv(inverse_2d(coeffs, N).real, output_path)


def run_transform(
    input_path: str,
    output_path: str,
    inverse: bool = False,
    j1=None,
    j2=None,
    n=None,
) -> None:
    """Forward (field CSV -> coefficient CSV) or inverse transform.

    The field format is ``t,x,value`` over the full unit grid with
    coordinates ``i/N``; the coefficient format is ``j1,k1,j2,k2,real,imag``
    with one row per stored coefficient. Missing coefficient rows are
    treated as zeros on the inverse path; ``n`` fixes the output grid
    size (default ``2 ** (max level + 1)``). The output is staged next to
    its destination and moved into place once complete (:func:`_staged`).
    """
    directory, name = os.path.split(output_path)
    with _staged(directory or os.curdir) as stage:
        if inverse:
            _transform_inverse(input_path, os.path.join(stage, name), n)
        else:
            _transform_forward(input_path, os.path.join(stage, name), j1, j2)


def _config_from_args(args) -> ExperimentConfig:
    mapping = {}
    if getattr(args, "table_mode", False):
        mapping["j1"] = "preset"
    if args.config:
        mapping.update(_read_kv_file(args.config))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    if args.runs is not None:
        mapping["runs"] = str(args.runs)
    if args.out is not None:
        mapping["outdir"] = args.out
    try:
        return ExperimentConfig.from_mapping(mapping)
    except ConfigError:
        # There is no configuration to echo; echo the one that was asked for.
        asked = {**ExperimentConfig().to_mapping(), **mapping}
        print("config: " + " ".join(f"{k}={v}" for k, v in asked.items()), file=sys.stderr)
        raise


def _parse_float_list(text: str, flag: str):
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError(f"{flag} expects a comma-separated list of numbers")
    return tuple(_parse_float(flag, part) for part in parts)


def _cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    try:
        report = run_simulation(cfg, jobs=args.jobs)
    except FdeconvError:
        print(f"config: {cfg.to_line()}", file=sys.stderr)
        raise
    print(
        f"mise={report.mise!r} se={report.se!r} runs={report.runs} "
        f"j1={report.j1} j2={report.j2} out={cfg.outdir}"
    )
    return 0


def _cmd_table(args) -> int:
    cfg = _config_from_args(args)
    try:
        rows = run_table(cfg, jobs=args.jobs)
    except FdeconvError:
        print(f"config: {cfg.to_line()}", file=sys.stderr)
        raise
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"cells={len(rows)} errors={failed} out={cfg.outdir}")
    return 0


def _cmd_rates(args) -> int:
    s = _parse_float_list(args.s, "--s")
    alpha = _parse_float_list(args.alpha, "--alpha")
    epsilons = (
        DEFAULT_EPSILONS if args.epsilons is None else _parse_float_list(args.epsilons, "--epsilons")
    )
    query = RateQuery(s=s, pi=args.pi, q=args.q, p=args.p, nu=args.nu, alpha=alpha, A=args.A)
    result, _ = run_rates(
        query,
        epsilons,
        outdir=args.out,
        plot=args.plot,
        empirical_dirs=tuple(args.empirical),
    )
    print(f"regime={result.regime} exponent={result.exponent!r} out={args.out}")
    return 0


def _cmd_transform(args) -> int:
    run_transform(
        args.input,
        args.output,
        inverse=args.inverse,
        j1=args.j1,
        j2=args.j2,
        n=args.n,
    )
    print(f"wrote {args.output}")
    return 0


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--runs", type=int, help="Monte Carlo runs")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdeconv",
        description=(
            "Anisotropic functional deconvolution under long-memory noise: "
            "simulations, risk tables, rate curves, and transforms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one Monte Carlo experiment")
    _add_experiment_flags(sim)
    sim.set_defaults(func=_cmd_simulate, table_mode=False)

    tab = sub.add_parser("table", help="risk sweep over the signal/SNR/memory grid")
    _add_experiment_flags(tab)
    tab.set_defaults(func=_cmd_table, table_mode=True)

    rat = sub.add_parser("rates", help="theoretical rate curves and comparisons")
    rat.add_argument("--s", default="1.0,1.0", help="smoothness indices, comma separated")
    rat.add_argument("--alpha", default="1.0,1.0", help="memory exponents, comma separated")
    rat.add_argument("--pi", type=float, default=2.0, help="body norm index")
    rat.add_argument("--q", type=float, default=2.0, help="summation index")
    rat.add_argument("--p", type=float, default=2.0, help="loss index")
    rat.add_argument("--nu", type=float, default=0.5, help="kernel decay exponent")
    rat.add_argument("--A", type=float, default=1.0, help="ball radius")
    rat.add_argument("--epsilons", help="noise sizes, comma separated, each in (0, 1)")
    rat.add_argument("--out", default="out", help="output directory")
    rat.add_argument("--plot", action="store_true", help="write a log-log curve image")
    rat.add_argument(
        "--empirical",
        nargs="*",
        default=[],
        metavar="DIR",
        help="simulate output directories to fit an empirical slope from",
    )
    rat.set_defaults(func=_cmd_rates)

    tra = sub.add_parser("transform", help="forward or inverse transform on CSV files")
    tra.add_argument("input", help="input CSV path")
    tra.add_argument("output", help="output CSV path")
    tra.add_argument("--inverse", action="store_true", help="coefficients to field")
    tra.add_argument("--j1", type=int, help="finest first-axis level (forward)")
    tra.add_argument("--j2", type=int, help="finest second-axis level (forward)")
    tra.add_argument("--n", type=int, help="output grid size (inverse)")
    tra.set_defaults(func=_cmd_transform)

    return parser


def main(argv=None) -> int:
    """Entry point; returns 0 on success, 2 on bad input, 3 on numerics."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FdeconvError as exc:
        print(f"fdeconv {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
