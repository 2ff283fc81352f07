"""Tests for the command line workflows: config, simulate, table, rates, transform."""

import argparse
import csv
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from fdeconv.cli import (
    DEFAULT_ALPHA_PAIRS,
    DEFAULT_EPSILONS,
    PRESET_J1,
    PRESET_J2,
    ExperimentConfig,
    main,
    run_rates,
    run_simulation,
    run_table,
    run_transform,
    _config_from_args,
    _read_field_csv,
    _simulate,
    _write_field_csv,
)
from fdeconv.errors import ConfigError, IllPosedError
from fdeconv.estimator import DEFAULT_GAMMA, epsilon_from_sigma, finest_levels, resolve_levels
from fdeconv.lrdnoise import LongMemoryParams
from fdeconv.meyer import forward_2d, inverse_2d
from fdeconv.model import calibrate_sigma, convolve_columns, make_power_kernel, make_target
from fdeconv.rates import RateQuery


def fast_config(tmp_path, **overrides):
    """Small, quick experiment configuration writing under tmp_path."""
    base = dict(
        N=64,
        j1="3",
        j2="3",
        runs=3,
        seed=11,
        outdir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def count_pools(monkeypatch) -> list:
    """Record each process pool constructed from now on (one entry per pool)."""
    pools = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        pools.append(kwargs.get("processes", args[0] if args else None))
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return pools


def empty_args(**overrides):
    """Namespace mimicking parsed experiment flags, all unset."""
    base = dict(table_mode=False, config=None, set=[], seed=None, runs=None, out=None)
    base.update(overrides)
    return argparse.Namespace(**base)


class TestConfigSerialization:
    def test_defaults_round_trip_through_file(self, tmp_path):
        cfg = ExperimentConfig()
        path = str(tmp_path / "config.txt")
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path) == cfg

    def test_odd_floats_round_trip_losslessly(self, tmp_path):
        cfg = ExperimentConfig(
            snr_db=17.25,
            alpha1=0.8150000000000001,
            alpha2=0.605,
            gamma=DEFAULT_GAMMA,
            nu=0.123456789012345,
            j1="4",
            j2="auto",
            runs=7,
            seed=3,
        )
        path = str(tmp_path / "config.txt")
        cfg.to_file(path)
        parsed = ExperimentConfig.from_file(path)
        assert parsed == cfg
        assert parsed.gamma == DEFAULT_GAMMA

    def test_infinite_snr_round_trips(self, tmp_path):
        cfg = ExperimentConfig(snr_db=math.inf, j1="5", j2="5")
        path = str(tmp_path / "config.txt")
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path).snr_db == math.inf

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            ExperimentConfig.from_mapping({"snr": "20"})

    def test_bad_value_types_rejected(self):
        with pytest.raises(ConfigError, match="N must be an integer"):
            ExperimentConfig.from_mapping({"N": "big"})
        with pytest.raises(ConfigError, match="snr_db must be a number"):
            ExperimentConfig.from_mapping({"snr_db": "loud"})
        with pytest.raises(ConfigError, match="kernel_unit_mass must be"):
            ExperimentConfig.from_mapping({"kernel_unit_mass": "yes"})

    def test_file_parsing_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\n\nsignal=doppler\n  runs = 9 \n")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.signal == "doppler"
        assert cfg.runs == 9

    def test_file_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("signal doppler\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            ExperimentConfig.from_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read configuration file"):
            ExperimentConfig.from_file(str(tmp_path / "absent.txt"))

    def test_to_line_echoes_every_field(self):
        line = ExperimentConfig().to_line()
        assert "signal=lidar" in line
        assert "gamma=" + repr(DEFAULT_GAMMA) in line
        assert "noise=farima-product" in line


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(signal="chirp"), "signal must be one of"),
            (dict(N=100), "power of two"),
            (dict(N=8), "power of two"),
            (dict(snr_db=math.nan), "snr_db"),
            (dict(snr_db=-math.inf), "snr_db"),
            (dict(alpha1=1.2), "alpha1"),
            (dict(alpha2=0.0), "alpha2"),
            (dict(gamma=-1.0), "gamma"),
            (dict(gamma=math.nan), "gamma"),
            (dict(gamma=math.inf), "gamma"),
            (dict(nu=-0.5), "nu"),
            (dict(kernel="box"), "kernel must be one of"),
            (dict(noise="white"), "noise must be one of"),
            (dict(runs=0), "runs"),
            (dict(seed=-1), "seed"),
            (dict(outdir=""), "outdir"),
            (dict(j1="fast"), "j1 must be"),
            (dict(j1="1"), "outside the level range"),
            (dict(j1="10"), "outside the level range"),
            (dict(j2="10"), "outside the level range"),
            (dict(snr_db=15.0, j1="preset"), "preset needs snr_db"),
        ],
    )
    def test_rejects(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**overrides)

    def test_accepts_boundary_levels(self):
        cfg = ExperimentConfig(j1="9", j2="2")
        assert (cfg.j1, cfg.j2) == ("9", "2")

    def test_accepts_preset_at_standard_snrs(self):
        for snr in (10.0, 20.0, 30.0):
            cfg = ExperimentConfig(snr_db=snr, j1="preset", j2="preset")
            assert cfg.j1 == "preset"

    def test_integer_levels_normalized_to_strings(self):
        cfg = ExperimentConfig(j1=5, j2=4)
        assert (cfg.j1, cfg.j2) == ("5", "4")

    def test_noiseless_snr_accepted(self):
        cfg = ExperimentConfig(snr_db=math.inf, j1="5", j2="5")
        assert cfg.snr_db == math.inf


class TestLevelResolution:
    """A configuration's level modes, resolved by the estimator's one resolver."""

    @staticmethod
    def resolve(cfg, epsilon, alpha):
        return resolve_levels(epsilon, alpha, cfg.nu, cfg.N, *cfg.level_args())

    def test_fixed_levels_pass_through(self):
        cfg = ExperimentConfig(j1="4", j2="6")
        levels = self.resolve(cfg, 0.01, LongMemoryParams(0.8, 0.6))
        assert (levels.j1, levels.j2) == (4, 6)
        assert (levels.j1_raw, levels.j2_raw) == (4.0, 6.0)
        assert not levels.j1_capped and not levels.j2_capped

    def test_preset_levels_follow_snr(self):
        for snr in (10.0, 20.0, 30.0):
            cfg = ExperimentConfig(snr_db=snr, j1="preset", j2="preset")
            levels = self.resolve(cfg, 0.01, LongMemoryParams(0.8, 0.6))
            assert levels.j1 == PRESET_J1[snr]
            assert levels.j2 == PRESET_J2[snr]

    def test_preset_out_of_range_for_small_grid(self):
        with pytest.raises(ConfigError, match="outside the level range"):
            ExperimentConfig(N=16, snr_db=30.0, j1="preset", j2="3")

    def test_auto_matches_finest_levels(self):
        cfg = ExperimentConfig(j1="auto", j2="auto")
        alpha = LongMemoryParams(0.8, 0.6)
        levels = self.resolve(cfg, 0.003, alpha)
        expected = finest_levels(0.003, 1.0, alpha, cfg.nu, cfg.N)
        assert levels == expected

    def test_mixed_modes_take_components(self):
        cfg = ExperimentConfig(j1="auto", j2="4")
        alpha = LongMemoryParams(0.8, 0.6)
        levels = self.resolve(cfg, 0.003, alpha)
        auto = finest_levels(0.003, 1.0, alpha, cfg.nu, cfg.N)
        assert levels.j1 == auto.j1
        assert levels.j2 == 4

    def test_auto_without_noise_rejected(self):
        with pytest.raises(ConfigError, match="automatic level selection"):
            ExperimentConfig(snr_db=math.inf, j1="auto", j2="5")


class TestSimulate:
    def test_writes_all_artifacts_with_config_echo(self, tmp_path):
        cfg = fast_config(tmp_path)
        report = run_simulation(cfg)
        outdir = cfg.outdir
        for name in ("config.txt", "per_run_errors.csv", "summary.csv", "risk_report.txt"):
            assert os.path.exists(os.path.join(outdir, name))
        echo = ExperimentConfig.from_file(os.path.join(outdir, "config.txt"))
        assert echo == cfg
        lines = open(os.path.join(outdir, "per_run_errors.csv")).read().splitlines()
        assert lines[0] == "run,error"
        assert len(lines) == 1 + cfg.runs
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert errors == list(report.per_run)
        assert report.mise == pytest.approx(np.mean(errors))

    def test_risk_report_keys_and_values(self, tmp_path):
        cfg = fast_config(tmp_path)
        report = run_simulation(cfg)
        data = dict(
            line.split("=", 1)
            for line in open(os.path.join(cfg.outdir, "risk_report.txt")).read().splitlines()
        )
        assert data["schema_version"] == "2"
        assert data["signal"] == "lidar"
        assert int(data["n"]) == 64
        assert float(data["mise"]) == report.mise
        assert float(data["se"]) == report.se
        assert int(data["j1"]) == 3 and int(data["j2"]) == 3
        assert float(data["j1_raw"]) == 3.0 and float(data["j2_raw"]) == 3.0
        assert data["j1_capped"] == "false" and data["j2_capped"] == "false"
        kernel = make_power_kernel(64, cfg.nu)
        q = convolve_columns(make_target("lidar", 64).values, kernel)
        sigma = calibrate_sigma(q, cfg.snr_db)
        assert float(data["sigma"]) == pytest.approx(sigma)
        eps = epsilon_from_sigma(sigma, 64, LongMemoryParams(0.8, 0.6))
        assert float(data["epsilon"]) == pytest.approx(eps)

    def test_fixed_seed_gives_bit_identical_outputs(self, tmp_path):
        cfg_a = fast_config(tmp_path, outdir=str(tmp_path / "a"))
        cfg_b = fast_config(tmp_path, outdir=str(tmp_path / "b"))
        run_simulation(cfg_a)
        run_simulation(cfg_b)
        for name in ("per_run_errors.csv", "summary.csv"):
            bytes_a = open(os.path.join(cfg_a.outdir, name), "rb").read()
            bytes_b = open(os.path.join(cfg_b.outdir, name), "rb").read()
            assert bytes_a == bytes_b

    def test_worker_count_never_changes_results(self, tmp_path):
        cfg_serial = fast_config(tmp_path, outdir=str(tmp_path / "serial"))
        cfg_pool = fast_config(tmp_path, outdir=str(tmp_path / "pool"))
        run_simulation(cfg_serial, jobs=1)
        run_simulation(cfg_pool, jobs=2)
        bytes_serial = open(os.path.join(cfg_serial.outdir, "per_run_errors.csv"), "rb").read()
        bytes_pool = open(os.path.join(cfg_pool.outdir, "per_run_errors.csv"), "rb").read()
        assert bytes_serial == bytes_pool

    def test_seed_changes_per_run_errors(self, tmp_path):
        report_a, _ = _simulate(fast_config(tmp_path, seed=11))
        report_b, _ = _simulate(fast_config(tmp_path, seed=12))
        assert report_a.per_run != report_b.per_run

    def test_noiseless_run_reproduces_projection_error(self, tmp_path):
        cfg = fast_config(tmp_path, snr_db=math.inf, j1="4", j2="4", runs=1)
        report = run_simulation(cfg)
        truth = make_target("lidar", 64)
        projection = inverse_2d(forward_2d(truth.values, J1=4, J2=4), 64).real
        expected = float(np.mean((projection - truth.values) ** 2))
        assert expected > 0
        assert report.mise == pytest.approx(expected, rel=1e-9)
        data = dict(
            line.split("=", 1)
            for line in open(os.path.join(cfg.outdir, "risk_report.txt")).read().splitlines()
        )
        assert data["epsilon"] == "0.0"
        assert data["sigma"] == "0.0"

    def test_noiseless_auto_levels_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="automatic level selection"):
            fast_config(tmp_path, snr_db=math.inf, j1="auto", j2="4", runs=1)

    def test_single_run_has_zero_se(self, tmp_path):
        report, _ = _simulate(fast_config(tmp_path, runs=1))
        assert report.se == 0.0
        assert report.runs == 1

    def test_se_matches_sample_standard_error(self, tmp_path):
        report, _ = _simulate(fast_config(tmp_path))
        per_run = np.array(report.per_run)
        assert report.se == pytest.approx(per_run.std(ddof=1) / math.sqrt(per_run.size))

    def test_invalid_jobs_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="jobs must be"):
            _simulate(fast_config(tmp_path), jobs=0)

    def test_single_run_starts_no_pool(self, tmp_path, monkeypatch):
        serial, _ = _simulate(fast_config(tmp_path, runs=1), jobs=1)
        pools = count_pools(monkeypatch)
        capped, _ = _simulate(fast_config(tmp_path, runs=1), jobs=4)
        assert pools == []
        assert capped == serial

    def test_failed_write_cleans_up_partial_outputs(self, tmp_path, monkeypatch):
        import fdeconv.cli as cli

        cfg = fast_config(tmp_path, runs=1)
        real_write = cli._write_kv
        calls = []

        def failing_write(path, pairs):
            calls.append(path)
            if path.endswith("risk_report.txt"):
                raise OSError("disk full")
            real_write(path, pairs)

        monkeypatch.setattr(cli, "_write_kv", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_simulation(cfg)
        assert len(calls) == 2
        assert os.listdir(cfg.outdir) == []

    def test_failed_rerun_keeps_the_finished_run(self, tmp_path, monkeypatch):
        import fdeconv.cli as cli

        names = ["config.txt", "per_run_errors.csv", "risk_report.txt", "summary.csv"]
        cfg = fast_config(tmp_path, runs=2)
        run_simulation(cfg)
        out = tmp_path / "out"
        before = {name: (out / name).read_bytes() for name in names}
        real_write = cli._write_kv

        def failing_write(path, pairs):
            if path.endswith("risk_report.txt"):
                real_write(path, list(pairs)[:3])  # a truncated report, then the failure
                raise OSError("disk full")
            real_write(path, pairs)

        monkeypatch.setattr(cli, "_write_kv", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_simulation(fast_config(tmp_path, runs=2, seed=12))
        assert sorted(os.listdir(cfg.outdir)) == names
        after = {name: (out / name).read_bytes() for name in names}
        assert after == before


class TestParsevalScore:
    """A run's coefficient-domain score equals its spatial squared error."""

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(j1="auto", j2="auto"),
            dict(j1="preset", j2="3"),
            dict(j1="3", j2="4", signal="doppler", kernel="grid"),
            dict(j1="4", j2="2", kernel="circular", snr_db=10.0),
            dict(j1="3", j2="4", snr_db=math.inf),
            dict(j1="preset", j2="3", noise="exact-fgn-product", alpha1=0.4, alpha2=0.2),
        ],
    )
    def test_score_matches_spatial_error(self, tmp_path, monkeypatch, N, overrides):
        import fdeconv.cli as cli
        from fdeconv.estimator import estimate
        from fdeconv.lrdnoise import noise_sheet
        from fdeconv.model import observe

        cfg = fast_config(tmp_path, N=N, **overrides)
        monkeypatch.setattr(cli, "_SETUP", None)
        setup = cli._setup(cfg)
        ctx = setup.context(cfg)
        truth = make_target(cfg.signal, N).values
        for run in range(2):
            if ctx.noiseless:
                Y = setup.q
            else:
                seq = np.random.SeedSequence([cfg.seed, run])
                sheet = noise_sheet(ctx.alpha, N, seed=seq, construction=cfg.noise)
                Y = observe(setup.q, ctx.sigma, sheet)
            est, _ = estimate(Y, setup.kernel, ctx.policy, ctx.levels)
            spatial = float(np.mean((est.values - truth) ** 2))
            assert cli._run_one(cfg, run) == pytest.approx(spatial, rel=1e-12, abs=0.0)

    def test_context_keeps_only_the_kept_truth_coefficients(self, tmp_path):
        import fdeconv.cli as cli

        cfg = fast_config(tmp_path, N=256, j1="4", j2="5")
        ctx = cli._SignalSetup(cfg).context(cfg)
        truth = make_target(cfg.signal, 256).values
        full = forward_2d(truth).values
        assert ctx.truth_coeffs.shape == (32, 64)
        np.testing.assert_allclose(ctx.truth_coeffs, full[:32, :64], rtol=0, atol=1e-15)
        beyond = np.sum(full**2) - np.sum(full[:32, :64] ** 2)
        assert ctx.tail == pytest.approx(beyond, rel=1e-10)


class TestTable:
    def test_full_grid_has_one_row_per_cell(self, tmp_path):
        cfg = fast_config(tmp_path, N=16, runs=1)
        rows = run_table(cfg)
        assert len(rows) == 2 * 3 * len(DEFAULT_ALPHA_PAIRS) == 36
        assert all(row["status"] == "ok" for row in rows)
        assert [row["signal"] for row in rows[:18]] == ["lidar"] * 18
        assert [row["signal"] for row in rows[18:]] == ["doppler"] * 18
        lines = open(os.path.join(cfg.outdir, "table.csv")).read().splitlines()
        assert lines[0] == "signal,snr_db,alpha1,alpha2,mise,se,j1,trend_ok,status"
        assert len(lines) == 37

    def test_failed_cells_are_isolated(self, tmp_path):
        cfg = fast_config(tmp_path, j1="preset", runs=1)
        rows = run_table(
            cfg, signals=("lidar",), snrs=(20.0, 15.0), pairs=((0.8, 0.6), (0.4, 0.2))
        )
        by_snr = {snr: [r for r in rows if r["snr_db"] == snr] for snr in (20.0, 15.0)}
        assert all(r["status"] == "ok" for r in by_snr[20.0])
        assert all(r["status"] == "error: ConfigError" for r in by_snr[15.0])
        assert all(r["mise"] is None for r in by_snr[15.0])
        assert all(r["trend_ok"] == "" for r in by_snr[15.0])
        lines = open(os.path.join(cfg.outdir, "table.csv")).read().splitlines()
        assert len(lines) == 5

    def test_trend_flag_compares_memory_extremes(self, tmp_path):
        cfg = fast_config(tmp_path, runs=2)
        rows = run_table(
            cfg, signals=("lidar",), snrs=(20.0,), pairs=((0.8, 0.6), (0.6, 0.4), (0.4, 0.2))
        )
        weakest = next(r for r in rows if (r["alpha1"], r["alpha2"]) == (0.8, 0.6))
        strongest = next(r for r in rows if (r["alpha1"], r["alpha2"]) == (0.4, 0.2))
        expected = "true" if weakest["mise"] <= strongest["mise"] else "false"
        assert {r["trend_ok"] for r in rows} == {expected}

    def test_empty_grid_writes_header_only(self, tmp_path):
        cfg = fast_config(tmp_path)
        rows = run_table(cfg, signals=())
        assert rows == []
        lines = open(os.path.join(cfg.outdir, "table.csv")).read().splitlines()
        assert lines == ["signal,snr_db,alpha1,alpha2,mise,se,j1,trend_ok,status"]

    def test_config_echo_written(self, tmp_path):
        cfg = fast_config(tmp_path)
        run_table(cfg, signals=())
        echo = ExperimentConfig.from_file(os.path.join(cfg.outdir, "config.txt"))
        assert echo == cfg

    def test_worker_count_never_changes_the_table(self, tmp_path, monkeypatch):
        # Four workers on a 2-core machine. The 15 dB cells have no preset
        # levels and are marked failed; the 20 dB cells run in the pool.
        pools = count_pools(monkeypatch)
        tables = []
        start = time.perf_counter()
        for jobs in (1, 4):
            cfg = fast_config(tmp_path, j1="preset", runs=4, outdir=str(tmp_path / f"j{jobs}"))
            rows = run_table(cfg, jobs=jobs, snrs=(20.0, 15.0))
            assert {r["status"] for r in rows if r["snr_db"] == 15.0} == {"error: ConfigError"}
            assert {r["status"] for r in rows if r["snr_db"] == 20.0} == {"ok"}
            tables.append(open(os.path.join(cfg.outdir, "table.csv"), "rb").read())
        assert time.perf_counter() - start < 60.0
        assert pools == [4]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_failure_marks_only_its_cells(self, tmp_path, monkeypatch, jobs):
        import fdeconv.cli as cli

        real_estimate = cli.estimate_coefficients

        def fail_on_doppler(Y, kernel, policy, levels, m0):
            if cli._SETUP.key[0] == "doppler":
                raise IllPosedError("kernel transform vanishes on a kept band")
            return real_estimate(Y, kernel, policy, levels, m0)

        monkeypatch.setattr(cli, "estimate_coefficients", fail_on_doppler)
        pools = count_pools(monkeypatch)
        cfg = fast_config(tmp_path, runs=2)
        rows = run_table(cfg, jobs=jobs, snrs=(20.0,), pairs=((0.8, 0.6), (0.4, 0.2)))
        assert len(pools) == (jobs > 1)
        status = {(r["signal"], r["alpha1"]): r["status"] for r in rows}
        assert status == {
            ("lidar", 0.8): "ok",
            ("lidar", 0.4): "ok",
            ("doppler", 0.8): "error: IllPosedError",
            ("doppler", 0.4): "error: IllPosedError",
        }


class TestSharedSetup:
    """A sweep builds each signal's set-up once per process and starts one pool."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_pool_and_one_setup_per_signal(self, tmp_path, monkeypatch, jobs):
        import fdeconv.cli as cli

        calls = {"kernel": 0, "convolve": 0}
        real_kernel, real_convolve = cli.make_power_kernel, cli.convolve_columns

        def counting_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return real_kernel(*args, **kwargs)

        def counting_convolve(*args, **kwargs):
            calls["convolve"] += 1
            return real_convolve(*args, **kwargs)

        monkeypatch.setattr(cli, "make_power_kernel", counting_kernel)
        monkeypatch.setattr(cli, "convolve_columns", counting_convolve)
        pools = count_pools(monkeypatch)
        rows = run_table(fast_config(tmp_path, N=16, runs=2), jobs=jobs)
        assert len(rows) == 36 and all(r["status"] == "ok" for r in rows)
        assert len(pools) == (0 if jobs == 1 else 1)
        assert calls == {"kernel": 2, "convolve": 2}
        assert cli._SETUP is None


class TestRatesCommand:
    def dense_query(self):
        return RateQuery(s=(0.5, 0.75), pi=2, q=2, p=2, nu=0.1, alpha=(0.2, 1.0))

    def test_curve_and_config_artifacts(self, tmp_path):
        outdir = str(tmp_path / "rates")
        result, points = run_rates(self.dense_query(), (0.1, 0.05, 0.01), outdir)
        assert result.regime == "dense-x"
        assert result.exponent == pytest.approx(0.6)
        lines = open(os.path.join(outdir, "rates_curve.csv")).read().splitlines()
        assert lines[0] == "epsilon,bound,regime,exponent"
        assert len(lines) == 4
        config = dict(
            line.split("=", 1)
            for line in open(os.path.join(outdir, "rates_config.txt")).read().splitlines()
        )
        assert config["regime"] == "dense-x"
        assert config["s"] == "0.5,0.75"
        assert float(config["exponent"]) == pytest.approx(0.6)

    def test_uncovered_query_writes_nan_rows(self, tmp_path):
        outdir = str(tmp_path / "rates")
        query = RateQuery(s=(1.0, 1.0), pi=1, q=2, p=4, nu=0.5, alpha=(1.0, 1.0))
        result, _ = run_rates(query, (0.1, 0.01), outdir)
        assert result.regime == "uncovered"
        lines = open(os.path.join(outdir, "rates_curve.csv")).read().splitlines()
        assert all("uncovered" in line for line in lines[1:])
        assert all("nan" in line for line in lines[1:])

    def test_failed_plot_leaves_no_output(self, tmp_path, monkeypatch):
        import fdeconv.cli as cli

        def failing_plot(points, path):
            with open(path, "wb") as fh:
                fh.write(b"\x89PNG")  # a truncated image, then the failure
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_plot_curve", failing_plot)
        outdir = str(tmp_path / "rates")
        with pytest.raises(OSError, match="disk full"):
            run_rates(self.dense_query(), (0.1, 0.01), outdir, plot=True)
        assert os.listdir(outdir) == []

    def test_plot_file_written(self, tmp_path):
        pytest.importorskip("matplotlib")
        outdir = str(tmp_path / "rates")
        run_rates(self.dense_query(), (0.1, 0.01), outdir, plot=True)
        path = os.path.join(outdir, "rates_curve.png")
        assert os.path.getsize(path) > 0

    def write_report(self, tmp_path, name, n, epsilon, mise, alpha=(0.2, 1.0)):
        directory = tmp_path / name
        directory.mkdir()
        lines = [
            f"n={n}",
            "sigma=0.01",
            f"epsilon={epsilon!r}",
            f"alpha1={alpha[0]!r}",
            f"alpha2={alpha[1]!r}",
            f"mise={mise!r}",
        ]
        (directory / "risk_report.txt").write_text("\n".join(lines) + "\n")
        return str(directory)

    def test_empirical_slope_recovers_exact_power_law(self, tmp_path):
        query = self.dense_query()
        dirs = []
        for n, eps in [(1024, 0.005), (256, 0.02), (512, 0.01)]:
            mise = 3.0 * (eps ** (2 * query.alpha_bar)) ** 0.6
            dirs.append(self.write_report(tmp_path, f"run{n}", n, eps, mise))
        outdir = str(tmp_path / "cmp")
        run_rates(query, (0.1, 0.01), outdir, empirical_dirs=dirs)
        comparison = dict(
            line.split("=", 1)
            for line in open(os.path.join(outdir, "rates_comparison.txt")).read().splitlines()
        )
        assert float(comparison["fitted_slope"]) == pytest.approx(0.6, abs=1e-12)
        assert float(comparison["gap"]) == pytest.approx(0.0, abs=1e-12)
        assert comparison["within_tolerance"] == "true"
        assert comparison["regime"] == "dense-x"
        rows = open(os.path.join(outdir, "rates_empirical.csv")).read().splitlines()
        assert rows[0] == "n,sigma,epsilon,mise"
        assert [int(row.split(",")[0]) for row in rows[1:]] == [256, 512, 1024]

    def test_empirical_needs_two_runs(self, tmp_path):
        query = self.dense_query()
        d = self.write_report(tmp_path, "solo", 256, 0.02, 0.1)
        with pytest.raises(ConfigError, match=">= 2 runs"):
            run_rates(query, (0.1,), str(tmp_path / "cmp"), empirical_dirs=[d])

    def test_empirical_rejects_mismatched_memory(self, tmp_path):
        query = self.dense_query()
        d1 = self.write_report(tmp_path, "a", 256, 0.02, 0.1)
        d2 = self.write_report(tmp_path, "b", 512, 0.01, 0.05, alpha=(0.8, 0.6))
        with pytest.raises(ConfigError, match="disagree on the memory pair"):
            run_rates(query, (0.1,), str(tmp_path / "cmp"), empirical_dirs=[d1, d2])

    def test_empirical_rejects_query_alpha_mismatch(self, tmp_path):
        query = RateQuery(s=(0.5, 0.75), pi=2, q=2, p=2, nu=0.1, alpha=(0.4, 1.0))
        d1 = self.write_report(tmp_path, "a", 256, 0.02, 0.1)
        d2 = self.write_report(tmp_path, "b", 512, 0.01, 0.05)
        with pytest.raises(ConfigError, match="does not match the query alpha"):
            run_rates(query, (0.1,), str(tmp_path / "cmp"), empirical_dirs=[d1, d2])

    def test_empirical_rejects_noiseless_report(self, tmp_path):
        query = self.dense_query()
        d1 = self.write_report(tmp_path, "a", 256, 0.0, 0.1)
        d2 = self.write_report(tmp_path, "b", 512, 0.01, 0.05)
        with pytest.raises(ConfigError, match="epsilon > 0"):
            run_rates(query, (0.1,), str(tmp_path / "cmp"), empirical_dirs=[d1, d2])

    def test_empirical_needs_planar_query(self, tmp_path):
        query = RateQuery(s=(1.0, 1.0, 1.0), pi=2, q=2, p=2, nu=0.5, alpha=(1.0, 1.0, 1.0))
        d1 = self.write_report(tmp_path, "a", 256, 0.02, 0.1)
        d2 = self.write_report(tmp_path, "b", 512, 0.01, 0.05)
        with pytest.raises(ConfigError, match="two-dimensional query"):
            run_rates(query, (0.1,), str(tmp_path / "cmp"), empirical_dirs=[d1, d2])


def loop_field_csv(field, path):
    """The per-row field writer the vectorised one replaced, kept as the reference."""
    N = field.shape[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "value"])
        for i in range(N):
            for j in range(N):
                writer.writerow([repr(i / N), repr(j / N), repr(float(field[i, j]))])


def loop_coeff_csv(coeffs, path):
    """The per-row coefficient writer the vectorised one replaced, kept as the reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["j1", "k1", "j2", "k2", "real", "imag"])
        for b1, b2, view in coeffs.blocks():
            for k1 in range(view.shape[0]):
                for k2 in range(view.shape[1]):
                    value = view[k1, k2]
                    writer.writerow(
                        [b1, k1, b2, k2, repr(float(value.real)), repr(float(value.imag))]
                    )


class TestTransform:
    def test_writers_match_the_loop_writers_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(9)
        field = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-300, 300, (64, 64))
        field[0, :4] = [0.0, -0.0, 1e-320, -np.inf]
        field[1, :2] = [np.nan, 5e-324]
        src = str(tmp_path / "field.csv")
        _write_field_csv(field, src)
        loop_field_csv(field, tmp_path / "field_ref.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "field_ref.csv").read_bytes()
        back = _read_field_csv(src)
        assert np.array_equal(back, field, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(field))

        smooth = rng.standard_normal((64, 64))
        _write_field_csv(smooth, src)
        new, ref = tmp_path / "coeffs.csv", tmp_path / "coeffs_ref.csv"
        for levels in ((None, None), (3, 4)):
            run_transform(src, str(new), j1=levels[0], j2=levels[1])
            J1, J2 = (5 if j is None else j for j in levels)
            loop_coeff_csv(forward_2d(smooth, J1=J1, J2=J2), ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch):
        import fdeconv.cli as cli

        src, coeffs = str(tmp_path / "field.csv"), str(tmp_path / "coeffs.csv")
        _write_field_csv(np.random.default_rng(4).standard_normal((16, 16)), src)
        run_transform(src, coeffs)
        real_write = cli._write_field_csv

        def failing_write(field, path):
            real_write(field[:2], path)  # a truncated field, then the failure
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_field_csv", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_transform(coeffs, str(tmp_path / "back.csv"), inverse=True)
        assert sorted(os.listdir(tmp_path)) == ["coeffs.csv", "field.csv"]

    @pytest.mark.parametrize(
        "rows, match",
        [
            (["3,0,3,0,1.0,0.0", "3,12,3,0,1.0,0.0", "1,0,3,0,1.0,0.0"], "shift \\(12, 0\\)"),
            (["3,0,3,0,1.0,0.0", "1,0,3,0,1.0,0.0", "3,12,3,0,1.0,0.0"], "no block \\(1, 3\\)"),
            (["3,0,3,0,1.0,0.0", "3,0,3,-1,1.0,0.0"], "shift \\(0, -1\\) outside block"),
            (["3,0,3,0,1.0", "3,0,3,0,1.0,0.0"], "bad coefficient row"),
            (["3,0.5,3,0,1.0,0.0"], "bad coefficient row"),
        ],
    )
    def test_first_offending_coefficient_row_is_reported(self, tmp_path, rows, match):
        path = tmp_path / "coeffs.csv"
        path.write_text("\n".join(["j1,k1,j2,k2,real,imag"] + rows) + "\n")
        with pytest.raises(ConfigError, match=match):
            run_transform(str(path), str(tmp_path / "out.csv"), inverse=True, n=16)
        assert not (tmp_path / "out.csv").exists()

    def test_round_trip_through_csv(self, tmp_path):
        rng = np.random.default_rng(42)
        field = rng.standard_normal((16, 16))
        src = str(tmp_path / "field.csv")
        coeffs = str(tmp_path / "coeffs.csv")
        back = str(tmp_path / "back.csv")
        _write_field_csv(field, src)
        assert main(["transform", src, coeffs]) == 0
        assert main(["transform", coeffs, back, "--inverse"]) == 0
        recovered = _read_field_csv(back)
        np.testing.assert_allclose(recovered, field, atol=1e-10)

    def test_coefficient_rows_enumerate_kept_blocks(self, tmp_path):
        rng = np.random.default_rng(7)
        field = rng.standard_normal((32, 32))
        src = str(tmp_path / "field.csv")
        out = str(tmp_path / "coeffs.csv")
        _write_field_csv(field, src)
        run_transform(src, out, j1=3, j2=3)
        lines = open(out).read().splitlines()
        assert lines[0] == "j1,k1,j2,k2,real,imag"
        assert len(lines) == 1 + 16 * 16

    def test_truncated_inverse_matches_projection(self, tmp_path):
        rng = np.random.default_rng(7)
        field = rng.standard_normal((32, 32))
        src = str(tmp_path / "field.csv")
        coeffs = str(tmp_path / "coeffs.csv")
        back = str(tmp_path / "back.csv")
        _write_field_csv(field, src)
        run_transform(src, coeffs, j1=3, j2=3)
        run_transform(coeffs, back, inverse=True, n=32)
        recovered = _read_field_csv(back)
        projection = inverse_2d(forward_2d(field, J1=3, J2=3), 32).real
        np.testing.assert_allclose(recovered, projection, atol=1e-10)

    def test_inverse_defaults_to_packed_grid_size(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.standard_normal((16, 16))
        src = str(tmp_path / "field.csv")
        coeffs = str(tmp_path / "coeffs.csv")
        back = str(tmp_path / "back.csv")
        _write_field_csv(field, src)
        run_transform(src, coeffs)
        run_transform(coeffs, back, inverse=True)
        assert _read_field_csv(back).shape == (16, 16)

    def test_missing_coefficients_are_zero(self, tmp_path):
        rng = np.random.default_rng(5)
        field = rng.standard_normal((16, 16))
        src = str(tmp_path / "field.csv")
        coeffs = str(tmp_path / "coeffs.csv")
        back = str(tmp_path / "back.csv")
        _write_field_csv(field, src)
        run_transform(src, coeffs)
        lines = open(coeffs).read().splitlines()
        kept = [line for line in lines[1:] if not line.startswith("3,0,")]
        open(coeffs, "w").write("\n".join([lines[0]] + kept) + "\n")
        run_transform(coeffs, back, inverse=True, n=16)
        recovered = _read_field_csv(back)
        full = forward_2d(field, J1=3, J2=3)
        full.block(3, 3)[0, :] = 0.0
        full.block(3, 2)[0, :] = 0.0
        expected = inverse_2d(full, 16).real
        np.testing.assert_allclose(recovered, expected, atol=1e-10)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("a,b,c\n0.0,0.0,1.0\n")
        with pytest.raises(ConfigError, match="must start with the header"):
            _read_field_csv(str(path))

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        rows = ["t,x,value"]
        N = 16
        for i in range(N):
            for j in range(N):
                rows.append(f"{i / N!r},{j / N!r},1.0")
        rows[1] = rows[2]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match="duplicate grid cell"):
            _read_field_csv(str(path))

    @pytest.mark.parametrize(
        "row, match",
        [
            ("1.0,0.0,1.0", "fall outside the unit grid"),
            ("0.0,-0.0625,1.0", "fall outside the unit grid"),
            ("nan,0.0,1.0", "fall outside the unit grid"),
            ("0.0,zero,1.0", "bad field row"),
            ("0.0,0.0", "bad field row"),
        ],
    )
    def test_bad_field_row_rejected(self, tmp_path, row, match):
        path = tmp_path / "field.csv"
        rows = ["t,x,value"] + [f"{i / 16!r},{j / 16!r},1.0" for i in range(16) for j in range(16)]
        rows[100] = row
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match=match):
            _read_field_csv(str(path))

    def test_field_below_coarsest_scale_fails_in_the_reader(self, tmp_path, capsys):
        # m0 = 3 needs N >= 16; an 8 x 8 field must be refused while reading,
        # not later by the transform's level check.
        src = str(tmp_path / "field.csv")
        _write_field_csv(np.ones((8, 8)), src)
        with pytest.raises(ConfigError, match="N >= 16"):
            _read_field_csv(src)
        assert main(["transform", src, str(tmp_path / "coeffs.csv")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "N >= 16" in err
        assert "ParameterError" not in err
        assert not (tmp_path / "coeffs.csv").exists()

    def test_partial_grid_rejected(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("t,x,value\n" + "0.0,0.0,1.0\n")
        with pytest.raises(ConfigError, match="N\\*N rows"):
            _read_field_csv(str(path))

    def test_unknown_block_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("j1,k1,j2,k2,real,imag\n3,0,3,0,1.0,0.0\n1,0,3,0,1.0,0.0\n")
        with pytest.raises(ConfigError, match="no block"):
            run_transform(str(path), str(tmp_path / "out.csv"), inverse=True, n=16)

    def test_shift_outside_block_rejected(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("j1,k1,j2,k2,real,imag\n3,12,3,0,1.0,0.0\n")
        with pytest.raises(ConfigError, match="outside block"):
            run_transform(str(path), str(tmp_path / "out.csv"), inverse=True)


class TestMainInterface:
    def test_simulate_exit_zero_and_summary_line(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code = main(
            ["simulate", "--set", "N=64", "--set", "j1=3", "--set", "j2=3",
             "--runs", "2", "--seed", "1", "--out", out]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "mise=" in captured.out
        assert out in captured.out

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = main(["simulate", "--set", "signal=chirp", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_runtime_config_error_prints_context(self, tmp_path, capsys):
        code = main(
            ["simulate", "--set", "snr_db=inf", "--set", "j2=5", "--runs", "1",
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "config: signal=lidar" in err
        assert "ConfigError" in err

    def test_numerical_error_exits_three(self, tmp_path, capsys, monkeypatch):
        import fdeconv.cli as cli

        def boom(cfg, jobs=1):
            raise IllPosedError("kernel transform vanishes on a kept band")

        monkeypatch.setattr(cli, "_simulate", boom)
        code = main(
            ["simulate", "--set", "N=64", "--set", "j1=3", "--set", "j2=3",
             "--out", str(tmp_path / "x")]
        )
        assert code == 3
        assert "IllPosedError" in capsys.readouterr().err

    def test_set_requires_key_value_shape(self, tmp_path, capsys):
        code = main(["simulate", "--set", "runs", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--set expects key=value" in capsys.readouterr().err

    def test_flag_precedence_over_file_and_set(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("seed=1\nruns=5\n")
        args = empty_args(config=str(path), set=["seed=2"], seed=3)
        cfg = _config_from_args(args)
        assert cfg.seed == 3
        assert cfg.runs == 5
        args = empty_args(config=str(path), set=["seed=2"])
        assert _config_from_args(args).seed == 2
        args = empty_args(config=str(path))
        assert _config_from_args(args).seed == 1

    def test_table_mode_defaults_to_preset_levels(self):
        cfg = _config_from_args(empty_args(table_mode=True))
        assert cfg.j1 == "preset"
        cfg = _config_from_args(empty_args(table_mode=True, set=["j1=4"]))
        assert cfg.j1 == "4"

    def test_table_command_runs_tiny_grid(self, tmp_path, capsys):
        out = str(tmp_path / "table")
        code = main(
            ["table", "--set", "N=16", "--set", "j1=3", "--set", "j2=3",
             "--runs", "1", "--out", out]
        )
        assert code == 0
        assert "cells=36" in capsys.readouterr().out
        lines = open(os.path.join(out, "table.csv")).read().splitlines()
        assert len(lines) == 37

    def test_rates_command_reports_regime(self, tmp_path, capsys):
        code = main(
            ["rates", "--s", "0.5,0.75", "--alpha", "0.2,1.0", "--nu", "0.1",
             "--epsilons", "0.1,0.01", "--out", str(tmp_path / "rates")]
        )
        assert code == 0
        assert "regime=dense-x" in capsys.readouterr().out

    def test_rates_default_epsilons_cover_a_decade_grid(self, tmp_path):
        code = main(["rates", "--out", str(tmp_path / "rates")])
        assert code == 0
        lines = open(os.path.join(str(tmp_path / "rates"), "rates_curve.csv")).read().splitlines()
        assert len(lines) == 1 + len(DEFAULT_EPSILONS)

    def test_invalid_epsilon_exits_two(self, tmp_path, capsys):
        code = main(["rates", "--epsilons", "1.5", "--out", str(tmp_path / "rates")])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
