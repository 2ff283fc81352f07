"""One benchmark workload, run in a fresh process started by ``run.py``.

The process imports ``fdeconv``, makes one untimed warm-up call of the
command's entry point ``fdeconv.cli.main``, then repeats whole rounds of
the workload's operations for the requested number of seconds, checks the
files the last round wrote, and prints one JSON result line.

``run.py`` makes the inputs before it starts this process and passes its
start time in ``FDECONV_BENCH_T0`` (a ``time.monotonic`` reading, which is
system-wide on Linux), so ``setup_s`` counts interpreter start-up, the
imports and the warm-up.

With ``--trace 1`` the process runs one pass without wrappers, then the
same pass again with the :mod:`tracer` wrappers installed, and reports
per-layer figures per operation plus the tracing overhead (traced minus
untraced wall seconds per operation).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Cells of the full table grid: 2 signals x 3 SNRs x 6 memory pairs.
TABLE_CELLS = 36

#: Grid size of the transform workload's field.
TRANSFORM_N = 512

#: Spans reported as ``<name>.self_s``, and those also reported as ``<name>.calls``.
SELF_TIMES = (
    "cli",
    "lrdnoise.noise_sheet",
    "model.make_target",
    "model.kernel",
    "model.convolve_columns",
    "model.observe",
    "estimator.estimate",
    "estimator.deconvolve",
    "meyer.forward_2d",
    "meyer.inverse_2d",
    "meyer.analyze",
    "meyer.synthesize",
)
CALLS = (
    "lrdnoise.noise_sheet",
    "estimator.estimate",
    "meyer.forward_2d",
    "meyer.inverse_2d",
)


def write_config(path: str, pairs: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs.items():
            fh.write(f"{key}={value}\n")


class Workload:
    """Inputs, warm-up, one round of operations, and the output checks."""

    ops_per_round = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def main(self, cli, argv) -> int:
        # The command's own stdout is not part of the benchmark's output.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outputs(self) -> list:
        """Files the last round wrote."""
        out = self.path("out")
        return [os.path.join(out, name) for name in sorted(os.listdir(out))]


class Simulate(Workload):
    """``fdeconv simulate --jobs 1``; one operation is one Monte Carlo run."""

    def __init__(self, workdir, seed, settings: dict, runs: int):
        super().__init__(workdir, seed)
        self.settings = settings
        self.ops_per_round = runs

    def make_inputs(self) -> None:
        pairs = dict(self.settings, runs=self.ops_per_round, seed=self.seed)
        write_config(self.path("config.txt"), dict(pairs, outdir=self.path("out")))

    def warm_up(self, cli) -> None:
        argv = ["simulate", "--config", self.path("config.txt"), "--jobs", "1"]
        self.main(cli, argv + ["--runs", "1", "--out", self.path("warm")])

    def round(self, cli) -> int:
        rc = self.main(cli, ["simulate", "--config", self.path("config.txt"), "--jobs", "1"])
        return 0 if rc == 0 else self.ops_per_round

    def check(self, cli) -> list:
        from fdeconv.meyer import forward_2d
        from fdeconv.model import make_target

        out = self.path("out")
        config = checks.read_kv(os.path.join(out, "config.txt"))
        report = checks.read_kv(os.path.join(out, "risk_report.txt"))
        errors = [
            float(row["error"])
            for row in checks.read_csv_dicts(os.path.join(out, "per_run_errors.csv"))
        ]
        problems = []
        if len(errors) != self.ops_per_round:
            problems.append(f"{len(errors)} per-run errors, expected {self.ops_per_round}")
        truth = make_target(config["signal"], int(report["n"])).values
        floor = checks.projection_floor(
            forward_2d(truth).values, int(report["j1"]), int(report["j2"])
        )
        problems += checks.check_errors(errors, floor)
        problems += checks.check_epsilon(report)
        if config["j1"] == "auto":
            problems += checks.check_level(report, "j1", checks.auto_j1(report))
        return problems


class SimulateFgn(Simulate):
    """Gaussian sheet; also checks the sheet's covariance at the seed."""

    def check(self, cli) -> list:
        from fdeconv.lrdnoise import LongMemoryParams, noise_sheet

        problems = super().check(cli)
        report = checks.read_kv(os.path.join(self.path("out"), "risk_report.txt"))
        alpha = (float(report["alpha1"]), float(report["alpha2"]))
        sheet = noise_sheet(
            LongMemoryParams(*alpha),
            int(report["n"]),
            seed=np.random.SeedSequence([self.seed, 0]),
            construction=report["noise"],
        )
        return problems + checks.check_sheet_acf(sheet.values, alpha)


class Table(Workload):
    """``fdeconv table`` over the full grid; one operation is one cell."""

    ops_per_round = TABLE_CELLS
    runs = 2

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.jobs = len(os.sched_getaffinity(0))

    def make_inputs(self) -> None:
        write_config(
            self.path("config.txt"),
            {"runs": self.runs, "seed": self.seed, "outdir": self.path("out")},
        )

    def _simulate_argv(self, out: str) -> list:
        return [
            "simulate", "--config", self.path("config.txt"),
            "--set", "j1=preset", "--jobs", "1", "--out", out,
        ]

    def warm_up(self, cli) -> None:
        # A whole sweep is the round itself; one preset cell warms the same code.
        self.main(cli, self._simulate_argv(self.path("warm")) + ["--runs", "1"])

    def round(self, cli) -> int:
        argv = ["table", "--config", self.path("config.txt"), "--jobs", str(self.jobs)]
        if self.main(cli, argv) != 0:
            return self.ops_per_round
        rows = checks.read_csv_dicts(os.path.join(self.path("out"), "table.csv"))
        return sum(1 for row in rows if row["status"] != "ok")

    def check(self, cli) -> list:
        from fdeconv.meyer import forward_2d
        from fdeconv.model import make_target

        out = self.path("out")
        config = checks.read_kv(os.path.join(out, "config.txt"))
        rows = checks.read_csv_dicts(os.path.join(out, "table.csv"))
        N, j2 = int(config["N"]), int(config["j2"])
        floors = {}
        for signal in sorted({row["signal"] for row in rows}):
            coeffs = forward_2d(make_target(signal, N).values).values
            for j1 in sorted({int(row["j1"]) for row in rows if row["j1"]}):
                floors[(signal, j1)] = checks.projection_floor(coeffs, j1, j2)
        problems = checks.check_table(rows, TABLE_CELLS, floors)
        if problems:
            return problems

        cell = rows[self.seed % len(rows)]
        again = self.path("recompute")
        argv = self._simulate_argv(again) + [
            "--set", f"signal={cell['signal']}",
            "--set", f"snr_db={cell['snr_db']}",
            "--set", f"alpha1={cell['alpha1']}",
            "--set", f"alpha2={cell['alpha2']}",
        ]
        if self.main(cli, argv) != 0:
            return [f"jobs-1 recomputation of {cell} failed"]
        report = checks.read_kv(os.path.join(again, "risk_report.txt"))
        return checks.check_recompute(float(cell["mise"]), float(report["mise"]))


class Transform(Workload):
    """``fdeconv transform`` forward, then ``--inverse``; one call is one operation."""

    ops_per_round = 2

    def make_inputs(self) -> None:
        N = TRANSFORM_N
        values = np.random.default_rng(self.seed).standard_normal((N, N))
        i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        rows = np.column_stack([(i / N).ravel(), (j / N).ravel(), values.ravel()])
        with open(self.path("field.csv"), "w", encoding="utf-8") as fh:
            fh.write("t,x,value\n")
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")

    def warm_up(self, cli) -> None:
        self.main(cli, ["transform", self.path("field.csv"), self.path("warm.csv")])

    def round(self, cli) -> int:
        failed = 0
        for argv in (
            ["transform", self.path("field.csv"), self.path("coeffs.csv")],
            ["transform", self.path("coeffs.csv"), self.path("back.csv"), "--inverse"],
        ):
            failed += self.main(cli, argv) != 0
        return failed

    def outputs(self) -> list:
        return [self.path("coeffs.csv"), self.path("back.csv")]

    def check(self, cli) -> list:
        def load(name):
            return np.loadtxt(self.path(name), delimiter=",", skiprows=1, ndmin=2)

        field = checks.field_grid(load("field.csv"), TRANSFORM_N)
        back = checks.field_grid(load("back.csv"), TRANSFORM_N)
        return checks.check_transform(field, load("coeffs.csv"), back)


WORKLOADS = {
    "simulate-auto": lambda workdir, seed: Simulate(workdir, seed, {}, runs=5),
    "simulate-fgn": lambda workdir, seed: SimulateFgn(
        workdir, seed, {"noise": "exact-fgn-product", "j1": "preset"}, runs=3
    ),
    "table-preset": Table,
    "transform-csv": Transform,
}


#: ``prctl`` option that sets the signal a process gets when its parent ends.
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Have the kernel kill this process when its parent ends.

    A ``run.py`` that is itself killed cannot stop the workload, and the
    workload's pool workers would outlive a killed workload process.
    """
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_pass(workload, cli, seconds: float, count_bytes: bool = False) -> dict:
    """Whole rounds until ``seconds`` have passed.

    ``op_s`` and ``cpu_op_s`` are medians over the rounds of the round's
    seconds per operation, so a burst of load on the machine during one
    round does not move them.
    """
    ops = failed = written = 0
    walls, cpus = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        failed += workload.round(cli)
        walls.append((time.perf_counter() - t0) / workload.ops_per_round)
        cpus.append((cpu_seconds() - cpu0) / workload.ops_per_round)
        ops += workload.ops_per_round
        if count_bytes:
            written += sum(os.stat(path).st_size for path in workload.outputs())
    return {
        "ops": ops,
        "failed": failed,
        "op_s": statistics.median(walls),
        "cpu_op_s": statistics.median(cpus),
        "written": written,
    }


def layer_metrics(totals: dict, traced: dict, untraced: dict, filter_builds: int) -> dict:
    ops = traced["ops"]

    def total(name: str, field: int) -> float:
        return totals.get(name, [0.0, 0, 0])[field]

    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (total(name, 0) / ops, "s/op")
    for name in CALLS:
        metrics[f"{name}.calls"] = (total(name, 1) / ops, "calls/op")
    metrics["cli.bytes_written"] = (traced["written"] / ops, "B/op")
    metrics["cli.pools_started"] = (total("cli.pools_started", 1) / ops, "pools/op")
    metrics["meyer.analyze.bytes"] = (total("meyer.analyze", 2) / ops, "B/op")
    metrics["meyer.filter_builds"] = (filter_builds, "count")
    metrics["trace.overhead_s"] = (traced["op_s"] - untraced["op_s"], "s/op")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = float(os.environ["FDECONV_BENCH_T0"])
    die_with_parent()
    os.register_at_fork(after_in_child=die_with_parent)

    from fdeconv import cli

    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    tracer = None
    if args.trace:
        trace_dir = os.path.join(args.workdir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer(trace_dir)
        tracer.install()
    workload.warm_up(cli)
    setup_s = time.monotonic() - t0
    filter_builds = 0
    if tracer:
        tracer.uninstall()
        filter_builds = tracer.totals.get("meyer.filter_builds", [0.0, 0, 0])[1]

    plain = timed_pass(workload, cli, args.seconds)
    result = plain
    if tracer:
        tracer.reset()
        tracer.install()
        try:
            traced = timed_pass(workload, cli, args.seconds, count_bytes=True)
        finally:
            tracer.uninstall()
        tracer.merge_workers()
        filter_builds += tracer.totals.get("meyer.filter_builds", [0.0, 0, 0])[1]
        metrics = layer_metrics(tracer.totals, traced, plain, filter_builds)
        result = traced
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (plain["op_s"], "s/op"),
            "cpu_op_s": (plain["cpu_op_s"], "s/op"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    problems = workload.check(cli)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload}: {result['ops']} operations, {result['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["ops"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
