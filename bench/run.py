"""Benchmark of the ``fdeconv`` command: one workload per invocation.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload simulate-auto --seed 1 --seconds 15 --trace 0

The script makes the workload's inputs from ``--seed`` under
``.bench_work/<workload>/``, then runs the workload in a fresh Python
process (``workload.py``) against the package in ``src/``, with one
BLAS/OpenMP thread. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workload import WORKLOADS  # noqa: E402

#: The workload process is killed after this many seconds.
TIMEOUT_S = 170


def _exit_on_signal(signum, frame):
    # Unwinds through ``main``'s ``finally``, which kills the workload's session.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fdeconv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fdeconv", "cli.py")):
        print(f"no fdeconv sources under {src}; run from a checkout root", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    WORKLOADS[args.workload](workdir, args.seed).make_inputs()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["FDECONV_BENCH_T0"] = repr(time.monotonic())
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _exit_on_signal)
    proc = subprocess.Popen(
        [
            sys.executable,
            os.path.join(HERE, "workload.py"),
            "--workload", args.workload,
            "--workdir", workdir,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        # The workload's session holds its pool workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
