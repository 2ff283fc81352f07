"""Each benchmark check must reject a broken output.

Run from the root of a source checkout::

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

# risk_report.txt values of the default simulate configuration, seed 1
DEFAULT_REPORT = {
    "schema_version": "1",
    "n": "1024",
    "sigma": "0.08000108503841835",
    "epsilon": "2.6466356234370744e-05",
    "alpha1": "0.8",
    "alpha2": "0.6",
    "nu": "0.5",
    "j1": "9",
    "j2": "5",
}


def test_errors_below_the_floor_or_above_one_are_rejected():
    floor = 0.0248
    assert checks.check_errors([0.0278, 0.0301], floor) == []
    assert checks.check_errors([0.0278, np.nextafter(floor, 0.0)], floor)
    assert checks.check_errors([1.5], floor)
    assert checks.check_errors([float("nan")], floor)


def test_projection_floor_is_the_energy_outside_the_kept_blocks():
    coeffs = np.zeros((16, 16))
    coeffs[0, 0] = 0.6
    coeffs[8, 0] = 0.8  # level 3 on the first axis
    assert checks.projection_floor(coeffs, 2, 2) == pytest.approx(0.64)
    assert checks.projection_floor(coeffs, 3, 2) == 0.0


def test_epsilon_and_auto_level_follow_the_closed_forms():
    assert checks.check_epsilon(DEFAULT_REPORT) == []
    assert checks.auto_j1(DEFAULT_REPORT) == 9  # asks for 11.8, clamped
    off = dict(DEFAULT_REPORT, epsilon=repr(float(DEFAULT_REPORT["epsilon"]) * (1 + 1e-9)))
    assert checks.check_epsilon(off)
    assert checks.check_level(dict(DEFAULT_REPORT, j1="8"), "j1", 9)


def test_a_sheet_without_memory_fails_the_covariance_check():
    rng = np.random.default_rng(0)
    assert checks.check_sheet_acf(rng.standard_normal((256, 256)), (0.8, 0.6))


def _table_rows(cells=36):
    return [
        {"signal": "lidar", "j1": "4", "mise": "0.03", "status": "ok"}
        for _ in range(cells)
    ]


def test_a_table_with_a_failed_cell_is_rejected():
    floors = {("lidar", 4): 0.0248}
    rows = _table_rows()
    assert checks.check_table(rows, 36, floors) == []
    rows[7] = {"signal": "lidar", "j1": "", "mise": "", "status": "error: IllPosedError"}
    assert checks.check_table(rows, 36, floors)
    assert checks.check_table(_table_rows(35), 36, floors)
    below = _table_rows()
    below[0]["mise"] = "0.02"
    assert checks.check_table(below, 36, floors)


def test_a_recomputation_that_differs_in_the_last_bit_is_rejected():
    mise = 0.02780634118262889
    assert checks.check_recompute(mise, float(repr(mise))) == []
    assert checks.check_recompute(mise, float(np.nextafter(mise, 1.0)))


def _transform_pair(N=16):
    from fdeconv.meyer import forward_2d

    field = np.random.default_rng(1).standard_normal((N, N))
    coeffs = forward_2d(field)
    rows = []
    for b1, b2, view in coeffs.blocks():
        for k1 in range(view.shape[0]):
            for k2 in range(view.shape[1]):
                rows.append([b1, k1, b2, k2, view[k1, k2], 0.0])
    return field, np.array(rows)


def test_a_perturbed_coefficient_is_rejected():
    field, rows = _transform_pair()
    assert checks.check_transform(field, rows, field.copy()) == []
    bad = rows.copy()
    bad[5, 4] += 1e-6
    assert checks.check_transform(field, bad, field.copy())
    assert checks.check_transform(field, rows[:-1], field.copy())
    back = field.copy()
    back[3, 3] += 1e-9
    assert checks.check_transform(field, rows, back)


def test_field_grid_places_rows_by_coordinate():
    N = 8
    values = np.arange(N * N, dtype=float).reshape(N, N)
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    rows = np.column_stack([(i / N).ravel(), (j / N).ravel(), values.ravel()])
    assert np.array_equal(checks.field_grid(rows[::-1], N), values)


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import fdeconv
    from fdeconv import estimator, meyer

    original = meyer.forward_2d
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert meyer.forward_2d is not original
        assert estimator.forward_2d is meyer.forward_2d
        assert fdeconv.forward_2d is meyer.forward_2d
        meyer.forward_2d(np.ones((16, 16)))
    finally:
        tracer.uninstall()
    assert meyer.forward_2d is original and estimator.forward_2d is original
    self_s, calls, _ = tracer.totals["meyer.forward_2d"]
    assert calls == 1 and self_s >= 0.0
    assert tracer.totals["meyer.analyze"][1] == 2
    assert tracer.totals["meyer.analyze"][2] > 0


def test_a_function_the_package_no_longer_has_is_skipped(tmp_path, monkeypatch):
    import tracer as tracer_module

    gone = ("estimator", "_removed_stage", "estimator.removed")
    monkeypatch.setattr(tracer_module, "SPANS", tracer_module.SPANS + (gone,))
    tracer = Tracer(str(tmp_path))
    tracer.install()
    tracer.uninstall()
    assert "estimator.removed" not in tracer.totals


def test_benchmark_json_names_the_metrics_the_workload_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    run = {"ops": 2, "op_s": 0.5, "written": 10}
    printed = workload.layer_metrics({}, run, run, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in printed.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
