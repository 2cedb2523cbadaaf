"""E12 — Multi-dimensional sweep-grid consistency.

The paper's evaluation is a set of ablations over protocol knobs (beacon
period, trust configuration, workload rate), not just fleet size.  The sweep
engine regenerates them from one command, so its seeding discipline *is* the
reproducibility story: a 2-D grid must be nothing more than its 1-D slices
run under the same seeds.

The seed of a (point, repetition) cell is a pure function of the point's flat
row-major index::

    seed = base_seed + flat_index * seed_stride + repetition

so for a grid over (n × beacon_period) with J beacon values, the n-slice at
``beacon_period = b_j`` occupies flat indices ``j, J + j, 2J + j, ...`` — a
1-D n-sweep with ``base_seed + j * stride`` and ``seed_stride = J * stride``
lands on exactly the same seeds.  This benchmark runs the 2-D grid and both
families of 1-D slices and asserts every metric of every repetition matches
point-for-point, plus that the protocol knob actually moves the physics
(beacon traffic grows as the beacon period shrinks).

Metrics can be ``nan`` (e.g. latency percentiles of a point with no completed
tasks); cells are compared nan-aware.
"""

from __future__ import annotations

import math
import os
from typing import List

from repro.experiments.runner import (
    DEFAULT_SEED_STRIDE,
    ExperimentRunner,
    ScenarioRunOnce,
    SweepGrid,
    sweep_cells,
    sweep_scenario_grid,
)
from repro.metrics.report import ResultTable

SMOKE = os.environ.get("E12_SMOKE") == "1"
SCENARIO = "highway"
FLEET_SIZES = [2, 3] if SMOKE else [2, 4, 6]
BEACON_PERIODS = [0.5, 1.0] if SMOKE else [0.2, 0.5, 1.0]
DURATION = 4.0 if SMOKE else 8.0
REPETITIONS = 1 if SMOKE else 2
BASE_SEED = 1000


def _cells_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(
        a[key] == b[key] or (math.isnan(a[key]) and math.isnan(b[key])) for key in a
    )


def _slice_runner(base_seed: int, seed_stride: int) -> ExperimentRunner:
    run_once = ScenarioRunOnce(scenario=SCENARIO, duration=DURATION)
    return ExperimentRunner(
        run_once,
        repetitions=REPETITIONS,
        base_seed=base_seed,
        seed_stride=seed_stride,
    )


def test_two_dimensional_grid_reproduces_its_one_dimensional_slices(print_table):
    grid = SweepGrid({"n": FLEET_SIZES, "beacon_period": BEACON_PERIODS})
    grid_results = sweep_scenario_grid(
        SCENARIO, grid, duration=DURATION, repetitions=REPETITIONS, base_seed=BASE_SEED
    )
    by_params = {
        (point["n"], point["beacon_period"]): result
        for result in grid_results
        for point in [result.point.as_dict()]
    }
    assert len(by_params) == len(FLEET_SIZES) * len(BEACON_PERIODS)
    stride_j = len(BEACON_PERIODS)

    # --- beacon-period slices: contiguous flat indices at each fleet size ----
    for i, n in enumerate(FLEET_SIZES):
        runner = _slice_runner(
            base_seed=BASE_SEED + i * stride_j * DEFAULT_SEED_STRIDE,
            seed_stride=DEFAULT_SEED_STRIDE,
        )
        slice_results = runner.run_sweep(
            SweepGrid({"n": [n], "beacon_period": BEACON_PERIODS}).points()
        )
        for result in slice_results:
            params = result.point.as_dict()
            reference = by_params[(params["n"], params["beacon_period"])]
            assert len(result.runs) == len(reference.runs)
            for run, reference_run in zip(result.runs, reference.runs):
                assert _cells_equal(run, reference_run)

    # --- fleet-size slices: strided flat indices at each beacon period -------
    for j, beacon_period in enumerate(BEACON_PERIODS):
        runner = _slice_runner(
            base_seed=BASE_SEED + j * DEFAULT_SEED_STRIDE,
            seed_stride=stride_j * DEFAULT_SEED_STRIDE,
        )
        slice_results = runner.run_sweep(
            SweepGrid({"n": FLEET_SIZES, "beacon_period": [beacon_period]}).points()
        )
        for result in slice_results:
            params = result.point.as_dict()
            reference = by_params[(params["n"], params["beacon_period"])]
            for run, reference_run in zip(result.runs, reference.runs):
                assert _cells_equal(run, reference_run)

    # --- the swept knob moves the physics ------------------------------------
    # More frequent beacons (smaller period) mean more mesh traffic at every
    # fleet size; this is the RQ1/RQ3 sensitivity direction the paper argues.
    chattiest, calmest = min(BEACON_PERIODS), max(BEACON_PERIODS)
    for n in FLEET_SIZES:
        assert (
            by_params[(n, chattiest)].mean("mesh_bytes")
            > by_params[(n, calmest)].mean("mesh_bytes")
        )

    table = ResultTable(
        f"E12: {SCENARIO} sweep grid, n × beacon_period "
        f"({REPETITIONS} reps, {DURATION:g} sim-s)",
        ["n", "beacon_period", "mesh_bytes", "tasks_completed", "success_rate"],
    )
    for result in grid_results:
        params = result.point.as_dict()
        table.add_row(
            params["n"],
            params["beacon_period"],
            result.mean("mesh_bytes"),
            result.mean("tasks_completed"),
            result.mean("success_rate"),
        )
    print_table(table)


def test_grid_seeds_are_disjoint_across_points():
    grid = SweepGrid({"n": FLEET_SIZES, "beacon_period": BEACON_PERIODS})
    seeds: List[int] = [
        cell.seed for cell in sweep_cells(grid.points(), REPETITIONS, BASE_SEED)
    ]
    assert len(seeds) == len(set(seeds))
