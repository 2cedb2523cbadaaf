"""Experiment harness: multi-dimensional parameter sweeps with repetitions."""

from repro.experiments.export import (
    export_results,
    sweep_metadata,
    sweep_payload,
    write_csv,
    write_json,
)
from repro.experiments.runner import (
    CellSpec,
    ExperimentResult,
    ExperimentRunner,
    ScenarioRunOnce,
    SweepGrid,
    SweepPoint,
    collect_results,
    numeric_metrics,
    run_scenario_once,
    split_cached,
    sweep_cells,
    sweep_scenario_grid,
)

__all__ = [
    "CellSpec",
    "ExperimentRunner",
    "ExperimentResult",
    "ScenarioRunOnce",
    "SweepGrid",
    "SweepPoint",
    "collect_results",
    "numeric_metrics",
    "run_scenario_once",
    "split_cached",
    "sweep_cells",
    "sweep_scenario_grid",
    "export_results",
    "sweep_metadata",
    "sweep_payload",
    "write_csv",
    "write_json",
]
