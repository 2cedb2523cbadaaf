"""E18 — Fabric chaos certification: SIGKILL workers, demand byte-identity.

The fabric's whole claim is that sweep execution survives worker death
without anyone noticing in the output.  This benchmark makes that claim
falsifiable:

1. a sweep grid is submitted to a durable job store and K worker
   *processes* start draining it (real processes — the leases, heartbeats
   and WAL transactions cross process boundaries exactly as in production);
2. once the designated victims (~30 % of K) each hold a lease, they are
   SIGKILLed mid-cell — no drain, no cleanup, exactly what OOM or a
   preempted spot instance does;
3. the survivors reclaim the orphaned leases after expiry and finish the
   grid.

Gates (smoke and full):

* the grid **completes** — every cell ``done``, nothing quarantined;
* the exported JSON **and** CSV are **byte-identical** to a sequential
  ``--jobs 1`` sweep of the same grid;
* every cell artifact hash-verifies and **no torn temp files** remain.

Results go to ``BENCH_E18.json`` (parsed by the CI smoke step).  Set
``E18_SMOKE=1`` (CI) for a smaller grid and fewer workers; the chaos —
killing a lease-holding worker — happens in both modes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from pathlib import Path
from typing import Dict, List

from repro.experiments.export import export_results, sweep_metadata
from repro.experiments.runner import SweepGrid, sweep_scenario_grid
from repro.fabric import (
    JobStore,
    artifact_dir_for,
    export_store,
    read_cell_artifact,
    submit_grid,
)
from repro.fabric.worker import worker_main
from repro.metrics.report import ResultTable

SMOKE = os.environ.get("E18_SMOKE") == "1"

SCENARIO = "highway"
GRID = (
    {"n": [4], "malicious_fraction": [0.0, 0.25]}
    if SMOKE
    else {"n": [4, 6], "malicious_fraction": [0.0, 0.25]}
)
DURATION = 3.0 if SMOKE else 5.0
REPETITIONS = 2
BASE_SEED = 1800

WORKERS = 3 if SMOKE else 6
#: ~30 % of the fleet dies mid-cell.
VICTIMS = 1 if SMOKE else 2

#: Short lease so orphan recovery happens within the benchmark's budget.
LEASE_TTL = 2.0
HEARTBEAT = 0.5
#: Generous: a victim's burnt attempts must never quarantine a cell.
MAX_ATTEMPTS = 10
BACKOFF_BASE = 0.05
BACKOFF_CAP = 0.2

KILL_WAIT_S = 30.0
DRAIN_WAIT_S = 300.0

OUTPUT_PATH = Path("BENCH_E18.json")


def _spawn_workers(ctx, store_path: str) -> List[multiprocessing.Process]:
    processes = []
    for rank in range(WORKERS):
        process = ctx.Process(
            target=worker_main,
            args=(store_path,),
            kwargs={
                "worker_id": f"chaos-{rank}",
                "heartbeat_interval": HEARTBEAT,
                "poll_interval": 0.05,
            },
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes


def _kill_lease_holders(
    store: JobStore, processes: List[multiprocessing.Process]
) -> Dict[str, float]:
    """SIGKILL each victim as soon as it holds a lease; returns kill stats."""
    victims = {f"chaos-{rank}": processes[rank] for rank in range(VICTIMS)}
    killed: Dict[str, float] = {}
    deadline = time.monotonic() + KILL_WAIT_S
    while victims and time.monotonic() < deadline:
        leased_by = {
            cell["worker"]
            for cell in store.cells()
            if cell["state"] == "leased"
        }
        for worker_id in list(victims):
            process = victims[worker_id]
            if worker_id in leased_by and process.pid is not None:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10.0)
                killed[worker_id] = time.monotonic()
                del victims[worker_id]
        if store.unfinished() == 0:
            break  # tiny grid drained before every victim claimed a cell
        time.sleep(0.02)
    return killed


def run_chaos_sweep(tmp_dir: Path) -> Dict[str, object]:
    store_path = str(tmp_dir / "chaos.db")
    grid = SweepGrid(GRID)
    submit_grid(
        store_path,
        SCENARIO,
        grid,
        duration=DURATION,
        repetitions=REPETITIONS,
        base_seed=BASE_SEED,
        lease_ttl=LEASE_TTL,
        max_attempts=MAX_ATTEMPTS,
        backoff_base=BACKOFF_BASE,
        backoff_cap=BACKOFF_CAP,
    ).close()

    # fork would duplicate this process's sqlite state; spawn is what a
    # `repro worker` CLI process actually is.
    ctx = multiprocessing.get_context("spawn")
    start = time.perf_counter()
    processes = _spawn_workers(ctx, store_path)
    with JobStore(store_path) as store:
        killed = _kill_lease_holders(store, processes)
        deadline = time.monotonic() + DRAIN_WAIT_S
        for process in processes[VICTIMS:]:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - hang diagnostics
                process.terminate()
                raise AssertionError("survivor worker failed to drain the grid")
        wall = time.perf_counter() - start
        status = store.status()

        # Gate 1: the grid completed despite the kills.
        assert store.is_complete(), (
            f"grid incomplete after chaos: {status['states']}"
        )

        # Gate 2: artifacts are whole — every hash verifies, no torn temps.
        artifact_dir = artifact_dir_for(store_path)
        temps = [
            name for name in os.listdir(artifact_dir) if name.endswith(".tmp")
        ]
        assert not temps, f"torn artifact temp files survived: {temps}"
        for cell in store.cells():
            document = read_cell_artifact(cell["artifact"])
            assert document["seed"] == cell["seed"]

        # Gate 3: export is byte-identical to a sequential sweep.
        fabric_json = tmp_dir / "fabric.json"
        fabric_csv = tmp_dir / "fabric.csv"
        export_store(store, [str(fabric_json), str(fabric_csv)])

    results = sweep_scenario_grid(
        SCENARIO,
        grid,
        duration=DURATION,
        repetitions=REPETITIONS,
        base_seed=BASE_SEED,
        jobs=1,
    )
    sequential_json = tmp_dir / "sequential.json"
    sequential_csv = tmp_dir / "sequential.csv"
    for path in (sequential_json, sequential_csv):
        export_results(
            str(path),
            results,
            dimensions=list(GRID),
            **sweep_metadata(SCENARIO, GRID, DURATION, REPETITIONS, BASE_SEED),
        )
    json_identical = fabric_json.read_bytes() == sequential_json.read_bytes()
    csv_identical = fabric_csv.read_bytes() == sequential_csv.read_bytes()
    assert json_identical, "fabric JSON export diverged from --jobs 1 sweep"
    assert csv_identical, "fabric CSV export diverged from --jobs 1 sweep"

    cells = sum(status["states"].values())
    return {
        "cells": cells,
        "workers": WORKERS,
        "killed": len(killed),
        "killed_workers": sorted(killed),
        "lease_acquisitions": status["attempts"],
        "retries": status["attempts"] - cells,
        "states": status["states"],
        "wall_s": wall,
        "json_identical": json_identical,
        "csv_identical": csv_identical,
    }


def test_e18_fabric_survives_worker_kills(tmp_path, print_table):
    chaos = run_chaos_sweep(tmp_path)

    table = ResultTable(
        "E18  Fabric chaos (SIGKILL "
        f"{VICTIMS}/{WORKERS} workers{', SMOKE' if SMOKE else ''})",
        ["measurement", "value"],
    )
    table.add_row("grid cells", chaos["cells"])
    table.add_row("worker processes", chaos["workers"])
    table.add_row("workers SIGKILLed mid-cell", chaos["killed"])
    table.add_row("lease acquisitions", chaos["lease_acquisitions"])
    table.add_row("recovery retries", chaos["retries"])
    table.add_row("wall clock [s]", chaos["wall_s"])
    table.add_row("JSON byte-identical", str(chaos["json_identical"]))
    table.add_row("CSV byte-identical", str(chaos["csv_identical"]))
    print_table(table)

    payload = {
        "benchmark": "E18",
        "smoke": SMOKE,
        "scenario": SCENARIO,
        "grid": GRID,
        "duration": DURATION,
        "repetitions": REPETITIONS,
        "base_seed": BASE_SEED,
        "lease_ttl": LEASE_TTL,
        "gates": {
            "grid_complete": True,
            "json_identical": True,
            "csv_identical": True,
        },
        "chaos": chaos,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
