"""Populating and draining fabric stores: the submit/export API.

``repro sweep --fabric PATH`` calls :func:`submit_grid` to expand a
:class:`~repro.experiments.runner.SweepGrid` into one store cell per
``(point, repetition)`` through the same :func:`~repro.experiments.runner.
sweep_cells` an in-process sweep uses, so any cell's seed — and therefore
its result — is the same no matter which side computes it.  A prior
``--out`` JSON export can seed the store (``resume_cache``): the cells
:func:`~repro.experiments.runner.split_cached` finds in it are inserted as
``done``, and only the remainder is ever leased.

:func:`export_store` is the inverse: :func:`store_results` regroups the
completed cells with the shared :func:`~repro.experiments.runner.
collect_results`, and the *same* :func:`~repro.experiments.export.
export_results` writer gets the *same* :func:`~repro.experiments.export.
sweep_metadata` record the CLI writes — which is why a fabric export is
certified byte-identical to ``repro sweep --out`` (benchmark E18), no
matter how many workers ran, died, or retried in between.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.export import export_results, sweep_metadata
from repro.experiments.runner import (
    DEFAULT_SEED_STRIDE,
    CellSpec,
    ExperimentResult,
    SweepGrid,
    collect_results,
    split_cached,
    sweep_cells,
)
from repro.fabric.store import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_JITTER_FRACTION,
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    FabricError,
    JobStore,
)


class StoreIncompleteError(FabricError):
    """An export was requested from a store with unfinished cells."""


def submit_grid(
    store_path: str,
    scenario: str,
    grid: SweepGrid,
    *,
    duration: float = 20.0,
    repetitions: int = 3,
    base_seed: int = 1000,
    seed_stride: int = DEFAULT_SEED_STRIDE,
    resume_cache: Optional[object] = None,
    overrides: Optional[Dict[str, object]] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    jitter_fraction: float = DEFAULT_JITTER_FRACTION,
) -> JobStore:
    """Create a job store holding every cell of one scenario sweep.

    ``resume_cache`` (a :class:`~repro.experiments.export.SweepCache`) seeds
    cells an earlier export already computed: they are stored ``done`` with
    their cached metrics and never leased.  ``overrides`` are fixed knobs
    applied to every cell on top of the grid parameters (the programmatic
    equivalent of a point dimension with one value).

    The store records the export's :func:`~repro.experiments.export.
    sweep_metadata` plus what workers need to run a cell (``seed_stride``,
    ``overrides``), so :func:`export_store` can reproduce an in-process
    ``repro sweep --out`` byte for byte.
    """
    cells = sweep_cells(grid.points(f"{scenario}:"), repetitions, base_seed, seed_stride)
    metadata = sweep_metadata(scenario, grid.dimensions, duration, repetitions, base_seed)
    metadata.update(seed_stride=seed_stride, overrides=dict(overrides or {}))
    store = JobStore.create(
        store_path,
        cells,
        metadata=metadata,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        jitter_fraction=jitter_fraction,
    )
    cached, _ = split_cached(cells, resume_cache)
    for (index, repetition), metrics in cached.items():
        store.preload_done(index, repetition, metrics)
    return store


def store_results(store: JobStore, *, partial: bool = False) -> List[ExperimentResult]:
    """Reassemble a store's cells into per-point results, flat-index order.

    Raises :class:`StoreIncompleteError` unless every cell is ``done``
    (``partial=True`` keeps only fully-done points instead — useful for
    peeking at a running grid, never for the byte-identity export).
    """
    rows = store.cells()
    missing = [row for row in rows if row["state"] != "done"]
    if missing and not partial:
        states: Dict[str, int] = {}
        for row in missing:
            states[row["state"]] = states.get(row["state"], 0) + 1
        summary = ", ".join(f"{n} {state}" for state, n in sorted(states.items()))
        raise StoreIncompleteError(
            f"store {store.path!r} has {len(missing)} unfinished cells "
            f"({summary}); run more workers or `repro fabric requeue`"
        )
    cells = [
        CellSpec(row["idx"], row["rep"], row["name"], row["params"], row["seed"])
        for row in rows
    ]
    runs = {(row["idx"], row["rep"]): row["metrics"] for row in rows if row["state"] == "done"}
    return collect_results(cells, runs)


def export_store(
    store: JobStore,
    paths: Sequence[str],
    *,
    partial: bool = False,
) -> List[ExperimentResult]:
    """Write a completed store to ``paths`` (.json / .csv by suffix).

    Uses the submit-time metadata and the grid's own dimension order, so
    the JSON and CSV bytes match an in-process ``repro sweep --out`` of the
    same grid exactly (E18's gate).  Returns the results.
    """
    results = store_results(store, partial=partial)
    meta = store.metadata
    metadata = sweep_metadata(
        meta["scenario"], meta["grid"], meta["duration"], meta["repetitions"], meta["base_seed"]
    )
    for path in paths:
        export_results(path, results, dimensions=list(meta["grid"]), **metadata)
    return results
