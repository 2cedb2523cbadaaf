"""The fault-tolerant distributed sweep fabric (api/worker split).

A sweep grid's cells are idempotent, deterministic functions of
``(scenario, params, seed)`` — the flat-index seed convention from
:mod:`repro.experiments.runner` — so their execution does not need to live
and die with one parent process.  This package promotes the sweep into a
crash-safe fabric:

* :mod:`repro.fabric.store` — a durable SQLite (WAL) job + artifact
  catalog with atomic lease acquisition, heartbeat deadlines, deterministic
  retry backoff, and poison-cell quarantine;
* :mod:`repro.fabric.worker` — the pull-based worker loop behind
  ``repro worker --store PATH``: claim, heartbeat, run, write a
  sha256-stamped artifact atomically, commit;
* :mod:`repro.fabric.submit` — grid submission (``repro sweep --fabric``),
  status/requeue plumbing and the byte-identity export
  (``repro fabric export``).

The contract — certified by benchmark E18's chaos harness — is that *any*
interleaving of worker crashes, lease expiries and retries yields an
export byte-identical to ``repro sweep --jobs 1`` of the same grid.
See ``docs/FABRIC.md``.
"""

from repro.fabric.store import (
    CELL_STATES,
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    CellSpec,
    FabricError,
    JobStore,
    Lease,
    StoreFormatError,
    StoreStateError,
    retry_backoff,
)
from repro.fabric.submit import (
    StoreIncompleteError,
    export_store,
    store_results,
    submit_grid,
)
from repro.fabric.worker import (
    FabricWorker,
    artifact_dir_for,
    default_worker_id,
    metrics_sha256,
    read_cell_artifact,
    worker_main,
    write_cell_artifact,
)

__all__ = [
    "CELL_STATES",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "CellSpec",
    "FabricError",
    "JobStore",
    "Lease",
    "StoreFormatError",
    "StoreStateError",
    "StoreIncompleteError",
    "retry_backoff",
    "export_store",
    "store_results",
    "submit_grid",
    "FabricWorker",
    "artifact_dir_for",
    "default_worker_id",
    "metrics_sha256",
    "read_cell_artifact",
    "worker_main",
    "write_cell_artifact",
]
