"""The durable job + artifact catalog behind the distributed sweep fabric.

A :class:`JobStore` is one SQLite database (WAL mode, so many worker
processes on one filesystem can read and write it concurrently) holding one
row per sweep *cell* — the :class:`~repro.experiments.runner.CellSpec`
``(point index, repetition, name, params, seed)`` that every sweep executor
shares.  Cells move through a small state machine::

    pending ──claim──▶ leased ──complete──▶ done
       ▲                 │
       │                 ├─fail (attempts < max)──▶ failed ──backoff──▶ (claimable)
       │                 ├─fail (attempts = max)──▶ quarantined
       │                 ├─release (clean abandon)─▶ pending
       └───────── lease deadline expires (crashed worker) ───────┘

Guarantees the chaos benchmark (E18) certifies:

* **At most one lease per cell.**  Claims run inside a single SQLite write
  transaction (``BEGIN IMMEDIATE``), so two workers can never hold the same
  cell, and an *expired* lease is re-claimable exactly once per expiry —
  the first claim flips it back to ``leased`` with a fresh deadline.
* **Crash safety.**  A worker that dies (SIGKILL, OOM, power loss) simply
  stops heartbeating; once its lease deadline passes the cell is claimable
  again.  Completions are conditional on still owning the lease, so a
  worker that lost its lease while descheduled cannot overwrite the
  reclaim's result.
* **Deterministic retry schedules.**  Backoff after a failure is
  exponential with bounded, *seeded* jitter — :func:`retry_backoff` is a
  pure function of ``(seed, attempt)`` (property-tested), so a retry
  timeline can be reproduced in tests and reasoned about in postmortems.
* **Poison-cell quarantine.**  A cell that failed ``max_attempts`` times is
  parked in ``quarantined`` rather than retried forever; ``repro fabric
  requeue`` puts it back deliberately.

The cell *results* (the flat numeric metrics a sweep aggregates) live in
the row itself, and each completion additionally writes a sha256-stamped
artifact JSON next to the store (see :mod:`repro.fabric.worker`), so the
database is an index over durable artifacts, not the only copy.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import CellSpec
from repro.simcore.rng import derive_seed

#: Schema tag stored in the meta table; bumped on incompatible layout changes.
STORE_SCHEMA = "repro.fabric/1"

#: Lease time-to-live (seconds) a claim grants before a heartbeat must renew.
DEFAULT_LEASE_TTL = 30.0

#: Lease acquisitions a cell gets before quarantine.
DEFAULT_MAX_ATTEMPTS = 5

#: First-retry backoff (seconds); doubles per subsequent attempt.
DEFAULT_BACKOFF_BASE = 0.5

#: Upper bound on the exponential backoff (before jitter).
DEFAULT_BACKOFF_CAP = 30.0

#: Fraction of the backoff added as deterministic jitter, in [0, fraction).
DEFAULT_JITTER_FRACTION = 0.25

#: Terminal cell states (nothing left to run).
TERMINAL_STATES = ("done", "quarantined")

#: Every legal cell state, in lifecycle order.
CELL_STATES = ("pending", "leased", "done", "failed", "quarantined")


class FabricError(Exception):
    """Base class of every fabric-layer failure."""


class StoreFormatError(FabricError):
    """The file is not a fabric job store (or an incompatible version)."""


class StoreStateError(FabricError):
    """An operation conflicts with the store's current cell states."""


def retry_backoff(
    seed: int,
    attempt: int,
    *,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    jitter_fraction: float = DEFAULT_JITTER_FRACTION,
) -> float:
    """Delay before retrying a cell whose ``attempt``-th try failed.

    Exponential in the attempt number (``base * 2**(attempt-1)``, capped at
    ``cap``) plus deterministic jitter drawn from ``seed`` — a **pure
    function of (seed, attempt)**, so two computations of the same retry
    never disagree and a whole retry schedule can be tabulated up front.
    The jitter decorrelates retries of neighbouring cells (their seeds
    differ) without sacrificing reproducibility.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be at least 1, got {attempt}")
    if base <= 0 or cap <= 0:
        raise ValueError("backoff base and cap must be positive")
    if not 0.0 <= jitter_fraction < 1.0:
        raise ValueError(
            f"jitter_fraction must be in [0, 1), got {jitter_fraction}"
        )
    delay = min(base * (2.0 ** (attempt - 1)), cap)
    unit = derive_seed(seed, f"backoff:{attempt}") / float(1 << 63)
    return delay * (1.0 + jitter_fraction * unit)


@dataclass(frozen=True)
class Lease:
    """A claimed cell: proof of ownership the worker passes back."""

    index: int
    repetition: int
    name: str
    params: Dict[str, object]
    seed: int
    worker: str
    deadline: float
    attempt: int


class JobStore:
    """One durable sweep's job catalog (SQLite, WAL journal).

    Every instance owns its own connection, so it is safe to hold one per
    process/thread; cross-process coordination happens entirely inside
    SQLite's locking.  ``clock`` is injectable for deterministic lease-expiry
    tests and defaults to wall time (deadlines must survive process death,
    so a monotonic clock would not do).
    """

    def __init__(self, path: str, *, clock: Callable[[], float] = time.time) -> None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"no fabric store at {path!r}")
        self.path = path
        self.clock = clock
        try:
            self._conn = self._connect(path)
        except sqlite3.DatabaseError as error:
            # e.g. the WAL pragma on a file that is not SQLite at all.
            raise StoreFormatError(
                f"{path!r} is not a fabric job store: {error}"
            ) from None
        schema = self._meta_get("schema")
        if schema != STORE_SCHEMA:
            raise StoreFormatError(
                f"{path!r} is not a fabric job store "
                f"(schema {schema!r}, expected {STORE_SCHEMA!r})"
            )

    # ------------------------------------------------------------- creation

    @classmethod
    def create(
        cls,
        path: str,
        cells: Sequence[CellSpec],
        *,
        metadata: Optional[Dict[str, object]] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        jitter_fraction: float = DEFAULT_JITTER_FRACTION,
        clock: Callable[[], float] = time.time,
    ) -> "JobStore":
        """Initialise a new store at ``path`` with every cell ``pending``.

        ``metadata`` is stored verbatim (JSON) and handed back to the
        exporter, so a fabric export can reproduce a sequential sweep's
        output byte for byte.  Refuses to overwrite an existing file — a
        half-run store is operator state, not scratch.
        """
        if os.path.exists(path):
            raise FileExistsError(f"fabric store {path!r} already exists")
        if not cells:
            raise ValueError("a fabric store needs at least one cell")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        # Validate the backoff knobs up front (retry_backoff re-checks).
        retry_backoff(
            0, 1, base=backoff_base, cap=backoff_cap, jitter_fraction=jitter_fraction
        )
        keys = {(cell.index, cell.repetition) for cell in cells}
        if len(keys) != len(cells):
            raise ValueError("duplicate (index, repetition) cell")
        conn = cls._connect(path)
        try:
            with conn:
                conn.execute(
                    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                conn.execute(
                    """
                    CREATE TABLE cells (
                        idx INTEGER NOT NULL,
                        rep INTEGER NOT NULL,
                        name TEXT NOT NULL,
                        params TEXT NOT NULL,
                        seed INTEGER NOT NULL,
                        state TEXT NOT NULL DEFAULT 'pending',
                        attempts INTEGER NOT NULL DEFAULT 0,
                        worker TEXT,
                        deadline REAL,
                        not_before REAL NOT NULL DEFAULT 0,
                        metrics TEXT,
                        artifact TEXT,
                        error TEXT,
                        updated_at REAL NOT NULL DEFAULT 0,
                        PRIMARY KEY (idx, rep)
                    )
                    """
                )
                conn.execute(
                    "CREATE INDEX cells_by_state ON cells (state, not_before)"
                )
                meta = {
                    "schema": STORE_SCHEMA,
                    "metadata": json.dumps(metadata or {}),
                    "lease_ttl": repr(float(lease_ttl)),
                    "max_attempts": repr(int(max_attempts)),
                    "backoff_base": repr(float(backoff_base)),
                    "backoff_cap": repr(float(backoff_cap)),
                    "jitter_fraction": repr(float(jitter_fraction)),
                }
                conn.executemany(
                    "INSERT INTO meta (key, value) VALUES (?, ?)", meta.items()
                )
                conn.executemany(
                    "INSERT INTO cells (idx, rep, name, params, seed, updated_at)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (
                            cell.index,
                            cell.repetition,
                            cell.name,
                            json.dumps(cell.params),
                            cell.seed,
                            clock(),
                        )
                        for cell in cells
                    ],
                )
        finally:
            conn.close()
        return cls(path, clock=clock)

    @staticmethod
    def _connect(path: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, timeout=30.0, isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=FULL")
        conn.row_factory = sqlite3.Row
        return conn

    def close(self) -> None:
        """Close the underlying connection (the store file stays usable)."""
        self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- metadata

    def _meta_get(self, key: str) -> Optional[str]:
        try:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as error:
            raise StoreFormatError(
                f"{self.path!r} is not a fabric job store: {error}"
            ) from None
        return None if row is None else row["value"]

    @property
    def metadata(self) -> Dict[str, object]:
        """The submit-time metadata document, exactly as stored."""
        return json.loads(self._meta_get("metadata") or "{}")

    @property
    def lease_ttl(self) -> float:
        return float(self._meta_get("lease_ttl"))

    @property
    def max_attempts(self) -> int:
        return int(self._meta_get("max_attempts"))

    def _backoff_for(self, seed: int, attempt: int) -> float:
        return retry_backoff(
            seed,
            attempt,
            base=float(self._meta_get("backoff_base")),
            cap=float(self._meta_get("backoff_cap")),
            jitter_fraction=float(self._meta_get("jitter_fraction")),
        )

    # ---------------------------------------------------------------- leases

    def claim(self, worker: str, *, lease_ttl: Optional[float] = None) -> Optional[Lease]:
        """Atomically lease the next runnable cell to ``worker``.

        Scans, in flat-index order: ``pending``/``failed`` cells whose
        backoff delay has elapsed, and ``leased`` cells whose deadline has
        passed (their worker is presumed dead).  An expired cell whose
        attempt budget is already spent is quarantined instead of re-leased.
        Returns ``None`` when nothing is currently claimable.  The whole
        decision runs inside one ``BEGIN IMMEDIATE`` transaction, so two
        workers can never claim the same cell.
        """
        now = self.clock()
        ttl = self.lease_ttl if lease_ttl is None else float(lease_ttl)
        max_attempts = self.max_attempts
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            while True:
                row = self._conn.execute(
                    """
                    SELECT idx, rep, name, params, seed, state, attempts
                    FROM cells
                    WHERE (state IN ('pending', 'failed') AND not_before <= ?)
                       OR (state = 'leased' AND deadline < ?)
                    ORDER BY idx, rep LIMIT 1
                    """,
                    (now, now),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                if row["state"] == "leased" and row["attempts"] >= max_attempts:
                    # The dead worker spent the last attempt; park the cell.
                    self._conn.execute(
                        "UPDATE cells SET state='quarantined', worker=NULL,"
                        " deadline=NULL, error=?, updated_at=?"
                        " WHERE idx=? AND rep=?",
                        (
                            f"lease expired after attempt {row['attempts']}"
                            f"/{max_attempts}",
                            now,
                            row["idx"],
                            row["rep"],
                        ),
                    )
                    continue
                attempt = row["attempts"] + 1
                deadline = now + ttl
                self._conn.execute(
                    "UPDATE cells SET state='leased', worker=?, deadline=?,"
                    " attempts=?, updated_at=? WHERE idx=? AND rep=?",
                    (worker, deadline, attempt, now, row["idx"], row["rep"]),
                )
                self._conn.execute("COMMIT")
                return Lease(
                    index=row["idx"],
                    repetition=row["rep"],
                    name=row["name"],
                    params=json.loads(row["params"]),
                    seed=row["seed"],
                    worker=worker,
                    deadline=deadline,
                    attempt=attempt,
                )
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    def _owned_update(self, lease: Lease, sql: str, params: Tuple) -> bool:
        """Run an update conditional on still owning the lease."""
        cursor = self._conn.execute(
            sql + " WHERE idx=? AND rep=? AND state='leased' AND worker=?",
            params + (lease.index, lease.repetition, lease.worker),
        )
        return cursor.rowcount == 1

    def heartbeat(self, lease: Lease, *, lease_ttl: Optional[float] = None) -> bool:
        """Extend a held lease's deadline; ``False`` means the lease is lost.

        A lost heartbeat (the lease expired and someone else reclaimed the
        cell, or the cell was requeued) tells the worker to abandon the cell
        — its eventual result would be discarded by :meth:`complete` anyway.
        """
        now = self.clock()
        ttl = self.lease_ttl if lease_ttl is None else float(lease_ttl)
        return self._owned_update(
            lease,
            "UPDATE cells SET deadline=?, updated_at=?",
            (now + ttl, now),
        )

    def complete(
        self,
        lease: Lease,
        metrics: Dict[str, float],
        *,
        artifact: Optional[str] = None,
    ) -> bool:
        """Record a finished cell; ``False`` when the lease was already lost.

        The metrics JSON preserves the report's key order, which is what
        makes a fabric export byte-identical to a sequential sweep's.
        """
        return self._owned_update(
            lease,
            "UPDATE cells SET state='done', metrics=?, artifact=?,"
            " worker=NULL, deadline=NULL, error=NULL, updated_at=?",
            (json.dumps(metrics), artifact, self.clock()),
        )

    def fail(self, lease: Lease, error: str) -> Optional[str]:
        """Record a failed attempt; returns the cell's new state.

        Retries go to ``failed`` with a deterministic exponential-backoff
        ``not_before``; the ``max_attempts``-th failure quarantines the cell.
        Returns ``None`` when the lease was already lost (nothing recorded).
        """
        now = self.clock()
        if lease.attempt >= self.max_attempts:
            ok = self._owned_update(
                lease,
                "UPDATE cells SET state='quarantined', worker=NULL,"
                " deadline=NULL, error=?, updated_at=?",
                (error, now),
            )
            return "quarantined" if ok else None
        delay = self._backoff_for(lease.seed, lease.attempt)
        ok = self._owned_update(
            lease,
            "UPDATE cells SET state='failed', worker=NULL, deadline=NULL,"
            " error=?, not_before=?, updated_at=?",
            (error, now + delay, now),
        )
        return "failed" if ok else None

    def preload_done(
        self, index: int, repetition: int, metrics: Dict[str, float]
    ) -> bool:
        """Mark a still-``pending`` cell ``done`` with known metrics.

        The submit-time resume path: cells an earlier export already
        computed never need a lease at all.  Only ``pending`` cells with no
        spent attempts are eligible — anything else means workers are
        already draining the store, and resume seeding would race them.
        """
        cursor = self._conn.execute(
            "UPDATE cells SET state='done', metrics=?, updated_at=?"
            " WHERE idx=? AND rep=? AND state='pending' AND attempts=0",
            (json.dumps(metrics), self.clock(), index, repetition),
        )
        return cursor.rowcount == 1

    def release(self, lease: Lease) -> bool:
        """Cleanly abandon a held lease (SIGTERM drain): back to ``pending``.

        The attempt is refunded — a deliberate handoff is not a failure and
        must not push the cell toward quarantine or delay its next claim.
        """
        return self._owned_update(
            lease,
            "UPDATE cells SET state='pending', worker=NULL, deadline=NULL,"
            " attempts=attempts-1, updated_at=?",
            (self.clock(),),
        )

    # ---------------------------------------------------------------- queries

    def counts(self) -> Dict[str, int]:
        """Cells per state (every state present, zero when empty)."""
        out = {state: 0 for state in CELL_STATES}
        for row in self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM cells GROUP BY state"
        ):
            out[row["state"]] = row["n"]
        return out

    def unfinished(self) -> int:
        """Cells not yet in a terminal state."""
        counts = self.counts()
        return sum(n for state, n in counts.items() if state not in TERMINAL_STATES)

    def is_complete(self) -> bool:
        """True when every cell is ``done`` (quarantined cells count as not)."""
        counts = self.counts()
        return counts["done"] == sum(counts.values())

    def cells(self) -> List[Dict[str, object]]:
        """Every cell row as a plain dict, in flat-index order."""
        rows = self._conn.execute(
            "SELECT * FROM cells ORDER BY idx, rep"
        ).fetchall()
        out = []
        for row in rows:
            cell = dict(row)
            cell["params"] = json.loads(cell["params"])
            if cell["metrics"] is not None:
                cell["metrics"] = json.loads(cell["metrics"])
            out.append(cell)
        return out

    def observe(self) -> Dict[str, object]:
        """One coherent observation of the store's operational state.

        The **single shared accessor** behind both ``repro fabric status
        --json`` and the Prometheus gauges (``--prometheus``, the worker
        sidecar), so the two surfaces can never disagree about what a
        "retry" or a "heartbeat age" means.  Keys:

        * ``now`` — the store clock at observation time;
        * ``states`` — cells per state (every state, zero-filled);
        * ``cells`` — total cell count;
        * ``attempts_total`` — lease acquisitions across all cells;
        * ``retries_total`` — acquisitions beyond each cell's first
          (``SUM(attempts - 1)`` over cells with ``attempts > 1``);
        * ``attempt_histogram`` — ``{attempts: cell count}`` over cells
          with at least one attempt;
        * ``lease_expired`` — leased cells whose deadline has passed
          (their worker is presumed dead);
        * ``workers`` — one entry per worker currently holding leases:
          ``{"worker", "leased", "last_heartbeat_age_s", "next_deadline_s"}``.
        """
        now = self.clock()
        states = self.counts()
        attempts_total = self._conn.execute(
            "SELECT COALESCE(SUM(attempts), 0) AS a FROM cells"
        ).fetchone()["a"]
        retries_total = self._conn.execute(
            "SELECT COALESCE(SUM(attempts - 1), 0) AS r FROM cells"
            " WHERE attempts > 1"
        ).fetchone()["r"]
        attempt_histogram = {
            int(row["attempts"]): row["n"]
            for row in self._conn.execute(
                "SELECT attempts, COUNT(*) AS n FROM cells"
                " WHERE attempts > 0 GROUP BY attempts ORDER BY attempts"
            )
        }
        lease_expired = self._conn.execute(
            "SELECT COUNT(*) AS n FROM cells WHERE state='leased' AND deadline < ?",
            (now,),
        ).fetchone()["n"]
        workers = [
            {
                "worker": row["worker"],
                "leased": row["n"],
                "last_heartbeat_age_s": max(0.0, now - row["touched"]),
                "next_deadline_s": row["deadline"] - now,
            }
            for row in self._conn.execute(
                "SELECT worker, COUNT(*) AS n, MAX(updated_at) AS touched,"
                " MIN(deadline) AS deadline FROM cells"
                " WHERE state='leased' GROUP BY worker ORDER BY worker"
            )
        ]
        return {
            "now": now,
            "states": states,
            "cells": sum(states.values()),
            "attempts_total": attempts_total,
            "retries_total": retries_total,
            "attempt_histogram": attempt_histogram,
            "lease_expired": lease_expired,
            "workers": workers,
        }

    def status(self) -> Dict[str, object]:
        """JSON-ready store summary for ``repro fabric status``.

        Counts, retry totals, attempt histogram and per-worker heartbeat
        ages all come from the same :meth:`observe` snapshot the Prometheus
        surfaces render, so the JSON and the gauges always agree.
        """
        observation = self.observe()
        counts = observation["states"]
        total = observation["cells"]
        quarantined = [
            {
                "index": row["idx"],
                "repetition": row["rep"],
                "name": row["name"],
                "attempts": row["attempts"],
                "error": row["error"],
            }
            for row in self._conn.execute(
                "SELECT idx, rep, name, attempts, error FROM cells"
                " WHERE state='quarantined' ORDER BY idx, rep"
            )
        ]
        return {
            "schema": STORE_SCHEMA,
            "path": self.path,
            "cells": total,
            "states": counts,
            "attempts": observation["attempts_total"],
            "retries": observation["retries_total"],
            "attempt_histogram": {
                str(attempts): count
                for attempts, count in observation["attempt_histogram"].items()
            },
            "lease_expired": observation["lease_expired"],
            "workers": observation["workers"],
            "complete": counts["done"] == total,
            "quarantined": quarantined,
            "metadata": self.metadata,
        }

    # ---------------------------------------------------------------- repair

    def requeue(
        self,
        states: Sequence[str] = ("failed", "quarantined"),
        *,
        expired_leases: bool = False,
    ) -> int:
        """Put cells back to ``pending`` (immediately claimable); returns count.

        ``states`` picks which non-terminal failure states to drain;
        ``expired_leases=True`` additionally requeues leased cells whose
        deadline has passed without waiting for a claim to notice them.
        ``done`` cells are never requeued — completed work is immutable.
        """
        for state in states:
            if state not in ("failed", "quarantined", "pending"):
                raise ValueError(f"cannot requeue cells in state {state!r}")
        now = self.clock()
        total = 0
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if states:
                placeholders = ",".join("?" for _ in states)
                cursor = self._conn.execute(
                    f"UPDATE cells SET state='pending', worker=NULL,"
                    f" deadline=NULL, not_before=0, error=NULL, updated_at=?"
                    f" WHERE state IN ({placeholders})",
                    (now, *states),
                )
                total += cursor.rowcount
            if expired_leases:
                cursor = self._conn.execute(
                    "UPDATE cells SET state='pending', worker=NULL,"
                    " deadline=NULL, not_before=0, updated_at=?"
                    " WHERE state='leased' AND deadline < ?",
                    (now, now),
                )
                total += cursor.rowcount
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return total
