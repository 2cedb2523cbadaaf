"""Store lifecycle, submission, worker loop and artifact round trips.

Everything here runs in-process with a fake ``run_cell`` — the fabric's
moving parts without any simulation cost.  The full-stack byte-identity
and crash story is benchmark E18's job.
"""

import json
import math

import pytest

from repro.experiments.runner import SweepGrid
from repro.fabric import (
    CellSpec,
    FabricWorker,
    JobStore,
    StoreIncompleteError,
    artifact_dir_for,
    metrics_sha256,
    read_cell_artifact,
    submit_grid,
    write_cell_artifact,
)
from repro.fabric.store import StoreFormatError


def _cells(n=2):
    return [
        CellSpec(index=i, repetition=0, name=f"p{i}", params={"n": i}, seed=i)
        for i in range(n)
    ]


# ---------------------------------------------------------------- store file


def test_create_refuses_existing_file(tmp_path):
    path = str(tmp_path / "store.db")
    JobStore.create(path, _cells()).close()
    with pytest.raises(FileExistsError):
        JobStore.create(path, _cells())


def test_open_rejects_missing_and_foreign_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        JobStore(str(tmp_path / "absent.db"))
    foreign = tmp_path / "foreign.db"
    foreign.write_text("not a database")
    with pytest.raises(StoreFormatError):
        JobStore(str(foreign))


def test_create_validates_inputs(tmp_path):
    with pytest.raises(ValueError, match="at least one cell"):
        JobStore.create(str(tmp_path / "a.db"), [])
    dupes = [_cells(1)[0], _cells(1)[0]]
    with pytest.raises(ValueError, match="duplicate"):
        JobStore.create(str(tmp_path / "b.db"), dupes)
    with pytest.raises(ValueError, match="lease_ttl"):
        JobStore.create(str(tmp_path / "c.db"), _cells(), lease_ttl=0)


def test_preload_done_only_touches_untouched_pending_cells(tmp_path):
    with JobStore.create(str(tmp_path / "store.db"), _cells(2)) as store:
        assert store.preload_done(0, 0, {"metric": 1.0}) is True
        assert store.preload_done(0, 0, {"metric": 9.0}) is False  # already done
        lease = store.claim("w")
        assert store.preload_done(lease.index, lease.repetition, {}) is False
        (done, leased) = store.cells()
        assert done["state"] == "done" and done["metrics"] == {"metric": 1.0}
        assert leased["state"] == "leased"


def test_requeue_drains_failure_states_not_done(tmp_path):
    with JobStore.create(
        str(tmp_path / "store.db"), _cells(3), max_attempts=1
    ) as store:
        store.complete(store.claim("w"), {"m": 1.0})
        store.fail(store.claim("w"), "poison")  # max_attempts=1 → quarantined
        assert store.counts()["quarantined"] == 1
        assert store.requeue(("failed", "quarantined")) == 1
        counts = store.counts()
        assert counts["pending"] == 2 and counts["done"] == 1
        with pytest.raises(ValueError):
            store.requeue(("done",))


# ---------------------------------------------------------------- submission


def test_grid_cells_follow_the_flat_index_seed_convention(tmp_path):
    grid = SweepGrid({"n": [4, 8], "rate": [1.0]})
    with submit_grid(
        str(tmp_path / "store.db"), "demo", grid, repetitions=2, base_seed=1000,
        seed_stride=50,
    ) as store:
        cells = store.cells()
    assert [c["seed"] for c in cells] == [1000, 1001, 1050, 1051]
    assert cells[2]["params"] == {"n": 8, "rate": 1.0}
    assert cells[2]["name"].startswith("demo:")
    rejected = tmp_path / "rejected.db"
    with pytest.raises(ValueError, match="seed_stride"):
        submit_grid(str(rejected), "demo", grid, repetitions=51, seed_stride=50)
    assert not rejected.exists()


def test_submit_records_sequential_export_metadata(tmp_path):
    grid = SweepGrid({"n": [4, 8]})
    with submit_grid(
        str(tmp_path / "store.db"), "demo", grid, duration=5.0, repetitions=1
    ) as store:
        meta = store.metadata
        # Exact key order: replayed into the JSON export's "sweep" object,
        # so it must match the CLI's export record.
        assert list(meta)[:5] == [
            "scenario", "grid", "duration", "repetitions", "base_seed"
        ]
        assert meta["grid"] == {"n": [4, 8]}


# -------------------------------------------------------------------- worker


def fake_run_cell(params, seed):
    if params.get("n") == 13:
        raise RuntimeError("unlucky cell")
    return {"metric": float(seed), "latency": math.nan}


def test_worker_drains_store_and_writes_artifacts(tmp_path):
    path = str(tmp_path / "store.db")
    grid = SweepGrid({"n": [4, 8]})
    submit_grid(path, "demo", grid, repetitions=2).close()
    worker = FabricWorker(path, worker_id="w1", run_cell=fake_run_cell)
    assert worker.run() == 4
    with JobStore(path) as store:
        assert store.is_complete()
        for cell in store.cells():
            doc = read_cell_artifact(cell["artifact"])
            assert doc["seed"] == cell["seed"]
            assert doc["metrics"]["metric"] == float(cell["seed"])
            assert math.isnan(doc["metrics"]["latency"])  # NaN round-trips


def test_worker_retries_then_quarantines_poison_cells(tmp_path):
    path = str(tmp_path / "store.db")
    grid = SweepGrid({"n": [4, 13]})
    submit_grid(
        path, "demo", grid, repetitions=1, max_attempts=3,
        backoff_base=0.01, backoff_cap=0.02,
    ).close()
    worker = FabricWorker(path, worker_id="w1", run_cell=fake_run_cell, poll_interval=0.01)
    assert worker.run() == 1
    assert worker.failed == 3  # three attempts at the poison cell
    with JobStore(path) as store:
        counts = store.counts()
        assert counts["done"] == 1 and counts["quarantined"] == 1
        status = store.status()
        assert status["quarantined"][0]["error"] == "RuntimeError: unlucky cell"


def test_incomplete_store_refuses_strict_export(tmp_path):
    path = str(tmp_path / "store.db")
    submit_grid(path, "demo", SweepGrid({"n": [4, 8]}), repetitions=1).close()
    with JobStore(path) as store:
        store.complete(store.claim("w"), {"m": 1.0})
        from repro.fabric import export_store, store_results

        with pytest.raises(StoreIncompleteError, match="1 pending"):
            export_store(store, [str(tmp_path / "out.json")])
        partial = store_results(store, partial=True)
        assert len(partial) == 1


# ----------------------------------------------------------------- artifacts


def test_artifact_write_is_atomic_and_hash_verified(tmp_path):
    from repro.fabric.store import Lease

    lease = Lease(
        index=3, repetition=1, name="demo:n=4", params={"n": 4},
        seed=1003, worker="w", deadline=0.0, attempt=1,
    )
    directory = artifact_dir_for(str(tmp_path / "store.db"))
    path = write_cell_artifact(directory, lease, {"metric": 2.5})
    assert path.endswith("cell-00003-r1.json")
    assert not [p for p in __import__("os").listdir(directory) if p.endswith(".tmp")]
    doc = read_cell_artifact(path)
    assert doc["metrics_sha256"] == metrics_sha256({"metric": 2.5})
    # Tamper: the hash check must catch it.
    raw = json.loads(open(path).read())
    raw["metrics"]["metric"] = 9.9
    with open(path, "w") as handle:
        json.dump(raw, handle)
    with pytest.raises(ValueError, match="corrupt"):
        read_cell_artifact(path)
