"""Format stability: old artifacts keep replaying, byte for byte.

The golden fixture under ``fixtures/`` is a real mid-run checkpoint (faults
active) committed to the repository.  CI restores it and finishes the run,
asserting the report matches the expected values frozen next to it — so any
change to the codec layout, the pickled class shapes or the RNG stream
naming that would orphan existing checkpoints fails here loudly.  After an
*intentional* break, bump ``SNAPSHOT_VERSION`` and regenerate with
``tools/make_snapshot_fixture.py``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.scenarios import build_scenario
from repro.scenarios.base import Scenario
from repro.snapshot import SNAPSHOT_VERSION, SnapshotCodec

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
FIXTURE = os.path.join(FIXTURE_DIR, "urban_grid_mid_run.reprosnap")
EXPECTED = os.path.join(FIXTURE_DIR, "urban_grid_mid_run.expected.json")


def _load():
    with open(FIXTURE, "rb") as handle:
        blob = handle.read()
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    return blob, expected


def test_golden_fixture_header_is_current_format():
    blob, expected = _load()
    header = SnapshotCodec().read_header(blob)
    assert header["version"] == SNAPSHOT_VERSION == expected["snapshot_version"]
    assert header["metadata"] == expected["header_metadata"]


def test_golden_fixture_replays_to_the_frozen_report():
    blob, expected = _load()
    scenario = Scenario.restore(blob)
    assert scenario.sim.now == expected["cut"]
    report = scenario.resume()
    assert report.as_dict() == expected["resumed_report"]


def test_golden_fixture_matches_a_fresh_run_of_the_same_config():
    """The frozen report is still what today's code computes from scratch."""
    _, expected = _load()
    scenario = build_scenario(
        expected["scenario"].replace("_", "-"),
        n=expected["fleet"],
        seed=expected["seed"],
        **expected["knobs"],
    )
    report = scenario.run(expected["duration"])
    assert report.as_dict() == expected["resumed_report"]


_FAULTS = dict(
    crash_rate=0.08,
    mean_downtime=2.0,
    radio_degradation=6.0,
    loss_burst_rate=0.4,
    malicious_fraction=0.3,
    adversary_profile="mixed",
)


def test_snapshot_of_restored_scenario_is_bit_identical():
    """Within-process idempotence: restore -> snapshot reproduces the bytes.

    (Bit-identity of a *fresh run's* artifact across processes is
    :func:`test_fresh_run_artifact_is_identical_across_hash_seeds`.)
    """
    scenario = build_scenario("highway", n=4, seed=5)
    scenario.run(6.0)
    first = scenario.snapshot()
    restored = Scenario.restore(first)
    second = restored.snapshot()
    assert second == first


@pytest.mark.parametrize(
    "name, knobs",
    [
        ("urban-grid", dict(n=8, seed=3, **_FAULTS)),
        ("urban-grid", dict(n=8, seed=3, fast_math=True)),
        ("intersection", dict(n=6, seed=2)),
    ],
    ids=["urban-grid-exact-faults", "urban-grid-statistical", "intersection"],
)
def test_restored_snapshot_is_bit_identical_on_every_scenario(name, knobs):
    """The same restore fixed point on the other scenarios and tiers."""
    scenario = build_scenario(name, **knobs)
    scenario.run(6.0)
    first = scenario.snapshot()
    restored = Scenario.restore(first)
    second = restored.snapshot()
    assert second == first


_RESNAPSHOT_FIXTURE = """
import sys
from repro.scenarios.base import Scenario
with open(sys.argv[1], "rb") as handle:
    blob = handle.read()
sys.exit(0 if Scenario.restore(blob).snapshot() == blob else 1)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "2"])
def test_golden_fixture_is_a_fixed_point(hash_seed):
    """Restoring the committed artifact and snapshotting it gives its bytes.

    Runs in a fresh interpreter per ``PYTHONHASHSEED``: the bytes may depend
    on neither the hash seed nor which strings that process happens to have
    interned.
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC_DIR)
    result = subprocess.run(
        [sys.executable, "-c", _RESNAPSHOT_FIXTURE, FIXTURE],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_snapshot_artifact_is_deterministic_within_process():
    """Snapshotting the same state twice yields the same bytes."""
    scenario = build_scenario("highway", n=4, seed=5)
    scenario.run(6.0)
    assert scenario.snapshot() == scenario.snapshot()


_FRESH_RUN_DIGEST = """
import hashlib, json, sys
from repro.scenarios import build_scenario
name, knobs = sys.argv[1], json.loads(sys.argv[2])
scenario = build_scenario(name, **knobs)
scenario.run(4.0)
print(hashlib.sha256(scenario.snapshot()).hexdigest())
"""


@pytest.mark.parametrize(
    "name, knobs",
    [
        ("urban-grid", dict(n=30, seed=3)),
        ("intersection", dict(n=6, seed=2)),
        ("highway", dict(n=4, seed=5)),
    ],
    ids=["urban-grid", "intersection", "highway"],
)
def test_fresh_run_artifact_is_identical_across_hash_seeds(name, knobs):
    """A fresh run's artifact bytes do not depend on ``PYTHONHASHSEED``."""
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC_DIR)
        result = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN_DIGEST, name, json.dumps(knobs)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.strip())
    assert len(digests) == 1, digests
