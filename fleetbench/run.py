"""Fleet benchmark: host cost of simulating an AirDnD vehicular mesh.

Run from the root of a checkout of the repository::

    python3 fleetbench/run.py --workload urban-exact --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the workload (build, formation warm-up, measured
window) as often as fits in ``--seconds``, and at least :data:`MIN_REPS`
times, checks every repetition's output, and reports the end-to-end metrics:
``wall_per_sim_s`` and ``setup_s`` as the median repetition's, both in the
reference seconds of :mod:`hostspeed`, and the process's peak memory.
``--trace 1`` runs the workload twice untraced (a warm-up and the
baseline) and once with :class:`layers.LayerProbe` installed, checks that
all three produce the same report digests, and reports the per-layer
metrics of the traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the result envelope (commit, versions, host, workload parameters and the
reference report digests), which is also written with the per-repetition
data under ``.fleetbench/`` in the checkout.  The self-test is
``python3 fleetbench/selftest.py``.
See ``fleetbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import ReferenceClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".fleetbench")

#: Repetitions a ``--trace 0`` run makes at least, and at most.
MIN_REPS = 3
MAX_REPS = 15
#: Scenario seeds a run may use: ``--seed`` n uses ``n * SEEDS_PER_RUN``
#: onwards (see :func:`rep_seeds`).
SEEDS_PER_RUN = 100
#: Slices a scenario workload's warm-up and measured windows are driven in;
#: the host-speed kernel is sampled between them.  The host's speed changes
#: within a second, so the finer the slices, the closer each slice's factor
#: is to the speed it ran at: rescaled same-seed repetitions of
#: ``urban-exact`` spread (sd of log) 0.13 with one slice, 0.07 with five and
#: 0.05 with ten.
WARMUP_CHUNKS = 10
DRIVE_CHUNKS = 40


@dataclass(frozen=True)
class Workload:
    """One benchmark workload's parameters (all recorded in the envelope).

    Scenario workloads build ``scenario`` with ``n`` vehicles and run the
    ``warmup_s`` formation window (set-up), then time ``measure_s`` simulated
    seconds.  Session workloads (``sessions > 0``) create that
    many sessions of ``session_s`` simulated seconds each and drive them
    round-robin in ``slice_events``-event slices with at most ``resident``
    of them in memory.
    """

    scenario: str
    n: int
    fast_math: bool
    warmup_s: float = 0.0
    measure_s: float = 0.0
    sessions: int = 0
    resident: int = 0
    slice_events: int = 0
    session_s: float = 0.0

    @property
    def tier(self) -> str:
        return "statistical" if self.fast_math else "exact"


WORKLOADS: Dict[str, Workload] = {
    "urban-exact": Workload("urban-grid", 200, False, warmup_s=1.0, measure_s=5.0),
    "urban-dense-stat": Workload("urban-grid", 400, True, warmup_s=1.0, measure_s=3.0),
    "lookaround": Workload("intersection", 24, False, warmup_s=2.0, measure_s=20.0),
    "session-churn": Workload(
        "urban-grid", 60, False, sessions=3, resident=2, slice_events=2000, session_s=2.0
    ),
}

#: Tiny versions of every workload, for the self-test (``--smoke``).
SMOKE_WORKLOADS: Dict[str, Workload] = {
    "urban-exact": Workload("urban-grid", 12, False, warmup_s=0.5, measure_s=0.5),
    "urban-dense-stat": Workload("urban-grid", 16, True, warmup_s=0.5, measure_s=0.5),
    "lookaround": Workload("intersection", 4, False, warmup_s=0.5, measure_s=2.0),
    "session-churn": Workload(
        "urban-grid", 8, False, sessions=3, resident=2, slice_events=200, session_s=1.0
    ),
}


@dataclass
class Rep:
    """What one repetition of a workload measured and produced."""

    setup_s: float
    drive_s: float
    #: ``setup_s`` and ``drive_s`` in reference seconds (see :mod:`hostspeed`).
    setup_ref_s: float
    drive_ref_s: float
    sim_s: float
    events: int
    #: Scenario seed of each scenario (or session) the repetition built.
    seeds: List[int]
    digests: List[str]
    tasks_submitted: int
    tasks_failed: int
    tasks_completed: int
    offloaded_tasks: int
    frames_delivered: float
    transfers_succeeded: float
    transfers_failed: float
    cache_hits: int
    cache_misses: int
    #: Operations driven: the scenario run plus its simulated tasks, or
    #: the sessions' step/evict/restore calls.
    operations: int = 0
    errors: List[str] = field(default_factory=list)
    evict_s: List[float] = field(default_factory=list)
    restore_s: List[float] = field(default_factory=list)
    sessions_failed: int = 0
    #: Host-speed kernel samples taken between the timed phases.
    calibration_s: List[float] = field(default_factory=list)


def report_digest(report: Any) -> str:
    """sha256 of a scenario report's sorted JSON."""
    text = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_errors(report: Any, duration: float, nodes: int) -> List[str]:
    """Invariants every report of a completed window must satisfy."""
    errors = []
    if report.node_count != nodes:
        errors.append(f"node_count {report.node_count} != {nodes}")
    if abs(report.duration_s - duration) > 1e-9:
        errors.append(f"duration_s {report.duration_s} != {duration}")
    if report.stopped_early:
        errors.append("window stopped early")
    if report.tasks_completed + report.tasks_failed > report.tasks_submitted:
        errors.append("more terminal tasks than submitted")
    return errors


def _monitor(scenario: Any, name: str) -> float:
    return scenario.sim.monitor.counter_value(name)


def rep_seeds(w: Workload, seed: int, rep: int) -> List[int]:
    """Scenario seeds of repetition ``rep`` of a ``--seed`` run.

    A run averages over several fleets, because the host time a fleet costs
    varies from one fleet to the next: on ``urban-exact`` its measured
    window fired 141k to 154k events over five seeds, and an N=60 session's
    time per sim-s varies by a fifth.  A scenario workload builds each fleet
    twice in a row, so the second build is checked against the first; a
    session workload drives three fleets of its own in every repetition,
    each checked against its solo run.
    """
    first = seed * SEEDS_PER_RUN
    if w.sessions:
        first += rep * w.sessions
        return list(range(first, first + w.sessions))
    return [first + rep // 2]


def scenario_rep(w: Workload, seed: int, rep: int, probe: Any = None) -> Rep:
    """Build, warm up through formation, then time the measured window.

    The build, each of the :data:`WARMUP_CHUNKS` slices of the warm-up
    window and each of the :data:`DRIVE_CHUNKS` slices of the measured one
    are timed and rescaled to reference seconds on their own; the kernel
    samples between them are not part of either time.
    """
    from repro.scenarios import build_scenario

    seeds = rep_seeds(w, seed, rep)
    gc.collect()
    clock = ReferenceClock()
    start = time.perf_counter()
    scenario = build_scenario(w.scenario, n=w.n, seed=seeds[0], fast_math=w.fast_math)
    scenario.open_window(w.warmup_s + w.measure_s)
    setup = time.perf_counter() - start
    setup_ref = clock.rescale(setup)
    for chunk in range(1, WARMUP_CHUNKS + 1):
        began = time.perf_counter()
        scenario.advance(until=w.warmup_s * chunk / WARMUP_CHUNKS)
        elapsed = time.perf_counter() - began
        setup += elapsed
        setup_ref += clock.rescale(elapsed)
    if probe is not None:
        probe.reset()
    events = scenario.sim.events_fired
    delivered = _monitor(scenario, "radio.frames_delivered")
    succeeded = _monitor(scenario, "mesh.transfers_succeeded")
    failed = _monitor(scenario, "mesh.transfers_failed")
    hits, misses = scenario.scorer.cache_hits, scenario.scorer.cache_misses
    drive = drive_ref = 0.0
    for chunk in range(1, DRIVE_CHUNKS + 1):
        began = time.perf_counter()
        if chunk < DRIVE_CHUNKS:
            scenario.advance(until=w.warmup_s + w.measure_s * chunk / DRIVE_CHUNKS)
        else:
            scenario.advance()
            report = scenario.close_window()
        elapsed = time.perf_counter() - began
        drive += elapsed
        drive_ref += clock.rescale(elapsed)
    return Rep(
        setup_s=setup,
        drive_s=drive,
        setup_ref_s=setup_ref,
        drive_ref_s=drive_ref,
        sim_s=w.measure_s,
        events=scenario.sim.events_fired - events,
        seeds=seeds,
        digests=[report_digest(report)],
        tasks_submitted=report.tasks_submitted,
        tasks_failed=report.tasks_failed,
        tasks_completed=report.tasks_completed,
        offloaded_tasks=report.offloaded_tasks,
        frames_delivered=_monitor(scenario, "radio.frames_delivered") - delivered,
        transfers_succeeded=_monitor(scenario, "mesh.transfers_succeeded") - succeeded,
        transfers_failed=_monitor(scenario, "mesh.transfers_failed") - failed,
        cache_hits=scenario.scorer.cache_hits - hits,
        cache_misses=scenario.scorer.cache_misses - misses,
        operations=1 + report.tasks_submitted,
        errors=report_errors(report, w.warmup_s + w.measure_s, w.n),
        calibration_s=clock.samples,
    )


def session_rep(w: Workload, seed: int, rep: int, probe: Any = None) -> Rep:
    """Drive ``w.sessions`` sessions round-robin with ``w.resident`` resident.

    Before a slice of an evicted session, the least recently stepped
    resident session is evicted (if the cap is reached) and the session is
    restored; each session then runs one ``w.slice_events`` slice.  Each
    slice is rescaled to reference seconds on its own, like a scenario
    workload's drive slices.
    """
    from repro.service.registry import SessionRegistry
    from repro.service.session import SessionState

    gc.collect()
    registry = SessionRegistry(step_slice=w.slice_events)
    seeds = rep_seeds(w, seed, rep)
    clock = ReferenceClock()
    setup_start = time.perf_counter()
    sessions = []
    for session_seed in seeds:
        session = registry.create(
            w.scenario, n=w.n, seed=session_seed, duration=w.session_s,
            knobs={"fast_math": w.fast_math},
        )
        session.start()
        sessions.append(session)
    setup = time.perf_counter() - setup_start
    setup_ref = clock.rescale(setup)
    if probe is not None:
        probe.reset()
    errors: List[str] = []
    evict_s: List[float] = []
    restore_s: List[float] = []
    steps = 0

    def timed(call: Any, session_id: str, samples: List[float]) -> None:
        began = time.perf_counter()
        call(session_id)
        samples.append(time.perf_counter() - began)

    resident = [session.id for session in sessions]  # least recently stepped first
    pending = list(resident)
    drive = drive_ref = 0.0
    while pending:
        for session_id in list(pending):
            session = registry.get(session_id)
            began = time.perf_counter()
            try:
                if session.state is SessionState.EVICTED:
                    while len(resident) >= w.resident:
                        timed(registry.evict, resident.pop(0), evict_s)
                    timed(registry.restore, session_id, restore_s)
                else:
                    resident.remove(session_id)
                resident.append(session_id)
                while len(resident) > w.resident:
                    timed(registry.evict, resident.pop(0), evict_s)
                steps += 1
                session.step()
                done = session.state is SessionState.FINISHED
            except Exception as error:  # noqa: BLE001 - recorded as a failed operation
                errors.append(f"{session_id}: {type(error).__name__}: {error}")
                done = True
            elapsed = time.perf_counter() - began
            drive += elapsed
            drive_ref += clock.rescale(elapsed)
            if done:
                pending.remove(session_id)
                if session_id in resident:
                    resident.remove(session_id)
    reports = [session.report for session in sessions if session.report is not None]
    alive = [session for session in sessions if session.scenario is not None]
    for session in sessions:
        if session.report is None:
            errors.append(f"{session.id}: no final report ({session.state.value})")
        else:
            errors.extend(
                f"{session.id}: {message}"
                for message in report_errors(session.report, w.session_s, w.n)
            )
    return Rep(
        setup_s=setup,
        drive_s=drive,
        setup_ref_s=setup_ref,
        drive_ref_s=drive_ref,
        sim_s=w.sessions * w.session_s,
        events=sum(session.events_fired for session in sessions),
        seeds=seeds,
        digests=[report_digest(report) for report in reports],
        tasks_submitted=sum(report.tasks_submitted for report in reports),
        tasks_failed=sum(report.tasks_failed for report in reports),
        tasks_completed=sum(report.tasks_completed for report in reports),
        offloaded_tasks=sum(report.offloaded_tasks for report in reports),
        frames_delivered=sum(_monitor(s.scenario, "radio.frames_delivered") for s in alive),
        transfers_succeeded=sum(_monitor(s.scenario, "mesh.transfers_succeeded") for s in alive),
        transfers_failed=sum(_monitor(s.scenario, "mesh.transfers_failed") for s in alive),
        cache_hits=sum(s.scenario.scorer.cache_hits for s in alive),
        cache_misses=sum(s.scenario.scorer.cache_misses for s in alive),
        operations=steps + len(evict_s) + len(restore_s),
        errors=errors,
        evict_s=evict_s,
        restore_s=restore_s,
        sessions_failed=sum(s.state is SessionState.FAILED for s in sessions),
        calibration_s=clock.samples,
    )


def solo_digests(w: Workload, seeds: List[int]) -> List[str]:
    """Each session's report when its scenario runs alone, uninterrupted.

    Evict/restore is byte-invisible (the snapshot contract), so every
    session's final report must equal these.
    """
    from repro.scenarios import build_scenario

    return [
        report_digest(
            build_scenario(w.scenario, n=w.n, seed=seed, fast_math=w.fast_math)
            .run(w.session_s)
        )
        for seed in seeds
    ]


def run_rep(w: Workload, seed: int, rep: int, probe: Any = None) -> Rep:
    return (session_rep if w.sessions else scenario_rep)(w, seed, rep, probe)


def check_rep(
    w: Workload, index: int, rep: Rep, references: Dict[Tuple[int, ...], List[str]]
) -> List[str]:
    """Repetition ``index``'s errors, plus disagreement of its digests with
    the reference digests of its seeds.

    The reference is the solo runs of a session repetition's seeds, and the
    first build of a scenario seed (see :func:`rep_seeds`); ``references``
    keeps them by seeds.
    """
    key = tuple(rep.seeds)
    if key not in references:
        references[key] = solo_digests(w, rep.seeds) if w.sessions else rep.digests
    problems = list(rep.errors)
    if rep.digests != references[key]:
        problems.append(f"repetition {index}: report digests differ from the reference")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wall_and_setup(reps: List[Rep], reference: bool) -> Tuple[float, float]:
    """The median repetition's drive time per simulated second and set-up
    time; in reference seconds or as measured."""
    wall = statistics.median(
        (rep.drive_ref_s if reference else rep.drive_s) / rep.sim_s for rep in reps
    )
    setup = statistics.median(rep.setup_ref_s if reference else rep.setup_s for rep in reps)
    return wall, setup


def end_to_end(reps: List[Rep]) -> Dict[str, Dict[str, Any]]:
    """The run's end-to-end metrics.

    Both times are medians over the repetitions, in reference seconds: the
    rescaling takes out the host's speed, and the median sets aside a
    repetition that a host episode the kernel did not feel slowed, and a
    run's costliest fleet.
    """
    wall, setup = wall_and_setup(reps, reference=True)
    return {
        "wall_per_sim_s": {"value": wall, "unit": "s/sim-s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def percentile_ms(samples: List[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of ``samples`` in milliseconds.

    :func:`statistics.quantiles` (exclusive method); a single sample is its
    own percentile, and no samples read 0.
    """
    if len(samples) < 2:
        return samples[0] * 1e3 if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(probe: Any, traced: Rep, untraced: Rep) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of one traced repetition."""
    p = probe
    sizes = p.snapshot_sizes
    values = {
        "trace.overhead_ratio": (
            traced.drive_ref_s / untraced.drive_ref_s - 1.0,
            "ratio",
        ),
        "simcore.events_fired": (p.events_fired, "count"),
        "simcore.events_per_s": (_ratio(untraced.events, untraced.drive_s), "1/s"),
        "simcore.schedule_calls": (p.count("simcore.schedule"), "count"),
        "simcore.pending_max": (p.pending_max, "count"),
        "simcore.dispatch_self_s": (p.self_s("simcore.pop", "simcore.schedule"), "s"),
        "radio.transmit_calls": (p.count("radio.transmit"), "count"),
        "radio.transmit_self_s": (p.self_s("radio.transmit"), "s"),
        "radio.link_quality_calls": (p.count("radio.link_quality"), "count"),
        "radio.nodes_in_range_calls": (p.count("radio.nodes_in_range"), "count"),
        "radio.frames_delivered": (traced.frames_delivered, "count"),
        "radio.deliveries_per_transmit": (
            _ratio(traced.frames_delivered, p.count("radio.transmit")), "ratio"
        ),
        "mesh.observe_calls": (p.count("mesh.observe"), "count"),
        "mesh.active_names_calls": (p.count("mesh.active_names"), "count"),
        "mesh.active_entries_returned": (p.entries_returned, "count"),
        "mesh.active_names_self_s": (p.self_s("mesh.active_names"), "s"),
        "mesh.membership_size_calls": (p.count("mesh.membership_size"), "count"),
        "mesh.topology_snapshots": (p.count("mesh.topology_snapshot"), "count"),
        "mesh.topology_snapshot_self_s": (p.self_s("mesh.topology_snapshot"), "s"),
        "mesh.transport_sends": (p.count("mesh.transport_send"), "count"),
        "mesh.transfer_success_ratio": (
            _ratio(traced.transfers_succeeded, traced.transfers_succeeded + traced.transfers_failed),
            "ratio",
        ),
        "mesh.beacon_dispatch_s": (p.dispatch_s("beacon", "deliver-beacon"), "s"),
        "geometry.los_queries": (p.count("geometry.los", "geometry.los_batch"), "count"),
        "geometry.los_self_s": (p.self_s("geometry.los", "geometry.los_batch"), "s"),
        "geometry.range_queries": (p.count("geometry.range_query"), "count"),
        "geometry.range_query_self_s": (p.self_s("geometry.range_query"), "s"),
        "mobility.ticks": (p.dispatch_count["mobility-tick"], "count"),
        "mobility.tick_dispatch_s": (p.dispatch_s("mobility-tick"), "s"),
        "data.sensor_captures": (p.count("data.capture"), "count"),
        "data.capture_dispatch_s": (p.dispatch_s("lidar"), "s"),
        "data.pond_stores": (p.count("data.pond_store"), "count"),
        "perception.local_builds": (p.count("perception.local_build"), "count"),
        "perception.local_build_self_s": (p.self_s("perception.local_build"), "s"),
        "core.tasks_submitted": (p.count("core.submit"), "count"),
        "core.rank_calls": (p.count("core.rank"), "count"),
        "core.rank_self_s": (p.self_s("core.rank"), "s"),
        "core.score_cache_hit_rate": (
            _ratio(traced.cache_hits, traced.cache_hits + traced.cache_misses), "ratio"
        ),
        "core.offload_ratio": (_ratio(traced.offloaded_tasks, traced.tasks_completed), "ratio"),
        "core.task_fail_ratio": (_ratio(traced.tasks_failed, traced.tasks_submitted), "ratio"),
        "compute.submits": (p.count("compute.node_submit"), "count"),
        "compute.accept_ratio": (_ratio(p.node_accepts, p.count("compute.node_submit")), "ratio"),
        "compute.invocations": (p.count("compute.invoke"), "count"),
        "snapshot.captures": (p.count("snapshot.capture"), "count"),
        "snapshot.capture_s": (p.total_s("snapshot.capture"), "s"),
        "snapshot.encode_self_s": (p.self_s("snapshot.encode"), "s"),
        "snapshot.restores": (p.count("snapshot.restore"), "count"),
        "snapshot.decode_s": (p.total_s("snapshot.decode"), "s"),
        "snapshot.bytes_total": (sum(sizes), "bytes"),
        "snapshot.artifact_mb": (statistics.median(sizes) / 1e6 if sizes else 0.0, "MB"),
        "service.steps": (p.count("service.step"), "count"),
        "service.step_ms_p50": (percentile_ms(p.durations["service.step"], 50), "ms"),
        "service.evictions": (p.count("service.evict"), "count"),
        "service.restores": (p.count("service.restore"), "count"),
        "service.sessions_failed": (traced.sessions_failed, "count"),
        "service.evict_ms_p50": (percentile_ms(traced.evict_s, 50), "ms"),
        "service.evict_ms_p90": (percentile_ms(traced.evict_s, 90), "ms"),
        "service.restore_ms_p50": (percentile_ms(traced.restore_s, 50), "ms"),
        "service.restore_ms_p90": (percentile_ms(traced.restore_s, 90), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def source_identity() -> Dict[str, Optional[str]]:
    """The git commit when the checkout is a git repository of its own, and
    a digest of the program source either way."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, subdirs, files in sorted(os.walk(package)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def envelope(args: argparse.Namespace, w: Workload) -> Dict[str, Any]:
    import numpy

    return {
        **source_identity(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": {**asdict(w), "tier": w.tier},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fleets (for the self-test)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"fleetbench: program source not found at {os.path.join(SRC, 'repro')}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"fleetbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    info = envelope(args, w)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    problems: List[str] = []
    references: Dict[Tuple[int, ...], List[str]] = {}
    if args.trace:
        from layers import LayerProbe
        from repro.telemetry.trace import Tracer

        # The first repetition warms the process up; the second is the
        # untraced baseline the traced one is compared with.  All three
        # build the fleets of repetition 0.
        warm = run_rep(w, args.seed, 0)
        untraced = run_rep(w, args.seed, 0)
        probe = LayerProbe(Tracer())
        with probe.installed():
            traced = run_rep(w, args.seed, 0, probe)
        reps = [warm, untraced, traced]
        for index, rep in enumerate(reps):
            problems.extend(check_rep(w, index, rep, references))
        metrics = per_layer(probe, traced, untraced)
        info["layer_self_s"] = probe.layer_self_split()
        info["spans"] = probe.spans()
        info["dispatch_s"] = dict(sorted(probe.dispatch.items()))
        info["dispatch_self_s"] = dict(sorted(probe.dispatch_self.items()))
        info["dispatch_events"] = dict(sorted(probe.dispatch_count.items()))
        os.makedirs(OUT_DIR, exist_ok=True)
        info["trace_spans"] = probe.tracer.save(os.path.join(OUT_DIR, f"{tag}.trace.json"))
    else:
        # Repeat while another repetition and its check (at the mean pace
        # so far) still end within --seconds.
        reps = []
        started = time.perf_counter()
        while len(reps) < MAX_REPS:
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
            reps.append(run_rep(w, args.seed, len(reps)))
            problems.extend(check_rep(w, len(reps) - 1, reps[-1], references))
        metrics = end_to_end(reps)
        raw_wall, raw_setup = wall_and_setup(reps, reference=False)
        info["host"] = {
            "drive_speed_factor": sum(rep.drive_ref_s for rep in reps)
            / sum(rep.drive_s for rep in reps),
            "raw_wall_per_sim_s": raw_wall,
            "raw_setup_s": raw_setup,
        }
    info["digests"] = [digest for digests in references.values() for digest in digests]
    info["reps"] = [asdict(rep) for rep in reps]
    info["problems"] = problems
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({**info, "metrics": metrics}, handle, indent=1, sort_keys=True)
    for problem in problems:
        print(f"fleetbench: {problem}", file=sys.stderr)
    print(json.dumps({"envelope": {k: v for k, v in info.items() if k != "reps"}}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(rep.operations for rep in reps),
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
