"""Multi-dimensional parameter sweeps with seeded, optionally parallel reps.

Every benchmark follows the same shape: for each point of a parameter sweep,
run ``repetitions`` independent simulations (different seeds), collect a flat
metric dictionary per run, and aggregate mean/stddev per metric.  The
:class:`ExperimentRunner` factors that loop out so each benchmark only
supplies a ``run_once(point, seed) -> dict`` function.

Sweeps are no longer one-dimensional: a :class:`SweepGrid` describes the
cartesian product of arbitrary named knobs (fleet size, beacon period, trust
threshold, ...) and enumerates it row-major into :class:`SweepPoint` s.  The
seed convention is a pure function of the flat point index::

    seed = base_seed + point_index * seed_stride + repetition

so (a) distinct grid points never share a seed sequence, (b) repetitions can
run in parallel (``jobs``) without changing any seed, and (c) a slice of a
grid can be reproduced point-for-point by a smaller sweep whose ``base_seed``
/ ``seed_stride`` are chosen to match the slice's flat indices (benchmark
E12 asserts exactly this).

Every way of running a sweep shares one cell model.  :func:`sweep_cells`
owns the seed convention and enumerates the (point, repetition)
:class:`CellSpec` s; :func:`split_cached` serves cells an earlier export
already holds (``--resume``); :func:`collect_results` regroups per-cell
metrics into one :class:`ExperimentResult` per point.  The in-process runner
(sequential or ``jobs > 1``), the warm-started duration sweep and the
:mod:`repro.fabric` job store all go through these three steps.

:func:`sweep_scenario_grid` specialises the runner for the packaged
scenarios: one call drives a named scenario over a grid of config knobs with
repetitions and returns the aggregated :class:`ExperimentResult` per point.
It backs the ``repro sweep`` CLI command.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.statistics import confidence_interval, mean, stddev

#: Default seed distance between adjacent sweep points (see seed convention
#: above).  The runner rejects repetition counts beyond the stride, which
#: would make adjacent points' seed sequences overlap.
DEFAULT_SEED_STRIDE = 1000


#: One sweep point: a name plus the keyword parameters passed to run_once.
@dataclass(frozen=True)
class SweepPoint:
    """A named parameter combination in a sweep."""

    name: str
    params: tuple = ()

    @staticmethod
    def of(name: str, **params) -> "SweepPoint":
        """Build a point from keyword parameters."""
        return SweepPoint(name=name, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, object]:
        """The parameters as a dictionary."""
        return dict(self.params)


class SweepGrid:
    """The cartesian product of named knob value lists.

    Dimensions keep their insertion order; :meth:`points` enumerates the
    product row-major (the *last* dimension varies fastest), which fixes the
    flat point index — and therefore, via the runner's seed convention, every
    seed in the sweep.

    >>> grid = SweepGrid({"n": [8, 16], "beacon_period": [0.2, 0.5]})
    >>> [p.as_dict()["beacon_period"] for p in grid.points()]
    [0.2, 0.5, 0.2, 0.5]
    """

    def __init__(self, dimensions: Mapping[str, Sequence[object]]) -> None:
        if not dimensions:
            raise ValueError("a sweep grid needs at least one dimension")
        self.dimensions: Dict[str, List[object]] = {}
        for name, values in dimensions.items():
            values = list(values)
            if not values:
                raise ValueError(f"dimension {name!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise ValueError(f"dimension {name!r} repeats a value")
            self.dimensions[name] = values

    @property
    def dimension_names(self) -> List[str]:
        """Knob names in insertion (= enumeration) order."""
        return list(self.dimensions)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Number of values per dimension, in order."""
        return tuple(len(values) for values in self.dimensions.values())

    def __len__(self) -> int:
        total = 1
        for count in self.shape:
            total *= count
        return total

    def points(self, name_prefix: str = "") -> List[SweepPoint]:
        """All grid points, row-major, named ``prefix``\\ ``k1=v1,k2=v2``."""
        names = self.dimension_names
        points = []
        for combo in product(*self.dimensions.values()):
            label = ",".join(f"{k}={v}" for k, v in zip(names, combo))
            points.append(SweepPoint.of(f"{name_prefix}{label}", **dict(zip(names, combo))))
        return points


@dataclass
class ExperimentResult:
    """Aggregated metrics of one sweep point."""

    point: SweepPoint
    runs: List[Dict[str, float]] = field(default_factory=list)

    def metric_names(self) -> List[str]:
        """Sorted union of metric names over all repetitions."""
        names = set()
        for run in self.runs:
            names.update(run)
        return sorted(names)

    def metric_values(self, metric: str) -> List[float]:
        """All repetitions' values of ``metric`` (missing treated as absent)."""
        return [run[metric] for run in self.runs if metric in run]

    def mean(self, metric: str) -> float:
        """Mean of ``metric`` over repetitions."""
        return mean(self.metric_values(metric))

    def stddev(self, metric: str) -> float:
        """Standard deviation of ``metric`` over repetitions."""
        return stddev(self.metric_values(metric))

    def ci(self, metric: str) -> tuple:
        """95% confidence interval of ``metric``."""
        return confidence_interval(self.metric_values(metric))


# -------------------------------------------------------------- sweep cells


@dataclass(frozen=True)
class CellSpec:
    """One (point, repetition) cell of a sweep: the unit every executor runs."""

    index: int
    repetition: int
    name: str
    params: Dict[str, object]
    seed: int


#: Metrics of finished cells, keyed by ``(point index, repetition)``.
CellRuns = Dict[Tuple[int, int], Dict[str, float]]


def _check_seed_layout(repetitions: int, seed_stride: int) -> None:
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if seed_stride < 1:
        raise ValueError("seed_stride must be at least 1")
    if repetitions > seed_stride:
        raise ValueError(
            f"repetitions ({repetitions}) must not exceed seed_stride "
            f"({seed_stride}), or adjacent sweep points would share seeds"
        )


def cell_seed(base_seed: int, seed_stride: int, point_index: int, repetition: int) -> int:
    """The seed of one (point, repetition) cell (the module's convention)."""
    return base_seed + point_index * seed_stride + repetition


def sweep_cells(
    points: Sequence[SweepPoint],
    repetitions: int,
    base_seed: int,
    seed_stride: int = DEFAULT_SEED_STRIDE,
) -> List[CellSpec]:
    """Every cell of a sweep over ``points``, in flat-index order."""
    _check_seed_layout(repetitions, seed_stride)
    return [
        CellSpec(
            index=index,
            repetition=repetition,
            name=point.name,
            params=point.as_dict(),
            seed=cell_seed(base_seed, seed_stride, index, repetition),
        )
        for index, point in enumerate(points)
        for repetition in range(repetitions)
    ]


def split_cached(
    cells: Sequence[CellSpec], cache: Optional[object]
) -> Tuple[CellRuns, List[CellSpec]]:
    """Split ``cells`` into the metrics ``cache`` already holds and the rest.

    ``cache`` is an object with ``lookup(params, seed) -> metrics | None``
    (e.g. :class:`~repro.experiments.export.SweepCache`), or ``None``.
    """
    cached: CellRuns = {}
    fresh: List[CellSpec] = []
    for cell in cells:
        metrics = cache.lookup(cell.params, cell.seed) if cache is not None else None
        if metrics is None:
            fresh.append(cell)
        else:
            cached[(cell.index, cell.repetition)] = metrics
    return cached, fresh


def collect_results(cells: Iterable[CellSpec], runs: CellRuns) -> List[ExperimentResult]:
    """Regroup per-cell metrics into one result per point, flat-index order.

    ``cells`` must come in flat-index order.  A point with any cell missing
    from ``runs`` is left out.
    """
    results: Dict[int, ExperimentResult] = {}
    incomplete = set()
    for cell in cells:
        metrics = runs.get((cell.index, cell.repetition))
        if metrics is None:
            incomplete.add(cell.index)
            continue
        if cell.index not in results:
            results[cell.index] = ExperimentResult(SweepPoint.of(cell.name, **cell.params))
        results[cell.index].runs.append(metrics)
    return [result for index, result in results.items() if index not in incomplete]


def _invoke_run_once(
    run_once: Callable[[Dict[str, object], int], Dict[str, float]],
    params: Dict[str, object],
    seed: int,
    profile_to: Optional[str] = None,
) -> Dict[str, float]:
    """Module-level trampoline so worker arguments stay picklable.

    ``profile_to`` makes the cell run under :mod:`cProfile` and dump its raw
    stats to that path — cProfile is per-process, so this is how a
    ``jobs > 1`` sweep gets simulation work into the profile at all: the
    parent merges the dumped file into its own stats afterwards
    (``pstats.Stats.add``).
    """
    if profile_to is None:
        return dict(run_once(params, seed))
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return dict(run_once(params, seed))
    finally:
        profiler.disable()
        profiler.dump_stats(profile_to)


class ExperimentRunner:
    """Runs ``run_once`` over a sweep with repetitions.

    Parameters
    ----------
    run_once:
        Callable ``(params_dict, seed) -> metrics_dict``.  Must be picklable
        (a module-level function or instance of a module-level class) when
        ``jobs > 1`` is used.
    repetitions:
        Independent runs per sweep point.
    base_seed:
        Seeds are ``base_seed + point_index * seed_stride + repetition``, so
        different points never share a seed sequence.
    seed_stride:
        Seed distance between adjacent points.  The default (1000) is the
        historical convention; grid slices pick other strides to reproduce a
        parent grid's seeds (see the module docstring).
    """

    def __init__(
        self,
        run_once: Callable[[Dict[str, object], int], Dict[str, float]],
        repetitions: int = 3,
        base_seed: int = 1000,
        seed_stride: int = DEFAULT_SEED_STRIDE,
    ) -> None:
        _check_seed_layout(repetitions, seed_stride)
        self.run_once = run_once
        self.repetitions = repetitions
        self.base_seed = base_seed
        self.seed_stride = seed_stride

    def run_sweep(
        self,
        points: Sequence[SweepPoint],
        jobs: int = 1,
        cache: Optional[object] = None,
        profile_first_cell_to: Optional[str] = None,
    ) -> List[ExperimentResult]:
        """Run the whole sweep; one result per point, in order.

        ``jobs > 1`` fans the fresh (point, repetition) cells out over a
        :mod:`multiprocessing` pool.  Every cell keeps its seed and results
        are reassembled in enumeration order, so the returned list — and
        anything rendered from it — is identical to a ``jobs=1`` run.

        ``cache`` (see :func:`split_cached`) short-circuits cells already
        computed by an earlier sweep; only the remaining cells run.

        ``profile_first_cell_to`` (only meaningful with ``jobs > 1``) makes
        the first fresh cell run under :mod:`cProfile` in its worker and dump
        raw stats to that path, giving the caller one representative sample
        of the per-cell simulation work to merge into its own profile.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        cells = sweep_cells(points, self.repetitions, self.base_seed, self.seed_stride)
        runs, fresh = split_cached(cells, cache)
        calls = [(self.run_once, cell.params, cell.seed) for cell in fresh]
        if jobs == 1 or len(calls) <= 1:
            fresh_runs = [_invoke_run_once(*call) for call in calls]
        else:
            calls[0] += (profile_first_cell_to,)
            with multiprocessing.Pool(processes=min(jobs, len(calls))) as pool:
                fresh_runs = pool.starmap(_invoke_run_once, calls)
        for cell, metrics in zip(fresh, fresh_runs):
            runs[(cell.index, cell.repetition)] = metrics
        return collect_results(cells, runs)


# ----------------------------------------------------------- scenario sweeps


def numeric_metrics(report: Mapping[str, object]) -> Dict[str, float]:
    """Keep the numeric entries of a flat report, as floats.

    Booleans are *excluded*, not coerced: ``isinstance(flag, int)`` is true
    for ``bool``, and silently averaging a flag as 0/1 produced meaningless
    "mean/stddev" rows.  A scenario that wants a flag aggregated must export
    it as an explicit 0.0/1.0 rate.  ``nan`` metrics are kept — the
    statistics helpers already ignore them.
    """
    return {
        name: float(value)
        for name, value in report.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def run_scenario_once(
    scenario: str,
    seed: int,
    n: Optional[int] = None,
    duration: float = 20.0,
    **overrides,
) -> Dict[str, float]:
    """Build and run one packaged scenario; return its flat numeric report.

    Non-numeric report entries (strings, booleans, ...) are dropped by
    :func:`numeric_metrics` so the result aggregates cleanly with
    :class:`ExperimentResult`.  ``overrides`` are forwarded to the scenario's
    config dataclass — any config field (``beacon_period``, ``min_trust``,
    ``task_rate_per_s``, ...) can be swept this way.
    """
    # Imported lazily: scenarios pull in the whole stack, and this module is
    # also used by lightweight benchmark code that never touches them.
    from repro.scenarios import build_scenario

    report = build_scenario(scenario, n=n, seed=seed, **overrides).run(duration=duration)
    return numeric_metrics(report.as_dict())


@dataclass(frozen=True)
class ScenarioRunOnce:
    """Picklable ``run_once`` driving one packaged scenario.

    A plain closure over the scenario name would not survive the trip into a
    ``jobs > 1`` worker process; this frozen dataclass does.  Point
    parameters override the fixed ``overrides``; a ``duration`` parameter (in
    either) overrides the default duration.
    """

    scenario: str
    duration: float = 20.0
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[str, float]:
        merged = dict(self.overrides)
        merged.update(params)
        duration = float(merged.pop("duration", self.duration))
        return run_scenario_once(self.scenario, seed, duration=duration, **merged)


@dataclass(frozen=True)
class TracedRunOnce:
    """Wrap a ``run_once`` so each cell writes a Chrome trace-event file.

    The cell's seed is unique across the sweep (see the module seed
    convention), so ``cell-s<seed>.json`` filenames are deterministic and
    collision-free.  Tracing is byte-invisible to the cell's metrics — the
    tracer only observes (see :mod:`repro.telemetry.trace`).
    """

    inner: Callable[[Dict[str, object], int], Dict[str, float]]
    trace_dir: str
    sample_every: int = 1

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[str, float]:
        import os

        from repro.telemetry.trace import Tracer, activate

        tracer = Tracer(sample_every=self.sample_every)
        with activate(tracer):
            metrics = self.inner(params, seed)
        tracer.save(os.path.join(self.trace_dir, f"cell-s{seed}.json"))
        return metrics


def sweep_scenario_grid(
    scenario: str,
    grid: SweepGrid,
    duration: float = 20.0,
    repetitions: int = 3,
    base_seed: int = 1000,
    jobs: int = 1,
    cache: Optional[object] = None,
    profile_worker_stats: Optional[str] = None,
    trace_dir: Optional[str] = None,
    **overrides,
) -> List[ExperimentResult]:
    """Run ``scenario`` over every point of ``grid`` with repetitions.

    Grid dimensions name scenario config knobs (``n``, ``beacon_period``,
    ``min_trust``, ``task_rate_per_s``, ...); fixed ``overrides`` apply to
    every point.  Returns one :class:`ExperimentResult` per grid point in
    row-major order; seeds follow :func:`sweep_cells`.  ``cache`` (see
    :meth:`ExperimentRunner.run_sweep`) lets ``repro sweep --resume`` skip
    cells an earlier export already contains.  ``trace_dir`` writes one
    Chrome trace-event file per fresh cell (``cell-s<seed>.json``).
    """
    run_once: Callable[[Dict[str, object], int], Dict[str, float]] = ScenarioRunOnce(
        scenario=scenario, duration=duration, overrides=tuple(sorted(overrides.items()))
    )
    if trace_dir is not None:
        run_once = TracedRunOnce(inner=run_once, trace_dir=trace_dir)
    runner = ExperimentRunner(run_once, repetitions=repetitions, base_seed=base_seed)
    return runner.run_sweep(
        grid.points(f"{scenario}:"),
        jobs=jobs,
        cache=cache,
        profile_first_cell_to=profile_worker_stats,
    )


def run_scenario_durations_warm(
    scenario: str,
    durations: Sequence[float],
    seed: int,
    n: Optional[int] = None,
    **overrides,
) -> Dict[float, Dict[str, float]]:
    """Run one seeded scenario at several horizons, sharing the common prefix.

    The shortest horizon runs once with the fault timeline armed for the
    *longest* horizon and is snapshotted at its end; every longer horizon
    restores that snapshot and resumes over its own suffix only.  Because the
    fault timeline's per-window draws are a pure function of (seed, window
    start, horizon), arming the full horizon up front makes each warm cell
    byte-identical to a cold ``run(duration=d, fault_horizon=longest)`` of
    the same seed — the snapshot merely skips re-simulating the shared
    prefix.  Returns ``{duration: numeric metrics}``.
    """
    # Imported lazily for the same reason as run_scenario_once.
    from repro.scenarios import build_scenario
    from repro.scenarios.base import Scenario

    ordered = sorted({float(duration) for duration in durations})
    if not ordered:
        raise ValueError("durations must not be empty")
    if ordered[0] <= 0:
        raise ValueError("durations must be positive")
    shortest, longest = ordered[0], ordered[-1]
    cold = build_scenario(scenario, n=n, seed=seed, **overrides)
    start = cold.sim.now
    metrics: Dict[float, Dict[str, float]] = {}
    if shortest == longest:
        report = cold.run(duration=shortest, fault_horizon=longest)
        return {shortest: numeric_metrics(report.as_dict())}
    # Snapshot at the end of the shortest window; run() writes to a path, so
    # round-trip the prefix artifact through a scratch file.
    import os
    import tempfile

    handle, path = tempfile.mkstemp(suffix=".reprosnap")
    os.close(handle)
    try:
        report = cold.run(
            duration=shortest,
            fault_horizon=longest,
            snapshot_at=shortest,
            snapshot_to=path,
        )
        with open(path, "rb") as stream:
            prefix = stream.read()
    finally:
        os.unlink(path)
    metrics[shortest] = numeric_metrics(report.as_dict())
    for duration in ordered[1:]:
        warm = Scenario.restore(prefix)
        report = warm.resume(until=start + duration)
        metrics[duration] = numeric_metrics(report.as_dict())
    return metrics


def sweep_scenario_grid_warm(
    scenario: str,
    grid: SweepGrid,
    repetitions: int = 3,
    base_seed: int = 1000,
    seed_stride: int = DEFAULT_SEED_STRIDE,
    **overrides,
) -> List[ExperimentResult]:
    """Warm-started variant of :func:`sweep_scenario_grid` for duration grids.

    ``grid`` must have a ``duration`` dimension.  Points sharing every
    *other* knob form one group; each (group, repetition) simulates a single
    trajectory whose prefix snapshot warm-starts every longer duration cell
    (:func:`run_scenario_durations_warm`).  Seeds are shared across a
    group's duration cells by construction — ``base_seed + group_index *
    seed_stride + repetition`` — which is what makes prefix sharing possible;
    the byte-identical cold equivalent of a cell is ``run(duration=d,
    fault_horizon=max_duration)`` at that same seed, *not* a default
    :func:`sweep_scenario_grid` cell (whose per-point seeds differ).

    Results come back one per grid point in the grid's own row-major order,
    exactly like the cold sweep.
    """
    if "duration" not in grid.dimensions:
        raise ValueError("warm-started sweeps need a 'duration' grid dimension")
    durations = [float(value) for value in grid.dimensions["duration"]]
    other_dimensions = {
        name: values for name, values in grid.dimensions.items() if name != "duration"
    }
    groups = SweepGrid(other_dimensions).points() if other_dimensions else [SweepPoint("")]
    trajectories: Dict[tuple, Dict[float, Dict[str, float]]] = {}
    for cell in sweep_cells(groups, repetitions, base_seed, seed_stride):
        params = dict(overrides)
        params.update(cell.params)
        fleet = params.pop("n", None)
        trajectories[(tuple(sorted(cell.params.items())), cell.repetition)] = (
            run_scenario_durations_warm(scenario, durations, seed=cell.seed, n=fleet, **params)
        )
    # Reassemble per grid point; these cells' own seeds go unused, each
    # run comes from its group's trajectory.
    cells = sweep_cells(grid.points(f"{scenario}:"), repetitions, base_seed, seed_stride)
    runs: CellRuns = {}
    for cell in cells:
        params = dict(cell.params)
        duration = float(params.pop("duration"))
        group = trajectories[(tuple(sorted(params.items())), cell.repetition)]
        runs[(cell.index, cell.repetition)] = group[duration]
    return collect_results(cells, runs)
