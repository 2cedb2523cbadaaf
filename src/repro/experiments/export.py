"""Structured export of sweep results to JSON and CSV.

The CLI (``repro sweep --out``) and the benchmarks need the raw repetition
metrics *and* the aggregates in a machine-readable form, not just the printed
table.  Two formats, both dependency-free:

* **JSON** — one self-describing document: sweep metadata (scenario, grid
  dimensions, repetitions, seed), then per point its parameters, every raw
  run and the per-metric aggregates.  ``nan``/``inf`` values are exported as
  ``null`` so the file stays strict JSON.
* **CSV** — one row per (point, repetition) with a column per grid dimension
  and per metric, followed by ``mean`` / ``stddev`` aggregate rows (tagged in
  the ``repetition`` column).  ``nan`` cells are left empty.

:func:`export_results` dispatches on the output path's suffix.

:func:`load_sweep_cache` reads a previously exported JSON document back as a
:class:`SweepCache`, so a long grid can be resumed (``repro sweep --resume``)
without re-running cells that are already on disk.  Cells are keyed on
``(scenario, point parameters, seed)`` — the seed of every cached run is
reconstructed from the document's ``base_seed`` and the flat-index seed
convention, so a resumed sweep may reshape or extend the grid and still hit
every cell whose parameters and seed match.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import DEFAULT_SEED_STRIDE, ExperimentResult, cell_seed

#: JSON schema tag, bumped on incompatible layout changes.
SCHEMA = "repro.sweep/1"


class SweepCacheError(ValueError):
    """A resume file (``repro sweep --resume``) could not be used.

    Always names the offending ``path``; for malformed JSON, ``offset`` is
    the byte offset where decoding failed — on a truncated export that is
    the file's length, which makes "the copy died mid-transfer" diagnosable
    from the error alone.
    """

    def __init__(self, path: str, reason: str, *, offset: Optional[int] = None):
        location = f" (byte {offset})" if offset is not None else ""
        super().__init__(f"{path!r}{location}: {reason}")
        self.path = path
        self.offset = offset
        self.reason = reason


def _finite(value: float) -> Optional[float]:
    """A float fit for strict JSON (``None`` for nan/inf)."""
    return value if math.isfinite(value) else None


def _metric_union(results: Sequence[ExperimentResult]) -> List[str]:
    names = set()
    for result in results:
        names.update(result.metric_names())
    return sorted(names)


def sweep_metadata(
    scenario: str,
    grid: Mapping[str, Sequence[object]],
    duration: float,
    repetitions: int,
    base_seed: int,
) -> Dict[str, object]:
    """The export's ``sweep`` record, shared by every way a sweep is run.

    Key order is the JSON's.  How the cells were executed (``--jobs``,
    ``--fabric``) is deliberately absent: it does not change a single
    result, so it must not change the export's bytes either.
    """
    return {
        "scenario": scenario,
        "grid": dict(grid),
        "duration": duration,
        "repetitions": repetitions,
        "base_seed": base_seed,
    }


def sweep_payload(
    results: Sequence[ExperimentResult], **metadata
) -> Dict[str, object]:
    """The full JSON-serialisable document for one sweep.

    ``metadata`` (scenario name, dimension value lists, repetitions,
    base_seed, duration, ...) is stored verbatim under ``"sweep"``.
    """
    points = []
    for result in results:
        aggregates = {}
        for metric in result.metric_names():
            values = result.metric_values(metric)
            low, high = result.ci(metric)
            aggregates[metric] = {
                "count": len(values),
                "mean": _finite(result.mean(metric)),
                "stddev": _finite(result.stddev(metric)),
                "ci95": [_finite(low), _finite(high)],
            }
        points.append(
            {
                "name": result.point.name,
                "params": result.point.as_dict(),
                "runs": [
                    {name: _finite(value) for name, value in run.items()}
                    for run in result.runs
                ],
                "aggregates": aggregates,
            }
        )
    return {"schema": SCHEMA, "sweep": dict(metadata), "points": points}


def write_json(path: str, results: Sequence[ExperimentResult], **metadata) -> None:
    """Write the :func:`sweep_payload` document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(sweep_payload(results, **metadata), handle, indent=2, allow_nan=False)
        handle.write("\n")


def _csv_cell(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        return ""
    return value


def write_csv(
    path: str,
    results: Sequence[ExperimentResult],
    dimensions: Optional[Sequence[str]] = None,
) -> None:
    """Write raw runs plus aggregate rows to ``path``.

    ``dimensions`` fixes the parameter column order (defaults to the first
    point's parameter names); the ``repetition`` column holds the repetition
    index for raw rows and ``mean`` / ``stddev`` for aggregate rows.
    """
    if dimensions is None:
        dimensions = list(results[0].point.as_dict()) if results else []
    metrics = _metric_union(results)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*dimensions, "repetition", *metrics])
        for result in results:
            params = result.point.as_dict()
            prefix = [_csv_cell(params.get(dim, "")) for dim in dimensions]
            for repetition, run in enumerate(result.runs):
                writer.writerow(
                    [*prefix, repetition, *(_csv_cell(run.get(m, "")) for m in metrics)]
                )
            for aggregate in ("mean", "stddev"):
                values = [
                    _csv_cell(getattr(result, aggregate)(m)) if result.metric_values(m) else ""
                    for m in metrics
                ]
                writer.writerow([*prefix, aggregate, *values])


def export_results(
    path: str,
    results: Sequence[ExperimentResult],
    dimensions: Optional[Sequence[str]] = None,
    **metadata,
) -> str:
    """Write ``results`` to ``path``, picking the format from its suffix.

    ``.json`` exports the full document, ``.csv`` the flat table.  Returns
    the format written; any other suffix raises ``ValueError``.
    """
    lowered = path.lower()
    if lowered.endswith(".json"):
        if dimensions is not None:
            metadata.setdefault("dimensions", list(dimensions))
        write_json(path, results, **metadata)
        return "json"
    if lowered.endswith(".csv"):
        write_csv(path, results, dimensions=dimensions)
        return "csv"
    raise ValueError(f"cannot infer export format from {path!r} (use .json or .csv)")


# ------------------------------------------------------------------- resume


def _params_key(params: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Order-independent, type-discriminating key for point parameters.

    ``repr`` keeps ``8`` (int) and ``8.0`` (float) distinct — they are
    different sweep values with different configs — while surviving the JSON
    round trip, which preserves scalar types exactly for the int/float/bool/
    str values the CLI's knob parser produces.
    """
    return tuple(sorted((name, repr(value)) for name, value in params.items()))


@dataclass
class SweepCache:
    """Completed (scenario, params, seed) cells loaded from a JSON export.

    ``lookup`` is the interface the experiment runner consumes: it returns
    the cached metrics for one cell (``None`` when absent) and counts hits
    and misses so callers can report how much of a resumed sweep was served
    from disk.
    """

    scenario: Optional[str]
    #: The fixed per-run duration the cached sweep simulated (None when the
    #: export predates the field).  A cell's metrics are only valid for the
    #: duration they were simulated at, so resuming must check this.
    duration: Optional[float] = None
    cells: Dict[Tuple[Tuple[Tuple[str, str], ...], int], Dict[str, float]] = field(
        default_factory=dict
    )
    hits: int = 0
    misses: int = 0

    def __len__(self) -> int:
        return len(self.cells)

    def lookup(
        self, params: Mapping[str, object], seed: int
    ) -> Optional[Dict[str, float]]:
        """Cached metrics for one (params, seed) cell, or ``None``."""
        metrics = self.cells.get((_params_key(params), seed))
        if metrics is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(metrics)


def load_sweep_cache(path: str) -> SweepCache:
    """Read a ``repro.sweep/1`` JSON export back as a :class:`SweepCache`.

    Every run of every point becomes one cell; its seed is reconstructed
    from the document's ``base_seed`` and the point's flat index via the
    runner's seed convention (``base + index * stride + repetition``).
    ``null`` metric values (exported nan/inf) come back as ``nan`` so reused
    cells aggregate exactly like freshly run ones.

    Anything unusable — empty file, truncated or corrupt JSON, wrong schema,
    missing ``base_seed`` — raises :class:`SweepCacheError` naming the path
    (and, for decode failures, the byte offset), so the CLI can tell the
    operator *which* file is bad and *where* instead of a bare traceback.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise SweepCacheError(path, "file is empty", offset=0)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        # error.pos is a character offset; report it as a byte offset so it
        # lines up with `ls -l` / `head -c` on the (ASCII) export format.
        reason = (
            "truncated JSON — the export probably died mid-write"
            if error.pos >= len(text.rstrip()) - 1
            else f"malformed JSON: {error.msg}"
        )
        raise SweepCacheError(
            path, reason, offset=len(text[: error.pos].encode("utf-8"))
        ) from error
    if not isinstance(payload, dict):
        raise SweepCacheError(
            path, f"expected a sweep export object, found {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise SweepCacheError(
            path, f"not a sweep export (schema {schema!r}, expected {SCHEMA!r})"
        )
    sweep = payload.get("sweep", {})
    base_seed = sweep.get("base_seed")
    if base_seed is None:
        raise SweepCacheError(
            path, "records no base_seed; cannot reconstruct cell seeds"
        )
    stride = int(sweep.get("seed_stride", DEFAULT_SEED_STRIDE))
    duration = sweep.get("duration")
    cache = SweepCache(
        scenario=sweep.get("scenario"),
        duration=float(duration) if duration is not None else None,
    )
    for index, point in enumerate(payload.get("points", [])):
        key = _params_key(point.get("params", {}))
        for repetition, run in enumerate(point.get("runs", [])):
            seed = cell_seed(int(base_seed), stride, index, repetition)
            metrics = {
                name: (math.nan if value is None else float(value))
                for name, value in run.items()
            }
            cache.cells[(key, seed)] = metrics
    return cache
