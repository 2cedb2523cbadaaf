"""The session registry: many simulations multiplexed on one process.

The registry owns every live :class:`~repro.service.session.SimulationSession`
and drives the ``running`` ones with a cooperative round-robin scheduler:
each pass gives each runnable session exactly one bounded ``step`` slice and
then yields to the event loop, so no session can starve another and
WebSocket subscribers stay responsive while simulations are advancing.  The
scheduler is plain ``asyncio`` — the simulation itself never blocks on I/O,
it is CPU-bounded per slice by ``step_slice`` events.

The registry is framework-free; the ASGI app in :mod:`repro.service.app`
and the E17 benchmark are both thin clients of it.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from typing import Any, Dict, List, Optional

from repro.scenarios import build_scenario
from repro.scenarios.base import Scenario
from repro.service.session import (
    DEFAULT_STEP_SLICE,
    SessionState,
    SimulationSession,
)
from repro.telemetry.trace import current_tracer


class UnknownSessionError(KeyError):
    """Lookup of a session id the registry does not hold."""


class SnapshotPathError(ValueError):
    """A client-named snapshot path outside the registry's ``snapshot_dir``."""


class SessionRegistry:
    """Create, look up, schedule, evict and delete simulation sessions.

    Parameters
    ----------
    step_slice:
        Default per-slice event budget for sessions created through the
        registry.
    snapshot_dir:
        When set, :meth:`evict` writes eviction artifacts under this
        directory (``<id>.reprosnap``) instead of holding them in memory.
        It is also the only place client-named snapshots are written
        (:meth:`snapshot_path`).
    """

    def __init__(
        self,
        *,
        step_slice: int = DEFAULT_STEP_SLICE,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        self.step_slice = int(step_slice)
        self.snapshot_dir = snapshot_dir
        self._sessions: Dict[str, SimulationSession] = {}
        self._ids = itertools.count(1)
        self._stop_driving = False
        # Plain-int scheduler odometers surfaced by /healthz and /metrics.
        self.scheduler_passes = 0
        self.sessions_stepped = 0

    # ------------------------------------------------------------------ CRUD

    def create(
        self,
        scenario_name: Optional[str] = None,
        *,
        scenario: Optional[Scenario] = None,
        n: Optional[int] = None,
        seed: int = 0,
        duration: float = 20.0,
        fault_horizon: Optional[float] = None,
        step_slice: Optional[int] = None,
        session_id: Optional[str] = None,
        knobs: Optional[Dict[str, Any]] = None,
    ) -> SimulationSession:
        """Build a scenario (or adopt a prebuilt one) and register a session.

        ``scenario_name``/``n``/``seed``/``knobs`` go through the same
        :func:`~repro.scenarios.build_scenario` registry the CLI and sweep
        runner use; alternatively pass a ``scenario`` you built yourself.
        The new session starts in ``created`` — call
        :meth:`SimulationSession.start` (or the facade's ``/start``) to
        open its run window.
        """
        if (scenario_name is None) == (scenario is None):
            raise ValueError("pass exactly one of scenario_name or scenario")
        if scenario is None:
            scenario = build_scenario(
                scenario_name, n=n, seed=seed, **(knobs or {})
            )
        if session_id is None:
            session_id = f"s{next(self._ids):04d}"
            while session_id in self._sessions:  # pragma: no cover - defensive
                session_id = f"s{next(self._ids):04d}"
        elif session_id in self._sessions:
            raise ValueError(f"session id {session_id!r} already exists")
        session = SimulationSession(
            session_id,
            scenario,
            duration=duration,
            fault_horizon=fault_horizon,
            step_slice=self.step_slice if step_slice is None else step_slice,
        )
        self._sessions[session_id] = session
        return session

    def get(self, session_id: str) -> SimulationSession:
        """The session registered under ``session_id`` (loud when absent)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownSessionError(session_id) from None

    def delete(self, session_id: str) -> None:
        """Forget a session in any state (its scenario is simply dropped)."""
        self.get(session_id)
        del self._sessions[session_id]

    def sessions(self) -> List[SimulationSession]:
        """Every registered session, in creation order."""
        return list(self._sessions.values())

    def state_counts(self) -> Dict[str, int]:
        """Session count per state, zero-filled over every state name."""
        counts = {state.value: 0 for state in SessionState}
        for session in self._sessions.values():
            counts[session.state.value] += 1
        return counts

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    # -------------------------------------------------------- evict/restore

    def evict(self, session_id: str) -> SimulationSession:
        """Pause (if needed) and evict a session to its snapshot artifact."""
        session = self.get(session_id)
        if session.state is SessionState.RUNNING:
            session.pause()
        path = None
        if self.snapshot_dir is not None:
            os.makedirs(self.snapshot_dir, exist_ok=True)
            path = os.path.join(self.snapshot_dir, f"{session_id}.reprosnap")
        session.evict(path)
        return session

    def snapshot_path(self, name: object) -> str:
        """Resolve a client-named snapshot file inside ``snapshot_dir``.

        Raises :class:`SnapshotPathError` when no ``snapshot_dir`` is
        configured, for a name that is not a relative path, and for one
        that leaves the directory once ``..`` and symlinks are resolved.
        """
        if self.snapshot_dir is None:
            raise SnapshotPathError("server-side snapshots need --snapshot-dir")
        if not isinstance(name, str) or not name or os.path.isabs(name):
            raise SnapshotPathError(f"snapshot path {name!r} must be relative")
        root = os.path.realpath(self.snapshot_dir)
        target = os.path.realpath(os.path.join(root, name))
        if target == root or os.path.commonpath([root, target]) != root:
            raise SnapshotPathError(f"snapshot path {name!r} escapes --snapshot-dir")
        os.makedirs(os.path.dirname(target), exist_ok=True)
        return target

    def restore(self, session_id: str) -> SimulationSession:
        """Restore an evicted session; it comes back ``paused``."""
        session = self.get(session_id)
        session.restore()
        return session

    # ------------------------------------------------------------ scheduler

    def runnable(self) -> List[SimulationSession]:
        """Sessions the scheduler should advance this pass."""
        return [
            session
            for session in self._sessions.values()
            if session.state is SessionState.RUNNING
        ]

    async def tick(self) -> int:
        """One round-robin pass: each runnable session gets one slice.

        Yields to the event loop after every slice so concurrent facade
        requests and WebSocket sends interleave with simulation work.
        Returns the number of sessions stepped.
        """
        tracer = current_tracer()
        trace_start = tracer.clock() if tracer is not None else 0.0
        stepped = 0
        for session in self.runnable():
            if session.state is not SessionState.RUNNING:
                continue  # a subscriber callback paused/deleted it mid-pass
            try:
                session.step()
            except Exception as error:  # noqa: BLE001 - quarantine the session
                # One broken scenario must not take the scheduler (and every
                # other session) down with it: park it in the terminal
                # ``failed`` state — runnable() skips it from now on — and
                # carry on with the rest of the pass.
                session.fail(error)
            stepped += 1
            await asyncio.sleep(0)
        self.scheduler_passes += 1
        self.sessions_stepped += stepped
        if tracer is not None and stepped:
            tracer.span(
                "scheduler_tick",
                "service",
                trace_start,
                args={"sessions_stepped": stepped, "registered": len(self)},
            )
        return stepped

    async def drive(
        self,
        *,
        until_idle: bool = False,
        idle_sleep: float = 0.02,
    ) -> None:
        """Run the scheduler loop.

        ``until_idle=True`` returns as soon as a pass finds nothing
        runnable (every session finished, paused, or evicted) — the mode
        batch drivers and the E17 benchmark use.  Otherwise the loop keeps
        polling forever (sleeping ``idle_sleep`` between empty passes)
        until :meth:`stop_driving` — the mode the service facade runs in
        the background.
        """
        self._stop_driving = False
        while not self._stop_driving:
            stepped = await self.tick()
            if stepped == 0:
                if until_idle:
                    return
                await asyncio.sleep(idle_sleep)

    def stop_driving(self) -> None:
        """Ask a background :meth:`drive` loop to exit after this pass."""
        self._stop_driving = True

    def drive_to_completion(self) -> None:
        """Synchronous convenience: drive until no session is runnable."""
        asyncio.run(self.drive(until_idle=True))
