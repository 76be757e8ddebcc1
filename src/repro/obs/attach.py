"""``repro attach``: live view of a running simulation or sweep.

Snapshots come from :class:`FileSource`, which polls the atomic status
file a :class:`~repro.obs.live.LiveTelemetry` publisher (or a sweep's
:class:`~repro.obs.live.SweepFleet`) maintains; attach by path, or by
pid via the default per-process path.

On top of that source sit two front ends: a curses TUI
(:func:`run_tui`) with occupancy bars, a rolling IPC sparkline, phase
timings and sampled-mode confidence progress, and a non-interactive
``--once`` mode (:func:`snapshot_once`) that prints the newest
schema-validated snapshot as JSON for scripts and CI.

Everything here is strictly a *reader*: attaching, detaching or crashing
a viewer can never affect the run being watched, which only ever
appends to its own status file.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.live import (
    default_path,
    default_sweep_path,
    read_snapshots,
    validate_snapshot,
)

#: Snapshots retained for sparklines (the newest wins for the panels).
HISTORY = 300

#: Eight-level bar glyphs for sparklines and occupancy bars.
_BLOCKS = " ▁▂▃▄▅▆▇█"


class FileSource:
    """Snapshots from a live status file (attach by path or pid)."""

    def __init__(self, path: str):
        self.path = path
        self._last_seq = -1

    def poll(self) -> List[Dict[str, object]]:
        """New snapshots since the previous poll, oldest first."""
        fresh = [s for s in read_snapshots(self.path)
                 if isinstance(s.get("seq"), int) and s["seq"] > self._last_seq]
        if fresh:
            self._last_seq = fresh[-1]["seq"]
        return fresh


def resolve_source(target: str) -> FileSource:
    """Build the snapshot source for an attach *target*.

    A target that is all digits is a pid (mapped to that process's run
    status file, or its sweep status file when only that exists);
    anything else is a status-file path.
    """
    if target.isdigit():
        run_path = default_path(int(target))
        sweep_path = default_sweep_path(int(target))
        if not os.path.exists(run_path) and os.path.exists(sweep_path):
            return FileSource(sweep_path)
        return FileSource(run_path)
    return FileSource(target)


def snapshot_once(source: FileSource
                  ) -> Tuple[Optional[Dict[str, object]], List[str]]:
    """One poll: the newest snapshot (or None) and its schema problems.

    Sweep fleet snapshots have their own shape (fleet progress, not
    pipeline gauges), so only simulation snapshots — recognised by their
    ``gauges`` key — go through the full schema validator.
    """
    snapshots = source.poll()
    if not snapshots:
        return None, []
    newest = snapshots[-1]
    problems = validate_snapshot(newest) if "gauges" in newest else []
    return newest, problems


def sparkline(values: List[float], width: int) -> str:
    """Render *values* (newest last) as a fixed-width block sparkline."""
    if not values:
        return " " * width
    tail = values[-width:]
    top = max(tail)
    if top <= 0:
        return (" " * (width - len(tail))) + "▁" * len(tail)
    line = "".join(
        _BLOCKS[min(8, max(1, int(round(v / top * 8))))] for v in tail)
    return (" " * (width - len(tail))) + line


def bar(value: float, limit: float, width: int) -> str:
    """A ``[####----]`` occupancy bar clamped to *limit*."""
    if limit <= 0:
        limit = max(value, 1.0)
    fill = min(width, int(round(min(value, limit) / limit * width)))
    return "[" + "#" * fill + "-" * (width - fill) + "]"


def render_lines(snapshot: Dict[str, object],
                 history: List[Dict[str, object]],
                 width: int = 78) -> List[str]:
    """Format one snapshot (plus history for sparklines) as text lines.

    Shared by the curses TUI and the ``--follow``-style plain renderer,
    and unit-testable without a terminal.  Fleet-shaped snapshots (a
    sweep's, recognised by ``jobs_done``) get the fleet table instead of
    the pipeline panels.
    """
    if "jobs_done" in snapshot:
        return render_fleet_lines(snapshot, history, width=width)
    lines: List[str] = []
    bench = snapshot.get("benchmark") or "?"
    config = snapshot.get("config") or "?"
    state = snapshot.get("state", "?")
    mode = snapshot.get("mode", "?")
    wall = snapshot.get("wall", 0.0)
    lines.append(f"repro attach  {config}/{bench}  [{state}]  mode={mode}"
                 f"  pid={snapshot.get('pid', '?')}  wall={wall:.1f}s")
    committed = snapshot.get("committed", 0)
    total = snapshot.get("total") or 0
    cycle = snapshot.get("cycle", 0)
    ipc = snapshot.get("ipc", 0.0)
    progress = f"{committed}/{total}" if total else str(committed)
    pct = f" ({100.0 * committed / total:.1f}%)" if total else ""
    eta = ""
    if total and committed and state == "running" and wall:
        remaining = (total - committed) * (wall / committed)
        eta = f"  eta={remaining:.0f}s"
    lines.append(f"committed {progress}{pct}  cycle {cycle}"
                 f"  IPC {ipc:.3f}{eta}")
    ipcs = [s.get("ipc", 0.0) for s in history
            if isinstance(s.get("ipc"), (int, float))]
    lines.append(f"ipc  {sparkline(ipcs, min(60, width - 6))}")
    gauges = snapshot.get("gauges") or {}
    limits = snapshot.get("limits") or {}
    for name in sorted(gauges):
        value = gauges[name]
        limit = limits.get(name, 0)
        if limit:
            lines.append(f"  {name:<22} {bar(value, limit, 24)} "
                         f"{value:.0f}/{limit:.0f}")
        else:
            # No architectural capacity to scale against (queue depths):
            # the raw value reads better than a misleading full bar.
            lines.append(f"  {name:<22} {value:.0f}")
    extras = []
    recoveries = snapshot.get("recoveries")
    if recoveries:
        extras.append(f"recoveries={recoveries:.0f}")
    liveout = snapshot.get("liveout_mispredictions")
    if liveout:
        extras.append(f"liveout-mispredicts={liveout:.0f}")
    if snapshot.get("checkpoint") is not None:
        extras.append(f"checkpoint#{snapshot['checkpoint']}")
    if extras:
        lines.append("  ".join(extras))
    sampling = snapshot.get("sampling")
    if isinstance(sampling, dict):
        unit = sampling.get("unit", 0)
        units_total = sampling.get("units_total", 0)
        rel = sampling.get("ipc_halfwidth_rel", 0.0)
        lines.append(f"sampling unit {unit}/{units_total}"
                     f"  ±{100.0 * rel:.2f}% IPC (95% CI)")
    profile = snapshot.get("profile")
    if isinstance(profile, dict) and profile:
        total_s = sum(profile.values()) or 1.0
        parts = "  ".join(
            f"{phase}={seconds:.2f}s({100.0 * seconds / total_s:.0f}%)"
            for phase, seconds in sorted(profile.items(),
                                         key=lambda kv: -kv[1]))
        lines.append(f"phases {parts}")
    return [line[:width] for line in lines]


def render_fleet_lines(snapshot: Dict[str, object],
                       history: List[Dict[str, object]],
                       width: int = 78) -> List[str]:
    """Format one sweep fleet snapshot as text.

    Used for ``repro sweep --attach`` and for attaching to a sweep's
    status file.  Fleet snapshots carry ``jobs_done``, ``cache_hits``,
    ``retries`` and cumulative ``committed``; per-job rows come from
    the snapshot's ``jobs`` tail.
    """
    lines: List[str] = []
    label = snapshot.get("tag") or "?"
    state = snapshot.get("state", "?")
    wall = snapshot.get("wall", 0.0)
    lines.append(f"fleet {label}  [{state}]"
                 f"  pid={snapshot.get('pid', '?')}  wall={wall:.1f}s")
    done = snapshot.get("jobs_done", 0) or 0
    cached = snapshot.get("cache_hits", 0) or 0
    failed = snapshot.get("jobs_failed", 0) or 0
    total = snapshot.get("jobs_total", 0) or 0
    settled = done + cached + failed
    eta = ""
    if total and settled and settled < total and state == "running" and wall:
        remaining = (total - settled) * (wall / settled)
        eta = f"  eta={remaining:.0f}s"
    pct = f" ({100.0 * settled / total:.0f}%)" if total else ""
    lines.append(f"jobs {bar(settled, total, 24)} {settled}/{total}{pct}"
                 f"  executed={done}  cached={cached}  failed={failed}"
                 f"  retries={snapshot.get('retries', 0)}{eta}")
    committed = snapshot.get("committed", 0)
    ipc = snapshot.get("ipc", 0.0)
    lines.append(f"committed {committed}  mean IPC {ipc:.3f}")
    ipcs = [s.get("ipc", 0.0) for s in history
            if isinstance(s.get("ipc"), (int, float))]
    lines.append(f"ipc  {sparkline(ipcs, min(60, width - 6))}")
    jobs = snapshot.get("jobs")
    if isinstance(jobs, list):
        for row in jobs[-10:]:
            if not isinstance(row, dict):
                continue
            status = str(row.get("status", "?"))
            detail = ""
            if "ipc" in row:
                detail = f"  IPC={row['ipc']}  ({row.get('seconds', 0)}s)"
            lines.append(f"  {str(row.get('job', '?')):<44.44}"
                         f" {status:<12.12}{detail}")
    return [line[:width] for line in lines]


def run_tui(source: FileSource, interval: float = 0.5) -> int:
    """Curses front end: redraw until the run finishes or 'q' quits."""
    import curses

    def loop(stdscr) -> int:
        curses.curs_set(0)
        stdscr.nodelay(True)
        history: Deque[Dict[str, object]] = deque(maxlen=HISTORY)
        latest: Optional[Dict[str, object]] = None
        waited = 0.0
        while True:
            for snapshot in source.poll():
                history.append(snapshot)
                latest = snapshot
            height, width = stdscr.getmaxyx()
            stdscr.erase()
            if latest is None:
                waited += interval
                stdscr.addstr(0, 0, f"waiting for telemetry from "
                                    f"{source.path} ({waited:.0f}s)"
                                    f" — is the run using REPRO_LIVE=1?")
            else:
                lines = render_lines(latest, list(history),
                                     width=max(20, width - 1))
                for row, line in enumerate(lines[:height - 1]):
                    stdscr.addstr(row, 0, line)
                stdscr.addstr(min(len(lines), height - 1), 0,
                              "q to detach (the run keeps going)")
            stdscr.refresh()
            if latest is not None and latest.get("state") == "done":
                stdscr.nodelay(False)  # leave the final screen up
            try:
                key = stdscr.getch()
            except curses.error:  # pragma: no cover - terminal quirk
                key = -1
            if key in (ord("q"), ord("Q")):
                return 0
            time.sleep(interval)

    return curses.wrapper(loop)
