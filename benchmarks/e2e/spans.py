"""Span tracing around the simulator's public entry points.

:class:`Tracer` wraps each layer's public functions in a timer that
records one span per call: name, start, end, parent span, pid, trace id
(the stream group, i.e. the benchmark) and a few counts read from public
objects at the call boundary.  Spans are buffered in memory and appended
to ``spans-<pid>.ndjson`` when a process's outermost span closes; forked
sweep workers inherit the wrappers and write their own files.
:func:`layer_metrics` merges the files and turns them into per-layer self
times and counts.

The wrappers only observe: they never change arguments or results.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import simulation, warming
from repro.core.processor import Processor
from repro.emulator.machine import Machine
from repro.experiments import runner
from repro.perf import cosim
from repro.sampling import engine, prep
from repro.workloads import suite

#: Span name -> the layer its self time is charged to.  Warming calls
#: made while training a warm snapshot are charged to
#: ``prep.warm_train_s`` instead (see :func:`_layer_of`), so
#: ``warming.feed_s`` is the sampled gap fast-forward alone.
LAYERS = {
    "suite.get_benchmark": "workloads.generate_s",
    "Machine.run": "emulator.run_s",
    "prep.get_oracle": "prep.oracle_s",
    "prep.warm_group_snapshots": "prep.warm_train_s",
    "prep.warm_from_snapshot": "prep.warm_clone_s",
    "warming.warm_donor_group": "warming.feed_s",
    "WarmingState.feed": "warming.feed_s",
    "WarmingState.feed_caches": "warming.feed_s",
    "Processor.__init__": "core.build_s",
    "Processor.restart_at": "core.build_s",
    "Processor.run": "core.run_s",
    "Processor.run_until": "core.run_s",
    "engine.run_sampled": "sampling.self_s",
    "engine.measure_unit": "sampling.self_s",
    "engine.finalize_sampled": "sampling.self_s",
    "cosim.run_cosim": "cosim.self_s",
    "simulation.run_simulation": "simulation.self_s",
    "runner.run_sweep": "runner.self_s",
    "ResultCache.load": "runner.cache_load_s",
    "ResultCache.store": "runner.cache_store_s",
}

_TRAINING = ("prep.warm_group_snapshots", "prep.warm_from_snapshot")


def _trains(args: Sequence = ()) -> float:
    """Snapshot trainings so far in this process (also a before hook)."""
    return prep.PREP_STATS.get("prep.snapshot_trains")


def _bench_arg(index: int) -> Callable:
    """Trace id from a positional benchmark argument (a name or a
    Program); None lets the span inherit its parent's trace id."""
    def trace_id(args: Sequence) -> Optional[str]:
        value = args[index] if len(args) > index else None
        if value is None:
            return None
        return value if isinstance(value, str) else value.name
    return trace_id


def _flag(name: str) -> Callable:
    """Count one *name* when the before hook returned true."""
    def count(args, result, before) -> Dict:
        return {name: 1} if before else {}
    return count


def _count_insts(args, result, before) -> Dict:
    return {"insts": len(result.stream)}


def _fresh(args) -> bool:
    """Whether a suite benchmark's program is not yet in this process."""
    return isinstance(args[0], str) and suite.cached_program(args[0]) is None


def _count_snapshot(args, result, before) -> Dict:
    processor, _oracle, key = args[:3]
    # prep's own digest of the warm-relevant config fields, so "digests"
    # means exactly what the snapshot cache keys on.
    return {"trains": _trains() - before,
            "digests": [f"{key}|{prep._warm_digest(processor.config)}"]}


def _count_group(args, result, before) -> Dict:
    configs, _oracle, key = args[:3]
    return {"trains": _trains() - before,
            "digests": sorted({f"{key}|{prep._warm_digest(config)}"
                               for config in configs})}


def _core_state(args) -> Tuple[int, int, int]:
    processor = args[0]
    cache = processor.decode_cache
    if cache is None:
        return processor.now, 0, 0
    return processor.now, cache.hits, cache.misses


def _count_core(args, result, before) -> Dict:
    now, hits, misses = _core_state(args)
    return {"cycles": now - before[0], "decode_hits": hits - before[1],
            "decode_misses": misses - before[2]}


def _count_unit(args, result, before) -> Dict:
    return {"units": 1}


#: (owner, attribute, span name, trace id, before hook, after hook).
#: Module functions are rebound in every module that imported them.
_TARGETS = (
    (suite, "get_benchmark", "suite.get_benchmark", _bench_arg(0),
     _fresh, _flag("programs")),
    (Machine, "run", "Machine.run", None, None, _count_insts),
    (prep, "get_oracle", "prep.get_oracle", _bench_arg(0),
     _fresh, _flag("fresh")),
    (prep, "warm_group_snapshots", "prep.warm_group_snapshots", None,
     _trains, _count_group),
    (prep, "warm_from_snapshot", "prep.warm_from_snapshot", None,
     _trains, _count_snapshot),
    (warming, "warm_donor_group", "warming.warm_donor_group", None,
     None, None),
    (warming.WarmingState, "feed", "WarmingState.feed", None, None, None),
    (warming.WarmingState, "feed_caches", "WarmingState.feed_caches",
     None, None, None),
    (Processor, "__init__", "Processor.__init__", None, None, None),
    (Processor, "run", "Processor.run", None, _core_state, _count_core),
    (Processor, "run_until", "Processor.run_until", None, _core_state,
     _count_core),
    (Processor, "restart_at", "Processor.restart_at", None, None, None),
    (engine, "run_sampled", "engine.run_sampled", None, None, None),
    (engine, "measure_unit", "engine.measure_unit", None, None,
     _count_unit),
    (engine, "finalize_sampled", "engine.finalize_sampled", None, None,
     None),
    (cosim, "run_cosim", "cosim.run_cosim", _bench_arg(1), None, None),
    (simulation, "run_simulation", "simulation.run_simulation",
     _bench_arg(1), None, None),
    (runner, "run_sweep", "runner.run_sweep", None, None, None),
    (runner.ResultCache, "load", "ResultCache.load", None, None, None),
    (runner.ResultCache, "store", "ResultCache.store", None, None, None),
)


class Tracer:
    """Records spans around the wrapped entry points into *directory*."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self._pid = os.getpid()
        self._buffer: List[Dict] = []
        self._open: List[Dict] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target, in every ``repro`` module binding it."""
        for owner, attr, name, trace_id, before, after in _TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, trace_id, before, after)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name, trace_id, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._start(name, trace_id(args) if trace_id else None)
            state = before(args) if before else None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    span["c"] = after(args, result, state)
                return result
            finally:
                span["e"] = time.perf_counter()
                tracer._end(span)
        return wrapper

    def _start(self, name: str, trace_id: Optional[str]) -> Dict:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: the parent's open spans and buffer are
            # the parent's to write, not ours.
            self._pid = pid
            self._buffer = []
            self._open = []
        parent = self._open[-1] if self._open else None
        if trace_id is None:
            trace_id = parent["t"] if parent is not None else "-"
        self._next_id += 1
        span = {"n": name, "i": self._next_id,
                "p": parent["i"] if parent is not None else 0,
                "pid": pid, "t": trace_id, "s": time.perf_counter()}
        self._open.append(span)
        return span

    def _end(self, span: Dict) -> None:
        self._open.pop()
        self._buffer.append(span)
        if not self._open:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"spans-{self._pid}.ndjson"
            with open(path, "a") as handle:
                for record in self._buffer:
                    handle.write(json.dumps(record) + "\n")
            self._buffer = []


def read_spans(directory: Path) -> List[Dict]:
    """Every span written under *directory*, from all processes."""
    spans: List[Dict] = []
    for path in sorted(Path(directory).glob("spans-*.ndjson")):
        with open(path) as handle:
            spans += [json.loads(line) for line in handle if line.strip()]
    return spans


def _layer_of(span: Dict, by_id: Dict) -> str:
    name = span["n"]
    if name == "prep.warm_from_snapshot" and span.get("c", {}).get("trains"):
        return "prep.warm_train_s"
    if LAYERS[name] == "warming.feed_s":
        parent = by_id.get((span["pid"], span["p"]))
        while parent is not None:
            if parent["n"] in _TRAINING:
                return "prep.warm_train_s"
            parent = by_id.get((parent["pid"], parent["p"]))
    return LAYERS[name]


def layer_metrics(spans: Sequence[Dict],
                  windows: Optional[Dict[int, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer self times and counts from one traced run's spans.

    A span's self time is its duration minus its direct children's.
    ``trace.coverage`` divides the summed self times by the summed
    process windows: *windows* gives a process's measured wall time
    (the timed process passes its own); any other process's window runs
    from its first span's start to its last span's end, so gaps between
    a worker's spans count against coverage.
    """
    by_id = {(span["pid"], span["i"]): span for span in spans}
    child_time: Dict[Tuple[int, int], float] = {}
    for span in spans:
        key = (span["pid"], span["p"])
        child_time[key] = child_time.get(key, 0.0) + span["e"] - span["s"]
    # A fresh get_oracle that emulated nothing loaded the disk bundle.
    emulated = {(span["pid"], span["p"]) for span in spans
                if span["n"] == "Machine.run"}

    metrics: Dict[str, float] = {layer: 0.0 for layer in set(LAYERS.values())}
    counts: Dict[str, float] = {}
    digests = set()
    first: Dict[int, float] = {}
    last: Dict[int, float] = {}
    for span in spans:
        pid = span["pid"]
        self_time = (span["e"] - span["s"]
                     - child_time.get((pid, span["i"]), 0.0))
        metrics[_layer_of(span, by_id)] += self_time
        first[pid] = min(first.get(pid, span["s"]), span["s"])
        last[pid] = max(last.get(pid, span["e"]), span["e"])
        for name, value in span.get("c", {}).items():
            if name == "digests":
                digests.update(value)
            else:
                counts[name] = counts.get(name, 0.0) + value
        if (span["n"] == "prep.get_oracle" and span.get("c", {}).get("fresh")
                and (pid, span["i"]) not in emulated):
            counts["bundle_loads"] = counts.get("bundle_loads", 0.0) + 1

    windows = dict(windows or {})
    for pid in first:
        windows.setdefault(pid, last[pid] - first[pid])
    covered = sum(metrics.values())
    total = sum(windows.values())
    trains = counts.get("trains", 0.0)
    decode = counts.get("decode_hits", 0.0) + counts.get("decode_misses", 0.0)
    metrics.update({
        "workloads.programs": counts.get("programs", 0.0),
        "emulator.insts": counts.get("insts", 0.0),
        "prep.bundle_loads": counts.get("bundle_loads", 0.0),
        "prep.snapshot_trains": trains,
        "prep.snapshot_digests": float(len(digests)),
        "prep.snapshot_train_ratio": (trains / len(digests)
                                      if digests else 0.0),
        "core.sim_cycles": counts.get("cycles", 0.0),
        "core.cycles_per_s": (counts.get("cycles", 0.0) / metrics["core.run_s"]
                              if metrics["core.run_s"] else 0.0),
        "core.decode_hit_rate": (counts.get("decode_hits", 0.0) / decode
                                 if decode else 0.0),
        "sampling.units_measured": counts.get("units", 0.0),
        "trace.coverage": covered / total if total else 0.0,
    })
    return metrics
