"""One phase of a benchmark run, in a fresh process (started by run.py).

``child.py setup``  generates the workload's programs, emulates their
streams and stores the on-disk stream bundles under ``REPRO_CACHE_DIR``;
its wall time is ``setup_s``.

``child.py timed``  runs the workload against those bundles once, and
again while ``--seconds`` have not passed, each repetition from empty
in-process caches and with a fresh result cache, and reports per
repetition the wall time, CPU time, peak memory and the job results.
With ``--trace 1`` every other repetition runs under
:class:`spans.Tracer`, and there are at least two.

Both print one JSON object as their last line of output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spans
import workloads
from repro.core import simulation
from repro.experiments import runner
from repro.sampling import prep
from repro.workloads import suite

#: Pool width of the sweep workloads: the load comes from one process.
WORKERS = min(2, os.cpu_count() or 1)

#: Seconds between memory samples.
POLL_SECONDS = 0.2


def _hwm_kb(pid: int) -> int:
    """A process's peak resident set (``VmHWM``) in KiB, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _reset_peak() -> bool:
    """Lower this process's ``VmHWM`` to its current resident set.

    Pool workers are new processes each repetition; without the reset
    the timed process would carry earlier repetitions' peaks forward.
    False where the kernel does not allow it.
    """
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def _children(pid: int) -> List[int]:
    pids: List[int] = []
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids += [int(child) for child in path.read_text().split()]
        except OSError:
            continue
    return pids


class PeakMemory:
    """Samples ``VmHWM`` summed over this process and its children.

    The sum, not the largest process: which pool worker runs which
    stream groups changes from run to run, and the sum does not depend
    on it.  Children are listed from ``/proc`` rather than through
    ``multiprocessing``, so the sampling thread never touches the pool's
    process bookkeeping.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def sample(self) -> None:
        pid = os.getpid()
        total = _hwm_kb(pid) + sum(_hwm_kb(child) for child in _children(pid))
        self.peak_kb = max(self.peak_kb, total)

    def _poll(self) -> None:
        while not self._stop.wait(POLL_SECONDS):
            self.sample()

    def __enter__(self) -> "PeakMemory":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _digest(counters: Dict[str, float]) -> str:
    text = json.dumps(sorted(counters.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def run_jobs(workload: workloads.Workload, cache_dir: Path
             ) -> Tuple[Dict, Optional[runner.SweepReport], int]:
    """Run the workload once: ``(results by job, sweep report, failed)``.

    Module attributes are looked up at call time, so a traced repetition
    goes through the tracer's wrappers.
    """
    jobs = workload.jobs()
    if not workload.serial:
        report = runner.run_sweep(jobs, workers=WORKERS,
                                  cache=runner.ResultCache(cache_dir))
        return report.results, report, report.failed
    results = {}
    failed = 0
    for job in jobs:
        try:
            results[job] = simulation.run_simulation(
                job.build_config(), job.benchmark,
                max_instructions=job.length,
                config_name=job.label or job.config_name, warm=job.warm,
                sampling=False, checkpoint_every=False)
        except Exception as exc:  # counted, the other jobs still run
            print(f"{job.describe()}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
    return results, None, failed


def job_table(results: Dict) -> Dict[str, List]:
    """Per job: simulated cycles, committed count, counter digest."""
    return {job.describe(): [result.cycles, result.committed,
                             _digest(result.counters)]
            for job, result in results.items()}


def _sweep_metrics(report: runner.SweepReport) -> Dict[str, float]:
    """Runner and co-sim figures the sweep report already measures."""
    stats = report.stats
    exec_s = sum(report.job_seconds.values())
    groups: Dict[Tuple, float] = {}
    for job, seconds in report.job_seconds.items():
        key = (job.benchmark, job.length, job.warm)
        groups[key] = groups.get(key, 0.0) + seconds
    return {
        "runner.exec_s": exec_s,
        "runner.idle_s": (stats.get("sweep.workers")
                          * stats.get("sweep.wall_seconds") - exec_s),
        "runner.utilization": stats.get("sweep.utilization"),
        "runner.max_group_s": max(groups.values(), default=0.0),
        "runner.retries": stats.get("sweep.retries"),
        "cosim.jobs": stats.get("sweep.cosim_jobs"),
        "cosim.shared_decode": stats.get("sweep.cosim_shared_decode"),
        "cosim.gap_insts_shared": stats.get("sweep.cosim_gap_insts_shared"),
    }


def setup(args) -> Dict:
    workload = workloads.get(args.workload, args.micro)
    tracer = None
    if args.trace_dir:
        tracer = spans.Tracer(Path(args.trace_dir))
        tracer.install()
    start = time.perf_counter()
    for bench in workload.benchmarks:
        suite.get_benchmark(bench)
        prep.get_oracle(bench, workload.length)
    seconds = time.perf_counter() - start
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = spans.layer_metrics(spans.read_spans(Path(args.trace_dir)),
                                     {os.getpid(): seconds})
    return {"setup_s": seconds, "layers": layers}


def timed(args) -> Dict:
    workload = workloads.get(args.workload, args.micro)
    work = Path(args.work)
    reps: List[Dict] = []
    layers: List[Dict] = []
    table: Optional[Dict] = None
    mismatched = 0
    min_reps = 2 if args.trace else 1
    start = time.perf_counter()
    while (len(reps) < min_reps
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        suite.clear_caches()
        prep.clear_prep_caches()
        gc.collect()
        # Without a reset only the first repetition's peak is its own.
        peak_is_own = _reset_peak() or not reps
        cache_dir = Path(tempfile.mkdtemp(prefix="results-", dir=work))
        trace_dir = cache_dir / "spans"
        tracer = spans.Tracer(trace_dir) if traced else None
        if tracer is not None:
            tracer.install()
        try:
            with PeakMemory() as memory:
                cpu0 = _cpu_seconds()
                t0 = time.perf_counter()
                results, report, failed = run_jobs(workload, cache_dir)
                wall = time.perf_counter() - t0
                cpu = _cpu_seconds() - cpu0
        finally:
            if tracer is not None:
                tracer.uninstall()
        rep = {"wall": wall, "cpu": cpu,
               "rss_mb": memory.peak_kb / 1024 if peak_is_own else None,
               "insts": sum(r.committed for r in results.values()),
               "jobs": len(set(workload.jobs())), "failed": failed
               + sum(r.timed_out for r in results.values()),
               "traced": traced}
        if traced:
            metrics = spans.layer_metrics(spans.read_spans(trace_dir),
                                          {os.getpid(): wall})
            # A serial workload has no sweep: its runner figures are 0.
            metrics.update(_sweep_metrics(
                report or runner.SweepReport(jobs=[], results={})))
            widths = [r.counter("sampling.ipc_halfwidth_rel")
                      for r in results.values()]
            metrics["sampling.ipc_halfwidth_pct"] = (
                100 * statistics.fmean(widths) if widths else 0.0)
            layers.append(metrics)
        shutil.rmtree(cache_dir)
        current = job_table(results)
        if table is None:
            table = current
        elif current != table:
            mismatched += 1
        reps.append(rep)
    return {"reps": reps, "layers": layers, "table": table,
            "rep_mismatch": mismatched,
            "env": sorted(k for k in os.environ if k.startswith("REPRO_"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--trace-dir")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work")
    args = parser.parse_args(argv)
    workloads.apply_seed(args.seed)
    result = setup(args) if args.phase == "setup" else timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
