"""End-to-end benchmark of the simulator: the paper's sweeps, timed.

One run of one workload::

    python3 benchmarks/e2e/run.py --workload paper-full --seed 0 \\
        --seconds 12 --trace 0

sets the workload up three times (``setup_s`` is the median), then runs
it in a fresh process, once and again while ``--seconds`` have not
passed, and prints every metric as ``workload metric value unit``.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Job results are checked against the golden
outputs in ``golden/`` where they exist for the seed.

A set of runs, round-robin over every workload, written to a file::

    python3 benchmarks/e2e/run.py --runs 3 --trace 1 --out set.json

``--bless`` regenerates the golden outputs, for every suite seed of
``workloads.SEED_POOL`` unless ``--seed`` names one.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden"
#: Scratch space for bundles, result caches and spans; removed per run.
WORK = HERE / ".work"

#: Set-ups per run; ``setup_s`` is their median.  A single 2-10 s
#: set-up process varies too much on a shared host to be a metric.
SETUPS = 3
#: One run must end within this many seconds.
RUN_LIMIT = 170.0


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(phase: str, options: Sequence[str], cache_dir: Path,
           timeout: float) -> Dict:
    """Run one ``child.py`` phase in a fresh process and parse its result.

    The child sees no ``REPRO_*`` variable of the caller except the
    stream-bundle directory, so a caller's knobs cannot leak into a
    workload.  It runs in its own session, so a timeout also stops its
    pool workers.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, str(HERE / "child.py"), phase, *options]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child.py {phase} ran over {timeout:.0f}s")
    if proc.returncode:
        raise RuntimeError(f"child.py {phase} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _mismatches(table: Dict, expected: Dict) -> int:
    keys = set(table) | set(expected)
    return sum(table.get(key) != expected.get(key) for key in keys)


def _ipc_err_pct(table: Dict, reference: Dict) -> float:
    """Mean relative error (%) of sampled IPC against full detail."""
    errors = []
    for describe, (cycles, committed) in reference.items():
        sampled = table[describe][1] / table[describe][0]
        full = committed / cycles
        errors.append(abs(sampled - full) / full)
    return 100 * statistics.fmean(errors)


def golden_path(golden: Path, name: str, seed: int, micro: bool) -> Path:
    """Where the golden outputs of one workload and suite seed live."""
    return golden / f"{name}{'-micro' if micro else ''}-seed{seed}.json"


def measure(name: str, seed: int, seconds: float, trace: bool,
            micro: bool = False, setups: int = SETUPS) -> Dict:
    """Set the workload up on suite seed *seed* and time it; returns the
    children's output."""
    common = ["--workload", name, "--seed", str(seed)]
    if micro:
        common.append("--micro")
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    deadline = time.monotonic() + RUN_LIMIT
    try:
        done = []
        for index in range(setups):
            options = list(common)
            if trace:
                options += ["--trace-dir", str(work / f"spans{index}")]
            done.append(_child("setup", options, work / f"bundles{index}",
                               deadline - time.monotonic()))
        timed = _child(
            "timed", common + ["--seconds", str(seconds), "--trace",
                               str(int(trace)), "--work", str(work)],
            work / f"bundles{setups - 1}", deadline - time.monotonic())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    timed["setups"] = done
    return timed


def _metrics(outcome: Dict, trace: bool) -> Dict[str, float]:
    """Every metric of the run: end-to-end ones are medians over the
    untraced repetitions (and the set-ups), per-layer ones medians over
    the traced repetitions."""
    plain = [rep for rep in outcome["reps"] if not rep["traced"]]
    setups = outcome["setups"]
    metrics = {
        "wall_s": statistics.median(rep["wall"] for rep in plain),
        "sim_kips": statistics.median(rep["insts"] / rep["wall"] / 1000
                                      for rep in plain),
        "cpu_s": statistics.median(rep["cpu"] for rep in plain),
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in plain
                                         if rep["rss_mb"] is not None),
    }
    if not trace:
        return metrics
    layers = outcome["layers"]
    for key in layers[0]:
        metrics[key] = statistics.median([layer[key] for layer in layers])
    # Generation and emulation happen in set-up; add what the timed
    # repetitions did of it too (nothing, while the bundles are used).
    for key in ("workloads.generate_s", "workloads.programs",
                "emulator.run_s", "emulator.insts"):
        metrics[key] += statistics.median([setup["layers"][key]
                                           for setup in setups])
    traced = statistics.median(rep["wall"] for rep in outcome["reps"]
                               if rep["traced"])
    metrics["trace.overhead_pct"] = 100 * (traced / metrics["wall_s"] - 1)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool,
        micro: bool = False, golden: Path = GOLDEN) -> Dict:
    """One benchmark run: prints the metric lines, returns the result."""
    import workloads

    spec = _spec()
    suite_seed = workloads.suite_seed(seed)
    outcome = measure(name, suite_seed, seconds, trace, micro)
    reps = outcome["reps"]
    table = outcome["table"]
    failed = sum(rep["failed"] for rep in reps)
    attempted = sum(rep["jobs"] for rep in reps)
    path = golden_path(golden, name, suite_seed, micro)
    expected = json.loads(path.read_text()) if path.is_file() else None
    mismatch = _mismatches(table, expected["jobs"]) if expected else 0
    metrics = _metrics(outcome, trace)

    print(f"# {name} seed={seed} suite seed={suite_seed} jobs={len(table)} "
          "repetitions (s): "
          + " ".join(f"{rep['wall']:.3f}{'t' if rep['traced'] else ''}"
                     for rep in reps))
    print(f"# child env: {' '.join(outcome['env'])}")
    print("# jobs sha256 " + _sha(sorted(table)))
    print("# results sha256 " + _sha(sorted(table.items())))
    if expected is None:
        print("# golden check skipped: no golden outputs for suite seed "
              f"{suite_seed}")
    else:
        print(f"# golden check: {len(table) - mismatch} of "
              f"{len(expected['jobs'])} jobs match")
    if outcome["rep_mismatch"]:
        print(f"# {outcome['rep_mismatch']} repetitions changed results")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] in metrics:
            print(f"{name} {metric['name']} {metrics[metric['name']]!r} "
                  f"{metric['unit']}")
    print(f"{name} failed_frac {failed / attempted!r} ratio")
    print(f"{name} golden_mismatch {mismatch} count")
    if expected and "reference" in expected:
        print(f"{name} ipc_err_pct "
              f"{_ipc_err_pct(table, expected['reference'])!r} %")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": (failed == 0 and mismatch == 0
                    and outcome["rep_mismatch"] == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _failed(outcome: Dict) -> int:
    return sum(rep["failed"] for rep in outcome["reps"])


def bless(names: Sequence[str], seeds: Sequence[int], micro: bool,
          golden: Path) -> int:
    """Regenerate the golden outputs for *names* × suite *seeds*.

    A workload and seed on which a job fails gets no golden outputs;
    returns how many did not.
    """
    import workloads

    golden.mkdir(parents=True, exist_ok=True)
    refused = 0
    for name in names:
        for seed in seeds:
            outcome = measure(name, seed, 0, False, micro, setups=1)
            record = {"workload": name, "seed": seed,
                      "jobs": outcome["table"]}
            workload = workloads.get(name, micro)
            failed = _failed(outcome)
            if workload.sampling is not None and not failed:
                reference = measure(name + "-reference", seed, 0, False,
                                    micro, setups=1)
                failed = _failed(reference)
                full = reference["table"]
            if failed:
                print(f"{name} suite seed {seed}: {failed} jobs failed, "
                      "no golden outputs written")
                refused += 1
                continue
            if workload.sampling is not None:
                record["reference"] = {
                    sampled.describe(): full[twin.describe()][:2]
                    for sampled, twin in zip(
                        workload.jobs(), workload.full_detail().jobs())}
                record["ipc_err_pct"] = _ipc_err_pct(outcome["table"],
                                                     record["reference"])
            path = golden_path(golden, name, seed, micro)
            path.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path}")
    return refused


def run_set(names: Sequence[str], runs: int, seed: int, seconds: float,
            trace: bool, micro: bool, out: Optional[Path]) -> Dict:
    """*runs* rounds round-robin over *names* (plus one traced round),
    each run in its own ``run.py --workload`` process."""
    plan = [(name, False) for _ in range(runs) for name in names]
    if trace:
        plan += [(name, True) for name in names]
    records = []
    for index, (name, traced) in enumerate(plan):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(traced))]
        if micro:
            command.append("--micro")
        out_text = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                                  text=True).stdout
        lines = out_text.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        records.append({"workload": name, "round": index // len(names),
                        "trace": int(traced),
                        "result": json.loads(lines[-1])})
    summary: Dict[str, Dict] = {}
    for record in records:
        for metric, entry in record["result"]["metrics"].items():
            summary.setdefault(record["workload"], {}).setdefault(
                metric, {"unit": entry["unit"], "values": []}
            )["values"].append(entry["value"])
    for per_metric in summary.values():
        for entry in per_metric.values():
            values = entry.pop("values")
            q1, median, q3 = quartiles(values)
            entry.update(median=median, q1=q1, q3=q3, n=len(values))
    data = {"meta": {"seed": seed, "runs": runs, "seconds": seconds,
                     "nproc": os.cpu_count(),
                     "python": platform.python_version(),
                     "machine": platform.machine()},
            "runs": records, "summary": summary}
    if out is not None:
        out.write_text(json.dumps(data, indent=1) + "\n")
    return data


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulator's sweeps.")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: a set of all)")
    parser.add_argument("--seed", type=int,
                        help="input seed S: the programs of suite seed "
                             "SEED_POOL[S %% len(SEED_POOL)]; 0 is the "
                             "committed suite (with --bless: a suite seed)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics (a set adds "
                             "one traced round)")
    parser.add_argument("--runs", type=int, default=3,
                        help="rounds in a set (default 3)")
    parser.add_argument("--out", type=Path, help="write the set here")
    parser.add_argument("--bless", action="store_true",
                        help="regenerate the golden outputs (every suite "
                             "seed of the pool by default)")
    parser.add_argument("--micro", action="store_true",
                        help="seconds-long workloads (self-test)")
    parser.add_argument("--golden-dir", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    if args.bless:
        import workloads

        seeds = (workloads.SEED_POOL if args.seed is None
                 else (args.seed,))
        return 1 if bless(names, seeds, args.micro, args.golden_dir) else 0
    seed = args.seed or 0
    if args.workload is None:
        run_set(names, args.runs, seed, seconds, bool(args.trace),
                args.micro, args.out)
        return 0
    result = run(args.workload, seed, seconds, bool(args.trace), args.micro,
                 args.golden_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
