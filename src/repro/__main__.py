"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run`` — simulate one (front-end, benchmark) pair and print metrics;
  ``--pipeview[=N]`` renders the classic pipeline diagram of the last N
  committed instructions, ``--sample N`` prints cycle-sampled gauge
  summaries, ``--sampled [PERIOD]`` switches to interval-sampled
  simulation (see :mod:`repro.sampling`), ``--json`` emits the result
  as JSON;
* ``compare`` — run several front-ends on one benchmark side by side;
* ``figure`` — regenerate one of the paper's tables/figures;
* ``sweep`` — run a (configs x benchmarks) matrix on the parallel runner
  with the persistent result cache, printing progress and a summary
  (``--json`` for machine-readable output, ``--sampled [PERIOD]`` for
  interval-sampled jobs, ``--checkpoint N`` for durable mid-run
  snapshots, ``--resume [SWEEP_ID]`` to continue a crashed sweep from
  its manifest);
* ``trace`` — record a fragment-lifecycle event trace and export it as
  Chrome trace-event JSON for Perfetto / ``chrome://tracing``;
* ``profile`` — attribute the simulator's own wall-clock to pipeline
  phases (self-profiling);
* ``attach`` — live view of a running simulation or sweep
  (``REPRO_LIVE=1`` runs publish telemetry; attach by status-file path
  or pid); ``--once --json`` prints one schema-validated snapshot for
  scripts and CI;
* ``bench-info`` — show the synthetic suite's characteristics (Table 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from repro import PAPER_CONFIGS, run_simulation
from repro.stats import format_table
from repro.workloads.suite import BENCHMARK_NAMES

ALL_CONFIGS = list(PAPER_CONFIGS) + ["tc+pr-2x8w", "tc+pr-4x4w"]

FIGURES = {
    "table1": lambda ex: ex.table1(),
    "table2": lambda ex: ex.format_table2(ex.table2()),
    "fig4": lambda ex: ex.format_figure4(ex.figure4()),
    "fig5": lambda ex: ex.format_figure5(ex.figure5()),
    "fig6": lambda ex: ex.format_figure6(ex.figure6()),
    "fig7": lambda ex: ex.format_figure7(ex.figure7()),
    "fig8": lambda ex: ex.format_figure8(ex.figure8()),
    "fig9": lambda ex: ex.format_figure9(ex.figure9()),
    "fig10": lambda ex: ex.format_figure10(ex.figure10()),
    "text": lambda ex: ex.format_text_statistics(ex.text_statistics()),
}


def _result_row(result):
    return [result.config_name, result.ipc, result.fetch_rate,
            result.rename_rate, result.slot_utilization, result.cycles]


def _result_payload(result):
    """A SimulationResult as a JSON-ready dict (``--json`` output)."""
    return {
        "benchmark": result.benchmark,
        "config": result.config_name,
        "cycles": result.cycles,
        "committed": result.committed,
        "ipc": result.ipc,
        "fetch_rate": result.fetch_rate,
        "rename_rate": result.rename_rate,
        "slot_utilization": result.slot_utilization,
        "counters": dict(result.counters),
    }


def _sampling_arg(args: argparse.Namespace):
    """Resolve the ``--sampled`` / ``--sample-unit`` / ``--sample-warmup``
    flags to a ``run_simulation(sampling=...)`` argument.

    Returns None when no flag was given, deferring to ``REPRO_SAMPLE``
    (unset = full detail), so plain invocations are unchanged.
    """
    sampled = getattr(args, "sampled", None)
    unit = getattr(args, "sample_unit", None)
    warmup = getattr(args, "sample_warmup", None)
    if sampled is None and unit is None and warmup is None:
        return None
    import dataclasses

    from repro.sampling import SamplingConfig
    period = None if sampled in (None, "on") else int(sampled)
    config = SamplingConfig.from_env(period)
    if unit is not None:
        config = dataclasses.replace(config, unit=unit)
    if warmup is not None:
        config = dataclasses.replace(config, warmup=warmup)
    return config


def _print_sampling_summary(result) -> None:
    """One-line confidence summary for a sampled result."""
    if not result.counter("sampling.enabled"):
        return
    measured = int(result.counter("sampling.units_measured"))
    total = int(result.counter("sampling.units_total"))
    halfwidth = result.counter("sampling.ipc_halfwidth_rel")
    discarded = int(result.counter("sampling.warmup_cycles_discarded"))
    print(f"sampled: {measured}/{total} units measured, "
          f"IPC +/-{100 * halfwidth:.1f}% (95% CI), "
          f"{discarded} warm-up cycles discarded")


def _make_observability(args: argparse.Namespace):
    """An Observability bundle for the run-style commands, or None.

    Built only when a CLI knob asks for it, so a plain ``repro run``
    still lets ``run_simulation`` consult the ``REPRO_OBS_*``
    environment (its default behaviour when *observability* is None).
    """
    sample = getattr(args, "sample", None)
    if not sample:
        return None
    from repro.config import ObservabilityConfig
    from repro.obs import Observability
    return Observability(ObservabilityConfig(sample_interval=sample))


def cmd_run(args: argparse.Namespace) -> int:
    """Run one (config, benchmark) simulation and print its metrics."""
    from repro.core.trace import (
        UopTrace,
        format_pipeview,
        pipeline_summary,
    )
    from repro.errors import ConfigError

    obs = _make_observability(args)
    uop_log = [] if args.pipeview is not None else None
    live = None
    if args.live is not None:
        from repro.config import LiveConfig
        live = (LiveConfig() if args.live is True
                else LiveConfig(path=args.live))
    try:
        sampling = _sampling_arg(args)
        result = run_simulation(args.config, args.benchmark,
                                max_instructions=args.instructions,
                                warm=not args.cold, observability=obs,
                                uop_log=uop_log, sampling=sampling,
                                checkpoint_every=args.checkpoint, live=live)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traces = ([UopTrace.from_uop(uop) for uop in uop_log]
              if uop_log is not None else [])
    if args.json:
        payload = _result_payload(result)
        if traces:
            payload["pipeline"] = pipeline_summary(traces)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["front-end", "IPC", "fetch/cyc", "rename/cyc", "util", "cycles"],
        [_result_row(result)]))
    _print_sampling_summary(result)
    if obs is not None and obs.metrics is not None:
        print()
        print(obs.metrics.summary_text())
    if args.pipeview is not None:
        print()
        count = args.pipeview
        start = max(0, len(traces) - count)
        print(format_pipeview(traces, start=start, count=count))
    if args.counters:
        print()
        for name, value in sorted(result.counters.items()):
            print(f"{name:45} {value:14.0f}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Simulate a benchmark on several configs and print a comparison table."""
    rows = []
    for config in args.configs:
        result = run_simulation(config, args.benchmark,
                                max_instructions=args.instructions,
                                warm=not args.cold)
        rows.append(_result_row(result))
    print(format_table(
        ["front-end", "IPC", "fetch/cyc", "rename/cyc", "util", "cycles"],
        rows))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Reproduce one of the paper's figures or tables by name."""
    from repro import experiments
    print(FIGURES[args.name](experiments))
    return 0


def _attach_sweep(sweep, fleet, out):
    """Run *sweep* on a worker thread while rendering the fleet table.

    On a TTY the table redraws in place (ANSI cursor-up); on a pipe or
    in CI it degrades to one summary line whenever the fleet counts
    change, so logs stay readable.
    """
    import threading

    from repro.obs.attach import render_fleet_lines

    box = {}

    def run():
        try:
            box["report"] = sweep()
        except BaseException as exc:  # re-raised on the main thread
            box["error"] = exc

    thread = threading.Thread(target=run, name="repro-sweep", daemon=True)
    thread.start()
    tty = out.isatty()
    printed = 0
    last_counts = None
    while True:
        thread.join(timeout=0.5)
        alive = thread.is_alive()
        snapshot = fleet.snapshot("running" if alive else "done")
        if tty:
            lines = render_fleet_lines(snapshot, fleet.history(),
                                       width=100)
            if printed:
                out.write(f"\x1b[{printed}A\x1b[J")
            out.write("\n".join(lines) + "\n")
            out.flush()
            printed = len(lines)
        else:
            counts = (snapshot["jobs_done"], snapshot["cache_hits"],
                      snapshot["jobs_failed"], snapshot["retries"],
                      snapshot["state"])
            if counts != last_counts:
                last_counts = counts
                lines = render_fleet_lines(snapshot, [], width=100)
                out.write(lines[1] + "\n")
                out.flush()
        if not alive:
            break
    if "error" in box:
        raise box["error"]
    return box["report"]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the full figure sweep through the parallel sweep runner.

    Every sweep writes a durable manifest (``<cache dir>/sweeps/``)
    before running, so a crashed or killed invocation can be resumed
    with ``--resume [SWEEP_ID]``: completed jobs return from the result
    cache, and jobs launched with ``--checkpoint N`` restart from their
    latest durable snapshot instead of from zero.
    """
    from repro.experiments import manifest as manifests
    from repro.experiments.common import (
        experiment_benchmarks,
        experiment_length,
    )
    from repro.experiments.runner import ResultCache, SweepJob, run_sweep

    cache = ResultCache(enabled=False if args.no_cache else None)
    if args.clear_cache:
        removed = ResultCache(enabled=True).clear()
        print(f"cleared {removed} cached result(s)")
        return 0

    progress_out = sys.stderr if args.json else sys.stdout
    if args.resume is not None:
        try:
            if args.resume == "latest":
                manifest = manifests.latest_manifest()
                if manifest is None:
                    print("no incomplete sweep manifest to resume",
                          file=sys.stderr)
                    return 1
            else:
                manifest = manifests.load_manifest(args.resume)
        except manifests.ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        jobs = manifest.jobs
        print(f"resuming sweep {manifest.sweep_id} "
              f"({len(jobs)} job(s))", flush=True, file=progress_out)
    else:
        benchmarks = args.benchmarks or experiment_benchmarks()
        length = args.instructions or experiment_length()
        sampling_config = _sampling_arg(args)
        sampling = (None if sampling_config is None else
                    (sampling_config.period, sampling_config.unit,
                     sampling_config.warmup))
        jobs = [SweepJob(config_name=config, benchmark=bench,
                         length=length, sampling=sampling,
                         checkpoint=args.checkpoint)
                for config in args.configs for bench in benchmarks]
        manifest = manifests.write_manifest(jobs, options={
            "workers": args.workers, "retries": args.retries,
            "timeout": args.timeout})
        print(f"sweep {manifest.sweep_id} "
              f"(resume with: repro sweep --resume {manifest.sweep_id})",
              flush=True, file=progress_out)

    # Fleet telemetry: on for --attach / --live, or ambiently via
    # REPRO_LIVE — same knobs as a single run, sweep-shaped snapshots.
    from repro.config import LiveConfig
    if args.attach or args.live is not None:
        live_config = (LiveConfig() if args.live in (None, True)
                       else LiveConfig(path=args.live))
    else:
        live_config = LiveConfig.from_env()
    fleet = None
    if live_config is not None:
        from repro.obs.live import SweepFleet
        fleet = SweepFleet(live_config, len(jobs), tag=manifest.sweep_id)
        fleet.publish()  # jobs_total visible to attach before any event
        print(f"fleet telemetry: repro attach {fleet.path}",
              flush=True, file=progress_out)

    done = [0]
    # Progress goes to stderr under --json so stdout stays parseable.

    def progress(job, result, seconds):
        done[0] += 1
        if fleet is not None:
            fleet.note_done(job, result, seconds)
        if not args.attach:
            print(f"  [{done[0]}/{len(jobs)}] {job.describe():40} "
                  f"IPC={result.ipc:.2f}  ({seconds:.1f}s)",
                  flush=True, file=progress_out)

    sweep = functools.partial(
        run_sweep, jobs, workers=args.workers, cache=cache,
        progress=progress, retries=args.retries, timeout=args.timeout,
        observer=None if fleet is None else fleet.observe)
    if args.attach:
        report = _attach_sweep(sweep, fleet, progress_out)
    else:
        report = sweep()
    if fleet is not None:
        fleet.publish_final()
    if not report.failures:
        # Failed sweeps stay incomplete so ``--resume`` retries them.
        manifests.mark_complete(manifest)
    if args.json:
        payload = {
            "results": [_result_payload(result)
                        for job, result in report.results.items()],
            "failures": [failure.describe()
                         for failure in report.failures.values()],
            "summary": report.stats.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if report.failures else 0
    rows = []
    for job in jobs:
        result = report.results.get(job)
        if result is None:
            failure = report.failures.get(job)
            rows.append([job.config_name, job.benchmark,
                         "FAILED" if failure is None
                         else f"FAILED:{failure.error_type}",
                         "-", "-", "-", "-"])
            continue
        row = _result_row(result)
        rows.append([row[0], job.benchmark] + row[1:])
    print(format_table(
        ["front-end", "benchmark", "IPC", "fetch/cyc", "rename/cyc",
         "util", "cycles"], rows))
    print()
    print(report.summary())
    return 1 if report.failures else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Capture a Chrome/Perfetto event trace of one simulation."""
    from repro.config import ObservabilityConfig, frontend_config
    from repro.obs import Observability, validate_chrome_trace

    obs = Observability(ObservabilityConfig(
        trace=True, trace_limit=args.limit,
        sample_interval=args.sample or 0))
    result = run_simulation(args.config, args.benchmark,
                            max_instructions=args.instructions,
                            warm=not args.cold, observability=obs)
    sequencers = frontend_config(args.config).frontend.sequencers
    payload = obs.export_trace(
        args.output, process_name=f"{args.config}/{args.benchmark}",
        sequencers=sequencers)
    events = validate_chrome_trace(payload)
    print(format_table(
        ["front-end", "IPC", "fetch/cyc", "rename/cyc", "util", "cycles"],
        [_result_row(result)]))
    print()
    print(f"wrote {args.output}: {events} trace events "
          f"({obs.tracer.dropped} dropped at the {args.limit} cap)")
    print("load it in https://ui.perfetto.dev or chrome://tracing")
    if obs.tracer.dropped:
        print(f"warning: trace truncated — {obs.tracer.dropped} event(s) "
              f"dropped at the {args.limit}-event cap; re-run with a "
              f"higher --limit or fewer instructions for a complete trace",
              file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Self-profile one simulation and print per-phase wall-clock time."""
    from repro.config import ObservabilityConfig
    from repro.obs import Observability

    obs = Observability(ObservabilityConfig(
        profile=True, sample_interval=args.sample or 0))
    result = run_simulation(args.config, args.benchmark,
                            max_instructions=args.instructions,
                            warm=not args.cold, observability=obs)
    if args.json:
        payload = _result_payload(result)
        payload["profile"] = obs.profiler.as_dict()
        if obs.metrics is not None:
            payload["metrics"] = obs.metrics.as_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["front-end", "IPC", "fetch/cyc", "rename/cyc", "util", "cycles"],
        [_result_row(result)]))
    print()
    print(obs.profiler.report())
    if obs.metrics is not None:
        print()
        print(obs.metrics.summary_text())
    return 0


def cmd_attach(args: argparse.Namespace) -> int:
    """Attach a live view to a running simulation or sweep."""
    import time

    from repro.obs import attach as attach_mod

    source = attach_mod.resolve_source(args.target)
    if not args.once:
        return attach_mod.run_tui(source, interval=args.interval)
    deadline = time.monotonic() + args.wait
    while True:
        snapshot, problems = attach_mod.snapshot_once(source)
        if snapshot is not None:
            break
        if time.monotonic() >= deadline:
            print(f"no telemetry at {source.path} — is the run "
                  f"using REPRO_LIVE=1?", file=sys.stderr)
            return 2
        time.sleep(0.2)
    for problem in problems:
        print(f"schema: {problem}", file=sys.stderr)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print("\n".join(attach_mod.render_lines(snapshot, [snapshot])))
    return 3 if problems else 0


def cmd_bench_info(args: argparse.Namespace) -> int:
    """Print static/dynamic characteristics of the suite benchmarks."""
    from repro.workloads.suite import characterize
    rows = []
    for name in args.benchmarks:
        c = characterize(name, args.instructions)
        rows.append([name, c.static_instructions, c.text_bytes / 1024,
                     c.avg_fragment_length,
                     100 * c.cond_branch_fraction,
                     100 * c.indirect_fraction])
    print(format_table(
        ["benchmark", "static insts", "text KB", "avg frag",
         "cond br %", "indirect %"], rows, float_fmt="{:.2f}"))
    return 0


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """Interval-sampling flags shared by ``run`` and ``sweep``.

    (``--sample`` was already taken by the observability gauge sampler,
    hence ``--sampled``.)
    """
    parser.add_argument("--sampled", nargs="?", const="on", default=None,
                        metavar="PERIOD",
                        help="interval-sampled simulation: detail-simulate "
                             "every PERIOD-th unit (default 16 or "
                             "REPRO_SAMPLE) and fast-forward the gaps "
                             "functionally")
    parser.add_argument("--sample-unit", type=int, default=None,
                        metavar="N",
                        help="instructions per sampling unit "
                             "(default 1000 or REPRO_SAMPLE_UNIT)")
    parser.add_argument("--sample-warmup", type=int, default=None,
                        metavar="N",
                        help="detailed warm-up instructions before each "
                             "measured unit (default 1000 or "
                             "REPRO_SAMPLE_WARMUP)")


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Parallelism in the Front-End' "
                    "(Oberoi & Sohi, ISCA 2003)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one configuration")
    run_p.add_argument("config", choices=ALL_CONFIGS)
    run_p.add_argument("benchmark")
    run_p.add_argument("-n", "--instructions", type=int, default=None)
    run_p.add_argument("--cold", action="store_true",
                       help="skip functional warming")
    run_p.add_argument("--counters", action="store_true",
                       help="dump every raw counter")
    run_p.add_argument("--pipeview", nargs="?", type=int, const=32,
                       default=None, metavar="N",
                       help="render the pipeline diagram of the last N "
                            "committed instructions (default 32)")
    run_p.add_argument("--sample", type=int, default=None, metavar="N",
                       help="sample pipeline gauges every N cycles and "
                            "print the time-series summary")
    run_p.add_argument("--json", action="store_true",
                       help="emit the result as JSON")
    run_p.add_argument("--checkpoint", type=int, default=None, metavar="N",
                       help="write a durable resume checkpoint every N "
                            "committed instructions (default: "
                            "REPRO_CHECKPOINT or off)")
    run_p.add_argument("--live", nargs="?", const=True, default=None,
                       metavar="PATH",
                       help="publish live telemetry for 'repro attach' "
                            "(to PATH, or the default .repro_live/ "
                            "status file; also REPRO_LIVE=1)")
    _add_sampling_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="compare front-ends")
    cmp_p.add_argument("benchmark")
    cmp_p.add_argument("--configs", nargs="+", default=list(PAPER_CONFIGS),
                       choices=ALL_CONFIGS)
    cmp_p.add_argument("-n", "--instructions", type=int, default=None)
    cmp_p.add_argument("--cold", action="store_true")
    cmp_p.set_defaults(func=cmd_compare)

    fig_p = sub.add_parser("figure",
                           help="regenerate a paper table/figure")
    fig_p.add_argument("name", choices=sorted(FIGURES))
    fig_p.set_defaults(func=cmd_figure)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a configs x benchmarks matrix on the parallel runner")
    sweep_p.add_argument("--configs", nargs="+",
                         default=list(PAPER_CONFIGS), choices=ALL_CONFIGS)
    sweep_p.add_argument("--benchmarks", nargs="+", default=None,
                         choices=BENCHMARK_NAMES)
    sweep_p.add_argument("-n", "--instructions", type=int, default=None)
    sweep_p.add_argument("-j", "--workers", type=int, default=None,
                         help="worker processes "
                              "(default: REPRO_SWEEP_WORKERS or CPU count)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")
    sweep_p.add_argument("--clear-cache", action="store_true",
                         help="delete every cached result and exit")
    sweep_p.add_argument("--retries", type=int, default=None,
                         help="retries per failed job "
                              "(default: REPRO_SWEEP_RETRIES or 2)")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout in seconds; "
                              "0 disables "
                              "(default: REPRO_JOB_TIMEOUT or none)")
    sweep_p.add_argument("--attach", action="store_true",
                         help="render a live fleet table (job states, "
                              "cache hits, retries, ETA) while the "
                              "sweep runs")
    sweep_p.add_argument("--live", nargs="?", const=True, metavar="PATH",
                         default=None,
                         help="publish fleet telemetry for repro attach "
                              "(optional status-file PATH; REPRO_LIVE=1 "
                              "also enables it)")
    sweep_p.add_argument("--json", action="store_true",
                         help="emit results and summary as JSON "
                              "(progress goes to stderr)")
    sweep_p.add_argument("--checkpoint", type=int, default=None,
                         metavar="N",
                         help="per-job durable checkpoints every N "
                              "committed instructions, so --resume "
                              "restarts in-flight jobs mid-stream")
    sweep_p.add_argument("--resume", nargs="?", const="latest",
                         default=None, metavar="SWEEP_ID",
                         help="resume a crashed/killed sweep from its "
                              "manifest (default: the most recent "
                              "incomplete one)")
    _add_sampling_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    trace_p = sub.add_parser(
        "trace",
        help="record a Perfetto-compatible pipeline event trace")
    trace_p.add_argument("config", choices=ALL_CONFIGS)
    trace_p.add_argument("benchmark")
    trace_p.add_argument("-n", "--instructions", type=int, default=2000,
                         help="instructions to simulate (default 2000; "
                              "traces grow fast)")
    trace_p.add_argument("-o", "--output", default="repro-trace.json",
                         help="trace file path (default repro-trace.json)")
    trace_p.add_argument("--limit", type=int, default=200_000,
                         help="maximum trace events (default 200000)")
    trace_p.add_argument("--sample", type=int, default=None, metavar="N",
                         help="also record gauge counter tracks every "
                              "N cycles")
    trace_p.add_argument("--cold", action="store_true",
                         help="skip functional warming")
    trace_p.set_defaults(func=cmd_trace)

    prof_p = sub.add_parser(
        "profile",
        help="attribute simulator wall-clock to pipeline phases")
    prof_p.add_argument("config", choices=ALL_CONFIGS)
    prof_p.add_argument("benchmark")
    prof_p.add_argument("-n", "--instructions", type=int, default=None)
    prof_p.add_argument("--sample", type=int, default=None, metavar="N",
                        help="also sample pipeline gauges every N cycles")
    prof_p.add_argument("--cold", action="store_true",
                        help="skip functional warming")
    prof_p.add_argument("--json", action="store_true",
                        help="emit the result, profile and metrics as "
                             "JSON")
    prof_p.set_defaults(func=cmd_profile)

    attach_p = sub.add_parser(
        "attach",
        help="live view of a running simulation or sweep")
    attach_p.add_argument("target",
                          help="status-file path, or pid of a REPRO_LIVE "
                               "run or sweep")
    attach_p.add_argument("--once", action="store_true",
                          help="print the newest snapshot and exit "
                               "instead of opening the TUI")
    attach_p.add_argument("--json", action="store_true",
                          help="with --once: emit the snapshot as JSON")
    attach_p.add_argument("--wait", type=float, default=0.0, metavar="S",
                          help="with --once: wait up to S seconds for a "
                               "first snapshot (default 0)")
    attach_p.add_argument("--interval", type=float, default=0.5,
                          metavar="S",
                          help="TUI refresh interval in seconds "
                               "(default 0.5)")
    attach_p.set_defaults(func=cmd_attach)

    info_p = sub.add_parser("bench-info",
                            help="synthetic suite characteristics")
    info_p.add_argument("--benchmarks", nargs="+",
                        default=list(BENCHMARK_NAMES),
                        choices=BENCHMARK_NAMES)
    info_p.add_argument("-n", "--instructions", type=int, default=10_000)
    info_p.set_defaults(func=cmd_bench_info)
    return parser


def main(argv=None) -> int:
    """CLI entry point: parse arguments and dispatch to a subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
