"""The batched cycle-loop state and the reproducible benchmark harness.

* :mod:`repro.perf.soa` — the cycle loop's batched structure-of-arrays
  state: flattened oracle PCs and per-fragment decode/source/dest
  metadata the rename, tagging and commit loops run over (layout in
  ``docs/DATA_LAYOUT.md``).

* :mod:`repro.perf.cosim` — the run driver: N timing models over one
  stream pass (a single run is a group of one).

* :mod:`repro.perf.bench` — the benchmark harness behind
  ``benchmarks/bench_perf.py`` and the ``BENCH_perf*.json`` records.
"""

from repro.perf.bench import (
    COSIM_CONFIGS,
    COSIM_GATE_SPEEDUP,
    COSIM_TARGET_SPEEDUP,
    PINNED_BENCHMARK,
    PINNED_CONFIGS,
    PINNED_INSTRUCTIONS,
    SAMPLED_INSTRUCTIONS,
    SCHEMA_VERSION,
    SMOKE_INSTRUCTIONS,
    SMOKE_SAMPLED_INSTRUCTIONS,
    calibrate,
    check_cosim_speedup,
    compare_records,
    load_record,
    run_benchmark,
    run_cosim_benchmark,
    run_matrix,
    run_sampled_benchmark,
    write_record,
)

__all__ = [
    "COSIM_CONFIGS",
    "COSIM_GATE_SPEEDUP",
    "COSIM_TARGET_SPEEDUP",
    "PINNED_BENCHMARK",
    "PINNED_CONFIGS",
    "PINNED_INSTRUCTIONS",
    "SAMPLED_INSTRUCTIONS",
    "SCHEMA_VERSION",
    "SMOKE_INSTRUCTIONS",
    "SMOKE_SAMPLED_INSTRUCTIONS",
    "calibrate",
    "check_cosim_speedup",
    "compare_records",
    "load_record",
    "run_benchmark",
    "run_cosim_benchmark",
    "run_matrix",
    "run_sampled_benchmark",
    "write_record",
]
