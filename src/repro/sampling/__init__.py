"""Interval-sampled simulation (SMARTS-style) and shared prep caching.

Two cooperating pieces live here:

* :mod:`repro.sampling.prep` — the per-benchmark preparation cache:
  decoded programs, oracle streams (in-process and on-disk under
  ``.repro_cache/streams/``), and trained-predictor snapshots that are
  cloned into each run instead of retrained from scratch.
* :mod:`repro.sampling.engine` — the interval-sampling schedule:
  :func:`run_sampled` detail-simulates every *k*-th unit of the stream
  (each preceded by a detailed warm-up prefix) on each processor of a
  :func:`~repro.perf.cosim.run_cosim` group, functionally
  fast-forwards the gaps via :class:`repro.core.warming.WarmingState`,
  and extrapolates a full :class:`~repro.core.simulation.SimulationResult`
  with ``sampling.*`` confidence metadata.

Sampling trades a bounded, *measured* statistical error for a large
constant-factor speedup, which is what lets experiments push instruction
counts toward paper scale.  See docs/PERFORMANCE.md for the methodology
and when to trust sampled numbers.
"""

from repro.sampling.engine import SamplingConfig, run_sampled
from repro.sampling.prep import (
    clear_prep_caches,
    get_oracle,
    warm_from_snapshot,
)

__all__ = [
    "SamplingConfig",
    "run_sampled",
    "get_oracle",
    "warm_from_snapshot",
    "clear_prep_caches",
]
