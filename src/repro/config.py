"""Simulator configuration.

Defaults reproduce Table 1 of the paper:

* 16-wide fetch/decode/commit, 256-entry instruction window;
* 16 int adders, 4 int multipliers, 4 FP adders, 1 FP multiplier,
  4 load/store units;
* 64 KB 2-way L1 caches (64-byte blocks, 1-cycle), 1 MB 4-way L2
  (10-cycle), 100-cycle memory;
* DOLC next-trace predictor with a 64K-entry primary and 16K-entry
  secondary table, D=9 O=4 L=7 C=9;
* 16 fragment buffers of 16 instructions, 2-way 4K-entry live-out
  predictor.

Named front-end configurations (``w16``, ``tc``, ``tc2x``, ``pf-2x8w``,
``pf-4x4w``, ``pr-2x8w``, ``pr-4x4w``) are constructed by
:func:`frontend_config`.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

KB = 1024


def _positive(name: str, value: int) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}")


def _power_of_two(name: str, value: int) -> None:
    _positive(name, value)
    if value & (value - 1):
        raise ConfigError(f"{name} must be a power of two, got {value}")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int
    banks: int = 1

    def __post_init__(self) -> None:
        _power_of_two("cache size", self.size_bytes)
        _positive("associativity", self.assoc)
        _power_of_two("line size", self.line_bytes)
        _positive("latency", self.latency)
        _power_of_two("banks", self.banks)
        if self.size_bytes < self.line_bytes * self.assoc:
            raise ConfigError("cache smaller than one set")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, line size and associativity."""
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class MemoryConfig:
    """The full memory hierarchy (Table 1)."""

    l1i: CacheConfig = CacheConfig(64 * KB, 2, 64, 1, banks=16)
    l1d: CacheConfig = CacheConfig(64 * KB, 2, 64, 1)
    l2: CacheConfig = CacheConfig(1024 * KB, 4, 128, 10)
    memory_latency: int = 100

    def __post_init__(self) -> None:
        _positive("memory latency", self.memory_latency)


@dataclass(frozen=True)
class TracePredictorConfig:
    """Path-based next-trace predictor (Jacobson/Rotenberg/Smith DOLC)."""

    primary_entries: int = 64 * 1024
    secondary_entries: int = 16 * 1024
    #: DOLC parameters: history Depth, bits from Older ids, bits from the
    #: Last id, bits from the Current id.
    depth: int = 9
    older_bits: int = 4
    last_bits: int = 7
    current_bits: int = 9

    def __post_init__(self) -> None:
        _power_of_two("primary predictor entries", self.primary_entries)
        _power_of_two("secondary predictor entries", self.secondary_entries)
        for name in ("depth", "older_bits", "last_bits", "current_bits"):
            _positive(name, getattr(self, name))

    def scaled(self, primary_entries: int) -> "TracePredictorConfig":
        """A copy with a different primary table size; the secondary table
        is kept at one quarter of the primary, as in Figure 10."""
        return dataclasses.replace(
            self, primary_entries=primary_entries,
            secondary_entries=max(1, primary_entries // 4))


@dataclass(frozen=True)
class LiveOutPredictorConfig:
    """Live-out predictor for parallel renaming (Section 4.1)."""

    entries: int = 4096
    assoc: int = 2
    tag_bits: int = 4

    def __post_init__(self) -> None:
        _power_of_two("live-out predictor entries", self.entries)
        _positive("live-out predictor associativity", self.assoc)
        _positive("live-out predictor tag bits", self.tag_bits)


@dataclass(frozen=True)
class FragmentConfig:
    """Fragment/trace selection heuristics (Section 3.1).

    Fragments terminate at indirect branches, at any conditional branch
    after ``cond_branch_limit`` instructions, or at ``max_length``
    instructions.
    """

    max_length: int = 16
    cond_branch_limit: int = 8

    def __post_init__(self) -> None:
        _positive("max fragment length", self.max_length)
        _positive("conditional branch limit", self.cond_branch_limit)
        if self.cond_branch_limit > self.max_length:
            raise ConfigError("cond_branch_limit cannot exceed max_length")


@dataclass(frozen=True)
class TraceCacheConfig:
    """Trace cache geometry (mechanism TC in the paper)."""

    size_bytes: int = 32 * KB
    assoc: int = 2
    max_trace_length: int = 16
    #: Bytes of storage one trace line occupies (16 insts x 4 B).
    line_bytes: int = 64

    def __post_init__(self) -> None:
        _power_of_two("trace cache size", self.size_bytes)
        _positive("trace cache associativity", self.assoc)
        _positive("max trace length", self.max_trace_length)

    @property
    def num_sets(self) -> int:
        """Number of sets implied by entry count and associativity."""
        return self.size_bytes // (self.line_bytes * self.assoc)


#: Recognised fetch mechanisms.
FETCH_KINDS = ("w16", "tc", "pf")
#: Recognised rename mechanisms.  ``parallel`` is the paper's proposed
#: scheme (solution 2: live-out prediction); ``delay`` is the paper's
#: solution 1 (Multiscalar-style: consumers wait until the producing
#: fragment's mappings become available, no prediction).
RENAME_KINDS = ("monolithic", "parallel", "delay")


@dataclass(frozen=True)
class FrontEndConfig:
    """Which fetch and rename mechanisms to build, and their widths."""

    fetch_kind: str = "w16"
    rename_kind: str = "monolithic"
    #: Aggregate front-end width (instructions/cycle) for fetch and rename.
    width: int = 16
    #: Parallel fetch: number of sequencers (width is split evenly).
    sequencers: int = 1
    #: Parallel rename: number of renamers (width is split evenly).
    renamers: int = 1
    num_fragment_buffers: int = 16
    fragment_buffer_size: int = 16
    trace_cache: Optional[TraceCacheConfig] = None
    #: Live-out misprediction recovery policy (Section 4.3): ``squash``
    #: discards all younger fragments' renames (the paper's default);
    #: ``reexecute`` selectively repairs and re-executes only the
    #: incorrectly renamed instructions (the paper's costlier alternative).
    liveout_recovery: str = "squash"

    def __post_init__(self) -> None:
        if self.fetch_kind not in FETCH_KINDS:
            raise ConfigError(f"unknown fetch kind {self.fetch_kind!r}")
        if self.rename_kind not in RENAME_KINDS:
            raise ConfigError(f"unknown rename kind {self.rename_kind!r}")
        if self.liveout_recovery not in ("squash", "reexecute"):
            raise ConfigError(
                f"unknown live-out recovery {self.liveout_recovery!r}")
        _positive("front-end width", self.width)
        _positive("sequencers", self.sequencers)
        _positive("renamers", self.renamers)
        _positive("fragment buffers", self.num_fragment_buffers)
        _positive("fragment buffer size", self.fragment_buffer_size)
        if self.width % self.sequencers:
            raise ConfigError("width must divide evenly among sequencers")
        if self.width % self.renamers:
            raise ConfigError("width must divide evenly among renamers")
        if self.fetch_kind == "tc" and self.trace_cache is None:
            raise ConfigError("trace-cache fetch requires a TraceCacheConfig")

    @property
    def sequencer_width(self) -> int:
        """Fetch width of each individual sequencer."""
        return self.width // self.sequencers

    @property
    def renamer_width(self) -> int:
        """Rename width of each individual rename unit."""
        return self.width // self.renamers


#: Execution latencies per functional-unit class.
DEFAULT_FU_LATENCIES: Dict[str, int] = {
    "ialu": 1,
    "imul": 3,
    "idiv": 12,
    "fadd": 2,
    "fmul": 4,
    "load": 1,   # address generation; cache latency is added on top
    "store": 1,
    "branch": 1,
}

#: Functional-unit counts from Table 1.  Branches and int ALU ops share
#: the integer adders; loads and stores share the load/store units.
DEFAULT_FU_COUNTS: Dict[str, int] = {
    "ialu": 16,
    "imul": 4,
    "idiv": 4,   # divides share the multiplier ports
    "fadd": 4,
    "fmul": 1,
    "mem": 4,
}


@dataclass(frozen=True)
class BackEndConfig:
    """Out-of-order execution core (Table 1)."""

    window_size: int = 256
    commit_width: int = 16
    issue_width: int = 16
    fu_counts: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_FU_COUNTS))
    fu_latencies: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_FU_LATENCIES))
    #: Extra pipeline stages between rename and execute (dispatch depth);
    #: contributes to the branch misprediction penalty.
    dispatch_latency: int = 2

    def __post_init__(self) -> None:
        _positive("window size", self.window_size)
        _positive("commit width", self.commit_width)
        _positive("issue width", self.issue_width)
        if self.dispatch_latency < 0:
            raise ConfigError("dispatch latency cannot be negative")


#: Spellings of an environment value that mean "off".  Shared by every
#: boolean knob via :func:`env_flag` so ``REPRO_FOO=0`` can never mean
#: "on" again (the ``REPRO_SAMPLE=0`` crash class fixed in PR 9, and the
#: ``bool("0")`` bugs this registry's test guards against).
FALSY_ENV_VALUES: Tuple[str, ...] = ("0", "false", "no", "off")


def env_flag(name: str, default: bool = False) -> bool:
    """Parse the boolean environment knob *name*.

    Unset or blank yields *default*.  ``0``/``false``/``no``/``off``
    (any case, surrounding whitespace ignored) yield ``False``; any
    other value yields ``True``.  Every on/off ``REPRO_*`` knob must go
    through this helper — ``bool(os.environ.get(...))`` treats the
    string ``"0"`` as true.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    text = raw.strip().lower()
    if not text:
        return default
    return text not in FALSY_ENV_VALUES


def env_int(name: str, default: int) -> int:
    """Parse the integer environment knob *name*.

    Unset or blank yields *default*; a value ``int()`` rejects raises
    :class:`ConfigError` naming the variable, so a typo in a numeric
    knob reads as a configuration error rather than a traceback.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}") from None


#: Environment knobs for :class:`ObservabilityConfig.from_env`.
OBS_SAMPLE_ENV = "REPRO_OBS_SAMPLE"
OBS_TRACE_ENV = "REPRO_OBS_TRACE"
OBS_PROFILE_ENV = "REPRO_OBS_PROFILE"

#: Environment knobs for :class:`LiveConfig.from_env` (live telemetry).
LIVE_ENV = "REPRO_LIVE"
LIVE_PATH_ENV = "REPRO_LIVE_PATH"
LIVE_EVERY_ENV = "REPRO_LIVE_EVERY"

#: Every ``REPRO_*`` environment knob the simulator understands, with a
#: one-line summary.  This registry is the source of truth the
#: documentation-drift test checks README/EXPERIMENTS/docs against: a
#: knob documented but absent here (or vice versa) fails the build.
ENV_KNOBS: Dict[str, str] = {
    "REPRO_SIM_INSTRUCTIONS": "dynamic instruction budget per simulation",
    "REPRO_SWEEP_INSTRUCTIONS": "instruction budget for sweep jobs",
    "REPRO_EXPERIMENT_BENCHMARKS": "benchmark subset for experiments",
    "REPRO_SWEEP_WORKERS": "sweep runner worker processes",
    "REPRO_SWEEP_GROUP": "group stream-sharing sweep jobs per worker and "
                         "co-simulate them (0 = scatter, serial)",
    "REPRO_SWEEP_RETRIES": "sweep job retry attempts",
    "REPRO_SWEEP_BACKOFF": "base delay between sweep job retries",
    "REPRO_JOB_TIMEOUT": "per-job wall-clock timeout in sweeps",
    "REPRO_CACHE_DIR": "persistent sweep result-cache directory",
    "REPRO_CACHE_BUDGET": "result-cache size budget (bytes or K/M/G)",
    "REPRO_CACHE_TMP_TTL": "age gate for reaping orphaned cache tmp files",
    "REPRO_NO_CACHE": "disable the sweep result cache",
    "REPRO_WATCHDOG_CYCLES": "pipeline forward-progress watchdog window",
    "REPRO_INVARIANT_CHECKS": "per-cycle pipeline state audits",
    "REPRO_FAULTS": "deterministic fault-injection plan",
    "REPRO_OBS_SAMPLE": "metrics sampling interval in cycles",
    "REPRO_OBS_TRACE": "pipeline event trace (path or 1)",
    "REPRO_OBS_PROFILE": "per-phase wall-clock profiling",
    "REPRO_SAMPLE": "interval-sampling period (0/unset = full detail)",
    "REPRO_SAMPLE_UNIT": "instructions per sampling unit",
    "REPRO_SAMPLE_WARMUP": "detailed warm-up instructions per sample",
    "REPRO_CHECKPOINT": "durable checkpoint interval in instructions",
    "REPRO_CHECKPOINT_DIR": "checkpoint directory override",
    "REPRO_CHECKPOINT_KEEP": "checkpoints retained per run",
    "REPRO_LIVE": "live telemetry publisher (1 = on)",
    "REPRO_LIVE_PATH": "live telemetry status-file path override",
    "REPRO_LIVE_EVERY": "live telemetry snapshot cadence in cycles",
}

#: The subset of :data:`ENV_KNOBS` with on/off semantics.  Every name
#: here is parsed through :func:`env_flag` (or a falsy-aware equivalent),
#: so the spellings in :data:`FALSY_ENV_VALUES` disable the feature
#: exactly like unsetting the variable.  The registry-driven test
#: (``tests/test_env_flags.py``) probes each entry both ways; new
#: boolean knobs must be added here to inherit that coverage.
FLAG_ENV_KNOBS: Tuple[str, ...] = (
    "REPRO_SWEEP_GROUP",
    "REPRO_NO_CACHE",
    "REPRO_CHECKPOINT",
    "REPRO_INVARIANT_CHECKS",
    "REPRO_OBS_TRACE",
    "REPRO_OBS_PROFILE",
    "REPRO_LIVE",
)


@dataclass(frozen=True)
class ObservabilityConfig:
    """Opt-in observability for one simulation (:mod:`repro.obs`).

    Deliberately *not* part of :class:`ProcessorConfig`: observability
    never changes simulated behaviour, so it must not perturb result
    identity or the sweep runner's content-addressed cache keys.
    Everything defaults to off; the default path costs nothing.
    """

    #: Sample gauges every N cycles into ring-buffered time series
    #: (0 disables the metrics recorder).
    sample_interval: int = 0
    #: Samples retained per time series (older samples are evicted but
    #: stay in the running min/mean/max/histogram summaries).
    ring_capacity: int = 4096
    #: Record pipeline lifecycle events for Chrome/Perfetto export.
    trace: bool = False
    #: Drop events beyond this count (counted in ``obs.trace.dropped``).
    trace_limit: int = 200_000
    #: Write the exported trace here when the simulation finishes
    #: (implies ``trace``); how ``REPRO_OBS_TRACE=t.json repro run ...``
    #: works without touching the CLI.
    trace_path: Optional[str] = None
    #: Attribute simulator wall-clock to pipeline phases.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.sample_interval < 0:
            raise ConfigError("sample interval cannot be negative")
        _positive("ring capacity", self.ring_capacity)
        _positive("trace event limit", self.trace_limit)
        if self.trace_path and not self.trace:
            object.__setattr__(self, "trace", True)

    @property
    def enabled(self) -> bool:
        """Whether any observability pillar is switched on."""
        return bool(self.sample_interval or self.trace or self.profile)

    @classmethod
    def from_env(cls) -> "ObservabilityConfig":
        """Build from ``REPRO_OBS_*`` (all unset means disabled).

        ``REPRO_OBS_TRACE`` doubles as a path: falsy spellings disable
        tracing, truthy spellings (``1``/``true``/…) enable it without
        an export path, and anything else is the export destination.
        """
        trace_value = os.environ.get(OBS_TRACE_ENV, "").strip()
        trace = env_flag(OBS_TRACE_ENV)
        truthy = trace_value.lower() in ("1", "true", "yes", "on")
        return cls(
            sample_interval=env_int(OBS_SAMPLE_ENV, 0),
            trace=trace,
            trace_path=trace_value if (trace and not truthy) else None,
            profile=env_flag(OBS_PROFILE_ENV),
        )


@dataclass(frozen=True)
class LiveConfig:
    """Live telemetry publisher settings (:mod:`repro.obs.live`).

    Like :class:`ObservabilityConfig`, this deliberately lives *outside*
    :class:`ProcessorConfig`: publishing read-only snapshots of a running
    simulation must never perturb result identity or cache keys.  The
    snapshot cadence is expressed in simulated cycles so the telemetry
    *content* is deterministic for a given run, even though emitting it
    is pure I/O with no effect on the simulation.
    """

    #: Status-file destination; ``None`` derives a per-process default
    #: under ``.repro_live/`` (see :func:`repro.obs.live.default_path`).
    path: Optional[str] = None
    #: Publish a snapshot every N simulated cycles.
    every: int = 1000
    #: Snapshot lines retained in the status file (NDJSON ring).
    history: int = 240

    def __post_init__(self) -> None:
        _positive("live publish cadence", self.every)
        _positive("live history depth", self.history)

    @classmethod
    def from_env(cls) -> Optional["LiveConfig"]:
        """Build from ``REPRO_LIVE*``; ``None`` unless switched on.

        ``REPRO_LIVE=1`` enables publishing to the default path;
        ``REPRO_LIVE_PATH`` both enables and overrides the destination.
        """
        enabled = env_flag(LIVE_ENV)
        path = os.environ.get(LIVE_PATH_ENV) or None
        if not enabled and not path:
            return None
        return cls(path=path, every=env_int(LIVE_EVERY_ENV, 0) or 1000)


@dataclass(frozen=True)
class ProcessorConfig:
    """Everything needed to build one simulated processor."""

    frontend: FrontEndConfig = FrontEndConfig()
    backend: BackEndConfig = BackEndConfig()
    memory: MemoryConfig = MemoryConfig()
    trace_predictor: TracePredictorConfig = TracePredictorConfig()
    liveout_predictor: LiveOutPredictorConfig = LiveOutPredictorConfig()
    fragment: FragmentConfig = FragmentConfig()

    def replace(self, **kwargs) -> "ProcessorConfig":
        """Functional update (thin wrapper over dataclasses.replace)."""
        return dataclasses.replace(self, **kwargs)


def frontend_config(name: str,
                    total_l1_storage: Optional[int] = None) -> ProcessorConfig:
    """Build the named front-end configuration from the paper.

    Args:
        name: one of ``w16``, ``tc``, ``tc2x``, ``pf-2x8w``, ``pf-4x4w``,
            ``pr-2x8w``, ``pr-4x4w``, ``tc+pr-2x8w``, ``tc+pr-4x4w``.
        total_l1_storage: total L1 *instruction* storage in bytes.  For
            ``tc*`` configurations this is split equally between the
            instruction cache and the trace cache, as in Section 5.
            Defaults to 64 KB (128 KB for ``tc2x``).

    Returns:
        A complete :class:`ProcessorConfig`.
    """
    key = name.lower()
    default_storage = 128 * KB if key == "tc2x" else 64 * KB
    storage = total_l1_storage or default_storage
    _power_of_two("total L1 instruction storage", storage)

    base = ProcessorConfig()

    def with_l1i(size: int, banks: int) -> MemoryConfig:
        l1i = dataclasses.replace(base.memory.l1i, size_bytes=size,
                                  banks=banks)
        return dataclasses.replace(base.memory, l1i=l1i)

    if key == "w16":
        return base.replace(
            frontend=FrontEndConfig(fetch_kind="w16"),
            memory=with_l1i(storage, 1))
    if key in ("tc", "tc2x") or key.startswith("tc+pr"):
        icache = storage // 2
        tcache = TraceCacheConfig(size_bytes=storage // 2)
        rename_kind = "parallel" if "+pr" in key else "monolithic"
        renamers = 1
        if rename_kind == "parallel":
            renamers = 2 if key.endswith("2x8w") else 4
        return base.replace(
            frontend=FrontEndConfig(fetch_kind="tc", trace_cache=tcache,
                                    rename_kind=rename_kind,
                                    renamers=renamers),
            memory=with_l1i(icache, 1))
    if key.startswith(("pf", "pr", "pd")):
        if key.endswith("2x8w"):
            sequencers = 2
        elif key.endswith("4x4w"):
            sequencers = 4
        else:
            raise ConfigError(f"unknown parallel configuration {name!r}")
        rename_kind = {"pf": "monolithic", "pr": "parallel",
                       "pd": "delay"}[key[:2]]
        return base.replace(
            frontend=FrontEndConfig(fetch_kind="pf", rename_kind=rename_kind,
                                    sequencers=sequencers,
                                    renamers=sequencers),
            memory=with_l1i(storage, 16))
    raise ConfigError(f"unknown front-end configuration {name!r}")


#: The named configurations evaluated in the paper, in presentation order.
PAPER_CONFIGS: Tuple[str, ...] = (
    "w16", "tc", "tc2x", "pf-2x8w", "pf-4x4w", "pr-2x8w", "pr-4x4w",
)
