"""Deterministic fault injection for exercising recovery paths.

The robustness layer (fault-tolerant sweep runner, cache quarantine,
pipeline watchdog) is only trustworthy if every recovery path is
exercised regularly, so this module provides *deterministic, seeded*
injection points that tests and the CI smoke job flip on:

* ``worker_exception`` — the job raises :class:`InjectedFault` instead of
  simulating (exercises retry / structured-failure handling);
* ``worker_crash`` — the worker process dies with ``os._exit`` mid-job
  (exercises crash detection and retry rounds);
* ``slow_job`` — the job sleeps before simulating (exercises per-job
  wall-clock timeouts);
* ``truncated_write`` — :class:`~repro.experiments.runner.ResultCache`
  writes only a prefix of the entry (exercises corrupt-entry quarantine);
* ``checkpoint_corrupt`` — :class:`~repro.checkpoint.CheckpointManager`
  persists only a prefix of a snapshot (exercises checkpoint quarantine
  and fall-back to the previous snapshot);
* ``kill_mid_unit`` — the process dies with ``os._exit`` immediately
  after durably storing its Nth checkpoint (exercises kill-and-resume;
  ``attempts`` selects checkpoint ordinals here).

Faults are configured through the ``REPRO_FAULTS`` environment variable
so they propagate to sweep worker processes without any shared state.
The spec is a semicolon-separated list of directives::

    REPRO_FAULTS="worker_exception match=gzip attempts=0; slow_job seconds=0.5 attempts=*"

Each directive is a fault kind followed by ``key=value`` options:

``match``
    Substring of the job description (:meth:`SweepJob.describe`) the
    fault applies to.  Empty (default) matches every job.
``attempts``
    Comma-separated attempt numbers to fail (default ``0``: only the
    first attempt, so a retry succeeds), or ``*`` for every attempt.
    Attempt numbers are passed in by the runner, which makes the
    behaviour deterministic across processes — no hidden counters.
``rate`` / ``seed``
    Probabilistic gate: the fault fires only for the fraction ``rate``
    of matching jobs, selected by hashing ``(seed, kind, description)``.
    Fully deterministic and stable across processes and runs.
``seconds``
    ``slow_job`` sleep duration (default 1.0).
``keep``
    ``truncated_write`` / ``checkpoint_corrupt`` fraction of the payload
    kept (default 0.5).

Everything here is inert unless ``REPRO_FAULTS`` is set (or a plan is
installed programmatically via :func:`install`), so production sweeps
pay a single cached environment lookup per job.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.errors import ReproError

FAULTS_ENV = "REPRO_FAULTS"

KNOWN_KINDS = frozenset({
    "worker_exception", "worker_crash", "slow_job", "truncated_write",
    "checkpoint_corrupt", "kill_mid_unit",
})


class InjectedFault(ReproError):
    """An artificial failure raised by an active fault plan."""


class FaultSpecError(ReproError):
    """Raised for an unparseable ``REPRO_FAULTS`` directive."""


def _seeded_gate(seed: int, kind: str, description: str, rate: float) -> bool:
    """Deterministically select ``rate`` of the (kind, description) space."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.sha256(
        f"{seed}|{kind}|{description}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return fraction < rate


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive."""

    kind: str
    match: str = ""
    #: Attempt numbers the fault fires on; ``None`` means every attempt.
    attempts: Optional[FrozenSet[int]] = frozenset({0})
    seconds: float = 1.0
    rate: float = 1.0
    seed: int = 0
    keep: float = 0.5

    def applies(self, description: str, attempt: Optional[int] = None) -> bool:
        """Whether this spec fires for *description* on *attempt*."""
        if self.match and self.match not in description:
            return False
        if (attempt is not None and self.attempts is not None
                and attempt not in self.attempts):
            return False
        return _seeded_gate(self.seed, self.kind, description, self.rate)


@dataclass
class FaultPlan:
    """The set of active fault directives."""

    specs: List[FaultSpec] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` directive string into a plan."""
        specs: List[FaultSpec] = []
        for directive in text.split(";"):
            directive = directive.strip()
            if not directive:
                continue
            tokens = directive.split()
            kind = tokens[0]
            if kind not in KNOWN_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} "
                    f"(known: {', '.join(sorted(KNOWN_KINDS))})")
            options = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise FaultSpecError(
                        f"malformed option {token!r} in {directive!r}")
                key, value = token.split("=", 1)
                options[key] = value
            specs.append(cls._build_spec(kind, options, directive))
        return cls(specs)

    @staticmethod
    def _build_spec(kind: str, options: dict, directive: str) -> FaultSpec:
        known = {"match", "attempts", "seconds", "rate", "seed", "keep"}
        unknown = set(options) - known
        if unknown:
            raise FaultSpecError(
                f"unknown option(s) {sorted(unknown)} in {directive!r}")
        attempts: Optional[FrozenSet[int]] = frozenset({0})
        if "attempts" in options:
            raw = options["attempts"]
            attempts = None if raw == "*" else frozenset(
                int(n) for n in raw.split(",") if n != "")
        try:
            return FaultSpec(
                kind=kind,
                match=options.get("match", ""),
                attempts=attempts,
                seconds=float(options.get("seconds", 1.0)),
                rate=float(options.get("rate", 1.0)),
                seed=int(options.get("seed", 0)),
                keep=float(options.get("keep", 0.5)),
            )
        except ValueError as exc:
            raise FaultSpecError(f"bad option value in {directive!r}: {exc}")

    # -- injection points --------------------------------------------------

    def on_execute(self, description: str, attempt: int) -> None:
        """Fire execution-side faults for a job attempt (worker or inline)."""
        for spec in self.specs:
            if not spec.applies(description, attempt):
                continue
            if spec.kind == "slow_job":
                time.sleep(spec.seconds)
            elif spec.kind == "worker_exception":
                raise InjectedFault(
                    f"injected worker exception for {description!r} "
                    f"(attempt {attempt})")
            elif spec.kind == "worker_crash":
                # Hard process death: no exception, no cleanup — exactly
                # what a segfaulting or OOM-killed worker looks like.
                os._exit(23)

    def on_cache_write(self, description: str, text: str) -> str:
        """Possibly mutate a cache entry's serialized payload."""
        for spec in self.specs:
            if spec.kind == "truncated_write" and spec.applies(description):
                return text[:max(1, int(len(text) * spec.keep))]
        return text

    def on_checkpoint_write(self, description: str, data: bytes) -> bytes:
        """Possibly mutate a checkpoint snapshot's pickled payload."""
        for spec in self.specs:
            if (spec.kind == "checkpoint_corrupt"
                    and spec.applies(description)):
                return data[:max(1, int(len(data) * spec.keep))]
        return data

    def on_checkpoint_stored(self, description: str, ordinal: int) -> None:
        """Fire post-store faults after checkpoint *ordinal* is durable.

        ``kill_mid_unit`` reuses the ``attempts`` selector as checkpoint
        ordinals (the absolute store count for this run), so a resumed
        run — whose next stores carry higher ordinals — does not
        re-trigger the same kill.
        """
        for spec in self.specs:
            if (spec.kind == "kill_mid_unit"
                    and spec.applies(description, ordinal)):
                # Same hard death as worker_crash: the snapshot just
                # written is durable, nothing else gets flushed.
                os._exit(23)


#: Parsed-plan cache keyed by the raw env value (workers inherit the env).
_cached: tuple = ("", None)


def active_plan() -> Optional[FaultPlan]:
    """The plan configured via ``REPRO_FAULTS``, or None when inert."""
    global _cached
    text = os.environ.get(FAULTS_ENV, "")
    if text != _cached[0]:
        _cached = (text, FaultPlan.parse(text) if text.strip() else None)
    return _cached[1]


def install(spec: str) -> FaultPlan:
    """Install *spec* process-wide (and for future worker processes)."""
    plan = FaultPlan.parse(spec)  # validate before exporting
    os.environ[FAULTS_ENV] = spec
    return plan


def uninstall() -> None:
    """Remove any installed fault plan."""
    os.environ.pop(FAULTS_ENV, None)


def corrupt_entry(cache, job) -> Optional[os.PathLike]:
    """Overwrite *job*'s cache entry with garbage; returns its path.

    Test/CI helper for the quarantine path: the next
    :meth:`ResultCache.load` of this key must quarantine the file and
    report a miss.  Returns None when no entry exists.
    """
    path = cache._path(job.cache_key())
    if not path.is_file():
        return None
    path.write_text("{corrupt json" + path.read_text()[:32])
    return path
