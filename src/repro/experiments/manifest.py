"""Durable sweep manifests: crash-resumable ``repro sweep`` runs.

A sweep that dies mid-flight (crash, preemption, ``kill -9``) already
loses no *completed* work — finished jobs sit in the content-addressed
:class:`~repro.experiments.runner.ResultCache` — but it used to lose its
*description*: nothing on disk said which jobs the sweep comprised, so
"run it again" meant reconstructing the command line.  A manifest
persists exactly that: the job list (each :class:`SweepJob` serialized
field-for-field, :func:`job_to_wire` / :func:`job_from_wire`), the run
options, and a completed flag, written atomically under
``<cache dir>/sweeps/``.

``repro sweep --resume [SWEEP_ID]`` reloads the manifest (the most
recent incomplete one by default) and re-runs the sweep: completed jobs
are served from the result cache, and jobs that were in flight restart
— from their latest durable checkpoint when the sweep was launched with
``--checkpoint N`` (see :mod:`repro.checkpoint`), from zero otherwise.

Corrupt manifests (torn writes, or a job entry that fails validation)
are quarantined to ``*.json.corrupt`` and skipped, the same policy as
every other durable artifact here.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.runner import CACHE_DIR_ENV, DEFAULT_CACHE_DIR, SweepJob

#: Bump when the manifest format changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


class ManifestError(ReproError):
    """Raised for a missing or unusable sweep manifest."""


_SCALAR = (str, int, float, bool)


def job_to_wire(job: SweepJob) -> Dict[str, Any]:
    """Serialize one :class:`SweepJob` to its JSON form."""
    payload: Dict[str, Any] = {
        "config_name": job.config_name,
        "benchmark": job.benchmark,
        "length": job.length,
    }
    if job.total_l1_storage is not None:
        payload["total_l1_storage"] = job.total_l1_storage
    if job.predictor_entries is not None:
        payload["predictor_entries"] = job.predictor_entries
    if job.overrides:
        payload["overrides"] = [[path, value]
                                for path, value in job.overrides]
    if not job.warm:
        payload["warm"] = False
    if job.label is not None:
        payload["label"] = job.label
    if job.sampling is not None:
        payload["sampling"] = list(job.sampling)
    if job.checkpoint is not None:
        payload["checkpoint"] = job.checkpoint
    return payload


def _require(payload: Dict[str, Any], name: str, kinds) -> Any:
    value = payload.get(name)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ManifestError(
            f"job field {name!r} missing or mistyped: {value!r}")
    return value


def job_from_wire(payload: Any) -> SweepJob:
    """Deserialize and validate one job from its JSON form.

    A manifest is read back from disk, so it is outside input: raises
    :class:`ManifestError` on anything malformed rather than resuming a
    half-parsed job.
    """
    if not isinstance(payload, dict):
        raise ManifestError(
            f"job must be an object, got {type(payload).__name__}")
    unknown = set(payload) - {
        "config_name", "benchmark", "length", "total_l1_storage",
        "predictor_entries", "overrides", "warm", "label", "sampling",
        "checkpoint"}
    if unknown:
        raise ManifestError(f"unknown job field(s) {sorted(unknown)}")
    config_name = _require(payload, "config_name", str)
    benchmark = _require(payload, "benchmark", str)
    length = _require(payload, "length", int)
    if length <= 0:
        raise ManifestError(f"job length must be positive, got {length}")

    def optional_int(name: str) -> Optional[int]:
        value = payload.get(name)
        if value is None:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            raise ManifestError(f"job field {name!r} must be an int")
        return value

    overrides: List[Tuple[str, Any]] = []
    for entry in payload.get("overrides") or []:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], _SCALAR)):
            raise ManifestError(f"malformed override {entry!r} "
                                "(expected [dotted.path, scalar])")
        overrides.append((entry[0], entry[1]))

    sampling = payload.get("sampling")
    if sampling is not None:
        if (not isinstance(sampling, (list, tuple)) or len(sampling) != 3
                or not all(isinstance(n, int) and not isinstance(n, bool)
                           for n in sampling)):
            raise ManifestError(f"malformed sampling {sampling!r} "
                                "(expected [period, unit, warmup])")
        sampling = tuple(sampling)

    checkpoint = optional_int("checkpoint")
    if checkpoint is not None and checkpoint <= 0:
        raise ManifestError(
            f"job checkpoint interval must be positive, got {checkpoint}")

    warm = payload.get("warm", True)
    if not isinstance(warm, bool):
        raise ManifestError("job field 'warm' must be a boolean")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise ManifestError("job field 'label' must be a string")

    return SweepJob(
        config_name=config_name,
        benchmark=benchmark,
        length=length,
        total_l1_storage=optional_int("total_l1_storage"),
        predictor_entries=optional_int("predictor_entries"),
        overrides=tuple(overrides),
        warm=warm,
        label=label,
        sampling=sampling,
        checkpoint=checkpoint,
    )


def jobs_from_wire(payload: Any) -> List[SweepJob]:
    """Deserialize a job list (a lone job object counts as one job)."""
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ManifestError("a manifest needs a non-empty 'jobs' list")
    return [job_from_wire(entry) for entry in payload]


def jobs_to_wire(jobs: Sequence[SweepJob]) -> List[Dict[str, Any]]:
    """Serialize a job list."""
    return [job_to_wire(job) for job in jobs]


def manifest_dir() -> Path:
    """Where manifests live: ``<cache dir>/sweeps``."""
    root = Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)
    return root / "sweeps"


def sweep_id_for(jobs: Sequence[SweepJob]) -> str:
    """Content-addressed sweep identity: a digest over the job keys.

    Order-independent (the digest sorts), so the same matrix submitted
    in any order resumes the same manifest.
    """
    digest = hashlib.sha256(
        "|".join(sorted(job.cache_key() for job in jobs)).encode())
    return digest.hexdigest()[:12]


@dataclass
class SweepManifest:
    """One durable sweep description."""

    sweep_id: str
    jobs: List[SweepJob]
    options: Dict[str, Any] = field(default_factory=dict)
    created: float = 0.0
    completed: bool = False

    def path(self, directory: Optional[Path] = None) -> Path:
        """The manifest's file under *directory* (default manifest dir)."""
        return (directory or manifest_dir()) / f"{self.sweep_id}.json"


def _write(manifest: SweepManifest, directory: Optional[Path] = None) -> Path:
    """Atomically persist *manifest*; returns its path."""
    directory = directory or manifest_dir()
    payload = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "sweep_id": manifest.sweep_id,
        "created": manifest.created,
        "completed": manifest.completed,
        "options": manifest.options,
        "jobs": jobs_to_wire(manifest.jobs),
    }
    path = manifest.path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)
    return path


def write_manifest(jobs: Sequence[SweepJob],
                   options: Optional[Dict[str, Any]] = None,
                   directory: Optional[Path] = None) -> SweepManifest:
    """Persist a new (incomplete) manifest for *jobs* before running them.

    Re-launching the identical matrix reuses the same id and simply
    rewrites the manifest (still incomplete until :func:`mark_complete`).
    """
    manifest = SweepManifest(
        sweep_id=sweep_id_for(jobs),
        jobs=list(jobs),
        options=dict(options or {}),
        created=time.time(),
    )
    _write(manifest, directory)
    return manifest


def mark_complete(manifest: SweepManifest,
                  directory: Optional[Path] = None) -> None:
    """Flip *manifest* to completed and persist it."""
    manifest.completed = True
    _write(manifest, directory)


def _load_path(path: Path) -> SweepManifest:
    try:
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise ValueError(f"manifest schema {payload.get('schema')!r}")
        return SweepManifest(
            sweep_id=str(payload["sweep_id"]),
            jobs=jobs_from_wire(payload["jobs"]),
            options=dict(payload.get("options") or {}),
            created=float(payload.get("created") or 0.0),
            completed=bool(payload.get("completed")),
        )
    except Exception as exc:
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - concurrent quarantine
            pass
        raise ManifestError(f"corrupt sweep manifest {path.name}: {exc}")


def load_manifest(sweep_id: str,
                  directory: Optional[Path] = None) -> SweepManifest:
    """Load one manifest by id; raises :class:`ManifestError` if absent
    or corrupt (corrupt files are quarantined to ``*.json.corrupt``)."""
    path = (directory or manifest_dir()) / f"{sweep_id}.json"
    if not path.is_file():
        raise ManifestError(f"no sweep manifest {sweep_id!r} under "
                            f"{path.parent}")
    return _load_path(path)


def list_manifests(directory: Optional[Path] = None) -> List[SweepManifest]:
    """Every readable manifest, newest first (corrupt ones quarantined)."""
    directory = directory or manifest_dir()
    if not directory.is_dir():
        return []
    manifests = []
    for path in directory.glob("*.json"):
        try:
            manifests.append(_load_path(path))
        except ManifestError:
            continue
    manifests.sort(key=lambda m: m.created, reverse=True)
    return manifests


def latest_manifest(directory: Optional[Path] = None
                    ) -> Optional[SweepManifest]:
    """The most recent *incomplete* manifest, or None.

    This is what a bare ``repro sweep --resume`` picks up: the sweep
    that most recently started and never marked itself done.
    """
    for manifest in list_manifests(directory):
        if not manifest.completed:
            return manifest
    return None
