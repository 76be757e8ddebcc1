"""Boolean env knobs must all parse falsy strings the same way.

Historically each knob hand-rolled its own parse, and several used plain
truthiness — so ``REPRO_OBS_TRACE=0`` *enabled* tracing (to a file named
``"0"``) and ``REPRO_NO_CACHE=0`` *disabled* the disk cache.  Every
boolean knob now goes through :func:`repro.config.env_flag` and is
registered in :data:`repro.config.FLAG_ENV_KNOBS`; this module probes
each registered knob with every falsy spelling and asserts it actually
reads as disabled — and that the registry itself cannot silently drift
from the probe table.
"""

import pytest

from repro.config import (
    FALSY_ENV_VALUES,
    FLAG_ENV_KNOBS,
    LiveConfig,
    ObservabilityConfig,
    env_flag,
)


class TestEnvFlag:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLAG_UNDER_TEST", raising=False)
        assert env_flag("REPRO_FLAG_UNDER_TEST") is False
        assert env_flag("REPRO_FLAG_UNDER_TEST", default=True) is True

    def test_empty_and_whitespace_return_default(self, monkeypatch):
        for raw in ("", "   "):
            monkeypatch.setenv("REPRO_FLAG_UNDER_TEST", raw)
            assert env_flag("REPRO_FLAG_UNDER_TEST") is False
            assert env_flag("REPRO_FLAG_UNDER_TEST", default=True) is True

    @pytest.mark.parametrize("raw", FALSY_ENV_VALUES)
    def test_falsy_spellings_disable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FLAG_UNDER_TEST", raw)
        assert env_flag("REPRO_FLAG_UNDER_TEST") is False
        assert env_flag("REPRO_FLAG_UNDER_TEST", default=True) is False

    @pytest.mark.parametrize("raw", ("1", "true", "yes", "on", "ON",
                                     "  False  ", "FALSE", "No", "oFF"))
    def test_case_and_whitespace_insensitive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FLAG_UNDER_TEST", raw)
        expected = raw.strip().lower() not in FALSY_ENV_VALUES
        assert env_flag("REPRO_FLAG_UNDER_TEST") is expected

    def test_arbitrary_value_enables(self, monkeypatch):
        # Knobs like REPRO_OBS_TRACE=path.json use the value as payload.
        monkeypatch.setenv("REPRO_FLAG_UNDER_TEST", "trace.json")
        assert env_flag("REPRO_FLAG_UNDER_TEST") is True


# One probe per registered knob: returns True iff the knob currently
# reads as *enabled*.  Imports live inside the probes so this table can
# cover knobs from every layer without import-order games.

def _probe_sweep_group() -> bool:
    from repro.experiments.runner import default_group_streams
    return default_group_streams()


def _probe_no_cache() -> bool:
    # Inverted knob: REPRO_NO_CACHE enabled means caching is OFF.
    from repro.experiments.runner import ResultCache
    from repro.sampling.prep import _disk_enabled
    runner_side = not ResultCache(enabled=None).enabled
    prep_side = not _disk_enabled()
    assert runner_side == prep_side, \
        "runner and prep disagree on REPRO_NO_CACHE"
    return runner_side


def _probe_checkpoint() -> bool:
    from repro.checkpoint import resolve_checkpoint_every
    return resolve_checkpoint_every(None) is not None


def _probe_invariants() -> bool:
    from repro.core.invariants import InvariantChecker
    return InvariantChecker.from_env() is not None


def _probe_obs_trace() -> bool:
    config = ObservabilityConfig.from_env()
    assert config.trace_path != "0", \
        "falsy REPRO_OBS_TRACE must not become a trace file name"
    return config.trace


def _probe_obs_profile() -> bool:
    return ObservabilityConfig.from_env().profile


def _probe_live() -> bool:
    return LiveConfig.from_env() is not None


PROBES = {
    "REPRO_SWEEP_GROUP": _probe_sweep_group,
    "REPRO_NO_CACHE": _probe_no_cache,
    "REPRO_CHECKPOINT": _probe_checkpoint,
    "REPRO_INVARIANT_CHECKS": _probe_invariants,
    "REPRO_OBS_TRACE": _probe_obs_trace,
    "REPRO_OBS_PROFILE": _probe_obs_profile,
    "REPRO_LIVE": _probe_live,
}


class TestRegisteredKnobs:
    def test_registry_matches_probe_table(self):
        """A knob added to FLAG_ENV_KNOBS must get a probe here."""
        assert set(PROBES) == set(FLAG_ENV_KNOBS)

    @pytest.mark.parametrize("knob", FLAG_ENV_KNOBS)
    @pytest.mark.parametrize("raw", ("0", "false"))
    def test_falsy_value_disables_knob(self, monkeypatch, knob, raw):
        monkeypatch.setenv(knob, raw)
        assert PROBES[knob]() is False, \
            f"{knob}={raw!r} must read as disabled"

    @pytest.mark.parametrize("knob", FLAG_ENV_KNOBS)
    def test_truthy_value_enables_knob(self, monkeypatch, knob):
        monkeypatch.setenv(knob, "1")
        assert PROBES[knob]() is True, f"{knob}=1 must read as enabled"
