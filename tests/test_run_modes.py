"""The mode × argument matrix of ``run_cosim``, which runs every mode.

``run_simulation`` drives a run in one of three modes: full detail,
sampled, or checkpointed; ``run_cosim`` drives the same modes over a
group of configs.  An argument works the same way in every mode that
can honour it, and one a mode (or a group) would ignore raises
:class:`~repro.errors.ConfigError` naming the argument and the mode,
before any oracle preparation, instead of returning a result that
silently lacks what the caller asked for.
"""

import pytest

from repro.__main__ import main
from repro.config import LiveConfig, ObservabilityConfig
from repro.core.invariants import InvariantChecker
from repro.core.simulation import run_simulation
from repro.errors import ConfigError
from repro.obs import LiveTelemetry, Observability
from repro.perf.cosim import run_cosim
from repro.sampling import SamplingConfig, prep

LENGTH = 4000

MODES = {
    "full": {"sampling": False, "checkpoint_every": False},
    "sampled": {"sampling": SamplingConfig(period=2, unit=500, warmup=500),
                "checkpoint_every": False},
    "checkpointed": {"sampling": False, "checkpoint_every": 1000},
}

#: Argument -> (keyword arguments that request it, name the error gives).
ARGUMENTS = {
    "uop_log": (lambda: {"uop_log": []}, "uop_log"),
    "metrics": (lambda: {"observability": Observability(
        ObservabilityConfig(sample_interval=50))}, "observability"),
    "profile": (lambda: {"observability": Observability(
        ObservabilityConfig(profile=True))}, "observability"),
    "trace": (lambda: {"observability": Observability(
        ObservabilityConfig(trace=True))}, "observability"),
}

OBS_ENV = ("REPRO_OBS_SAMPLE", "REPRO_OBS_TRACE", "REPRO_OBS_PROFILE")

#: Numeric knob -> the setting without which it is never read.
READ_ONLY_WHEN = {
    "REPRO_SAMPLE_UNIT": ("REPRO_SAMPLE", "2"),
    "REPRO_SAMPLE_WARMUP": ("REPRO_SAMPLE", "2"),
    "REPRO_LIVE_EVERY": ("REPRO_LIVE", "1"),
}


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch, tmp_path):
    for name in OBS_ENV + ("REPRO_INVARIANT_CHECKS", "REPRO_SAMPLE",
                           "REPRO_CHECKPOINT", "REPRO_LIVE",
                           "REPRO_LIVE_PATH", "REPRO_LIVE_EVERY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))


def forbid_oracle_prep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("prepared an oracle before checking")
    monkeypatch.setattr(prep, "get_oracle", refuse)


def run(mode, **kwargs):
    return run_simulation("pr-2x8w", "gzip", max_instructions=LENGTH,
                          **MODES[mode], **kwargs)


def identity(result):
    return (result.cycles, result.committed, dict(result.counters))


def count_audits(monkeypatch):
    """A callable returning the audits run so far (each one past the
    checker's interval gate)."""
    calls = []
    original = InvariantChecker._audit_fragment_order

    def counted(self, processor):
        calls.append(processor.now)
        original(self, processor)
    monkeypatch.setattr(InvariantChecker, "_audit_fragment_order", counted)
    return lambda: len(calls)


@pytest.mark.parametrize("mode, argument", [
    ("sampled", "uop_log"),
    ("sampled", "metrics"),
    ("checkpointed", "uop_log"),
    ("checkpointed", "metrics"),
    ("checkpointed", "profile"),
    ("checkpointed", "trace"),
])
def test_ignored_argument_raises(monkeypatch, mode, argument):
    forbid_oracle_prep(monkeypatch)
    kwargs, named = ARGUMENTS[argument]
    with pytest.raises(ConfigError) as info:
        run(mode, **kwargs())
    assert named in str(info.value)
    assert f"{mode} mode" in str(info.value)


@pytest.mark.parametrize("mode, variable", [
    ("sampled", "REPRO_OBS_SAMPLE"),
    ("checkpointed", "REPRO_OBS_SAMPLE"),
    ("checkpointed", "REPRO_OBS_TRACE"),
    ("checkpointed", "REPRO_OBS_PROFILE"),
])
def test_ignored_environment_observability_raises(monkeypatch, mode,
                                                  variable):
    monkeypatch.setenv(variable, "50" if variable.endswith("SAMPLE")
                       else "1")
    forbid_oracle_prep(monkeypatch)
    with pytest.raises(ConfigError) as info:
        run(mode)
    assert variable in str(info.value)
    assert f"{mode} mode" in str(info.value)


@pytest.mark.parametrize("mode", list(MODES))
def test_invariant_checks_parity(monkeypatch, mode):
    """The audits only read state: on or off, every mode gives the same
    result, and ``invariant_checks=True`` audits in each of them."""
    audits = count_audits(monkeypatch)
    plain = run(mode, invariant_checks=False)
    assert audits() == 0
    checked = run(mode, invariant_checks=True)
    assert audits() > 0
    assert identity(checked) == identity(plain)


def test_explicit_false_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_INVARIANT_CHECKS", "1")
    audits = count_audits(monkeypatch)
    for mode in MODES:
        before = audits()
        run(mode, invariant_checks=False)
        assert audits() == before, mode
        run(mode)
        assert audits() > before, mode


def test_max_cycles_bounds_every_mode():
    """A segment that hits the bound times the run out: the one
    segment in full detail, the first interval when checkpointing, and
    every window segment when sampling."""
    results = {mode: run(mode, max_cycles=5) for mode in MODES}
    for mode, result in results.items():
        assert result.counter("sim.timeout") == 1, mode
    assert results["sampled"].counter("sampling.window_timeouts") > 0


@pytest.mark.parametrize("setting", [
    "REPRO_SAMPLE=abc", "REPRO_SAMPLE_UNIT=1k", "REPRO_SAMPLE_WARMUP=x",
    "REPRO_LIVE_EVERY=fast"])
def test_malformed_numeric_knob_is_config_error(monkeypatch, capsys,
                                                setting):
    variable, value = setting.split("=")
    monkeypatch.setenv(variable, value)
    if variable in READ_ONLY_WHEN:
        monkeypatch.setenv(*READ_ONLY_WHEN[variable])
    forbid_oracle_prep(monkeypatch)
    with pytest.raises(ConfigError, match=variable):
        run_simulation("w16", "gzip", max_instructions=LENGTH)
    assert main(["run", "w16", "gzip", "-n", str(LENGTH)]) == 2
    assert variable in capsys.readouterr().err


@pytest.mark.parametrize("argument", [
    "checkpoint_every", "observability", "uop_log", "live"])
def test_group_rejects_per_run_argument(monkeypatch, tmp_path, argument):
    """A group shares its schedule, not objects that belong to one run."""
    kwargs = {
        "checkpoint_every": lambda: {"checkpoint_every": 1000},
        "observability": lambda: {"observability": Observability(
            ObservabilityConfig(profile=True))},
        "uop_log": lambda: {"uop_log": []},
        "live": lambda: {"live": LiveTelemetry(
            LiveConfig(path=str(tmp_path / "live.ndjson")))},
    }[argument]()
    forbid_oracle_prep(monkeypatch)
    with pytest.raises(ConfigError, match="co-sim group of 2"):
        run_cosim([("w16", None), ("tc", None)], "gzip",
                  max_instructions=LENGTH, **kwargs)
