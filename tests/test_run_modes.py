"""Run modes refuse arguments they cannot honour.

``run_simulation`` drives a run in one of three modes: full detail,
sampled, or checkpointed.  An argument the chosen mode would ignore
raises :class:`~repro.errors.ConfigError` naming the argument and the
mode, instead of returning a result that silently lacks what the caller
asked for.
"""

import pytest

from repro.config import ObservabilityConfig
from repro.core.simulation import run_simulation
from repro.errors import ConfigError
from repro.obs import Observability
from repro.sampling import SamplingConfig

LENGTH = 4000

MODES = {
    "sampled": {"sampling": SamplingConfig(period=2, unit=500, warmup=500),
                "checkpoint_every": False},
    "checkpointed": {"sampling": False, "checkpoint_every": 1000},
}

#: Argument -> (keyword arguments that request it, name the error gives).
ARGUMENTS = {
    "uop_log": (lambda: {"uop_log": []}, "uop_log"),
    "invariant_checks": (lambda: {"invariant_checks": True},
                         "invariant_checks=True"),
    "metrics": (lambda: {"observability": Observability(
        ObservabilityConfig(sample_interval=50))}, "observability"),
    "profile": (lambda: {"observability": Observability(
        ObservabilityConfig(profile=True))}, "observability"),
    "trace": (lambda: {"observability": Observability(
        ObservabilityConfig(trace=True))}, "observability"),
}


@pytest.mark.parametrize("mode, argument", [
    ("sampled", "uop_log"),
    ("sampled", "invariant_checks"),
    ("sampled", "metrics"),
    ("checkpointed", "uop_log"),
    ("checkpointed", "invariant_checks"),
    ("checkpointed", "metrics"),
    ("checkpointed", "profile"),
    ("checkpointed", "trace"),
])
def test_ignored_argument_raises(monkeypatch, tmp_path, mode, argument):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    kwargs, named = ARGUMENTS[argument]
    with pytest.raises(ConfigError) as info:
        run_simulation("pr-2x8w", "gzip", max_instructions=LENGTH,
                       **MODES[mode], **kwargs())
    assert named in str(info.value)
    assert f"{mode} mode" in str(info.value)
