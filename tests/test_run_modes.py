"""The mode × argument matrix of ``run_cosim``, which runs every mode.

``run_simulation`` drives a run in one of three modes: full detail,
sampled, or checkpointed; ``run_cosim`` drives the same modes over a
group of configs.  An argument works the same way in every mode that
can honour it, and one a mode (or a group) would ignore raises
:class:`~repro.errors.ConfigError` naming the argument and the mode,
before any oracle preparation, instead of returning a result that
silently lacks what the caller asked for.

``run_cosim`` runs with the cyclic garbage collector paused, which is
safe because a run in any mode leaves no reference cycle behind: the
acyclic-run matrix below pins that on both cycle loops.
"""

import dataclasses
import gc
from collections import Counter

import pytest

from repro import frontend_config
from repro.__main__ import main
from repro.config import PAPER_CONFIGS, LiveConfig, ObservabilityConfig
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
    "REPRO_LIVE_EVERY=fast", "REPRO_WATCHDOG_CYCLES=abc",
    "REPRO_SIM_INSTRUCTIONS=lots", "REPRO_SIM_INSTRUCTIONS=0"])
def test_malformed_numeric_knob_is_config_error(monkeypatch, capsys,
                                                setting):
    variable, value = setting.split("=")
    monkeypatch.setenv(variable, value)
    if variable in READ_ONLY_WHEN:
        monkeypatch.setenv(*READ_ONLY_WHEN[variable])
    forbid_oracle_prep(monkeypatch)
    # The run length knob is only read when no length is given.
    given = variable != "REPRO_SIM_INSTRUCTIONS"
    with pytest.raises(ConfigError, match=variable):
        run_simulation("w16", "gzip", LENGTH if given else None)
    assert main(["run", "w16", "gzip"]
                + (["-n", str(LENGTH)] if given else [])) == 2
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


ACYCLIC_BENCH = "mcf"


def reexecute(name):
    """Paper config *name* with selective re-execution recovery."""
    config = frontend_config(name)
    return config.replace(frontend=dataclasses.replace(
        config.frontend, liveout_recovery="reexecute"))


def acyclic_run(config="pr-2x8w", **kwargs):
    return run_simulation(config, ACYCLIC_BENCH, max_instructions=LENGTH,
                          **kwargs)


#: Run case -> a call running it (given a scratch directory).  The
#: results assert the squash paths really ran.
ACYCLIC_RUNS = {
    "full-w16": lambda tmp: acyclic_run("w16"),
    "full-tc": lambda tmp: acyclic_run("tc"),
    "full-pf-2x8w": lambda tmp: acyclic_run("pf-2x8w"),
    "full-pr-2x8w-squash": lambda tmp: acyclic_run(),
    "full-pr-2x8w-reexecute": lambda tmp: acyclic_run(
        reexecute("pr-2x8w")),
    "sampled-warm": lambda tmp: acyclic_run(**MODES["sampled"]),
    "sampled-cold": lambda tmp: acyclic_run(**MODES["sampled"],
                                            warm=False),
    "checkpointed": lambda tmp: acyclic_run(**MODES["checkpointed"]),
    "sampled-checkpointed": lambda tmp: acyclic_run(
        sampling=MODES["sampled"]["sampling"], checkpoint_every=1000),
    "group-full": lambda tmp: run_cosim(
        [("w16", None), ("pr-2x8w", None)], ACYCLIC_BENCH,
        max_instructions=LENGTH)[0][-1],
    "group-sampled": lambda tmp: run_cosim(
        [("w16", None), ("pr-2x8w", None)], ACYCLIC_BENCH,
        max_instructions=LENGTH, **MODES["sampled"])[0][-1],
    # Trains the shared warm structures and fills the shared walk memos
    # inside the measured run.
    "group-sampled-paper": lambda tmp: (prep.clear_prep_caches(), run_cosim(
        [(name, None) for name in PAPER_CONFIGS], ACYCLIC_BENCH,
        max_instructions=LENGTH, **MODES["sampled"]))[1][0][-1],
    "metrics": lambda tmp: acyclic_run(**ARGUMENTS["metrics"][0]()),
    "trace": lambda tmp: acyclic_run(**ARGUMENTS["trace"][0]()),
    "profile": lambda tmp: acyclic_run(**ARGUMENTS["profile"][0]()),
    "live": lambda tmp: acyclic_run(live=LiveConfig(
        path=str(tmp / "live.ndjson"), every=100)),
    "uop-log": lambda tmp: acyclic_run(uop_log=[]),
    "invariant-checks": lambda tmp: acyclic_run(invariant_checks=True),
    "max-cycles": lambda tmp: acyclic_run(max_cycles=500),
}


def unreachable_after(run):
    """What *run* leaves unreachable, by type, with the collector off
    (so nothing is collected before it is counted)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        result = run()
        gc.collect()
        return result, Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("case", list(ACYCLIC_RUNS))
def test_run_leaves_no_reference_cycle(tmp_path, case):
    """Squashed and in-flight micro-ops are unlinked where they die and
    the processor holds no bound method of its own, so reference
    counting frees a whole run — the invariant that lets ``run_cosim``
    pause the cyclic collector."""
    run = ACYCLIC_RUNS[case]
    run(tmp_path)  # prepares the stream and the warm snapshots
    result, unreachable = unreachable_after(lambda: run(tmp_path))
    assert unreachable == Counter()
    if case.endswith("squash"):
        assert result.counter("rename.liveout_squashes") > 0
    elif case.endswith("reexecute"):
        assert result.counter("rename.liveout_reexec_events") > 0
    elif case == "max-cycles":
        assert result.counter("sim.timeout") == 1
    else:
        assert result.counter("frontend.fragments_squashed") > 0


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_collector_state_is_restored(enabled):
    """The driver pauses the collector for the run and leaves the
    caller's state behind it, also when the run raises in between."""
    group = [("w16", None), ("pr-2x8w", None)]
    seen = []

    def failing_hook(ui, processors):
        seen.append(gc.isenabled())
        raise RuntimeError("unit hook failed")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for mode in ("full", "sampled"):
            run(mode)
            assert gc.isenabled() is enabled
            run_cosim(group, "gzip", max_instructions=LENGTH, **MODES[mode])
            assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="unit hook failed"):
            run_cosim(group, "gzip", max_instructions=LENGTH,
                      unit_hook=failing_hook, **MODES["sampled"])
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
