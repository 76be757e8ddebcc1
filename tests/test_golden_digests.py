"""The golden digest table: every run mode's results, frozen.

``tests/golden_digests.json`` maps a case name to the digest of its
result in the e2e golden format, ``[cycles, committed, sha256 of the
sorted counters]``, so one entry pins every counter bit for bit.  The
cases cover each run mode at tier-1 cost:

* **full** — every paper config on gcc, mcf and gzip;
* **observed** — metrics sampling and event tracing on (their ``obs.*``
  summary counters are part of the digest; the profiler is left out
  because its counters are wall clock);
* **sampled** — interval sampling, warm and cold (``warm=False``);
* **checkpointed** — a durable checkpoint every 1000 instructions,
  plus a run killed after a checkpoint and resumed in this process;
* **cosim** — ``run_cosim`` groups, full detail and sampled, whose
  members must also equal the matching serial entries;
* **reexecute** — live-out recovery by selective re-execution.

A model change that moves a counter fails here.  When the move is
intended, re-bless the table and review its diff::

    PYTHONPATH=src python tests/test_golden_digests.py

The module imports no pytest (its cases are parametrized by
:func:`pytest_generate_tests`), so the table can be re-blessed and
diffed on any Python.
"""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import frontend_config, run_simulation
from repro.checkpoint import CHECKPOINT_DIR_ENV
from repro.config import ENV_KNOBS, PAPER_CONFIGS, ObservabilityConfig
from repro.faults import FAULTS_ENV
from repro.obs import Observability
from repro.perf.cosim import run_cosim
from repro.sampling import SamplingConfig

TABLE = Path(__file__).with_name("golden_digests.json")

LENGTH = 3000
SAMPLED_LENGTH = 12_000
SAMPLING = SamplingConfig(period=3, unit=500, warmup=500)
BENCHMARKS = ("gcc", "mcf", "gzip")
#: One config per front-end class: wide, trace cache, PF, PF + PR.
CLASS_CONFIGS = ("w16", "tc", "pf-2x8w", "pr-2x8w")


def digest(result):
    """A result in the e2e golden format."""
    text = json.dumps(sorted(result.counters.items()))
    return [result.cycles, result.committed,
            hashlib.sha256(text.encode()).hexdigest()]


def expected(case):
    """The committed digest of *case*."""
    return _table()[case]


@functools.lru_cache(maxsize=None)
def _table():
    return json.loads(TABLE.read_text())


def full(config, benchmark):
    """A full-detail run, the shape of the ``full/*`` entries."""
    return run_simulation(config, benchmark, max_instructions=LENGTH)


def _observed(config):
    obs = Observability(ObservabilityConfig(sample_interval=50, trace=True))
    return run_simulation(config, "gcc", max_instructions=LENGTH,
                          observability=obs)


def _sampled(config, warm):
    return run_simulation(config, "gcc", max_instructions=SAMPLED_LENGTH,
                          sampling=SAMPLING, warm=warm)


def checkpointed(config, benchmark):
    """A checkpointed run, the shape of the ``checkpointed/*`` entries."""
    return run_simulation(config, benchmark, max_instructions=LENGTH,
                          checkpoint_every=1000)


def _reexecute(config, benchmark):
    base = frontend_config(config)
    return run_simulation(
        base.replace(frontend=dataclasses.replace(
            base.frontend, liveout_recovery="reexecute")),
        benchmark, max_instructions=LENGTH,
        config_name=f"{config}/reexecute")


@functools.lru_cache(maxsize=None)
def _cosim(mode):
    specs = [(config, None) for config in CLASS_CONFIGS]
    if mode == "full":
        results, _ = run_cosim(specs, "mcf", max_instructions=LENGTH)
    else:
        results, _ = run_cosim(specs, "gcc", max_instructions=SAMPLED_LENGTH,
                               sampling=SAMPLING)
    return dict(zip(CLASS_CONFIGS, results))


def _cosim_member(mode, config):
    return _cosim(mode)[config]


#: Case name -> the run it digests.  ``cosim-*`` members equal the
#: serial entry named in :data:`COSIM_TWINS`.
CASES = {
    **{f"full/{c}/{b}": functools.partial(full, c, b)
       for c in PAPER_CONFIGS for b in BENCHMARKS},
    **{f"observed/{c}/gcc": functools.partial(_observed, c)
       for c in ("tc", "pr-2x8w")},
    **{f"sampled/{c}/gcc/{'warm' if warm else 'cold'}":
       functools.partial(_sampled, c, warm)
       for c in CLASS_CONFIGS for warm in (True, False)},
    **{f"checkpointed/{c}/{b}": functools.partial(checkpointed, c, b)
       for c, b in (("w16", "gcc"), ("w16", "gzip"), ("pr-4x4w", "gcc"))},
    **{f"cosim-{mode}/{c}/{b}": functools.partial(_cosim_member, mode, c)
       for mode, b in (("full", "mcf"), ("sampled", "gcc"))
       for c in CLASS_CONFIGS},
    **{f"reexecute/{c}/{b}": functools.partial(_reexecute, c, b)
       for c in ("pr-2x8w", "pr-4x4w") for b in ("gcc", "gzip")},
}

COSIM_TWINS = {
    **{f"cosim-full/{c}/mcf": f"full/{c}/mcf" for c in CLASS_CONFIGS},
    **{f"cosim-sampled/{c}/gcc": f"sampled/{c}/gcc/warm"
       for c in CLASS_CONFIGS},
}


def pytest_generate_tests(metafunc):
    """Parametrize ``case`` over the table its test checks."""
    if "case" in metafunc.fixturenames:
        cases = (COSIM_TWINS if metafunc.function is
                 test_cosim_member_equals_serial_run else CASES)
        metafunc.parametrize("case", sorted(cases))


def test_table_covers_every_case(hermetic_env):
    assert sorted(_table()) == sorted(CASES)


def test_digest_matches_table(hermetic_env, case):
    assert digest(CASES[case]()) == expected(case)


def test_cosim_member_equals_serial_run(hermetic_env, case):
    assert expected(case) == expected(COSIM_TWINS[case])


KILLED_RUN = ("import repro\n"
              "repro.run_simulation('w16', 'gzip', "
              f"max_instructions={LENGTH}, checkpoint_every=1000)")


def test_killed_and_resumed_run_matches_table(hermetic_env):
    """A run killed right after a durable checkpoint and resumed in
    this process ends exactly where the uninterrupted run does."""
    env = dict(os.environ, **{FAULTS_ENV: "kill_mid_unit attempts=*"})
    victim = subprocess.run([sys.executable, "-c", KILLED_RUN], env=env,
                            capture_output=True, text=True, timeout=300)
    assert victim.returncode == 23, victim.stderr
    assert list(Path(env[CHECKPOINT_DIR_ENV]).glob("*.ckpt")), \
        "the victim died before its first durable checkpoint"
    resumed = checkpointed("w16", "gzip")
    assert digest(resumed) == expected("checkpointed/w16/gzip")


def bless():
    """Recompute every case and rewrite the table."""
    with tempfile.TemporaryDirectory() as scratch:
        for name in ENV_KNOBS:
            if name != "REPRO_CACHE_DIR":
                os.environ.pop(name, None)
        os.environ[CHECKPOINT_DIR_ENV] = str(Path(scratch) / "ckpt")
        os.environ.setdefault("REPRO_CACHE_DIR", str(Path(scratch) / "cache"))
        table = {case: digest(CASES[case]()) for case in sorted(CASES)}
    TABLE.write_text("{\n" + ",\n".join(
        f"  {json.dumps(case)}: {json.dumps(entry)}"
        for case, entry in table.items()) + "\n}\n")
    print(f"wrote {len(table)} digests to {TABLE}")


if __name__ == "__main__":
    bless()
