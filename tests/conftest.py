"""Test-suite wide fixtures.

The sweep runner's disk cache is redirected to a per-session temporary
directory so unit tests stay hermetic: they still exercise the real
cache read/write path, but never see (or leave behind) results from a
previous run of a possibly different simulator version.
"""

import pytest

from repro.checkpoint import CHECKPOINT_DIR_ENV
from repro.config import ENV_KNOBS


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("repro_cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(cache_dir))
        yield cache_dir


@pytest.fixture
def hermetic_env(monkeypatch, tmp_path):
    """No ``REPRO_*`` knob but the cache directory, and checkpoints in a
    fresh directory: for tests that compare against committed digests."""
    for name in ENV_KNOBS:
        if name != "REPRO_CACHE_DIR":
            monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path / "ckpt"))
