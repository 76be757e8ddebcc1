"""Self-test of the end-to-end benchmark on seconds-long workloads.

    pytest benchmarks/e2e

Every run goes through ``run.py --micro``: the same processes, entry
points, tracer and golden check as a real run, on one or two small
benchmarks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(*args: str, env: Dict[str, str] = None
              ) -> Tuple[List[str], Dict]:
    """``run.py --micro`` output: (text lines, the final JSON result)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--micro", "--seconds", "0",
         *args], stdout=subprocess.PIPE, text=True, check=True, env=env,
        timeout=120).stdout
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def info(lines: List[str], prefix: str) -> str:
    """The rest of the ``# <prefix>`` line."""
    return next(line[len(prefix) + 2:] for line in lines
                if line.startswith(f"# {prefix}"))


@pytest.fixture(scope="module")
def traced() -> Dict[str, Tuple[List[str], Dict]]:
    return {name: run_bench("--workload", name, "--seed", "0", "--trace", "1")
            for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_its_unit(traced, name):
    lines, result = traced[name]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        matches = [line.split() for line in lines
                   if line.startswith(f"{name} {metric['name']} ")]
        assert len(matches) == 1, metric["name"]
        float(matches[0][2])
        assert matches[0][3] == metric["unit"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {key: entry["unit"] for key, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_covers_the_traced_wall_time(traced, name):
    metrics = traced[name][1]["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_snapshot_training_counts(traced):
    ratio = {name: traced[name][1]["metrics"]["prep.snapshot_train_ratio"]
             ["value"] for name in WORKLOADS}
    # 15 warm digests per Fig. 9 stream group against a cache cap of 8.
    assert ratio["fig9-l1"] == 2.0
    assert ratio["paper-full"] == 1.0


def test_caller_knobs_do_not_leak_into_a_workload(traced):
    env = dict(os.environ, REPRO_FAST="2", REPRO_SAMPLE="4",
               REPRO_NO_CACHE="1")
    lines, result = run_bench("--workload", "gcc-detail", "--seed", "0",
                              env=env)
    assert info(lines, "child env:").split() == ["REPRO_CACHE_DIR"]
    assert info(lines, "results sha256") == info(
        traced["gcc-detail"][0], "results sha256")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"]


def test_perturbed_golden_digest_is_a_mismatch(tmp_path):
    subprocess.run([sys.executable, str(HERE / "run.py"), "--micro",
                    "--bless", "--workload", "gcc-detail", "--seed", "0",
                    "--golden-dir", str(tmp_path)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    (path,) = tmp_path.glob("*.json")
    golden = json.loads(path.read_text())
    job = sorted(golden["jobs"])[0]
    golden["jobs"][job][2] = "0" * 64
    path.write_text(json.dumps(golden))
    lines, result = run_bench("--workload", "gcc-detail", "--seed", "0",
                              "--golden-dir", str(tmp_path))
    assert "gcc-detail golden_mismatch 1 count" in lines
    assert not result["correct"]


def test_a_set_compared_with_itself_is_the_same(tmp_path):
    path = tmp_path / "set.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--micro",
                    "--seconds", "0", "--runs", "1", "--out", str(path)],
                   check=True, stdout=subprocess.DEVNULL, timeout=300)
    data = json.loads(path.read_text())
    assert [run["workload"] for run in data["runs"]] == WORKLOADS
    assert set(data["summary"]["gcc-detail"]) == {
        metric["name"] for metric in SPEC["end_to_end"]}
    rows = compare.compare(path, path)
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert {row["verdict"] for row in rows} == {"same"}


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0, 10.1, 10.2, 10.3] * 3, [8.0, 8.1, 8.2, 8.3] * 3, "lower",
     "gain"),
    ([10.0, 10.1, 10.2, 10.3] * 3, [13.0, 13.1, 13.2, 13.3] * 3, "lower",
     "regression"),
    ([5.0, 10.0, 15.0, 20.0] * 3, [6.0, 9.0, 16.0, 19.0] * 3, "lower",
     "unresolved"),
    ([10.0, 10.1, 10.2, 10.3] * 3, [10.1, 10.0, 10.3, 10.2] * 3, "higher",
     "same"),
    # Three wins of three pairs are too few to call a gain.
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "same"),
])
def test_comparison_rule(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.25)[0] == expected


def test_every_pool_seed_has_golden_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    assert workloads.SEED_POOL[0] == 0
    assert workloads.suite_seed(len(workloads.SEED_POOL)) == 0
    for seed in workloads.SEED_POOL:
        for name in WORKLOADS:
            assert (HERE / "golden" / f"{name}-seed{seed}.json").is_file()


def test_seed_changes_program_text_not_jobs(traced, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads
    from repro.workloads import suite
    from repro.workloads.generator import generate_program

    def texts() -> List[List[str]]:
        return [[repr(inst) for inst in generate_program(
            suite.get_spec(name)).instructions] for name in ("mcf", "gzip")]

    def jobs() -> Dict[str, List[str]]:
        return {name: [job.describe() for job in workload.jobs()]
                for name, workload in workloads.WORKLOADS.items()}

    before_text, before_jobs = texts(), jobs()
    monkeypatch.setattr(suite, "SUITE_SPECS", dict(suite.SUITE_SPECS))
    workloads.apply_seed(1)
    after_text = texts()
    assert all(a != b for a, b in zip(before_text, after_text))
    assert jobs() == before_jobs

    lines, result = run_bench("--workload", "gcc-detail", "--seed", "1")
    seed0 = traced["gcc-detail"][0]
    assert info(lines, "jobs sha256") == info(seed0, "jobs sha256")
    assert info(lines, "results sha256") != info(seed0, "results sha256")
    assert "# golden check skipped" in "\n".join(lines)
    assert result["correct"]
