"""Self-tests of the pipeline benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every test drives ``perfbench/run.py`` as a subprocess at ``--size
tiny``, exactly as a benchmark harness would.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import manifest  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _tiny(workload, *extra, seed=3, trace=0):
    return _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    )


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _notes(proc):
    notes = {}
    for line in proc.stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            notes[key] = value
    return notes


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(manifest.WORKLOADS))
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _tiny(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    out = _result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] >= 1
    declared = manifest.END_TO_END if trace == 0 else manifest.PER_LAYER
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        name: unit for name, unit, *_ in declared
    }
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())
    else:
        assert out["metrics"]["trace.coverage"]["value"] >= 0.9


@pytest.mark.parametrize("workload", ["paper", "durable"])
def test_a_dropped_match_fails_the_run(workload):
    proc = _tiny(workload, "--drop-match", "0")
    assert proc.returncode != 0
    out = _result(proc)
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert float(_notes(proc)["failed_ratio"]) > 0


@pytest.mark.parametrize("workload", ["paper", "durable"])
def test_same_seed_gives_the_same_oracle_digest(workload):
    first = _notes(_tiny(workload, seed=5))["oracle_digest"]
    second = _notes(_tiny(workload, seed=5))["oracle_digest"]
    other = _notes(_tiny(workload, seed=6))["oracle_digest"]
    assert first == second
    assert first != other


def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest.manifest()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(
        "--workload", "paper", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
