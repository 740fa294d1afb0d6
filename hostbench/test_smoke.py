"""Smoke tests of the host benchmark at tiny input sizes.

Run from the root of a checkout::

    python3 -m pytest hostbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hostbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = next(json.loads(line[7:]) for line in lines if line.startswith("REPORT "))
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    _report, result = tiny(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["serve_bulk", "churn"])
def test_model_clock_counters_repeat_for_a_seed(workload):
    first, _ = tiny(workload, 5, 0)
    second, _ = tiny(workload, 5, 0)
    assert first["model"] and first["model"] == second["model"]


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "serve_bulk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _span(tracer, span_id, name, parent, start, end, detached=False):
    span = layers.Span(span_id, name, name, parent, 0, "steady", detached)
    span.start, span.end = start, end
    tracer.spans.append(span)
    return span


def test_self_time_subtracts_nested_but_not_detached_spans():
    tracer = layers.Tracer()
    _span(tracer, 1, "serve", None, 0.0, 10.0)
    _span(tracer, 2, "walk", 1, 1.0, 7.0)
    _span(tracer, 3, "freeze", 2, 2.0, 5.0)
    _span(tracer, 4, "roundtrip", 1, 3.0, 9.0, detached=True)
    assert layers.self_times(tracer.spans) == {1: 4.0, 2: 3.0, 3: 3.0, 4: 6.0}
    folded = dict(line.rsplit(" ", 1) for line in layers.folded_stacks(tracer.spans))
    assert folded == {
        "steady;serve": "4000000000",
        "steady;serve;walk": "3000000000",
        "steady;serve;walk;freeze": "3000000000",
        "steady;serve;[detached];roundtrip": "6000000000",
    }


def test_uninstall_restores_every_wrapped_callable():
    from repro.iplookup.trie import UnibitTrie
    from repro.serve import service

    before = (UnibitTrie.walk_batch, UnibitTrie.__init__, service.validate_batch)
    tracer = layers.Tracer()
    tracer.install()
    assert UnibitTrie.walk_batch is not before[0]
    assert service.validate_batch is not before[2]
    tracer.uninstall()
    assert (UnibitTrie.walk_batch, UnibitTrie.__init__, service.validate_batch) == before
