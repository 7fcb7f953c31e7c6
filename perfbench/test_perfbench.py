"""Smoke tests for the crawl benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ontocrawl import crawler  # noqa: E402

TINY = {"cli-io": 30, "mock-large": 40, "live-shaped": 30}


@pytest.fixture(autouse=True)
def no_latency(monkeypatch):
    monkeypatch.setattr(workloads, "LIVE_LATENCY_S", 0.0)


def tiny_fixture(tmp_path: Path, workload: str, seed: int = 3) -> tuple[Path, dict]:
    path = tmp_path / "fixture.json"
    inputs.write_fixture(path, seed, TINY[workload], annotate=inputs.WORKLOAD_INPUTS[workload][1])
    return path, json.loads(path.read_text(encoding="utf-8"))


def crawl_outcome(tmp_path: Path, workload: str) -> tuple[dict, dict]:
    path, fixture = tiny_fixture(tmp_path, workload)
    w = workloads.WORKLOADS[workload](path, tmp_path / "out", seed=3)
    w.setup()
    return w.outcome(w.crawl(None)), fixture


def drop_an_edge(outcome: dict) -> dict:
    h = outcome["hierarchy"]
    child, parent = h.direct_edges()[-1]
    h._drop_edge(child, parent)
    return outcome


SPECIFIC_DEFECTS = {
    "cli-io": lambda o: {**o, "files": [f for f in o["files"] if f != "stats.txt"]},
    "mock-large": lambda o: {**o, "rejected_names": [*o["rejected_names"], "Concept 001"]},
    "live-shaped": lambda o: {**o, "aborts": [*o["aborts"], "a second abort"]},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_checks_pass_on_a_clean_crawl_and_fail_on_a_dropped_edge(tmp_path, workload):
    outcome, fixture = crawl_outcome(tmp_path, workload)
    assert workloads.check(workload, outcome, fixture) == []
    assert workloads.check(workload, SPECIFIC_DEFECTS[workload](outcome), fixture)

    failures = workloads.check(workload, drop_an_edge(outcome), fixture)
    assert any("ground-truth reduction" in f for f in failures)
    assert any("verify_integrity" in f for f in failures)


def test_live_shaped_aborts_once_and_resumes(tmp_path):
    outcome, _ = crawl_outcome(tmp_path, "live-shaped")
    assert len(outcome["aborts"]) == 1
    assert outcome["concepts"] == TINY["live-shaped"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_iteration_reports_every_per_layer_metric(tmp_path, workload):
    path, _ = tiny_fixture(tmp_path, workload)
    tracer = tracing.Tracer()
    original_verify = crawler.verify
    try:
        result = workloads.run_iteration(workload, path, tmp_path / "out", 3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert crawler.verify is original_verify
    assert result["ok"], result["failures"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]}
    added_by_run = {"trace.crawl_s", "trace.overhead_ratio"}
    assert set(result["per_layer"]) | added_by_run == names
    layer = result["per_layer"]
    assert layer["crawler.step.calls"] >= TINY[workload]
    assert layer["insertion.probes"] > 0
    assert 0 < layer["insertion.probe_ratio"] < 1
    if workload == "live-shaped":
        assert layer["llm_backend.transport.failed"] == 1
        assert layer["crawler.resume.load_s"] > 0


def test_inputs_follow_the_seed(tmp_path):
    a = inputs.write_fixture(tmp_path / "a.json", 7, 50, annotate=True)
    b = inputs.write_fixture(tmp_path / "b.json", 7, 50, annotate=True)
    c = inputs.write_fixture(tmp_path / "c.json", 8, 50, annotate=True)
    assert a == b
    assert a["fixture_sha256"] != c["fixture_sha256"]


def test_generated_edges_are_transitively_reduced():
    import random

    edges = inputs.random_dag(random.Random(5), 300)
    assert inputs.reduce_edges(edges) == set(edges)
    assert {c for c, _ in edges} == set(range(1, 300))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-io", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
