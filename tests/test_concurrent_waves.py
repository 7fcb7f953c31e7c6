"""Insertion probe waves sent concurrently through the chat-completion oracle."""

from __future__ import annotations

import json
import random
import sys
import threading
import time

import daggen
import pytest

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    CostLedger,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    OracleContext,
    QueryLog,
    cli,
    llm_backend,
)
from ontocrawl.crawler import load_checkpoint
from ontocrawl.errors import CrawlAbortedError, TransportError
from support import TaxonomyTransport

PROBE = " typically understood as a subcategory of "
OUTPUT_FILES = (
    "hierarchy.owl",
    "hierarchy.dot",
    "stats.json",
    "stats.txt",
    "checkpoint.json",
    "rejected.jsonl",
)


class BatchRecordingOracle(ChatCompletionOracle):
    """Remembers the (d, c) pairs of every ``are_subcategories`` batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: list[list[tuple[str, str]]] = []

    def are_subcategories(self, questions):
        self.batches.append([(d, c) for _ctx, d, c in questions])
        return super().are_subcategories(questions)


def c2_taxonomies(count: int) -> list[GroundTruthTaxonomy]:
    """The first ``count`` random DAGs of acceptance criterion 2."""
    out = []
    for i in range(count):
        rng = random.Random(9000 + i)
        n = rng.randint(10, 50)
        edges = daggen.random_dag(rng, n, max_outdegree=5)
        out.append(GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges)))
    return out


def llm_crawler(taxonomy, out_dir, transport, max_in_flight, *, query_log=None, data=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle = BatchRecordingOracle(
        transport,
        params=CompletionParams(),
        query_log=query_log,
        ledger=CostLedger(),
        max_in_flight=max_in_flight,
    )
    files = {
        "query_log": query_log,
        "checkpoint_path": out_dir / "checkpoint.json",
        "rejection_path": out_dir / "rejected.jsonl",
    }
    if data is not None:
        crawler = Crawler.from_checkpoint(data, oracle, **files)
        oracle.ledger = crawler.ledger
        return crawler
    config = CrawlConfig(seed_name=taxonomy.root, ft=5, n_samples=5)
    return Crawler(config, oracle, ledger=oracle.ledger, **files)


def crawl_to_files(taxonomy, out_dir, max_in_flight) -> Crawler:
    query_log = QueryLog(out_dir / "queries.jsonl")
    try:
        crawler = llm_crawler(
            taxonomy, out_dir, TaxonomyTransport(taxonomy), max_in_flight,
            query_log=query_log,
        )
        crawler.run()
    finally:
        query_log.close()
    cli._write_outputs(crawler, out_dir)
    return crawler


def sorted_records(path) -> list[str]:
    """Query-log lines without their wall-clock latency, in sorted order."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rec.pop("latency_ms", None)
        out.append(json.dumps(rec, sort_keys=True))
    return sorted(out)


def test_concurrent_waves_write_the_outputs_of_a_sequential_crawl(goats, tmp_path):
    taxonomies = [goats, *c2_taxonomies(20)]
    for i, taxonomy in enumerate(taxonomies):
        wide = crawl_to_files(taxonomy, tmp_path / f"wide{i}", max_in_flight=4)
        crawl_to_files(taxonomy, tmp_path / f"narrow{i}", max_in_flight=1)
        assert any(len(b) > 1 for b in wide.oracle.batches)
        for name in OUTPUT_FILES:
            wide_bytes = (tmp_path / f"wide{i}" / name).read_bytes()
            assert wide_bytes == (tmp_path / f"narrow{i}" / name).read_bytes(), name
        assert sorted_records(tmp_path / f"wide{i}" / "queries.jsonl") == sorted_records(
            tmp_path / f"narrow{i}" / "queries.jsonl"
        )


class GaugedTransport(TaxonomyTransport):
    """Sleeps on every request and keeps the peak number in flight, overall
    and among insertion-shaped subcategory questions."""

    def __init__(self, taxonomy, latency_s: float):
        super().__init__(taxonomy)
        self.latency_s = latency_s
        self.in_flight = self.probes_in_flight = 0
        self.peak = self.probe_peak = 0
        self._gauge = threading.Lock()

    def send(self, body: dict) -> dict:
        probe = PROBE in body["messages"][0]["content"]
        with self._gauge:
            self.in_flight += 1
            self.probes_in_flight += probe
            self.peak = max(self.peak, self.in_flight)
            self.probe_peak = max(self.probe_peak, self.probes_in_flight)
        try:
            time.sleep(self.latency_s)
            return super().send(body)
        finally:
            with self._gauge:
                self.in_flight -= 1
                self.probes_in_flight -= probe


@pytest.mark.parametrize("max_in_flight", [1, 2, 3])
def test_requests_in_flight_never_exceed_the_bound(goats, tmp_path, max_in_flight):
    transport = GaugedTransport(goats, latency_s=0.005)
    crawler = llm_crawler(goats, tmp_path, transport, max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    if max_in_flight == 1:
        assert transport.peak == 1
    else:
        # Verification asks one subcategory question at a time, so overlapping
        # ones are the probes of one insertion wave.
        assert transport.probe_peak > 1


def test_a_wide_batch_loses_no_answer_or_count(goats):
    """More senders than cores, switching threads as often as possible."""
    names = sorted({goats.root, *(name for edge in goats.edges for name in edge)})
    ctx = OracleContext(seed_name=goats.root)
    questions = [(ctx, d, c) for d in names for c in names if d != c]
    sequential = ChatCompletionOracle(TaxonomyTransport(goats), max_in_flight=1)
    want = [sequential.is_subcategory_of(*q) for q in questions]

    transport, log = TaxonomyTransport(goats), QueryLog()
    oracle = ChatCompletionOracle(
        transport, query_log=log, ledger=CostLedger(), max_in_flight=8
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = oracle.are_subcategories(questions)
    finally:
        sys.setswitchinterval(interval)
    assert got == want and any(want)
    n = len(questions)
    assert transport.requests == oracle.ledger.requests == len(log.records) == n
    assert len({rec["prompt"] for rec in log.records}) == n


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_one_pool_per_oracle_over_a_whole_crawl(goats, tmp_path, monkeypatch, max_in_flight):
    created = []

    class CountedPool(llm_backend.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(llm_backend, "ThreadPoolExecutor", CountedPool)
    crawler = llm_crawler(goats, tmp_path, TaxonomyTransport(goats), max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert created == ([] if max_in_flight == 1 else [max_in_flight])


class FailingTransport(TaxonomyTransport):
    """Refuses the first prompt containing ``fragment`` for good, and counts
    how often such a prompt was asked."""

    def __init__(self, taxonomy, fragment: str):
        super().__init__(taxonomy)
        self.fragment = fragment
        self.asked = 0

    def send(self, body: dict) -> dict:
        if self.fragment in body["messages"][0]["content"]:
            with self._lock:
                first = not self.asked
                self.asked += 1
            if first:
                raise TransportError("HTTP 400", status=400, retryable=False)
        return super().send(body)


def test_a_failed_probe_in_a_wave_aborts_resumably(tmp_path):
    taxonomy = c2_taxonomies(1)[0]
    reference = llm_crawler(taxonomy, tmp_path / "ref", TaxonomyTransport(taxonomy), 4)
    reference.run()
    wave = next(b for b in reference.oracle.batches if len(b) > 1)
    d, c = wave[1]

    out = tmp_path / "out"
    transport = FailingTransport(taxonomy, f"Is {d}{PROBE}{c}?")
    crawler = llm_crawler(taxonomy, out, transport, 4)
    with pytest.raises(CrawlAbortedError):
        crawler.run()
    assert transport.asked == 1
    assert crawler.oracle.batches[-1] == wave

    resumed = llm_crawler(
        taxonomy, out, transport, 4, data=load_checkpoint(out / "checkpoint.json")
    )
    resumed.run()
    assert transport.asked == 2
    assert resumed.hierarchy.to_json_dict() == reference.hierarchy.to_json_dict()
