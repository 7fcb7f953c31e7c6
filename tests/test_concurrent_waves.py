"""Insertion probe waves sent concurrently through the chat-completion oracle."""

from __future__ import annotations

import json
import sys

import pytest

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    CostLedger,
    Crawler,
    CrawlConfig,
    OracleContext,
    QueryLog,
    cli,
    llm_backend,
)
from ontocrawl.crawler import load_checkpoint
from ontocrawl.errors import CrawlAbortedError
from support import TaxonomyTransport, c2_taxonomy

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
    taxonomies = [goats, *map(c2_taxonomy, range(20))]
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


@pytest.mark.parametrize("max_in_flight", [1, 2, 3])
def test_requests_in_flight_never_exceed_the_bound(goats, tmp_path, max_in_flight):
    transport = TaxonomyTransport(goats, latency_s=0.005)
    crawler = llm_crawler(goats, tmp_path, transport, max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    if max_in_flight == 1:
        assert transport.peak == 1
    else:
        # Overlapping subcategory questions are the probes of one insertion
        # wave, or the last questions of a listing's warmed dialogues.
        assert transport.peak_by_template["verify_subcat"] > 1


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
    assert created == ([] if max_in_flight == 1 else [max_in_flight - 1])


def test_a_failed_probe_in_a_wave_aborts_resumably(tmp_path):
    taxonomy = c2_taxonomy(0)
    reference = llm_crawler(taxonomy, tmp_path / "ref", TaxonomyTransport(taxonomy), 4)
    reference.run()
    wave = next(b for b in reference.oracle.batches if len(b) > 1)
    d, c = wave[1]

    asked = 0

    def fail(name, b):
        # Refuse the first asking of one probe of that wave for good.
        nonlocal asked
        if name == "verify_subcat" and (b["D"], b["C"]) == (d, c):
            asked += 1
            return asked == 1
        return False

    out = tmp_path / "out"
    transport = TaxonomyTransport(taxonomy, fail=fail)
    crawler = llm_crawler(taxonomy, out, transport, 4)
    with pytest.raises(CrawlAbortedError):
        crawler.run()
    assert asked == 1
    assert crawler.oracle.batches[-1] == wave

    resumed = llm_crawler(
        taxonomy, out, transport, 4, data=load_checkpoint(out / "checkpoint.json")
    )
    resumed.run()
    assert asked == 2
    assert resumed.hierarchy.to_json_dict() == reference.hierarchy.to_json_dict()
