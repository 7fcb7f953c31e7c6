"""Insertion probe waves sent concurrently through the chat-completion oracle."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from ontocrawl import (
    ChatCompletionOracle,
    OracleContext,
    QueryLog,
    llm_backend,
)
from ontocrawl import crawler as crawler_mod
from ontocrawl.cli import OUTPUT_FILES
from ontocrawl.crawler import load_checkpoint
from ontocrawl.errors import CrawlAbortedError
from support import (
    FIXTURE_NAMES,
    TaxonomyTransport,
    llm_crawler,
    recording_rounds,
    taxonomy_of,
)


def sorted_records(path) -> list[str]:
    """Query-log lines without their wall-clock latency, in sorted order."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        rec.pop("latency_ms", None)
        out.append(json.dumps(rec, sort_keys=True))
    return sorted(out)


def test_concurrent_waves_write_the_outputs_of_a_sequential_crawl(crawls):
    for fixture in FIXTURE_NAMES:
        wide = crawls.llm(fixture, max_in_flight=4, files=True)
        narrow = crawls.llm(fixture, max_in_flight=1, files=True)
        assert any(size > 1 for size in wide.batch_sizes)
        for name in OUTPUT_FILES:
            read = sorted_records if name == "queries.jsonl" else Path.read_bytes
            assert read(wide.out_dir / name) == read(narrow.out_dir / name), name


@pytest.mark.parametrize("max_in_flight", [1, 2, 3])
def test_requests_in_flight_never_exceed_the_bound(goats, tmp_path, max_in_flight):
    transport = TaxonomyTransport(goats, latency_s=0.005)
    crawler = llm_crawler(transport, goats.root, max_in_flight=max_in_flight, out_dir=tmp_path)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    if max_in_flight == 1:
        assert transport.peak == 1
    else:
        # Overlapping subcategory questions are the probes of one insertion
        # wave, or the last questions of a listing's warmed dialogues.
        assert transport.peak_by_template["verify_subcat"] > 1


def test_the_probes_of_a_round_go_out_together(goats, monkeypatch):
    """Without warm passes, overlapping subcategory questions can only be
    the probes of one insertion round, sent through ``map``."""
    monkeypatch.setattr(crawler_mod, "verify_ahead", lambda *args: None)
    transport = TaxonomyTransport(goats, latency_s=0.005)
    crawler = llm_crawler(transport, goats.root, max_in_flight=4)
    with recording_rounds() as rounds:
        crawler.run()
    assert len(crawler.hierarchy) == 14
    assert any(len(batch) > 1 for batch in rounds)
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
        transport, query_log=log, max_in_flight=8
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # What ``insertion`` sends for one round of probes.
        got = oracle.map(lambda q: oracle.is_subcategory_of(*q), questions)
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
    crawler = llm_crawler(
        TaxonomyTransport(goats), goats.root, max_in_flight=max_in_flight, out_dir=tmp_path
    )
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert created == ([] if max_in_flight == 1 else [max_in_flight - 1])


def test_a_failed_probe_in_a_wave_aborts_resumably(tmp_path):
    taxonomy = taxonomy_of("c2-00")
    reference = llm_crawler(
        TaxonomyTransport(taxonomy), taxonomy.root, max_in_flight=4, out_dir=tmp_path / "ref"
    )
    with recording_rounds() as rounds:
        reference.run()
    wave = next(b for b in rounds if len(b) > 1)
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
    crawler = llm_crawler(transport, taxonomy.root, max_in_flight=4, out_dir=out)
    with recording_rounds() as rounds, pytest.raises(CrawlAbortedError):
        crawler.run()
    assert asked == 1
    assert rounds[-1] == wave

    resumed = llm_crawler(
        transport,
        taxonomy.root,
        max_in_flight=4,
        out_dir=out,
        data=load_checkpoint(out / "checkpoint.json"),
    )
    resumed.run()
    assert asked == 2
    assert resumed.hierarchy.to_json_dict() == reference.hierarchy.to_json_dict()
