"""One owner for a run's cost ledger and query log.

A crawler built from an oracle alone bills and logs the crawl into the
oracle's ledger and query log, and sets its own on the oracle otherwise, so a
library crawl reads the same figures as the CLI's.  Each check runs through a
``MockOracle`` and through a ``ChatCompletionOracle`` over a
``TaxonomyTransport``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from ontocrawl import ChatCompletionOracle, Crawler, CrawlConfig, MockOracle, QueryLog, cli
from ontocrawl.cli import EXIT_OK, main
from ontocrawl.crawler import load_checkpoint
from ontocrawl.llm_backend import CostLedger
from support import GOATS_PATH, TaxonomyTransport, count

CONFIGS = {
    "mock": CrawlConfig(seed_name="Goats", oracle=f"mock:{GOATS_PATH}"),
    "llm": CrawlConfig(seed_name="Goats", ft=3, n_samples=5),
}


def oracle_alone(kind: str, goats):
    """An oracle with a ledger and a query log of its own, as a library
    caller builds it; the LLM one sends one request at a time."""
    if kind == "mock":
        return MockOracle(goats, ledger=CostLedger(), query_log=QueryLog())
    return ChatCompletionOracle(TaxonomyTransport(goats), query_log=QueryLog(), max_in_flight=1)


def billed(log: QueryLog) -> int:
    """The records an oracle wrote to ``log``: one per answer it billed."""
    return sum(rec.get("op") != "explore" for rec in log.records)


def cli_crawl(kind: str, out: Path, goats, monkeypatch) -> None:
    """The CLI's crawl of ``CONFIGS[kind]`` into ``out``; down the LLM path,
    the CLI's oracle sends through a ``TaxonomyTransport`` too."""
    config = CONFIGS[kind]
    if kind == "llm":
        transport = TaxonomyTransport(goats)
        oracle = functools.partial(ChatCompletionOracle, transport, max_in_flight=1)
        monkeypatch.setattr(cli, "ChatCompletionOracle", oracle)
    argv = ["crawl", "--seed", config.seed_name, "--oracle", config.oracle,
            "--ft", str(config.ft), "--samples", str(config.n_samples), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("kind", CONFIGS)
def test_a_crawler_built_from_an_oracle_alone_bills_what_the_oracle_billed(
    kind, goats, tmp_path, monkeypatch, capsys
):
    oracle = oracle_alone(kind, goats)
    path = tmp_path / "library" / "checkpoint.json"
    crawler = Crawler(CONFIGS[kind], oracle, checkpoint_path=path)
    crawler.run()
    assert crawler.ledger is oracle.ledger and crawler.query_log is oracle.query_log
    requests = load_checkpoint(path)["ledger"]["requests"]
    assert requests == billed(oracle.query_log) > 0
    if kind == "llm":
        assert requests == oracle.transport.requests
    # The crawl's own records land in the oracle's log.
    assert count(oracle.query_log.records, op="explore") == crawler.explorations > 0

    cli_crawl(kind, tmp_path / "cli", goats, monkeypatch)
    assert load_checkpoint(path) == load_checkpoint(tmp_path / "cli" / "checkpoint.json")
    capsys.readouterr()
    assert main(["stats", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (tmp_path / "cli" / "stats.txt").read_text(encoding="utf-8")
    stats = json.loads((tmp_path / "cli" / "stats.json").read_text(encoding="utf-8"))
    assert stats["prompts_per_concept"] == round(requests / len(crawler.hierarchy), 2) > 0


@pytest.mark.parametrize("kind", CONFIGS)
def test_a_crawler_sets_its_ledger_and_log_on_the_oracle(kind, goats):
    oracle = oracle_alone(kind, goats)
    ledger, log = CostLedger(), QueryLog()
    crawler = Crawler(CONFIGS[kind], oracle, ledger=ledger, query_log=log)
    assert oracle.ledger is ledger and oracle.query_log is log
    crawler.run()
    assert ledger.requests == billed(log) > 0


def test_a_crawler_without_a_ledger_anywhere_makes_one(goats):
    oracle = MockOracle(goats)
    crawler = Crawler(CONFIGS["mock"], oracle)
    assert oracle.ledger is crawler.ledger and oracle.query_log is crawler.query_log is None
    crawler.run()
    assert crawler.ledger.requests > 0


@pytest.mark.parametrize("kind", CONFIGS)
def test_a_resumed_crawl_bills_the_restored_ledger(kind, goats, tmp_path):
    path = tmp_path / "checkpoint.json"
    first = Crawler(CONFIGS[kind], oracle_alone(kind, goats), checkpoint_path=path)
    for _ in range(3):
        assert first.step()
    oracle = oracle_alone(kind, goats)
    resumed = Crawler.from_checkpoint(load_checkpoint(path), oracle, checkpoint_path=path)
    assert oracle.ledger is resumed.ledger and resumed.query_log is oracle.query_log
    restored = resumed.ledger.requests
    assert restored == first.ledger.requests > 0
    resumed.run()
    assert resumed.ledger.requests == restored + billed(oracle.query_log)
    assert count(oracle.query_log.records, op="explore") == resumed.explorations - 3
    assert load_checkpoint(path)["ledger"] == resumed.ledger.to_dict()
