"""The session's crawl matrix: each distinct crawl runs once, and what it
keeps cannot be written into."""

from __future__ import annotations

import dataclasses

import pytest

from support import CrawlMatrix, TaxonomyTransport, outcome


def test_asking_twice_for_a_crawl_crawls_once(tmp_path, monkeypatch):
    sent = []
    send = TaxonomyTransport.send

    def counted(self, body):
        sent.append(body)
        return send(self, body)

    monkeypatch.setattr(TaxonomyTransport, "send", counted)
    matrix = CrawlMatrix(tmp_path)
    first = matrix.llm("goats", max_in_flight=4)
    assert len(sent) == first.transport_requests > 0
    # Goats carries its own instances and parts: an annotation asks for the same crawl.
    assert matrix.llm("goats", max_in_flight=4, annotate_every=3) is first
    assert len(sent) == first.transport_requests
    assert matrix.mock("goats") is matrix.mock("goats")
    assert len(matrix.outcomes) == 2


def test_an_outcome_cannot_be_written_into(crawls):
    crawl = crawls.llm("goats", max_in_flight=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        crawl.prompts = ()
    with pytest.raises(TypeError):
        crawl.checkpoint["hierarchy"]["concepts"][0]["explored"] = False
    with pytest.raises(AttributeError):
        crawl.prompts.append("x")
    with pytest.raises(AttributeError):
        next(iter(crawl.warmed.values()))["sent"].append("x")
    # ``outcome`` hands out a new dict.
    outcome(crawl, "config.oracle")["counters"] = None
    assert crawl.checkpoint["counters"] and "oracle" in crawl.checkpoint["config"]
