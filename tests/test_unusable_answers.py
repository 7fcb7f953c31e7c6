"""Answers the crawl cannot use: an unparseable yes/no answer, a synonym
merge that folds the explored concept away, and a reply whose token counts
are malformed.  None of them may end a crawl."""

from __future__ import annotations

import functools
import json

import pytest

from ontocrawl import ChatCompletionOracle, Crawler, CrawlConfig, MockOracle
from ontocrawl.crawler import load_checkpoint
from support import (
    StubTransport,
    TaxonomyTransport,
    all_noise_modes,
    decode,
    llm_crawler,
    outcome,
    reply,
    taxonomy_of,
)

# The noisy crawls whose interchangeability questions are answered both ways.
NOISY = ("c2-04", "c2-05", "c2-13", "c2-19")


class Answering:
    """A transport that replies ``text`` to every prompt ``pick`` selects and
    sends every other prompt on to ``inner``."""

    def __init__(self, inner, pick, text: str):
        self.inner, self.pick, self.text = inner, pick, text

    def send(self, body: dict) -> dict:
        if self.pick(body["messages"][0]["content"]):
            return reply(self.text)
        return self.inner.send(body)


def crawled(fixture: str, pick=lambda prompt: False, text: str = "") -> Crawler:
    """A finished LLM-path crawl of ``fixture`` at ``max_in_flight`` 2, noisy
    unless it is goats, with ``text`` the reply to every prompt ``pick``
    selects."""
    taxonomy = taxonomy_of(fixture, annotate_every=3)
    noise = None if fixture == "goats" else all_noise_modes(1)
    transport = Answering(TaxonomyTransport(taxonomy, noise=noise), pick, text)
    crawler = llm_crawler(transport, taxonomy.root, max_in_flight=2)
    crawler.run()
    crawler.hierarchy.verify_integrity()
    return crawler


def of_template(name: str):
    return lambda prompt: decode(prompt)[0] == name


@functools.cache
def probe_prompts() -> list[str]:
    """Eight of the insertion probes a reference goats crawl sent, the first
    and the last among them."""
    records = crawled("goats").query_log.records
    sent = [r["prompt"] for r in records if r.get("phase") in ("top", "bottom")]
    assert len(sent) > 8
    return [sent[i * (len(sent) - 1) // 7] for i in range(8)]


@pytest.mark.parametrize("index", range(8))
def test_an_unparseable_probe_answer_reads_as_no(index):
    prompt = probe_prompts()[index]
    assert decode(prompt)[0] == "verify_subcat"
    perhaps = crawled("goats", prompt.__eq__, "Perhaps")
    assert outcome(perhaps) == outcome(crawled("goats", prompt.__eq__, "No"))
    # The prompt was asked, and once more after the unparseable reply.
    assert [r["reply"] for r in perhaps.query_log.records if r.get("prompt") == prompt] == [
        "Perhaps",
        "Perhaps",
    ]


@pytest.mark.parametrize("fixture", NOISY)
def test_an_unparseable_interchangeability_answer_reads_as_no(fixture):
    asked = of_template("synonym_interchangeable")
    reference = crawled(fixture).query_log.records
    assert any(asked(r["prompt"]) for r in reference if "prompt" in r)
    perhaps = crawled(fixture, asked, "Perhaps")
    assert outcome(perhaps) == outcome(crawled(fixture, asked, "No"))


@pytest.mark.parametrize(
    "template",
    [
        "existence",
        "verify_instance",
        "verify_part",
        "verify_seed",
        "verify_subcat",
        "synonym_interchangeable",
        "synonym_direction",
    ],
)
@pytest.mark.parametrize("fixture", ["goats", "c2-04", "c2-05"])
def test_no_unparseable_answer_ends_a_crawl(fixture, template):
    crawler = crawled(fixture, of_template(template), "Perhaps")
    assert crawler.hierarchy.next_unexplored() is None


class FoldingOracle(MockOracle):
    """Lists ``Goats`` first under ``Dairy Goats`` and calls the two
    interchangeable, so that the explored concept is merged into the seed."""

    def list_subconcepts(self, ctx, c, ft, n_samples):
        names = super().list_subconcepts(ctx, c, ft, n_samples)
        return ["Goats", *names] if c == "Dairy Goats" else names

    def interchangeable(self, ctx, d1, d2):
        return {d1, d2} == {"Goats", "Dairy Goats"} or super().interchangeable(ctx, d1, d2)


def test_a_merge_of_the_explored_concept_goes_on_under_the_survivor(goats, tmp_path):
    path = tmp_path / "checkpoint.json"
    oracle = FoldingOracle(goats)
    crawler = Crawler(CrawlConfig(seed_name="Goats", oracle="mock:goats"), oracle,
                      checkpoint_path=path)
    crawler.run()
    h = crawler.hierarchy
    h.verify_integrity()
    assert h.find_by_name("Dairy Goats") == h.seed_id
    # The listing of Dairy Goats went on under the seed after the merge.
    assert h.find_by_name("Toggenburg") in h.direct_children(h.seed_id)
    assert all(c.explored for c in h.concepts())
    data = load_checkpoint(path)
    assert data == json.loads(json.dumps(crawler.to_checkpoint_dict()))
    assert Crawler.from_checkpoint(data, oracle).to_checkpoint_dict() == data


@pytest.mark.parametrize(
    "usage",
    ["none", {"prompt_tokens": "n/a"}, {"prompt_tokens": None}],
    ids=["a string", "a string count", "a null count"],
)
def test_a_malformed_usage_bills_no_tokens(usage):
    transport = StubTransport([{**reply("Yes"), "usage": usage}])
    oracle = ChatCompletionOracle(transport, max_in_flight=1)
    assert oracle.complete("Is it?").text == "Yes"
    assert len(transport.bodies) == oracle.ledger.requests == 1
    assert oracle.ledger.prompt_tokens == oracle.ledger.completion_tokens == 0
