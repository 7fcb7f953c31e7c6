"""A listing's verification dialogues and continuations sent concurrently.

``Crawler`` warms the reply cache with every new candidate's dialogue through
``ChatCompletionOracle.map`` (``verification.verify_ahead``) before it
verifies the candidates one by one, and ``list_subconcepts`` sends the
continuations of all passing tokens at once.  Each crawl here is compared
with a sequential reference: the same oracle behind ``WithoutHooks``, which
hides ``map`` and ``lane`` from the crawler, so that no dialogue is warmed
and no concept prefetched.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from ontocrawl import crawler as crawler_mod
from ontocrawl.crawler import load_checkpoint
from ontocrawl.errors import CrawlAbortedError, TransportError
from support import (
    FIXTURE_NAMES,
    CrawlOutcome,
    TaxonomyTransport,
    all_noise_modes,
    decode,
    llm_crawler,
    on_lane,
    outcome,
    reply,
)


def wasted(crawl: CrawlOutcome) -> int:
    """Requests of warmed dialogues whose prompt the loop did not ask.
    Each belongs to a dialogue the loop never ran, its name existing by
    then, or to one renamed onto a name stored between the two runs,
    whose second pass then shows the stored text."""
    total = 0
    for key, warm in crawl.warmed.items():
        loop = crawl.looped.get(key)
        unused = [p for p in warm["sent"] if loop is None or p not in loop["asked"]]
        if unused and loop is not None:
            assert warm["new_name"] == loop["new_name"], key
            assert warm["stored"] != loop["stored"], key
        total += len(unused)
    return total


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_clean_crawls_send_the_prompts_of_a_sequential_crawl(crawls, max_in_flight):
    warm_passes = 0
    for fixture in FIXTURE_NAMES:
        warmed = crawls.llm(fixture, annotate_every=3, max_in_flight=max_in_flight)
        # Only new names are warmed, and the loop verifies each of them.
        assert warmed.warmed.keys() <= warmed.looped.keys(), fixture
        warm_passes += len(warmed.warmed)
        reference = crawls.llm(
            fixture, annotate_every=3, max_in_flight=max_in_flight, hide_map=True
        )
        assert outcome(warmed) == outcome(reference), fixture
        assert warmed.prompts == reference.prompts, fixture
        assert warmed.ledger_requests == reference.ledger_requests, fixture
    assert warm_passes


@pytest.mark.parametrize("fixture, requests", [("goats", 165), ("c2-03", 838)])
def test_warmed_dialogues_replay_at_a_nonzero_temperature(crawls, fixture, requests):
    """Every reply is cached, whatever ``params.temperature``, so a crawl at
    0.7 sends the requests of a sequential crawl, as a crawl at 0 does."""
    warmed = crawls.llm(fixture, max_in_flight=4, temperature=0.7)
    reference = crawls.llm(fixture, max_in_flight=4, hide_map=True, temperature=0.7)
    at_zero = crawls.llm(fixture, max_in_flight=4, hide_map=True)
    assert warmed.warmed
    assert warmed.transport_requests == reference.transport_requests == requests
    assert warmed.ledger_requests == reference.ledger_requests == requests
    assert outcome(warmed) == outcome(reference)
    assert outcome(reference, "config.params") == outcome(at_zero, "config.params")
    assert at_zero.transport_requests == requests


@pytest.mark.parametrize("max_concepts", [2, 3, 5, 9])
def test_no_dialogue_is_warmed_past_the_capacity_left(crawls, max_concepts):
    warmed = crawls.llm("goats", max_in_flight=4, max_concepts=max_concepts)
    reference = crawls.llm("goats", max_in_flight=4, hide_map=True, max_concepts=max_concepts)
    assert warmed.warmed.keys() <= warmed.looped.keys()
    assert len(warmed.checkpoint["hierarchy"]["concepts"]) == max_concepts
    assert outcome(warmed) == outcome(reference)
    assert warmed.prompts == reference.prompts
    # The seed lists five children; only as many as fit are warmed.
    at_seed = sum(1 for _d, c in warmed.warmed if c == "Goats")
    assert at_seed == (0 if max_concepts == 2 else min(5, max_concepts - 1))


CASES = [
    *((fixture, seed, False) for fixture in FIXTURE_NAMES for seed in (1, 2)),
    *((fixture, 1, True) for fixture in FIXTURE_NAMES),
]


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_noisy_crawls_end_where_a_sequential_crawl_does(crawls, max_in_flight):
    """All five noise modes on, with and without renames onto the root's
    first child, which sends some candidates onto an existing name."""
    excess = []
    for case in CASES:
        fixture, seed, renamed = case
        key = {"annotate_every": 3, "seed": seed, "renamed": renamed}
        reference = crawls.llm(fixture, max_in_flight=max_in_flight, hide_map=True, **key)
        warmed = crawls.llm(fixture, max_in_flight=max_in_flight, **key)
        assert outcome(warmed) == outcome(reference), case
        extra = warmed.ledger_requests - reference.ledger_requests
        assert extra == wasted(warmed), case
        excess.append(extra)
    # A rename onto the root's first child, stored by the root's own listing
    # after the warm pass, re-renders that dialogue's second pass.
    assert any(excess)


@pytest.mark.parametrize("max_in_flight", [2, 4])
def test_a_warm_pass_sends_up_to_max_in_flight_at_once(goats, max_in_flight):
    transport = TaxonomyTransport(goats, latency_s=0.005)
    crawler = llm_crawler(transport, goats.root, max_in_flight=max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    # The loop asks one candidate's questions at a time; only a warm pass
    # asks two step-1 questions at once.
    assert transport.peak_by_template["verify_instance"] >= 2


class UndecidedTransport(TaxonomyTransport):
    """Answers every step-1 question with a reply no parser reads."""

    def _answer(self, name, b, draw):
        if name == "verify_instance":
            return "It depends."
        return super()._answer(name, b, draw)


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_a_warmed_unparseable_reply_is_not_sent_again(goats, max_in_flight):
    """A warmed dialogue's unparseable reply and its retry are both cached,
    so the loop's replay of it sends nothing."""
    ledgers = []
    for hide_map in (False, True):
        crawler = llm_crawler(
            UndecidedTransport(goats), goats.root, max_in_flight=max_in_flight, hide_map=hide_map
        )
        crawler.run()
        assert len(crawler.rejections) == 5  # the root's listing, each inconclusive
        ledgers.append(crawler.ledger.requests)
    assert ledgers[0] == ledgers[1]


# Draws cycle through these tokens; a continuation from a token lists its
# names, later tokens' replies arriving first.
TOKENS = {
    "Dairy": (0.03, "Dairy Goats, Saanen"),
    "Meat": (0.02, "Meat Goats, Boer, Saanen"),
    "Fiber": (0.01, "Fiber Goats, Angora, Boer"),
}


class ContinuationTransport:
    """The first crawl step of goats up to its description prompt, whose
    ``terms`` it keeps before it refuses the request: the existence
    question, first-token draws and continuations, with the most
    continuations ever in flight at once."""

    def __init__(self):
        self.draws = itertools.cycle(TOKENS)
        self.in_flight = self.peak = 0
        self.terms = None
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        if body["max_tokens"] == 1:
            with self._lock:
                return reply(next(self.draws))
        name, bindings = decode(body["messages"][0]["content"])
        if name == "existence":
            return reply("Yes")
        if name == "description":
            self.terms = bindings["terms"]
            raise TransportError("stop at the description", retryable=False)
        assert name == "listing_continuation"
        latency, names = TOKENS[bindings["t"]]
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(latency)
            return reply(names)
        finally:
            with self._lock:
                self.in_flight -= 1


def test_continuations_go_out_together_and_are_absorbed_in_token_order():
    listed = {}
    for max_in_flight in (1, 4):
        transport = ContinuationTransport()
        crawler = llm_crawler(transport, "Goats", max_in_flight=max_in_flight, ft=2, n_samples=6)
        with pytest.raises(TransportError, match="description"):
            crawler.step()
        listed[max_in_flight] = transport.terms
        assert (transport.peak > 1) == (max_in_flight > 1)
    assert listed[4] == listed[1]
    # passing_tokens orders equal counts by name: Dairy, Fiber, Meat.  The
    # crawl describes each name once, in order of first listing.
    assert listed[4] == "Dairy Goats, Saanen, Fiber Goats, Angora, Boer, Meat Goats"


@pytest.mark.parametrize("noisy", [False, True])
def test_a_failure_inside_a_warm_pass_aborts_and_resumes_exactly(
    goats, tmp_path, monkeypatch, noisy
):
    """At every prompt a warm pass sends, a non-retryable failure of its
    first asking aborts the crawl, and the resumed crawl ends where an
    uninterrupted one does.  A failure is keyed on the prompt, not on a
    request's place in the order of sends, which the prefetch lane makes
    depend on thread timing."""
    noise = all_noise_modes(1) if noisy else None
    warming = threading.Event()
    verify_ahead = crawler_mod.verify_ahead

    def flagged(*args):
        warming.set()
        try:
            verify_ahead(*args)
        finally:
            warming.clear()

    monkeypatch.setattr(crawler_mod, "verify_ahead", flagged)

    class Counting(TaxonomyTransport):
        """Notes the prompts a warm pass sends, not those the prefetch lane
        sends meanwhile, and refuses the first asking of ``fail_on``."""

        def __init__(self, fail_on: str | None = None):
            super().__init__(goats, noise=noise)
            self.fail_on, self.asked, self.inside = fail_on, set(), []

        def send(self, body: dict) -> dict:
            prompt = body["messages"][0]["content"]
            with self._lock:
                first = prompt not in self.asked
                self.asked.add(prompt)
                if warming.is_set() and not on_lane():
                    self.inside.append(prompt)
            if first and prompt == self.fail_on:
                raise TransportError("HTTP 400", status=400, retryable=False)
            return super().send(body)

    transport = Counting()
    uninterrupted = llm_crawler(transport, goats.root, max_in_flight=2)
    uninterrupted.run()
    assert len(transport.inside) > 10
    for k, prompt in enumerate(transport.inside):
        out_dir = tmp_path / f"fail-{k}"
        with pytest.raises(CrawlAbortedError):
            llm_crawler(Counting(prompt), goats.root, max_in_flight=2, out_dir=out_dir).run()
        resumed = llm_crawler(
            TaxonomyTransport(goats, noise=noise),
            goats.root,
            max_in_flight=2,
            out_dir=out_dir,
            data=load_checkpoint(out_dir / "checkpoint.json"),
        )
        resumed.run()
        assert outcome(resumed) == outcome(uninterrupted), k
