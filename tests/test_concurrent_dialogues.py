"""A listing's verification dialogues and continuations sent concurrently.

``Crawler`` warms the reply cache with every new candidate's dialogue through
``ChatCompletionOracle.map`` (``verification.verify_ahead``) before it
verifies the candidates one by one, and ``list_subconcepts`` sends the
continuations of all passing tokens at once.  Each crawl here is compared
with a sequential reference: the same oracle behind ``WithoutMap``, which
hides ``map`` from the crawler, so that no dialogue is warmed.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    CostLedger,
    Crawler,
    CrawlConfig,
    OracleContext,
    QueryLog,
    verification,
)
from ontocrawl import crawler as crawler_mod
from ontocrawl.crawler import load_checkpoint
from ontocrawl.errors import CrawlAbortedError
from support import (
    TaxonomyTransport,
    all_noise_modes,
    c2_taxonomy,
    decode,
    renames_onto_first_child,
    reply,
)

FIXTURES = ("goats", *(f"c2-{i:02d}" for i in range(20)))


class WithoutMap:
    """Delegates to an oracle, except that it has no ``map``."""

    def __init__(self, oracle):
        self._oracle = oracle

    def __getattr__(self, name):
        if name == "map":
            raise AttributeError(name)
        return getattr(self._oracle, name)


def taxonomy_of(fixture: str, goats):
    return goats if fixture == "goats" else c2_taxonomy(int(fixture[3:]), annotate_every=3)


def llm_crawler(
    transport, seed_name, max_in_flight, *, hide_map=False, max_concepts=None, **files
) -> Crawler:
    log = QueryLog()
    oracle = ChatCompletionOracle(
        transport,
        params=CompletionParams(),
        query_log=log,
        ledger=CostLedger(),
        max_in_flight=max_in_flight,
    )
    config = CrawlConfig(seed_name=seed_name, ft=5, n_samples=5, max_concepts=max_concepts)
    crawl_oracle = WithoutMap(oracle) if hide_map else oracle
    return Crawler(config, crawl_oracle, query_log=log, ledger=oracle.ledger, **files)


def outcome(crawler: Crawler) -> dict:
    data = crawler.to_checkpoint_dict()
    del data["ledger"]
    return data


def prompts(crawler: Crawler) -> list[str]:
    return sorted(rec["prompt"] for rec in crawler.query_log.records if "prompt" in rec)


class DialogueRecorder:
    """Records each verification dialogue, warmed or run by the crawler's
    loop, by ``(candidate, parent)``: the prompts it asked and the stored
    text of the name it was renamed to, if any, when it ran."""

    def __init__(self, monkeypatch):
        self.warmed: dict[tuple[str, str], dict] = {}
        self.looped: dict[tuple[str, str], dict] = {}
        self._local = threading.local()
        verify, complete = verification.verify, ChatCompletionOracle.complete

        def recorded(into):
            def run(oracle, ctx, d, c):
                record = into[(d, c)] = {"asked": [], "sent": []}
                self._local.record = record
                try:
                    verdict = verify(oracle, ctx, d, c)
                finally:
                    self._local.record = None
                record["new_name"] = verdict.new_name
                record["stored"] = verdict.new_name and ctx.known(verdict.new_name)
                return verdict

            return run

        def complete_recorded(oracle, prompt, *args, **kwargs):
            result = complete(oracle, prompt, *args, **kwargs)
            record = getattr(self._local, "record", None)
            if record is not None:
                record["asked"].append(prompt)
                if not result.cached:
                    record["sent"].append(prompt)
            return result

        # ``verify_ahead`` looks ``verify`` up in its own module, the crawler's
        # loop in the crawler's.
        monkeypatch.setattr(verification, "verify", recorded(self.warmed))
        monkeypatch.setattr(crawler_mod, "verify", recorded(self.looped))
        monkeypatch.setattr(ChatCompletionOracle, "complete", complete_recorded)

    def clear(self) -> None:
        self.warmed.clear()
        self.looped.clear()

    def wasted(self) -> int:
        """Requests of warmed dialogues whose prompt the loop did not ask.
        Each belongs to a dialogue the loop never ran, its name existing by
        then, or to one renamed onto a name stored between the two runs,
        whose second pass then shows the stored text."""
        total = 0
        for key, warm in self.warmed.items():
            loop = self.looped.get(key)
            unused = [p for p in warm["sent"] if loop is None or p not in loop["asked"]]
            if unused and loop is not None:
                assert warm["new_name"] == loop["new_name"], key
                assert warm["stored"] != loop["stored"], key
            total += len(unused)
        return total


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_clean_crawls_send_the_prompts_of_a_sequential_crawl(goats, monkeypatch, max_in_flight):
    recorder = DialogueRecorder(monkeypatch)
    warm_passes = 0
    for fixture in FIXTURES:
        taxonomy = taxonomy_of(fixture, goats)
        recorder.clear()
        warmed = llm_crawler(TaxonomyTransport(taxonomy), taxonomy.root, max_in_flight)
        warmed.run()
        # Only new names are warmed, and the loop verifies each of them.
        assert recorder.warmed.keys() <= recorder.looped.keys(), fixture
        warm_passes += len(recorder.warmed)
        reference = llm_crawler(
            TaxonomyTransport(taxonomy), taxonomy.root, max_in_flight, hide_map=True
        )
        reference.run()
        assert outcome(warmed) == outcome(reference), fixture
        assert prompts(warmed) == prompts(reference), fixture
        assert warmed.ledger.requests == reference.ledger.requests, fixture
    assert warm_passes


@pytest.mark.parametrize("max_concepts", [2, 3, 5, 9])
def test_no_dialogue_is_warmed_past_the_capacity_left(goats, monkeypatch, max_concepts):
    recorder = DialogueRecorder(monkeypatch)
    warmed = llm_crawler(TaxonomyTransport(goats), "Goats", 4, max_concepts=max_concepts)
    warmed.run()
    reference = llm_crawler(
        TaxonomyTransport(goats), "Goats", 4, hide_map=True, max_concepts=max_concepts
    )
    reference.run()
    assert recorder.warmed.keys() <= recorder.looped.keys()
    assert len(warmed.hierarchy) == max_concepts
    assert outcome(warmed) == outcome(reference)
    assert prompts(warmed) == prompts(reference)
    # The seed lists five children; only as many as fit are warmed.
    at_seed = sum(1 for _d, c in recorder.warmed if c == "Goats")
    assert at_seed == (0 if max_concepts == 2 else min(5, max_concepts - 1))


CASES = [
    *((fixture, seed, False) for fixture in FIXTURES for seed in (1, 2)),
    *((fixture, 1, True) for fixture in FIXTURES),
]


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_noisy_crawls_end_where_a_sequential_crawl_does(goats, monkeypatch, max_in_flight):
    """All five noise modes on, with and without renames onto the root's
    first child, which sends some candidates onto an existing name."""
    recorder = DialogueRecorder(monkeypatch)
    excess = []
    for fixture, seed, renamed in CASES:
        taxonomy = taxonomy_of(fixture, goats)
        noise = all_noise_modes(seed)
        renames = renames_onto_first_child(taxonomy) if renamed else None
        reference = llm_crawler(
            TaxonomyTransport(taxonomy, noise=noise, renames=renames),
            taxonomy.root,
            max_in_flight,
            hide_map=True,
        )
        reference.run()
        recorder.clear()
        warmed = llm_crawler(
            TaxonomyTransport(taxonomy, noise=noise, renames=renames),
            taxonomy.root,
            max_in_flight,
        )
        warmed.run()
        case = (fixture, seed, renamed)
        assert outcome(warmed) == outcome(reference), case
        extra = warmed.ledger.requests - reference.ledger.requests
        assert extra == recorder.wasted(), case
        excess.append(extra)
    # A rename onto the root's first child, stored by the root's own listing
    # after the warm pass, re-renders that dialogue's second pass.
    assert any(excess)


@pytest.mark.parametrize("max_in_flight", [2, 4])
def test_a_warm_pass_sends_up_to_max_in_flight_at_once(goats, max_in_flight):
    transport = TaxonomyTransport(goats, latency_s=0.005)
    crawler = llm_crawler(transport, goats.root, max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    # The loop asks one candidate's questions at a time; only a warm pass
    # asks two step-1 questions at once.
    assert transport.peak_by_template["verify_instance"] >= 2


# Draws cycle through these tokens; a continuation from a token lists its
# names, later tokens' replies arriving first.
TOKENS = {
    "Dairy": (0.03, "Dairy Goats, Saanen"),
    "Meat": (0.02, "Meat Goats, Boer, Saanen"),
    "Fiber": (0.01, "Fiber Goats, Angora, Boer"),
}


class ContinuationTransport:
    """First-token draws and continuations of one listing of goats, with
    the most continuations ever in flight at once."""

    def __init__(self):
        self.draws = itertools.cycle(TOKENS)
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        if body["max_tokens"] == 1:
            with self._lock:
                return reply(next(self.draws))
        name, bindings = decode(body["messages"][0]["content"])
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
    ctx = OracleContext("Goats")
    listed = {}
    for max_in_flight in (1, 4):
        transport = ContinuationTransport()
        oracle = ChatCompletionOracle(transport, max_in_flight=max_in_flight)
        listed[max_in_flight] = oracle.list_subconcepts(ctx, "Goats", 2, 6)
        assert (transport.peak > 1) == (max_in_flight > 1)
    assert listed[4] == listed[1]
    # passing_tokens orders equal counts by name: Dairy, Fiber, Meat.
    assert listed[4] == ["Dairy Goats", "Saanen", "Fiber Goats", "Angora", "Boer", "Meat Goats"]


@pytest.mark.parametrize("noisy", [False, True])
def test_a_failure_inside_a_warm_pass_aborts_and_resumes_exactly(
    goats, tmp_path, monkeypatch, noisy
):
    """At every request index that falls inside a warm pass, a non-retryable
    failure aborts the crawl, and the resumed crawl ends where an
    uninterrupted one does."""
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

    def counting(fail_at: int | None = None):
        """A transport that numbers its requests from 0, notes which came
        inside a warm pass, and refuses request ``fail_at``."""
        sent, inside = [0], []

        def fail(_name, _bindings):
            index = sent[0]
            sent[0] += 1
            if warming.is_set():
                inside.append(index)
            return index == fail_at

        return TaxonomyTransport(goats, noise=noise, fail=fail), inside

    transport, inside = counting()
    uninterrupted = llm_crawler(transport, goats.root, 2)
    uninterrupted.run()
    assert len(inside) > 10
    for k in inside:
        path = tmp_path / f"fail-{k}.json"
        transport, _ = counting(fail_at=k)
        with pytest.raises(CrawlAbortedError):
            llm_crawler(transport, goats.root, 2, checkpoint_path=path).run()
        resumed = Crawler.from_checkpoint(
            load_checkpoint(path),
            ChatCompletionOracle(
                TaxonomyTransport(goats, noise=noise), params=CompletionParams(), max_in_flight=2
            ),
            checkpoint_path=path,
        )
        resumed.run()
        assert outcome(resumed) == outcome(uninterrupted), k
