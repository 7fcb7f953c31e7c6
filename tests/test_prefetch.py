"""The prefetch lane and the sends it shares with the crawl.

During ``Crawler.run`` one background thread asks the opening questions of
the next frontier concepts (existence, listing, descriptions) ahead of their
steps.  ``ChatCompletionOracle`` holds a semaphore around every send, so the
bound on requests in flight covers both threads, and sends a key at most
once at a time (single flight).  The lane asks through the view that
``ChatCompletionOracle.lane`` gives, and a request it sends is recognised
by the name of the thread sending it.  Each crawl here is compared with one
that cannot prefetch: the same oracle behind ``WithoutHooks``.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from ontocrawl import ChatCompletionOracle, OracleContext, QueryLog
from ontocrawl import crawler as crawler_mod
from ontocrawl.errors import CrawlAbortedError, TransportError
from support import LANE, StubTransport, TaxonomyTransport, llm_crawler, on_lane, outcome, reply


def lane_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(LANE)]


class LaneTransport(TaxonomyTransport):
    """Notes each request as it arrives, with whether the prefetch lane sent
    it, counts the requests that found the other side in flight, and gauges
    the most lane requests ever in flight at once."""

    def __init__(self, taxonomy, **kwargs):
        super().__init__(taxonomy, **kwargs)
        self.arrived: list[bool] = []
        self.flying: Counter[bool] = Counter()
        self.overlaps = self.lane_peak = 0

    def send(self, body: dict) -> dict:
        lane = on_lane()
        with self._lock:
            self.arrived.append(lane)
            self.flying[lane] += 1
            self.overlaps += bool(self.flying[not lane])
            self.lane_peak = max(self.lane_peak, self.flying[True])
        try:
            return super().send(body)
        finally:
            with self._lock:
                self.flying[lane] -= 1


class GatedTransport:
    """Holds every request until ``release`` is set; refuses the first
    ``refusals`` of them non-retryably."""

    def __init__(self, refusals: int = 0):
        self.entered, self.release = threading.Event(), threading.Event()
        self.refusals, self.sends = refusals, 0
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        with self._lock:
            self.sends += 1
            refused = self.sends <= self.refusals
        self.entered.set()
        assert self.release.wait(5)
        if refused:
            raise TransportError("HTTP 400", status=400, retryable=False)
        return reply("Yes")


def ask_twice_at_once(transport: GatedTransport) -> tuple[ChatCompletionOracle, QueryLog, dict]:
    """Two threads ask one prompt, the second while the first is sending it."""
    log = QueryLog()
    oracle = ChatCompletionOracle(transport, query_log=log, max_in_flight=2)
    results: dict = {}

    def ask(who: str) -> None:
        try:
            results[who] = oracle.complete("Is it?")
        except TransportError as exc:
            results[who] = exc

    first = threading.Thread(target=ask, args=("first",))
    first.start()
    assert transport.entered.wait(5)
    second = threading.Thread(target=ask, args=("second",))
    second.start()
    time.sleep(0.05)  # the second asker finds the key in flight
    transport.release.set()
    for asker in (first, second):
        asker.join(5)
        assert not asker.is_alive()
    return oracle, log, results


def test_a_key_asked_twice_at_once_is_sent_once():
    transport = GatedTransport()
    oracle, log, results = ask_twice_at_once(transport)
    assert transport.sends == oracle.ledger.requests == len(log.records) == 1
    assert results["first"].text == results["second"].text == "Yes"
    assert not results["first"].cached and results["second"].cached


def test_the_second_asker_sends_a_key_whose_first_attempt_failed():
    transport = GatedTransport(refusals=1)
    oracle, log, results = ask_twice_at_once(transport)
    assert isinstance(results["first"], TransportError)
    assert results["second"].text == "Yes" and not results["second"].cached
    assert transport.sends == 2
    assert oracle.ledger.requests == len(log.records) == 1


class EchoTransport:
    """Replies with the prompt itself and counts the sends of each prompt."""

    def __init__(self):
        self.sends: Counter[str] = Counter()
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        prompt = body["messages"][0]["content"]
        with self._lock:
            self.sends[prompt] += 1
        return reply(prompt)


def test_many_askers_of_few_keys_send_each_once():
    """More askers than cores, switching threads as often as possible: each
    key is sent once, billed once, and every asker gets its reply."""
    transport = EchoTransport()
    oracle = ChatCompletionOracle(transport, max_in_flight=3)
    prompts = [f"Prompt {i}?" for i in range(20)]
    got: dict[int, list[str]] = {}

    def ask(n: int) -> None:
        order = prompts[n:] + prompts[:n]
        got[n] = [oracle.complete(p).text for p in order] == order

    askers = [threading.Thread(target=ask, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(asker.is_alive() for asker in askers)
    assert got == {n: True for n in range(8)}
    assert transport.sends == Counter(prompts)
    assert oracle.ledger.requests == len(prompts)


def test_a_lane_request_is_tried_once_and_the_step_retries_it():
    """A retryable failure of a request sent through the lane's view is not
    retried, so the view never waits; the step asking the same prompt sends
    it again, with the usual backoff."""
    failure = TransportError("HTTP 503", status=503)
    transport = StubTransport([failure, failure, reply("Yes")])
    sleeps: list[float] = []
    oracle = ChatCompletionOracle(
        transport, max_in_flight=2, sleep=sleeps.append
    )
    with pytest.raises(TransportError):
        oracle.lane(threading.Event()).complete("Is it?")
    assert len(transport.bodies) == 1 and sleeps == []
    assert oracle.complete("Is it?").text == "Yes"
    assert len(transport.bodies) == 3 and sleeps == [0.5]
    assert oracle.ledger.requests == 1


def test_a_reply_cached_through_the_lane_is_a_hit_for_the_oracle():
    transport = StubTransport([reply("Yes")])
    oracle = ChatCompletionOracle(transport, max_in_flight=2)
    assert not oracle.lane(threading.Event()).complete("Is it?").cached
    assert oracle.complete("Is it?").cached
    assert len(transport.bodies) == oracle.ledger.requests == 1


def test_there_is_no_lane_at_one_request_in_flight():
    oracle = ChatCompletionOracle(StubTransport([]), max_in_flight=1)
    assert oracle.lane(threading.Event()) is None


@pytest.mark.parametrize("max_in_flight", [2, 3])
def test_the_bound_holds_across_the_lane_and_the_crawl(goats, max_in_flight):
    transport = LaneTransport(goats, latency_s=0.005)
    crawler = llm_crawler(transport, goats.root, max_in_flight=max_in_flight)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert transport.peak <= max_in_flight
    assert transport.lane_peak == 1  # the lane runs its draws inline
    assert transport.overlaps
    # The lane's records are those the step would write: no phase tag.
    openers = ("existence", "listing", "listing_continuation", "description")
    records = [r for r in crawler.query_log.records if r.get("template_name") in openers]
    assert records and not any("phase" in r for r in records)


def test_no_thread_starts_at_one_request_in_flight(goats):
    before = {t.name for t in threading.enumerate()}
    seen: set[str] = set()

    def note(_name, _bindings):
        seen.update(t.name for t in threading.enumerate())
        return False

    crawler = llm_crawler(TaxonomyTransport(goats, fail=note), goats.root, max_in_flight=1)
    crawler.run()
    assert len(crawler.hierarchy) == 14
    assert seen and seen <= before


def sequential(taxonomy, transport=None):
    """The crawl of ``taxonomy`` that cannot prefetch, run to its end."""
    crawler = llm_crawler(
        transport or TaxonomyTransport(taxonomy), taxonomy.root, max_in_flight=2, hide_map=True
    )
    crawler.run()
    return crawler


def test_a_reference_crawl_runs_no_lane(goats):
    """``WithoutHooks`` hides ``lane`` as well as ``map``, so a crawl that
    cannot prefetch sends nothing from the lane's thread."""
    transport = LaneTransport(goats)
    crawler = sequential(goats, transport)
    assert len(crawler.hierarchy) == 14
    assert transport.arrived and not any(transport.arrived)


@pytest.mark.parametrize("template", ["existence", "listing"])
def test_a_refused_prefetch_is_dropped_and_asked_again(goats, template):
    """The lane's first existence question, or first first-token draw, is
    refused for good.  The lane drops that concept; its step sends the
    request afresh and the crawl ends as one that cannot prefetch."""
    refused = []

    def fail(name, b):
        if name == template and on_lane() and not refused:
            refused.append(b["C"])
            return True
        return False

    transport = TaxonomyTransport(goats, fail=fail)
    crawler = llm_crawler(transport, goats.root, max_in_flight=2)
    crawler.run()
    assert refused
    reference = sequential(goats)
    assert outcome(crawler) == outcome(reference)
    assert crawler.ledger.requests == reference.ledger.requests == transport.requests


class UnsureTransport(TaxonomyTransport):
    """Replies "It depends." to the first existence question about
    ``concept``, or, while that is None, to the first one the prefetch lane
    sends, whose concept it then holds."""

    def __init__(self, taxonomy, concept: str | None = None):
        super().__init__(taxonomy)
        self.concept, self.unsure = concept, False

    def _answer(self, name, b, draw):
        if name == "existence" and not self.unsure:
            if self.concept is None and on_lane():
                self.concept = b["C"]
            if b["C"] == self.concept:
                self.unsure = True
                return "It depends."
        return super()._answer(name, b, draw)


def test_an_unparseable_prefetched_reply_is_replayed_as_a_sequential_crawl_gets_it(goats):
    transport = UnsureTransport(goats)
    crawler = llm_crawler(transport, goats.root, max_in_flight=2)
    crawler.run()
    assert transport.unsure
    reference = sequential(goats, UnsureTransport(goats, transport.concept))
    assert outcome(crawler) == outcome(reference)
    assert crawler.ledger.requests == reference.ledger.requests


def test_a_stopped_lane_sends_nothing_more():
    """A lane closed as ``Crawler.run`` closes it, while a request is in
    flight, lets that request end, and sends neither the questions that
    would follow it nor those of the concepts still queued."""
    transport = GatedTransport()
    stop = threading.Event()
    view = ChatCompletionOracle(transport, max_in_flight=2).lane(stop)
    pool = ThreadPoolExecutor(1, thread_name_prefix=LANE)
    for name in ("Dairy Goats", "Meat Goats"):
        pool.submit(crawler_mod._prefetch, view, OracleContext("Goats"), name, 1, 3)
    assert transport.entered.wait(5)  # the first existence question

    def close() -> None:
        stop.set()
        pool.shutdown(cancel_futures=True)

    closing = threading.Thread(target=close)
    closing.start()
    time.sleep(0.05)  # the lane is stopped while its request is held
    transport.release.set()
    closing.join(5)
    assert not closing.is_alive() and not lane_threads()
    assert transport.sends == 1


def assert_lane_gone(transport: LaneTransport) -> None:
    assert not lane_threads()
    sent = len(transport.arrived)
    time.sleep(0.05)
    assert len(transport.arrived) == sent


def test_the_lane_is_gone_when_run_returns_or_aborts(goats, tmp_path):
    transport = LaneTransport(goats, latency_s=0.002)
    llm_crawler(transport, goats.root, max_in_flight=2).run()
    assert any(transport.arrived)
    assert_lane_gone(transport)

    probes = []

    def fail(name, _b):
        if name == "verify_subcat" and not on_lane():
            probes.append(name)
            return len(probes) == 6
        return False

    transport = LaneTransport(goats, latency_s=0.002, fail=fail)
    with pytest.raises(CrawlAbortedError):
        llm_crawler(transport, goats.root, max_in_flight=2, out_dir=tmp_path).run()
    assert_lane_gone(transport)


def test_the_lane_is_gone_when_the_crawl_is_interrupted(goats):
    interrupted = []

    def interrupt(_name, _b):
        # At the first crawl-path request after the lane has sent one.
        if not on_lane() and any(transport.arrived) and not interrupted:
            interrupted.append(True)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return False

    transport = LaneTransport(goats, latency_s=0.002, fail=interrupt)
    with pytest.raises(KeyboardInterrupt):
        llm_crawler(transport, goats.root, max_in_flight=2).run()
    assert interrupted
    assert_lane_gone(transport)
