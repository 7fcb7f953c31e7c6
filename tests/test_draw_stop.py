"""First-token sampling stops once the threshold has decided the listing.

``ChatCompletionOracle.sample_first_tokens`` sends its first
``n_samples - ft + 1`` draws and sends the ``ft - 1`` left only if
``_decided`` says they could change ``passing_tokens``.  These tests check
that the stop is exact (the listing is what all ``n_samples`` draws would
give), that ``_decided`` holds exactly when the draws left cannot matter, and
that the draws sent are the same at any ``max_in_flight`` and through the
prefetch lane's view.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontocrawl import ChatCompletionOracle, OracleContext, cli, export
from ontocrawl.crawler import load_checkpoint, parse_checkpoint
from ontocrawl.errors import CrawlAbortedError
from ontocrawl.llm_backend import _decided, passing_tokens
from support import (
    FIXTURE_NAMES,
    TaxonomyTransport,
    decode,
    llm_crawler,
    outcome,
    reply,
)

CTX = OracleContext(seed_name="Goats")
TOKENS = ("Dairy", "Meat", "Fiber", "Show")


class SequenceTransport:
    """Answers the ``k``-th first-token draw it receives with ``draws[k]``, a
    continuation starting with ``t`` with two names made from ``t``, and a
    plain listing with two other names."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.sent = 0
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        if body["max_tokens"] == 1:
            with self._lock:
                self.sent += 1
                return reply(self.draws[self.sent - 1])
        name, b = decode(body["messages"][0]["content"])
        if name == "listing_continuation":
            return reply(f"{b['t']} One, {b['t']} Two")
        return reply("Plain One, Plain Two")


def full_listing(draws, ft: int) -> list[str]:
    """What ``list_subconcepts`` returns from ``SequenceTransport(draws)``
    when every one of ``draws`` counts."""
    counts = Counter(d.strip() for d in draws if d.strip())
    tokens = passing_tokens(counts, ft)
    if not tokens:
        return ["Plain One", "Plain Two"]
    return [f"{t} {n}" for t in tokens for n in ("One", "Two")]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_early_stop_lists_what_every_draw_would(data):
    n_samples = data.draw(st.integers(1, 12), label="n_samples")
    ft = data.draw(st.integers(1, n_samples), label="ft")
    draws = data.draw(
        st.lists(st.sampled_from((*TOKENS, " ")), min_size=n_samples, max_size=n_samples),
        label="draws",
    )
    transport = SequenceTransport(draws)
    oracle = ChatCompletionOracle(transport, max_in_flight=1)
    assert oracle.list_subconcepts(CTX, "Goats", ft, n_samples) == full_listing(draws, ft)
    assert transport.sent <= n_samples


@pytest.mark.parametrize("n_samples", range(1, 9))
def test_decided_holds_for_every_completion_of_the_draws(n_samples):
    """Whenever ``_decided`` holds, every way the draws left can fall, over
    the tokens seen and one never drawn, gives the same ``passing_tokens``;
    whenever it does not, some way gives another."""
    seen, unseen = ("A", "B", "C"), "U"
    for ft in range(1, n_samples + 1):
        for drawn in range(n_samples + 1):
            left = n_samples - drawn
            rests = [Counter(r) for r in combinations_with_replacement((*seen, unseen), left)]
            for sample in combinations_with_replacement(seen, drawn):
                counts = Counter(sample)
                results = {tuple(passing_tokens(counts + rest, ft)) for rest in rests}
                case = (dict(counts), left, ft)
                if _decided(dict(counts), left, ft):
                    assert results == {tuple(passing_tokens(counts, ft))}, case
                else:
                    assert len(results) > 1, case


def test_at_threshold_one_every_draw_is_sent():
    transport = SequenceTransport(["Dairy"] * 14)
    oracle = ChatCompletionOracle(transport, max_in_flight=4)
    assert oracle.sample_first_tokens("List.", 7, 1) == {"Dairy": 7}
    assert oracle.list_subconcepts(CTX, "Goats", 1, 7) == ["Dairy One", "Dairy Two"]
    assert transport.sent == 14


def recorded_sampling(monkeypatch) -> tuple[list[int], list[int]]:
    """Two lists that get, from here on, the size of each ``map`` call and
    the index of each draw sent rather than replayed."""
    waves, sent = [], []
    map_, complete = ChatCompletionOracle.map, ChatCompletionOracle.complete

    def recorded_map(oracle, fn, items):
        items = list(items)
        waves.append(len(items))
        return map_(oracle, fn, items)

    def recorded_complete(oracle, prompt, params=None, *, template_name="", index=0):
        result = complete(oracle, prompt, params, template_name=template_name, index=index)
        if not result.cached:
            sent.append(index)
        return result

    monkeypatch.setattr(ChatCompletionOracle, "map", recorded_map)
    monkeypatch.setattr(ChatCompletionOracle, "complete", recorded_complete)
    return waves, sent


# Each draw sequence leaves its listing open after the first wave.
@pytest.mark.parametrize(
    "draws, ft, waves",
    [
        (["Dairy"] * 10, 1, [10]),
        (["Meat", "Dairy"] * 5, 4, [7, 3]),
        (["Dairy"] * 10, 10, [1, 9]),
    ],
)
def test_waves_depend_on_n_samples_and_ft_alone(monkeypatch, draws, ft, waves):
    recorded, _ = recorded_sampling(monkeypatch)
    for max_in_flight in (1, 2, 4):
        oracle = ChatCompletionOracle(
            SequenceTransport(draws), max_in_flight=max_in_flight
        )
        oracle.sample_first_tokens("List.", len(draws), ft)
        assert recorded == waves, max_in_flight
        recorded.clear()


# At ft 4 of 10, the first wave of 7 draws decides the first sequence (no
# token but Dairy drawn) and leaves the second open (Meat at 2 can reach 4 in
# the 3 draws left).
@pytest.mark.parametrize(
    "draws, counts, waves",
    [
        (["Dairy"] * 7 + ["Meat"] * 3, {"Dairy": 7}, [7]),
        (["Dairy"] * 5 + ["Meat"] * 2 + ["Dairy"] * 3, {"Dairy": 8, "Meat": 2}, [7, 3]),
    ],
)
def test_the_same_draws_go_out_at_any_width_and_through_the_lane(
    monkeypatch, draws, counts, waves
):
    recorded, sent = recorded_sampling(monkeypatch)
    n_sent = sum(waves)
    for max_in_flight in (1, 2, 4):
        transport = SequenceTransport(draws)
        oracle = ChatCompletionOracle(transport, max_in_flight=max_in_flight)
        assert oracle.sample_first_tokens("List.", 10, 4) == counts
        assert (recorded, sorted(sent), transport.sent) == (waves, list(range(n_sent)), n_sent)
        recorded.clear()
        sent.clear()
    # The lane's view samples inline and stops at the same index; the crawl
    # thread asking afterwards replays every draw and sends nothing.
    transport = SequenceTransport(draws)
    oracle = ChatCompletionOracle(transport, max_in_flight=4)
    lane = oracle.lane(threading.Event())
    assert lane.sample_first_tokens("List.", 10, 4) == counts
    assert (recorded, sent, transport.sent) == (waves, list(range(n_sent)), n_sent)
    assert oracle.sample_first_tokens("List.", 10, 4) == counts
    assert (sent, transport.sent, oracle.ledger.requests) == (list(range(n_sent)),) + (n_sent,) * 2


# ---------------------------------------------------------------------------
# whole crawls at ft 3 of 10 draws


def thawed(frozen_checkpoint) -> dict:
    return json.loads(json.dumps(frozen_checkpoint, default=dict))


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_an_early_stopped_crawl_ends_where_the_mock_crawl_does(crawls, fixture, max_in_flight):
    """Every draw of a ``TaxonomyTransport`` is the same word, so each
    listing is decided after its first wave of 8 draws."""
    llm = crawls.llm(fixture, ft=3, n_samples=10, max_in_flight=max_in_flight, files=True)
    mock = crawls.mock(fixture, ft=3, n_samples=10)
    assert outcome(llm, "config.oracle") == outcome(mock, "config.oracle")
    hierarchy = parse_checkpoint(thawed(mock.checkpoint)).hierarchy
    owl, dot = (llm.out_dir / name for name in ("hierarchy.owl", "hierarchy.dot"))
    assert owl.read_text(encoding="utf-8") == export.to_owl_rdfxml(hierarchy)
    assert dot.read_text(encoding="utf-8") == export.to_dot(hierarchy)
    lines = (llm.out_dir / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    draws = Counter(
        rec["prompt"] for rec in records if rec.get("params", {}).get("max_tokens") == 1
    )
    assert draws and set(draws.values()) == {8}


class SplitSeedDraws(TaxonomyTransport):
    """Draws the seed's first tokens from ``DRAWS_AT_SEED`` in the order they
    are asked: Dairy passes, and Meat stays open past the first wave."""

    DRAWS_AT_SEED = ("Dairy",) * 6 + ("Meat",) * 4

    def __init__(self, taxonomy, **kwargs):
        super().__init__(taxonomy, **kwargs)
        self.seed_draws = 0
        self._draw_lock = threading.Lock()

    def _answer(self, name, b, draw):
        if draw and b["C"] == self.oracle.taxonomy.root:
            with self._draw_lock:
                self.seed_draws += 1
                return self.DRAWS_AT_SEED[self.seed_draws - 1]
        return super()._answer(name, b, draw)


def crawl_outputs(crawler, out_dir) -> dict:
    """The checkpoint less its ledger, and every output that no ledger count
    enters."""
    cli._write_outputs(crawler, out_dir)
    files = ("hierarchy.owl", "hierarchy.dot", "rejected.jsonl")
    return {"checkpoint": outcome(crawler), **{f: (out_dir / f).read_bytes() for f in files}}


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_a_failed_draw_in_any_wave_aborts_and_resumes_exactly(goats, tmp_path, max_in_flight):
    """Goats' first listing sends its 10 draws in waves of 8 and 2.  A
    refused draw request at each of them aborts the crawl, and the resumed
    crawl ends with the outputs of an uninterrupted one."""
    transport = SplitSeedDraws(goats)
    uninterrupted = llm_crawler(
        transport, "Goats", ft=3, n_samples=10, max_in_flight=max_in_flight,
        out_dir=tmp_path / "uninterrupted",
    )
    uninterrupted.run()
    assert transport.seed_draws == 10
    expected = crawl_outputs(uninterrupted, tmp_path / "uninterrupted")
    for k in range(10):
        asked = []

        def fail(name, b, k=k):
            """Refuses the ``k``-th draw request (from 0) of the seed's listing."""
            if name != "listing" or b["C"] != goats.root:
                return False
            asked.append(b)
            return len(asked) - 1 == k

        out_dir = tmp_path / f"draw-{k}"
        failing = llm_crawler(
            SplitSeedDraws(goats, fail=fail), "Goats", ft=3, n_samples=10,
            max_in_flight=max_in_flight, out_dir=out_dir,
        )
        with pytest.raises(CrawlAbortedError):
            failing.run()
        assert len(asked) == k + 1 if max_in_flight == 1 else len(asked) > k
        resumed = llm_crawler(
            SplitSeedDraws(goats), "Goats", max_in_flight=max_in_flight,
            out_dir=out_dir, data=load_checkpoint(out_dir / "checkpoint.json"),
        )
        resumed.run()
        assert crawl_outputs(resumed, out_dir) == expected, k
