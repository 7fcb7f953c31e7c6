"""The prompts a crawl sends down the LLM path, pinned.

Each fixture is crawled through ``ChatCompletionOracle`` against a
``TaxonomyTransport``; the request count and a SHA-256 over the sorted
prompts must not change when the oracle, the crawler or the test transport
is refactored.  At ``ft`` = ``n_samples`` = 5 every first-token draw is sent;
a second pin holds goats at ``ft`` 3 of 10 draws, where sampling stops once
the threshold has decided a listing.
"""

from __future__ import annotations

import hashlib

import pytest

from support import FIXTURE_NAMES

# Recorded from these crawls; a change that alters any prompt, or how often
# one is sent, changes the pin.
PINNED_TRAFFIC = {
    "goats": (165, "af155b1caa1a29e5c0d187d15062f2dc618fbe18469a0e1e831e626facc987f5"),
    "c2-00": (497, "1f0b538ff768211726466a6c3d16ba7012e510231a7920642f3d8f42528f8fd1"),
    "c2-01": (147, "9d5fac9dbffaec9fb1178e2a4b543d42d7c2e42ae1369791647317359527de10"),
    "c2-02": (407, "c7d56d07320429c1b6c8a3fb72bccc77a5a4dd92929f9731715d756be995b39f"),
    "c2-03": (838, "ff0681e2a2e5084c55c74ddadc7f479a66967abd0bfaed22b5b5d7fcb7c2d2d5"),
    "c2-04": (696, "7f31b844873eaeea9624642e8aa6085b79248cca9215d4331d3c4d0deb73f9f2"),
    "c2-05": (493, "89c4addd8e7cc9cb44d9826cddcc3bf9c5a4f4123f9724d2e08af0241a7da22f"),
    "c2-06": (173, "7bc31cdb98654669a1e35bb919ba57be23239d5f1ac21925dd061e9e5929b099"),
    "c2-07": (495, "9cf1c62f00ac6b4c3105c513fa3693f02b1d0f7e03e224772eddfec0ef1e1b64"),
    "c2-08": (826, "03eefda8ed4052660b36290e5379811b622f4bd9f933f6e575e97ac43475deaa"),
    "c2-09": (399, "afcf0c92ea30533dda35bccedae6ba45a79cfa067b21cd67e84bf7a91c454b5f"),
    "c2-10": (226, "b5859b662340797c33f399747099b8c3ef43564ae50ea2e874f045d7b4f8651f"),
    "c2-11": (750, "0f4ece177b6822a2ccfc9209393e5010905cc0100950dff6c2bb3890b00d2dab"),
    "c2-12": (460, "31571b1217482dd8bd38d86da71cb9670ae8630f91bf900681ee93527e742cd5"),
    "c2-13": (524, "e431d9f7170bfcee3b99fcc24d72c458cd03c810b0e2d7cba534c8760e6f6bd5"),
    "c2-14": (490, "8d9e06cc5c21cc2524574a393025c1c1bc357dddcc32d942958a2f4816660127"),
    "c2-15": (151, "68b8bc474b9c7a39a40fe81dd107bcc8639329cc58341529346d2b11a4301213"),
    "c2-16": (608, "ae28ebfb898795ee207aec074cb74f65d66e89fc2a40a66872e85c445f92311b"),
    "c2-17": (662, "deba3f0db04db246987ecf0eaeaa3644f59b11c6e796ed06d5509c2b71200e1f"),
    "c2-18": (353, "39c88c6ea6a42aab0589d3b779fed951a402369214ac3ef2fb6556404e215a93"),
    "c2-19": (574, "28d0a59bbf837f64ad03309ab65e1b655ae7ae7bee64694537c960431456359c"),
}


# Goats at ft 3 of 10: 8 draws per listing, where all 10 went out before the
# stop rule; a change to that rule changes the pin.
PINNED_EARLY_STOP_TRAFFIC = (
    180,
    "0f629d59d200577d59c465d337c09b617c7c1d4c8dd24f84ff80938de9667a93",
)


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_llm_crawl_sends_the_pinned_prompts(name, max_in_flight, crawls):
    # The crawls of the byte test in test_concurrent_waves.py.
    crawl = crawls.llm(name, max_in_flight=max_in_flight, files=True)
    prompts = crawl.prompts
    assert len(prompts) == crawl.transport_requests == crawl.ledger_requests
    digest = hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest()
    assert (crawl.transport_requests, digest) == PINNED_TRAFFIC[name]


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_an_early_stopped_crawl_sends_the_pinned_prompts(max_in_flight, crawls):
    # The crawls of the early-stop gate in test_draw_stop.py.
    crawl = crawls.llm("goats", ft=3, n_samples=10, max_in_flight=max_in_flight, files=True)
    prompts = crawl.prompts
    assert len(prompts) == crawl.transport_requests == crawl.ledger_requests
    digest = hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest()
    assert (crawl.transport_requests, digest) == PINNED_EARLY_STOP_TRAFFIC
