"""An in-process chat-completion transport that answers from a taxonomy.

It stands in for a live model: every request sleeps a fixed latency, then
answers the prompt from the ground truth with the same rules as
``tests/support.TaxonomyTransport``.

One non-retryable failure can be injected.  It hits the first insertion probe
after the ``fail_at``-th distinct candidate has entered verification, so the
crawl aborts in the middle of a step, after that step's existence, listing,
description and earlier verification requests were answered (and, with a
working response cache, cached for the resumed run to replay).
Verification itself must not be hit: it treats a transport error as an
inconclusive answer and rejects the candidate instead of aborting.  An
insertion probe uses the same template as verification step 4, but asks
about another concept than the one being explored.
"""

from __future__ import annotations

import re
import threading
import time

from ontocrawl.errors import TransportError

EXISTENCE = "Are there any generally accepted subcategories of "
LISTING = "List all of the most important subcategories of "
VERIFY_INSTANCE = " a specific instance or a subcategory of the category "
SUBCATEGORY = " typically understood as a subcategory of "


def reply(text: str) -> dict:
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 0, "completion_tokens": 0},
    }


def _between(text: str, left: str, right: str) -> str:
    m = re.search(re.escape(left) + r"(.+?)" + re.escape(right), text)
    if m is None:
        raise AssertionError(f"could not parse prompt: {text!r}")
    return m.group(1)


class SleepingTaxonomyTransport:
    """Answers after ``latency_s``; fails once, as the module describes.

    ``fail_at`` counts distinct verified candidates from 1; None disables the
    fault.  State is locked because first-token sampling sends from a pool.
    """

    def __init__(self, taxonomy, latency_s: float, fail_at: int | None = None):
        self.taxonomy = taxonomy
        self.latency_s = latency_s
        self.fail_at = fail_at
        self.failed = 0
        self._exploring: str | None = None
        self._candidates: set[str] = set()
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        prompt = body["messages"][0]["content"]
        time.sleep(self.latency_s)
        with self._lock:
            if self._should_fail(prompt):
                self.failed += 1
                raise TransportError("injected HTTP 400", status=400, retryable=False)
        if body["max_tokens"] == 1:
            kids = self.taxonomy.children_of(_between(prompt, LISTING, ". Skip"))
            return reply(kids[0].split()[0] if kids else "None")
        return reply(self._answer(prompt))

    def _should_fail(self, prompt: str) -> bool:
        if self.fail_at is None or self.failed:
            return False
        if EXISTENCE in prompt:
            self._exploring = _between(prompt, EXISTENCE, "? Answer")
        elif VERIFY_INSTANCE in prompt:
            self._candidates.add(_between(prompt, "Is ", VERIFY_INSTANCE))
        elif SUBCATEGORY in prompt and len(self._candidates) >= self.fail_at:
            return _between(prompt, SUBCATEGORY, "? Answer") != self._exploring
        return False

    def _answer(self, prompt: str) -> str:
        tax = self.taxonomy
        if EXISTENCE in prompt:
            c = _between(prompt, EXISTENCE, "? Answer")
            return "Yes" if tax.children_of(c) else "No"
        if LISTING in prompt:
            return ", ".join(tax.children_of(_between(prompt, LISTING, ". Skip")))
        if "Give a brief description of every term on the list" in prompt:
            terms = prompt.splitlines()[1].split(", ")
            return "\n".join(
                f"{t}: {tax.description_for(t) or f'A kind of {tax.root}.'}"
                for t in terms
            )
        if VERIFY_INSTANCE in prompt:
            d = _between(prompt, "Is ", VERIFY_INSTANCE)
            return "Instance" if tax.is_instance_name(d) else "Subcategory"
        if " a part or a subcategory of the category " in prompt:
            d = _between(prompt, "Is ", " a part or a subcategory")
            return "Part" if tax.is_part_name(d) else "Subcategory"
        if " be considered a subcategory of " in prompt:
            d = _between(prompt, "Can ", " be considered")
            c0 = _between(prompt, " be considered a subcategory of ", "? Answer")
            return "Yes" if tax.has_name(d) and tax.reaches(d, c0) else "No"
        if SUBCATEGORY in prompt:
            d = _between(prompt, "Is ", SUBCATEGORY)
            c = _between(prompt, SUBCATEGORY, "? Answer")
            return "Yes" if tax.reaches(d, c) else "No"
        raise AssertionError(f"unscripted prompt: {prompt!r}")
