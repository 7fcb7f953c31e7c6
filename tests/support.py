"""Shared helpers: canned mock crawls, scripted transports, oracle wrappers."""

from __future__ import annotations

import re
import threading
from pathlib import Path

import daggen
from ontocrawl import (
    ConceptHierarchy,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
)
from ontocrawl.llm_backend import CostLedger
from ontocrawl.oracle import QueryLog


def build_hierarchy(edges: list[tuple[int, int]], n: int) -> ConceptHierarchy:
    """Materialize a daggen DAG; node i gets hierarchy id i."""
    h = ConceptHierarchy(daggen.name_for(0))
    for i in range(1, n):
        parents = [p for c, p in edges if c == i]
        h.add_concept(daggen.name_for(i), parents)
    return h


def hierarchy_from_taxonomy(
    tax: GroundTruthTaxonomy, skip: tuple[str, ...] = ()
) -> ConceptHierarchy:
    """Materialize a ground-truth fixture directly, bypassing any oracle.

    Children are added in first-mention order, so fixtures must list every
    parent before its children (ours do).
    """
    h = ConceptHierarchy(tax.root)
    parents_by_child: dict[str, list[str]] = {}
    order: list[str] = []
    for child, parent in tax.edges:
        if child in skip:
            continue
        if child not in parents_by_child:
            parents_by_child[child] = []
            order.append(child)
        parents_by_child[child].append(parent)
    for child in order:
        pids = [h.find_by_name(p) for p in parents_by_child[child]]
        h.add_concept(child, pids, description=tax.description_for(child))
    return h


def make_mock_crawler(
    taxonomy: GroundTruthTaxonomy,
    *,
    noise: NoiseModel | None = None,
    renames: dict[str, str] | None = None,
    depth: int | None = None,
    ft: int = 20,
    n_samples: int = 100,
    max_concepts: int | None = None,
    oracle_tag: str = "mock:fixture",
    checkpoint_path: str | Path | None = None,
    rejection_path: str | Path | None = None,
    query_log: QueryLog | None = None,
) -> Crawler:
    config = CrawlConfig(
        seed_name=taxonomy.root,
        exploration_depth=depth,
        ft=ft,
        n_samples=n_samples,
        max_concepts=max_concepts,
        oracle=oracle_tag,
    )
    query_log = query_log if query_log is not None else QueryLog()
    ledger = CostLedger()
    oracle = MockOracle(
        taxonomy, noise, renames=renames, query_log=query_log, ledger=ledger
    )
    return Crawler(
        config,
        oracle,
        query_log=query_log,
        ledger=ledger,
        checkpoint_path=checkpoint_path,
        rejection_path=rejection_path,
    )


def run_mock_crawl(taxonomy: GroundTruthTaxonomy, **kwargs) -> Crawler:
    crawler = make_mock_crawler(taxonomy, **kwargs)
    crawler.run()
    return crawler


def scan_next_unexplored(h: ConceptHierarchy, cutoff: int | None) -> int | None:
    """The frontier choice by a linear scan over every concept."""
    keys = [
        (c.depth, c.id)
        for c in h.concepts()
        if not c.explored and (cutoff is None or c.depth < cutoff)
    ]
    return min(keys)[1] if keys else None


def edge_names(crawler_or_hierarchy) -> set[tuple[str, str]]:
    h = getattr(crawler_or_hierarchy, "hierarchy", crawler_or_hierarchy)
    return {
        (h.concept(c).canonical_name, h.concept(p).canonical_name)
        for c, p in h.direct_edges()
    }


class RaisingOracle:
    """Delegates to an inner oracle, raising on a chosen operation once the
    first ``after`` calls of it have been answered."""

    def __init__(self, inner, op_name: str, error: BaseException, *, after: int = 0):
        self._inner = inner
        self._op_name = op_name
        self._error = error
        self._after = after
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._op_name or not callable(attr):
            return attr

        def boom(*args, **kwargs):
            self.calls += 1
            if self.calls > self._after:
                raise self._error
            return attr(*args, **kwargs)

        return boom


def reply(text: str, pt: int = 0, ct: int = 0) -> dict:
    """A chat-completion response body carrying one message."""
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": pt, "completion_tokens": ct},
    }


class StubTransport:
    """Plays back a script of canned replies and exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.bodies: list[dict] = []
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        with self._lock:
            self.bodies.append(body)
            if not self.script:
                raise AssertionError("transport got more requests than scripted")
            item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TaxonomyTransport:
    """Answers chat-completion prompts straight from a ground-truth fixture.

    First-token sampling requests (max_tokens=1) return the first word of the
    queried concept's first child, so exactly one token passes the frequency
    threshold and its continuation carries the full child list.  Prompts no
    clean crawl should ever send (rename, synonym questions) raise.
    """

    def __init__(self, taxonomy: GroundTruthTaxonomy):
        self.taxonomy = taxonomy
        self.requests = 0
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        with self._lock:
            self.requests += 1
        prompt = body["messages"][0]["content"]
        if body["max_tokens"] == 1:
            kids = self.taxonomy.children_of(self._listed_concept(prompt))
            return reply(kids[0].split()[0] if kids else "None")
        return reply(self._answer(prompt))

    @staticmethod
    def _between(text: str, left: str, right: str) -> str:
        m = re.search(re.escape(left) + r"(.+?)" + re.escape(right), text)
        if m is None:
            raise AssertionError(f"could not parse prompt: {text!r}")
        return m.group(1)

    def _listed_concept(self, prompt: str) -> str:
        return self._between(
            prompt, "List all of the most important subcategories of ", ". Skip"
        )

    def _answer(self, prompt: str) -> str:
        tax = self.taxonomy
        if "Are there any generally accepted subcategories of " in prompt:
            c = self._between(
                prompt, "Are there any generally accepted subcategories of ", "? Answer"
            )
            return "Yes" if tax.children_of(c) else "No"
        if "List all of the most important subcategories of " in prompt:
            return ", ".join(tax.children_of(self._listed_concept(prompt)))
        if "Give a brief description of every term on the list" in prompt:
            terms = prompt.splitlines()[1].split(", ")
            return "\n".join(
                f"{t}: {tax.description_for(t) or f'A kind of {tax.root}.'}"
                for t in terms
            )
        if " a specific instance or a subcategory of the category " in prompt:
            d = self._between(prompt, "Is ", " a specific instance")
            return "Instance" if tax.is_instance_name(d) else "Subcategory"
        if " a part or a subcategory of the category " in prompt:
            d = self._between(prompt, "Is ", " a part or a subcategory")
            return "Part" if tax.is_part_name(d) else "Subcategory"
        if " be considered a subcategory of " in prompt:
            d = self._between(prompt, "Can ", " be considered")
            c0 = self._between(prompt, " be considered a subcategory of ", "? Answer")
            return "Yes" if tax.has_name(d) and tax.reaches(d, c0) else "No"
        if " typically understood as a subcategory of " in prompt:
            d = self._between(prompt, "Is ", " typically understood")
            c = self._between(
                prompt, " typically understood as a subcategory of ", "? Answer"
            )
            return "Yes" if tax.reaches(d, c) else "No"
        raise AssertionError(f"unscripted prompt: {prompt!r}")
