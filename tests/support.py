"""Shared helpers: canned mock crawls, fake chat transports, oracle wrappers."""

from __future__ import annotations

import copy
import random
import re
import threading
import time
from collections import Counter
from pathlib import Path

import daggen
from ontocrawl import (
    ConceptHierarchy,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    OracleContext,
)
from ontocrawl.errors import TransportError
from ontocrawl.llm_backend import (
    CONTEXT_SENTENCE_PARENT,
    CONTEXT_SENTENCE_SELF,
    TEMPLATES,
    CostLedger,
)
from ontocrawl.oracle import QueryLog


def c2_dag(i: int) -> tuple[int, list[tuple[int, int]]]:
    """Random DAG ``i`` of acceptance criterion 2, as ``(n, edges)``."""
    rng = random.Random(9000 + i)
    n = rng.randint(10, 50)
    return n, daggen.random_dag(rng, n, max_outdegree=5)


def c2_taxonomy(i: int, *, annotate_every: int = 0) -> GroundTruthTaxonomy:
    fixture = daggen.to_fixture(c2_dag(i)[1], annotate_every=annotate_every)
    return GroundTruthTaxonomy.from_json_dict(fixture)


def all_noise_modes(seed: int) -> NoiseModel:
    """Every noise mode on at once, drawn from ``seed``."""
    return NoiseModel(
        rng_seed=seed,
        p_hallucinated_edge=0.05,
        p_missing_edge=0.1,
        p_wrong_relation=0.2,
        p_attribute_inflation=0.2,
        p_nontransitive_denial=0.2,
    )


def renames_onto_first_child(taxonomy: GroundTruthTaxonomy) -> dict[str, str]:
    """A ``renames`` map sending every undescribed candidate, such as an
    inflated name, to the first child of the root."""
    return {f"A kind of {taxonomy.root}.": taxonomy.children_of(taxonomy.root)[0]}


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


# Malformed checkpoint fields: the key path a bad value is written to, and
# the value (``ABSENT`` deletes the field).  ``parse_checkpoint`` is the one
# reader of a checkpoint, so ``stats``, ``export`` and ``resume`` each refuse
# every case with exit 2, and ``Crawler.from_checkpoint`` with CheckpointError.
ABSENT = object()
MALFORMED_CHECKPOINT_FIELDS = {
    "edge endpoint a string": (("hierarchy", "direct_edges", 0, 0), "1"),
    "edge endpoint a float": (("hierarchy", "direct_edges", 0, 1), 0.0),
    # The finished goats run stores [6, 1] and then [6, 4]; this makes both [6, 1].
    "edge pair repeated": (("hierarchy", "direct_edges", 6, 1), 1),
    "edge origin not a triple": (("edge_origins",), [[1]]),
    "edge origin a list": (("edge_origins", 0, 2), [5]),
    "edge origin of no stored edge": (("edge_origins", 0), ["", "", "x"]),
    "edge origins empty": (("edge_origins",), []),
    "description a number": (("hierarchy", "concepts", 1, "description"), 5),
    "synonyms a string": (("hierarchy", "concepts", 1, "synonyms"), "xy"),
    "explored a string": (("hierarchy", "concepts", 1, "explored"), "no"),
    "ledger count not a number": (("ledger", "requests"), "many"),
    "ledger count a numeric string": (("ledger", "requests"), "7"),
    "ledger count a bool": (("ledger", "requests"), True),
    "ledger dollars a string": (("ledger", "dollars"), "0.5"),
    "ledger field unknown": (("ledger", "cents"), 0),
    "rejection count not a number": (("counters", "rejections"), "x"),
    "rejection count a float": (("counters", "rejections"), 2.9),
    "rejection count not the rejections": (("counters", "rejections"), 3),
    "counter not a number": (("counters", "explorations"), "x"),
    "counter a float": (("counters", "explorations"), 2.9),
    "rejections a string": (("rejections",), "ab"),
    "rejection not an object": (("rejections",), [1]),
    "discovery key not a number": (("discovered_from", "x"), 0),
    "discovery key with a leading zero": (("discovered_from", "01"), "Goats"),
    "discovery value a number": (("discovered_from", "1"), 7),
    "frontier holds a list": (("frontier",), [[1]]),
    "config missing": (("config",), ABSENT),
    "config field missing": (("config", "params"), ABSENT),
}


def with_value_at(data: dict, path: tuple, value) -> dict:
    """A deep copy of checkpoint ``data`` with ``value`` written at key path
    ``path``, or the field there deleted when ``value`` is ``ABSENT``."""
    data = copy.deepcopy(data)
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    if value is ABSENT:
        del target[last]
    else:
        target[last] = value
    return data


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


def _template_patterns() -> list[tuple[str, re.Pattern]]:
    """``(template name, pattern)`` pairs inverting ``llm_backend.render``: one
    per body and number of context sentences, slots as named groups, a slot's
    second use as a backreference, and trailing description lines allowed.
    Only a rename's description may be empty: verification sends ``""`` for
    a candidate the description reply gave no text."""
    parent, own = CONTEXT_SENTENCE_PARENT + " ", CONTEXT_SENTENCE_SELF + " "
    out = []
    for tpl in TEMPLATES.values():
        for prefix in ["", own, parent + own] if tpl.context_prefix else [""]:
            seen: set[str] = set()
            parts = re.split(r"\{(\w+)\}", prefix + tpl.body)
            regex = re.escape(parts[0])
            for slot, text in zip(parts[1::2], parts[2::2]):
                fill = ".*?" if (tpl.name, slot) == ("rename", "description") else ".+?"
                regex += f"(?P={slot})" if slot in seen else f"(?P<{slot}>{fill})"
                regex += re.escape(text)
                seen.add(slot)
            out.append((tpl.name, re.compile(regex + r"(?:\n.*)*")))
    return out


_PATTERNS = _template_patterns()


def decode(prompt: str) -> tuple[str, dict[str, str]]:
    """The template name and slot bindings ``render`` made ``prompt`` from;
    AssertionError unless exactly one pattern matches."""
    found = [
        (name, m.groupdict()) for name, p in _PATTERNS if (m := p.fullmatch(prompt))
    ]
    if len(found) != 1:
        names = [name for name, _ in found]
        raise AssertionError(f"prompt matches templates {names}: {prompt!r}")
    return found[0]


# Each yes/no-style template: the ``MockOracle`` method that answers it, the
# slots it is asked about, and the reply words for True and for False.
_BINARY_TEMPLATES = {
    "existence": ("has_subconcepts", ("C",), "Yes", "No"),
    "verify_instance": ("is_instance", ("D",), "Instance", "Subcategory"),
    "verify_part": ("is_part", ("D",), "Part", "Subcategory"),
    "verify_seed": ("under_seed", ("D",), "Yes", "No"),
    "verify_subcat": ("is_subcategory_of", ("D", "C"), "Yes", "No"),
    "synonym_interchangeable": ("interchangeable", ("D1", "D2"), "Yes", "No"),
}


class TaxonomyTransport:
    """Answers chat-completion prompts through a ``MockOracle`` over a
    ground-truth fixture, with its ``noise`` and ``renames``: ``decode`` reads
    the template name and bindings of each prompt, the matching oracle method
    answers, and the answer is written as reply text.  So a crawl down the
    LLM path and a mock crawl share one set of answer rules.

    A first-token draw (max_tokens=1) returns the first word of the listed
    concept's first child, so exactly one token passes the threshold; a
    rename to None is an empty reply.  Every request sleeps ``latency_s``;
    ``fail(template_name, bindings)``, asked under the lock, refuses it
    non-retryably by returning True.  ``peak`` and ``peak_by_template`` gauge
    the most requests ever in flight at once.
    """

    def __init__(
        self,
        taxonomy: GroundTruthTaxonomy,
        *,
        noise: NoiseModel | None = None,
        renames: dict[str, str] | None = None,
        latency_s: float = 0.0,
        fail=None,
    ):
        self.oracle = MockOracle(taxonomy, noise, renames=renames)
        self.latency_s = latency_s
        self.fail = fail
        self.requests = self.peak = 0
        self.in_flight: Counter[str] = Counter()
        self.peak_by_template: Counter[str] = Counter()
        self._lock = threading.Lock()

    def send(self, body: dict) -> dict:
        name, b = decode(body["messages"][0]["content"])
        with self._lock:
            if self.fail is not None and self.fail(name, b):
                raise TransportError("HTTP 400", status=400, retryable=False)
            self.requests += 1
            self.in_flight[name] += 1
            self.peak = max(self.peak, self.in_flight.total())
            self.peak_by_template[name] = max(
                self.peak_by_template[name], self.in_flight[name]
            )
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            return reply(self._answer(name, b, draw=body["max_tokens"] == 1))
        finally:
            with self._lock:
                self.in_flight[name] -= 1

    def _answer(self, name: str, b: dict[str, str], draw: bool) -> str:
        oracle = self.oracle
        # Prompts that leave out the seed are asked of the fixture's root.
        ctx = OracleContext(b.get("C0", oracle.taxonomy.root))
        if name in ("listing", "listing_continuation"):
            # ft and n_samples only label query-log records; this oracle keeps none.
            kids = oracle.list_subconcepts(ctx, b["C"], 1, 1)
            if draw:
                return kids[0].split()[0] if kids else "None"
            return ", ".join(kids)
        if name == "description":
            described = oracle.describe(ctx, b["terms"].split(", "))
            return "\n".join(f"{term}: {text}" for term, text in described.items())
        if name == "rename":
            return oracle.rename_from_description(ctx, b["C"], b["description"]) or ""
        if name == "synonym_direction":
            low, high = oracle.subcategory_direction(ctx, b["D1"], b["D2"])
            return f"[[{low}]] is a subcategory of [[{high}]]"
        method, slots, yes, no = _BINARY_TEMPLATES[name]
        answer = getattr(oracle, method)(ctx, *(b[slot] for slot in slots))
        return yes if answer else no
