"""Shared helpers: canned mock crawls, fake chat transports, oracle wrappers,
and the crawl matrix that runs each distinct crawl of a test session once."""

from __future__ import annotations

import copy
import functools
import random
import re
import threading
import time
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping
from unittest.mock import patch

import daggen
from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    ConceptHierarchy,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    OracleContext,
    cli,
    insertion,
    verification,
)
from ontocrawl import crawler as crawler_mod
from ontocrawl.crawler import CrawlStats, parse_checkpoint
from ontocrawl.errors import TransportError
from ontocrawl.llm_backend import CONTEXT_SENTENCE_PARENT, CONTEXT_SENTENCE_SELF, TEMPLATES
from ontocrawl.oracle import QueryLog

GOATS_PATH = Path(__file__).parent / "fixtures" / "goats.json"

# The fixtures the LLM path is checked on: goats and the first 20 random DAGs
# of acceptance criterion 2.
FIXTURE_NAMES = ("goats", *(f"c2-{i:02d}" for i in range(20)))


def c2_dag(i: int) -> tuple[int, list[tuple[int, int]]]:
    """Random DAG ``i`` of acceptance criterion 2, as ``(n, edges)``."""
    rng = random.Random(9000 + i)
    n = rng.randint(10, 50)
    return n, daggen.random_dag(rng, n, max_outdegree=5)


def c2_taxonomy(i: int, *, annotate_every: int = 0) -> GroundTruthTaxonomy:
    fixture = daggen.to_fixture(c2_dag(i)[1], annotate_every=annotate_every)
    return GroundTruthTaxonomy.from_json_dict(fixture)


def taxonomy_of(fixture: str, annotate_every: int = 0) -> GroundTruthTaxonomy:
    """Fixture ``fixture`` of ``FIXTURE_NAMES``; ``annotate_every`` gives a c2
    DAG its instances and parts (goats carries its own)."""
    if fixture == "goats":
        return GroundTruthTaxonomy.load(GOATS_PATH)
    return c2_taxonomy(int(fixture[3:]), annotate_every=annotate_every)


def full_run_stats() -> CrawlStats:
    """The statistics of a full goats run: the golden row of the summary table."""
    return CrawlStats(
        seed="Goats",
        exploration_depth=None,
        ft=20,
        n_concepts=24,
        n_dismissed=15,
        n_subsumptions=24,
        n_subsumptions_insertion=1,
        prompts_per_concept=22.25,
        cost_dollars=0.11,
        concepts_at_or_below_cutoff=24,
        concepts_above_cutoff=0,
        depth_histogram={0: 1, 1: 7, 2: 14, 3: 2},
        outdegree_histogram={0: 17, 1: 2, 2: 1, 4: 2, 5: 1, 7: 1},
        max_outdegree=7,
        avg_outdegree=1.0,
    )


# The rate of each noise mode that ``all_noise_modes`` turns on.
NOISE_RATES = {
    "p_hallucinated_edge": 0.05,
    "p_missing_edge": 0.1,
    "p_wrong_relation": 0.2,
    "p_attribute_inflation": 0.2,
    "p_nontransitive_denial": 0.2,
}


def all_noise_modes(seed: int, **rates: float) -> NoiseModel:
    """Every noise mode on at once, drawn from ``seed``, at ``NOISE_RATES``
    unless ``rates`` gives another."""
    return NoiseModel(rng_seed=seed, **{**NOISE_RATES, **rates})


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
    fail: tuple[str, BaseException, int] | None = None,
) -> Crawler:
    """A crawl of ``MockOracle``; with ``fail``, ``(operation, error,
    after)``, the oracle raises ``error`` on ``operation`` once it has
    answered ``after`` calls of it (``RaisingOracle``)."""
    config = CrawlConfig(
        seed_name=taxonomy.root,
        exploration_depth=depth,
        ft=ft,
        n_samples=n_samples,
        max_concepts=max_concepts,
        oracle=oracle_tag,
    )
    oracle = MockOracle(taxonomy, noise, renames=renames)
    if fail is not None:
        operation, error, after = fail
        oracle = RaisingOracle(oracle, operation, error, after=after)
    return Crawler(
        config,
        oracle,
        query_log=query_log if query_log is not None else QueryLog(),
        checkpoint_path=checkpoint_path,
        rejection_path=rejection_path,
    )


def run_mock_crawl(taxonomy: GroundTruthTaxonomy, **kwargs) -> Crawler:
    crawler = make_mock_crawler(taxonomy, **kwargs)
    crawler.run()
    return crawler


def scan_frontier(h: ConceptHierarchy, cutoff: int | None) -> list[int]:
    """The frontier, in the order of choice, by a linear scan over every concept."""
    keys = sorted(
        (c.depth, c.id)
        for c in h.concepts()
        if not c.explored and (cutoff is None or c.depth < cutoff)
    )
    return [cid for _, cid in keys]


def scan_next_unexplored(h: ConceptHierarchy, cutoff: int | None) -> int | None:
    """The frontier choice by a linear scan over every concept."""
    return next(iter(scan_frontier(h, cutoff)), None)


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
    """Delegates to an inner oracle, attribute writes included, raising on a
    chosen operation once the first ``after`` calls of it have been answered."""

    def __init__(self, inner, op_name: str, error: BaseException, *, after: int = 0):
        vars(self).update(
            _inner=inner, _op_name=op_name, _error=error, _after=after, calls=0
        )

    def __setattr__(self, name, value):
        if name in vars(self):
            vars(self)[name] = value
        else:
            setattr(self._inner, name, value)

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


@functools.lru_cache(maxsize=None)
def decode(prompt: str) -> tuple[str, Mapping[str, str]]:
    """The template name and read-only slot bindings ``render`` made
    ``prompt`` from; AssertionError unless exactly one pattern matches.  A
    prompt always decodes the same way, so each is decoded once; a refusal
    is not remembered and is raised again on every call."""
    found = [
        (name, MappingProxyType(m.groupdict()))
        for name, p in _PATTERNS
        if (m := p.fullmatch(prompt))
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


# ---------------------------------------------------------------------------
# crawls down the LLM path, and the crawl matrix


# The name prefix of the prefetch lane's thread.
LANE = "ontocrawl-prefetch"


def on_lane() -> bool:
    """Whether the calling code runs on the prefetch lane's thread."""
    return threading.current_thread().name.startswith(LANE)


class WithoutHooks:
    """Delegates to an oracle, attribute writes included, except that it
    has neither ``map`` nor ``lane``: a crawl through it warms no dialogue
    and runs no prefetch lane."""

    def __init__(self, oracle):
        vars(self)["_oracle"] = oracle

    def __getattr__(self, name):
        if name in ("map", "lane"):
            raise AttributeError(name)
        return getattr(self._oracle, name)

    def __setattr__(self, name, value):
        setattr(self._oracle, name, value)


@contextmanager
def recording_rounds():
    """A list that, while open, gets the ``(d, c)`` pairs of each round of
    insertion probes, as ``insertion`` hands it to the oracle."""
    rounds: list[list[tuple[str, str]]] = []
    ask = insertion._ask

    def recorded(oracle, questions):
        rounds.append([(d, c) for _ctx, d, c in questions])
        return ask(oracle, questions)

    with patch.object(insertion, "_ask", recorded):
        yield rounds


def llm_crawler(
    transport,
    seed_name: str,
    *,
    max_in_flight: int = 1,
    hide_map: bool = False,
    query_log: QueryLog | None = None,
    out_dir: Path | None = None,
    data: dict | None = None,
    **config,
) -> Crawler:
    """A crawl of ``seed_name`` down the LLM path: a ``ChatCompletionOracle``
    over ``transport`` with the config's ``params``, as the CLI builds it,
    behind ``WithoutHooks`` if ``hide_map``, with ft and n_samples 5 unless
    ``config`` says otherwise.  With ``out_dir``, the checkpoint and the
    rejection file are written there; with checkpoint ``data``, the crawl
    goes on from it."""
    checked = None if data is None else parse_checkpoint(data)
    crawl_config = checked.config if checked else CrawlConfig(
        seed_name=seed_name, **{"ft": 5, "n_samples": 5, **config}
    )
    oracle = ChatCompletionOracle(
        transport, params=CompletionParams(**crawl_config.params), max_in_flight=max_in_flight
    )
    crawl_oracle = WithoutHooks(oracle) if hide_map else oracle
    files = {"query_log": query_log if query_log is not None else QueryLog()}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        files["checkpoint_path"] = out_dir / "checkpoint.json"
        files["rejection_path"] = out_dir / "rejected.jsonl"
    if checked is not None:
        return Crawler.from_checkpoint(checked, crawl_oracle, **files)
    return Crawler(crawl_config, crawl_oracle, **files)


def record_dialogues(patches: ExitStack, warmed: dict, looped: dict) -> None:
    """Record into ``warmed`` and ``looped``, by ``(candidate, parent)``,
    each verification dialogue run by a warm pass or by the crawler's loop
    until ``patches`` closes: the prompts it asked, those of them sent
    rather than answered from the cache, the name it was renamed to, and
    whether that name was stored when it ran."""
    local = threading.local()
    verify, complete = verification.verify, ChatCompletionOracle.complete

    def recorded(into):
        def run(oracle, ctx, d, c):
            record = local.record = into[(d, c)] = {"asked": [], "sent": []}
            try:
                verdict = verify(oracle, ctx, d, c)
            finally:
                local.record = None
            record["new_name"] = verdict.new_name
            record["stored"] = verdict.new_name and ctx.known(verdict.new_name)
            return verdict

        return run

    def complete_recorded(oracle, prompt, *args, **kwargs):
        result = complete(oracle, prompt, *args, **kwargs)
        record = getattr(local, "record", None)
        if record is not None:
            record["asked"].append(prompt)
            if not result.cached:
                record["sent"].append(prompt)
        return result

    # ``verify_ahead`` looks ``verify`` up in its own module, the crawler's
    # loop in the crawler's.
    patches.enter_context(patch.object(verification, "verify", recorded(warmed)))
    patches.enter_context(patch.object(crawler_mod, "verify", recorded(looped)))
    patches.enter_context(patch.object(ChatCompletionOracle, "complete", complete_recorded))


def frozen(value):
    """``value`` with every dict made a read-only mapping and every list a tuple."""
    if isinstance(value, dict):
        return MappingProxyType({k: frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(frozen(v) for v in value)
    return value


@dataclass(frozen=True)
class CrawlKey:
    """Every field that defines a crawl of ``CrawlMatrix``."""

    fixture: str
    annotate_every: int = 0
    seed: int | None = None
    renamed: bool = False
    ft: int = 5
    n_samples: int = 5
    max_concepts: int | None = None
    llm: bool = False
    max_in_flight: int = 1
    hide_map: bool = False
    files: bool = False
    temperature: float = 0.0  # the LLM path's ``params.temperature``


@dataclass(frozen=True)
class CrawlOutcome:
    """What a finished crawl left, as read-only plain data."""

    checkpoint: Mapping
    prompts: tuple[str, ...]  # sorted
    transport_requests: int
    batch_sizes: tuple[int, ...]  # of each round of insertion probes (LLM path)
    warmed: Mapping  # the records of ``record_dialogues``
    looped: Mapping
    renames_answered: int  # by a mock oracle, with a name
    out_dir: Path | None  # with ``files``: the CLI's outputs and queries.jsonl

    @property
    def ledger_requests(self) -> int:
        return self.checkpoint["ledger"]["requests"]


class CrawlMatrix:
    """Each distinct crawl of a test session, run once and kept as a
    ``CrawlOutcome``.  ``seed`` draws ``all_noise_modes`` (None is a clean
    oracle) and ``renamed`` turns on ``renames_onto_first_child``.  ``mock``
    crawls through ``MockOracle``; ``llm`` crawls down the LLM path through a
    ``TaxonomyTransport``, under ``record_dialogues`` if the oracle has
    ``map``.  Crawls that change behaviour (failure hooks, latency, patched
    internals) run on their own instead."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.outcomes: dict[CrawlKey, CrawlOutcome] = {}

    def llm(self, fixture: str, **key) -> CrawlOutcome:
        return self.get(CrawlKey(fixture, llm=True, **key))

    def mock(self, fixture: str, **key) -> CrawlOutcome:
        return self.get(CrawlKey(fixture, **key))

    def get(self, key: CrawlKey) -> CrawlOutcome:
        if key.fixture == "goats":  # it carries its own instances and parts
            key = replace(key, annotate_every=0)
        if key not in self.outcomes:
            self.outcomes[key] = self._crawl(key)
        return self.outcomes[key]

    def _crawl(self, key: CrawlKey) -> CrawlOutcome:
        taxonomy = taxonomy_of(key.fixture, key.annotate_every)
        answers = {
            "noise": None if key.seed is None else all_noise_modes(key.seed),
            "renames": renames_onto_first_child(taxonomy) if key.renamed else None,
        }
        config = {"ft": key.ft, "n_samples": key.n_samples, "max_concepts": key.max_concepts}
        if key.temperature:
            config["params"] = {"temperature": key.temperature}
        transport, out_dir, warmed, looped, rounds = None, None, {}, {}, []
        if not key.llm:
            crawler = run_mock_crawl(taxonomy, **answers, **config)
        else:
            transport = TaxonomyTransport(taxonomy, **answers)
            out_dir = self.out_dir / f"crawl-{len(self.outcomes)}" if key.files else None
            query_log = QueryLog(out_dir / "queries.jsonl" if out_dir else None)
            crawler = llm_crawler(
                transport,
                taxonomy.root,
                max_in_flight=key.max_in_flight,
                hide_map=key.hide_map,
                query_log=query_log,
                out_dir=out_dir,
                **config,
            )
            with ExitStack() as patches, closing(query_log):
                rounds = patches.enter_context(recording_rounds())
                if not key.hide_map:
                    record_dialogues(patches, warmed, looped)
                crawler.run()
            if out_dir is not None:
                cli._write_outputs(crawler, out_dir)
        records = crawler.query_log.records
        renames = [rec["answer"] for rec in records if rec.get("op") == "rename_from_description"]
        return CrawlOutcome(
            frozen(crawler.to_checkpoint_dict()),
            tuple(sorted(rec["prompt"] for rec in records if "prompt" in rec)),
            transport.requests if transport else 0,
            tuple(map(len, rounds)),
            frozen(warmed),
            frozen(looped),
            sum(map(bool, renames)),
            out_dir,
        )


def outcome(source: Crawler | CrawlOutcome, *without: str) -> dict:
    """The checkpoint of ``source`` less its ledger and the fields named in
    ``without``, each a key or ``"section.key"``, as a new dict."""
    is_crawler = isinstance(source, Crawler)
    data = source.to_checkpoint_dict() if is_crawler else dict(source.checkpoint)
    for name in ("ledger", *without):
        section, _, key = name.partition(".")
        if key:
            data[section] = {k: v for k, v in data[section].items() if k != key}
        else:
            del data[section]
    return data
