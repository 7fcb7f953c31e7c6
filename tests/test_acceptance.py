"""End-to-end acceptance checks.

One test per shipping criterion: reference-taxonomy reproduction, oracle
equivalence over random ground truths, probe economy, frequency-threshold
semantics, verification dialogues, structural invariants under mutation,
OWL round-trips, statistics fidelity, and an optional live-endpoint smoke
test.  Run with -v to get one pass/fail line per criterion.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import closing
from dataclasses import dataclass

import pytest

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    ConceptHierarchy,
    CrawlConfig,
    Crawler,
    GroundTruthTaxonomy,
    MockOracle,
    OracleContext,
    QueryLog,
    ResponseCache,
)
from ontocrawl.errors import CycleError
from ontocrawl.export import compute_stats, render_stats_text, to_owl_rdfxml
from ontocrawl.llm_backend import passing_tokens
from ontocrawl.verification import (
    ACCEPTED_RENAMED,
    REASON_INSTANCE,
    REASON_PART,
    REJECTED,
    verify,
)

import daggen
from conftest import FIXTURES
from owl_check import OwlDoc, parse_owl
from support import (
    StubTransport,
    build_hierarchy,
    c2_dag,
    edge_names,
    full_run_stats,
    hierarchy_from_taxonomy,
    make_mock_crawler,
    reply,
)


# ---------------------------------------------------------------------------
# criterion 1: the goats reference crawl


def test_c1_goats_crawl_reproduces_the_reference_taxonomy(goats):
    start = time.perf_counter()
    crawler = make_mock_crawler(goats)
    crawler.run()
    elapsed = time.perf_counter() - start

    h = crawler.hierarchy
    # 14 reachable names; Nigerian Dwarf carries two of the 14 edges.
    assert len(h) == 14
    assert edge_names(h) == {(c, p) for c, p in goats.edges}
    nd = h.find_by_name("Nigerian Dwarf")
    parents = {h.concept(p).canonical_name for p in h.direct_parents(nd)}
    assert parents == {"Dairy Goats", "Mini. Goats"}
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criteria 2 and 3: random ground truths, full-crawl equivalence and probes


@dataclass
class Trial:
    n: int
    want: set
    got: set
    n_concepts: int
    probes_issued: int
    probe_baseline: int


@pytest.fixture(scope="module")
def random_trials():
    trials = []
    start = time.perf_counter()
    for i in range(100):
        n, edges = c2_dag(i)
        taxonomy = GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges))
        crawler = make_mock_crawler(taxonomy)
        crawler.run()
        trials.append(
            Trial(
                n=n,
                want={(daggen.name_for(c), daggen.name_for(p)) for c, p in edges},
                got=edge_names(crawler.hierarchy),
                n_concepts=len(crawler.hierarchy),
                probes_issued=crawler.probes_issued,
                probe_baseline=crawler.probe_baseline,
            )
        )
    return trials, time.perf_counter() - start


def test_c2_noise_free_crawls_rebuild_random_taxonomies_exactly(random_trials):
    trials, elapsed = random_trials
    assert len(trials) == 100
    for t in trials:
        assert t.n_concepts == t.n
        true_positives = t.got & t.want
        precision = len(true_positives) / len(t.got)
        recall = len(true_positives) / len(t.want)
        assert precision == 1.0 and recall == 1.0
        assert t.got == t.want
    assert elapsed < 60.0


def test_c3_insertion_probes_beat_the_pairwise_baseline(random_trials):
    trials, _ = random_trials
    savings = []
    for t in trials:
        assert t.probe_baseline == t.n * (t.n - 1)
        assert t.probes_issued < t.probe_baseline
        savings.append(1.0 - t.probes_issued / t.probe_baseline)
    mean = sum(savings) / len(savings)
    print(f"mean probe savings: {mean:.1%}")
    assert mean >= 0.30, f"mean probe savings {mean:.1%} below 30%"


# ---------------------------------------------------------------------------
# criterion 4: frequency-threshold semantics over a seeded token distribution


def test_c4_frequency_threshold_picks_tokens_from_a_seeded_distribution():
    start = time.perf_counter()
    tokens = (
        ["Dairy"] * 40 + ["Meat"] * 30 + ["Fiber"] * 20
        + ["Mini."] * 6 + ["Show"] * 4
    )
    random.Random(7).shuffle(tokens)

    def draw_counts() -> dict[str, int]:
        transport = StubTransport([reply(t) for t in tokens])
        oracle = ChatCompletionOracle(
            transport, params=CompletionParams(), max_in_flight=1
        )
        return oracle.sample_first_tokens("List the kinds of Goats:", 100, 1)

    counts = draw_counts()
    assert counts == {"Dairy": 40, "Meat": 30, "Fiber": 20, "Mini.": 6, "Show": 4}
    assert counts == draw_counts()
    assert passing_tokens(counts, 20) == ["Dairy", "Meat", "Fiber"]
    assert passing_tokens(counts, 5) == ["Dairy", "Meat", "Fiber", "Mini."]
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 5: verification dialogues


APPLE_DESC = "A fruit-bearing tree of the genus Malus."


def test_c5_verification_dialogues_settle_within_nine_calls():
    universities = GroundTruthTaxonomy.from_json_dict(
        {
            "root": "University",
            "edges": [],
            "instances": {"University": ["Yale University"]},
        }
    )
    v = verify(
        MockOracle(universities),
        OracleContext(seed_name="University"),
        "Yale University",
        "University",
    )
    assert v.outcome == REJECTED and v.reason == REASON_INSTANCE
    assert len(v.transcript) == 1

    feet = GroundTruthTaxonomy.from_json_dict(
        {"root": "Feet", "edges": [], "parts": {"Feet": ["Toes"]}}
    )
    v = verify(MockOracle(feet), OracleContext(seed_name="Feet"), "Toes", "Feet")
    assert v.outcome == REJECTED and v.reason == REASON_PART
    assert len(v.transcript) == 2

    trees = GroundTruthTaxonomy.from_json_dict(
        {
            "root": "Tree",
            "edges": [["Apple Tree", "Tree"]],
            "descriptions": {"Apple Tree": APPLE_DESC},
        }
    )
    oracle = MockOracle(trees, renames={APPLE_DESC: "Apple Tree"})
    ctx = OracleContext(seed_name="Tree", descriptions={"Apple": APPLE_DESC})
    v = verify(oracle, ctx, "Apple", "Tree")
    assert v.outcome == ACCEPTED_RENAMED and v.new_name == "Apple Tree"
    assert len(v.transcript) <= 9


# ---------------------------------------------------------------------------
# criterion 6: structural invariants under randomized mutation


def reaches_up(parents: dict[int, set[int]], start: int, goal: int) -> bool:
    seen = set()
    queue = [start]
    while queue:
        x = queue.pop()
        for p in parents.get(x, ()):
            if p == goal:
                return True
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return False


def fold_edges(edges: set, survivor: int, loser: int) -> set:
    swap = lambda x: survivor if x == loser else x
    folded = {(swap(c), swap(p)) for c, p in edges}
    folded.discard((survivor, survivor))
    return folded


def to_parents(edges: set) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for c, p in edges:
        out.setdefault(c, set()).add(p)
    return out


def assert_matches_model(h: ConceptHierarchy, model_edges: set, live: list[int]):
    direct = set(h.direct_edges())
    assert daggen.is_acyclic(set(live), direct)
    assert direct == daggen.reduce_edges(sorted(model_edges))
    up = daggen.closure_up(sorted(model_edges))
    # Depth counts edges in the reduced DAG, not over asserted shortcuts.
    depths = daggen.bfs_depths(sorted(daggen.reduce_edges(sorted(model_edges))),
                               root=h.seed_id)
    assert set(h.ids()) == set(live)
    for cid in live:
        assert h.ancestors(cid) == up.get(cid, set())
        assert h.concept(cid).depth == depths[cid]


def mutate_and_check(rng: random.Random, n_ops: int, check_each: bool):
    h = ConceptHierarchy("Node 0")
    model_edges: set = set()
    live = [h.seed_id]
    next_name = 1
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.55 or len(live) < 3:
            k = min(len(live), 1 + (rng.random() < 0.3) + (rng.random() < 0.1))
            parents = rng.sample(live, k)
            cid = h.add_concept(f"Node {next_name}", parents)
            next_name += 1
            live.append(cid)
            model_edges |= {(cid, p) for p in parents}
        elif roll < 0.85:
            child, parent = rng.sample(live, 2)
            if reaches_up(to_parents(model_edges), parent, child):
                before = h.direct_edges()
                with pytest.raises(CycleError):
                    h.add_subsumption(child, parent)
                assert h.direct_edges() == before
            else:
                h.add_subsumption(child, parent)
                model_edges.add((child, parent))
        else:
            a, b = rng.sample(live[1:], 2)
            s, loser = min(a, b), max(a, b)
            folded = fold_edges(model_edges, s, loser)
            # Identifying two nodes can only close a cycle through the
            # survivor, so one reachability walk decides the outcome.
            if reaches_up(to_parents(folded), s, s):
                before = h.direct_edges()
                with pytest.raises(CycleError):
                    h.merge_synonyms(a, b)
                assert h.direct_edges() == before
            else:
                assert h.merge_synonyms(a, b) == s
                model_edges = folded
                live.remove(loser)
        if check_each:
            assert_matches_model(h, model_edges, live)
    assert_matches_model(h, model_edges, live)


def test_c6_hierarchy_invariants_hold_under_randomized_mutation():
    for i in range(1000):
        rng = random.Random(50_000 + i)
        n_ops = rng.randint(50, 200) if i % 20 == 0 else rng.randint(5, 40)
        mutate_and_check(rng, n_ops, check_each=i < 100 and n_ops <= 40)


# ---------------------------------------------------------------------------
# criterion 7: OWL round-trips


def hierarchy_from_owl(doc: OwlDoc) -> ConceptHierarchy:
    parents_of: dict[str, list[str]] = {}
    for child, parent in sorted(doc.subclass_of):
        parents_of.setdefault(child, []).append(parent)
    h: ConceptHierarchy | None = None
    ids: dict[str, int] = {}
    for name in doc.classes:
        if h is None:
            h = ConceptHierarchy(name)
            ids[name] = h.seed_id
            continue
        known = [ids[p] for p in parents_of[name] if p in ids]
        ids[name] = h.add_concept(
            name, known, description=doc.comments.get(name, "")
        )
    assert h is not None
    for child, parent in sorted(doc.subclass_of):
        h.add_subsumption(ids[child], ids[parent])
    for canonical, synonyms in doc.equivalents.items():
        for synonym in sorted(synonyms):
            h.add_synonym_name(ids[canonical], synonym)
    return h


def round_trip(h: ConceptHierarchy):
    xml = to_owl_rdfxml(h)
    assert to_owl_rdfxml(hierarchy_from_owl(parse_owl(xml))) == xml


def test_c7_owl_export_round_trips(goats):
    for path in sorted(FIXTURES.glob("*.json")):
        round_trip(hierarchy_from_taxonomy(GroundTruthTaxonomy.load(path)))

    crawler = make_mock_crawler(goats)
    crawler.run()
    round_trip(crawler.hierarchy)

    with_synonyms = ConceptHierarchy("Livestock")
    dairy = with_synonyms.add_concept(
        "Dairy Goats", [with_synonyms.seed_id], description="Kept for milk."
    )
    with_synonyms.add_synonym_name(dairy, "Milk Goats")
    round_trip(with_synonyms)

    for i in range(50):
        rng = random.Random(7000 + i)
        n = rng.randint(2, 100)
        round_trip(build_hierarchy(daggen.random_dag(rng, n), n))


# ---------------------------------------------------------------------------
# criterion 8: statistics fidelity


def test_c8_statistics_match_hand_counts_and_the_golden_row(goats):
    crawler = make_mock_crawler(goats)
    crawler.run()
    stats = compute_stats(
        crawler.hierarchy,
        crawler.ledger,
        len(crawler.rejections),
        config=crawler.config,
    )
    assert stats.n_concepts == 14
    assert stats.n_subsumptions == 14
    assert sum(k * v for k, v in stats.outdegree_histogram.items()) == 14
    assert stats.n_subsumptions_insertion == 1
    assert stats.n_dismissed == 0
    assert stats.prompts_per_concept == round(crawler.ledger.requests / 14, 2)

    row = render_stats_text(full_run_stats()).splitlines()[1].split()
    assert row == ["Goats", "none", "20", "24", "15", "24", "1",
                   "22.25", "0.11", "24", "0"]


# ---------------------------------------------------------------------------
# criterion 9: optional live smoke test


LIVE = os.environ.get("RUN_LIVE_LLM") == "1" and bool(os.environ.get("OPENAI_API_KEY"))


@pytest.mark.skipif(
    not LIVE,
    reason="live endpoint smoke test; set RUN_LIVE_LLM=1 and OPENAI_API_KEY",
)
def test_c9_live_endpoint_smoke(tmp_path):
    config = CrawlConfig(
        seed_name="Goats",
        exploration_depth=None,
        ft=20,
        n_samples=100,
        max_concepts=100,
        oracle="llm",
    )
    oracle = ChatCompletionOracle(cache=ResponseCache(tmp_path / "cache.jsonl"))
    query_log = QueryLog(tmp_path / "queries.jsonl")
    crawler = Crawler(
        config,
        oracle,
        query_log=query_log,
        checkpoint_path=tmp_path / "checkpoint.json",
        rejection_path=tmp_path / "rejected.jsonl",
    )
    with closing(query_log):
        crawler.run()
    h = crawler.hierarchy
    assert 5 <= len(h) <= 100
    for cid in h.ids():
        assert cid == h.seed_id or h.seed_id in h.ancestors(cid)
