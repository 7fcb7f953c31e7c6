"""Enhanced-traversal placement: probe pruning, synonyms, rediscoveries."""

from __future__ import annotations

import hashlib
import json
import random
from types import SimpleNamespace

import pytest

from ontocrawl import (
    ChatCompletionOracle,
    ConceptHierarchy,
    GroundTruthTaxonomy,
    MockOracle,
    OracleContext,
    QueryLog,
    insert,
    insertion,
    record_rediscovery,
)
from ontocrawl.errors import OracleParseError
from ontocrawl.insertion import ORIGIN_INSERTION, ORIGIN_LISTING
from ontocrawl.llm_backend import render
import daggen
from support import (
    StubTransport,
    all_noise_modes,
    edge_names,
    hierarchy_from_taxonomy,
    reply,
    run_mock_crawl,
)

FARM = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Livestock",
        "edges": [
            ["Goats", "Livestock"],
            ["Cattle", "Livestock"],
            ["Dairy Goats", "Goats"],
            ["Milk Goats", "Goats"],
        ],
        "synonyms": [["Milk Goats", "Dairy Goats"]],
    }
)


def probe_pairs(log: QueryLog, phase: str) -> list[tuple[str, str]]:
    return [
        (rec["d"], rec["c"])
        for rec in log.records
        if rec["op"] == "is_subcategory_of" and rec.get("phase") == phase
    ]


def mk(taxonomy):
    log = QueryLog()
    oracle = MockOracle(taxonomy, query_log=log)
    ctx = OracleContext(seed_name=taxonomy.root)
    return oracle, ctx, log


def test_first_insert_into_a_bare_seed_needs_no_probes(goats):
    h = ConceptHierarchy("Goats")
    oracle, ctx, log = mk(goats)
    placement = insert(h, oracle, ctx, "Dairy Goats", "Kept for milk.", h.seed_id)
    assert placement.parents == {h.seed_id}
    assert placement.children == set()
    assert placement.probes_issued == 0
    assert h.edge_origin(placement.concept_id, h.seed_id) == ORIGIN_LISTING
    assert h.concept(placement.concept_id).description == "Kept for milk."


def test_insertion_rewires_an_existing_child_below_the_newcomer(goats):
    h = ConceptHierarchy("Goats")
    saanen = h.add_concept("Saanen", [h.seed_id])
    oracle, ctx, log = mk(goats)
    placement = insert(h, oracle, ctx, "Dairy Goats", None, h.seed_id)
    assert placement.children == {saanen}
    assert placement.probes_issued == 2
    assert h.direct_parents(saanen) == {placement.concept_id}
    assert edge_names(h) == {("Dairy Goats", "Goats"), ("Saanen", "Dairy Goats")}
    assert h.edge_origin(saanen, placement.concept_id) == ORIGIN_INSERTION


def test_top_search_finds_a_second_parent_with_one_probe(goats):
    h = ConceptHierarchy("Goats")
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    mini = h.add_concept("Mini. Goats", [h.seed_id])
    oracle, ctx, log = mk(goats)
    placement = insert(h, oracle, ctx, "Nigerian Dwarf", None, dairy)
    assert placement.parents == {dairy, mini}
    assert placement.probes_issued == 1
    assert probe_pairs(log, "top") == [("Nigerian Dwarf", "Mini. Goats")]
    nd = placement.concept_id
    assert h.edge_origin(nd, dairy) == ORIGIN_LISTING
    assert h.edge_origin(nd, mini) == ORIGIN_INSERTION


def test_failed_probes_prune_their_whole_cone(goats):
    """One negative answer spares every concept underneath it."""
    h = hierarchy_from_taxonomy(goats, skip=("Nigora",))
    fiber = h.find_by_name("Fiber Goats")
    oracle, ctx, log = mk(goats)
    placement = insert(h, oracle, ctx, "Nigora", None, fiber)
    assert placement.parents == {fiber}
    assert placement.children == set()
    # Up: the seed's other children in id order, then Fiber's child.  The
    # subtrees under the negatives (seven concepts) are never touched.
    assert probe_pairs(log, "top") == [
        ("Nigora", "Dairy Goats"),
        ("Nigora", "Meat Goats"),
        ("Nigora", "Mini. Goats"),
        ("Nigora", "Show Goats"),
        ("Nigora", "Cashmere"),
    ]
    assert probe_pairs(log, "bottom") == [("Cashmere", "Nigora")]
    assert placement.probes_issued == 6


def test_bottom_search_skips_parents_of_negative_children(goats):
    h = ConceptHierarchy("Goats")
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    h.add_concept("Saanen", [dairy])
    oracle, ctx, log = mk(goats)
    placement = insert(h, oracle, ctx, "Meat Goats", None, h.seed_id)
    assert placement.parents == {h.seed_id}
    assert placement.children == set()
    assert probe_pairs(log, "top") == [("Meat Goats", "Dairy Goats")]
    # Saanen answers below-no, so Dairy Goats is never probed downward.
    assert probe_pairs(log, "bottom") == [("Saanen", "Meat Goats")]
    assert placement.probes_issued == 2


def test_synonym_discovered_on_both_sides_is_absorbed():
    h = ConceptHierarchy("Livestock")
    goats = h.add_concept("Goats", [h.seed_id])
    h.add_concept("Cattle", [h.seed_id])
    dairy = h.add_concept("Dairy Goats", [goats])
    oracle, ctx, log = mk(FARM)
    placement = insert(h, oracle, ctx, "Milk Goats", "Milkers.", goats)
    assert placement.synonym_of == dairy
    assert placement.concept_id is None
    assert len(h) == 4  # no new node
    assert h.find_by_name("Milk Goats") == dairy
    assert "Milk Goats" in h.concept(dairy).all_names()
    assert placement.probes_issued == 3
    assert log.count(op="interchangeable") == 1


class ScriptedOracle:
    """Minimal oracle for forcing contradictory probe answers."""

    def __init__(self, subsumptions, direction=None):
        self.subsumptions = set(subsumptions)
        self.direction = direction

    def is_subcategory_of(self, ctx, d, c):
        return (d, c) in self.subsumptions

    def interchangeable(self, ctx, d1, d2):
        return False

    def subcategory_direction(self, ctx, d1, d2):
        if self.direction is None:
            raise OracleParseError("no direction scripted")
        return self.direction


def contradictory_setup():
    # The oracle claims Mid is both above and below the newcomer.
    h = ConceptHierarchy("Root")
    mid = h.add_concept("Mid", [h.seed_id])
    probes = {("New", "Mid"), ("Mid", "New")}
    ctx = OracleContext(seed_name="Root")
    return h, mid, probes, ctx


def test_direction_question_can_keep_the_upward_edge():
    h, mid, probes, ctx = contradictory_setup()
    oracle = ScriptedOracle(probes, direction=("New", "Mid"))
    placement = insert(h, oracle, ctx, "New", None, h.seed_id)
    assert placement.parents == {mid}
    assert placement.dropped_edges == [("Mid", "New")]
    assert edge_names(h) == {("Mid", "Root"), ("New", "Mid")}
    # The surviving first edge did not come from the listing.
    assert h.edge_origin(placement.concept_id, mid) == ORIGIN_INSERTION


def test_direction_question_can_keep_the_downward_edge():
    h, mid, probes, ctx = contradictory_setup()
    oracle = ScriptedOracle(probes, direction=("Mid", "New"))
    placement = insert(h, oracle, ctx, "New", None, h.seed_id)
    assert placement.parents == {h.seed_id}  # fell back to the discovering edge
    assert placement.children == {mid}
    assert placement.dropped_edges == [("New", "Mid")]
    assert edge_names(h) == {("New", "Root"), ("Mid", "New")}
    assert h.edge_origin(placement.concept_id, h.seed_id) == ORIGIN_LISTING


def test_unparseable_direction_keeps_the_top_edge():
    h, mid, probes, ctx = contradictory_setup()
    oracle = ScriptedOracle(probes, direction=None)
    placement = insert(h, oracle, ctx, "New", None, h.seed_id)
    assert placement.parents == {mid}
    assert placement.children == set()
    assert placement.dropped_edges == [("Mid", "New")]
    assert edge_names(h) == {("Mid", "Root"), ("New", "Mid")}


def test_a_fallback_to_the_entry_drops_its_contradictory_child_edge():
    """The entry tests below the newcomer, and the direction answer agrees,
    which empties ``parents``; the discovering edge is kept, so the edge of
    the entry below the newcomer would close a cycle and is dropped."""
    h, mid, probes, ctx = contradictory_setup()
    oracle = ScriptedOracle(probes, direction=("Mid", "New"))
    placement = insert(h, oracle, ctx, "New", None, mid)
    assert placement.parents == {mid}
    assert placement.children == set()
    assert placement.dropped_edges == [("New", "Mid"), ("Mid", "New")]
    assert edge_names(h) == {("Mid", "Root"), ("New", "Mid")}
    assert h.edge_origin(placement.concept_id, mid) == ORIGIN_LISTING
    h.verify_integrity()


class CoinOracle:
    """Answers each question by a seeded coin, the same way every time."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.answers: dict[tuple, bool] = {}

    def _coin(self, *question) -> bool:
        return self.answers.setdefault(question, self.rng.random() < 0.6)

    def is_subcategory_of(self, ctx, d, c):
        return self._coin("sub", d, c)

    def interchangeable(self, ctx, d1, d2):
        return self._coin("same", d1, d2)

    def subcategory_direction(self, ctx, d1, d2):
        return (d1, d2) if self._coin("direction", d1, d2) else (d2, d1)


def test_a_concept_found_on_both_sides_is_the_only_one_found_below(monkeypatch):
    """An absorbed name adds no edge.  The bottom search probes a concept
    only once every concept below it tested positive, so a concept it finds
    that the top search found too is the only one it finds: nothing is left
    to wire below the absorbing concept, whatever the answers."""
    found = []
    bottom = insertion.bottom_search

    def recorded(*args):
        found.append(set(bottom(*args)))
        return found[-1]

    monkeypatch.setattr(insertion, "bottom_search", recorded)
    absorbed = 0
    for trial in range(2000):
        rng = random.Random(trial)
        h = ConceptHierarchy("Root")
        for i in range(1, rng.randint(2, 8)):
            h.add_concept(f"C{i}", rng.sample(range(i), rng.randint(1, min(2, i))))
        before = h.direct_edges()
        entry = rng.choice(h.ids())
        placement = insert(h, CoinOracle(rng), OracleContext("Root"), "New", None, entry)
        h.verify_integrity()
        if placement.synonym_of is not None:
            absorbed += 1
            assert found[-1] == {placement.synonym_of}
            assert h.direct_edges() == before
    assert absorbed > 100


def test_rediscovery_of_the_listing_concept_itself(goats):
    h = hierarchy_from_taxonomy(goats)
    oracle, ctx, _ = mk(goats)
    dairy = h.find_by_name("Dairy Goats")
    assert record_rediscovery(h, oracle, ctx, dairy, dairy) == "self"


def test_rediscovery_adds_a_missing_edge(goats):
    h = hierarchy_from_taxonomy(goats, skip=("Nigerian Dwarf",))
    nd = h.add_concept("Nigerian Dwarf", [h.find_by_name("Dairy Goats")])
    mini = h.find_by_name("Mini. Goats")
    oracle, ctx, _ = mk(goats)
    assert record_rediscovery(h, oracle, ctx, nd, mini) == "edge_added"
    assert h.edge_origin(nd, mini) == ORIGIN_LISTING
    assert record_rediscovery(h, oracle, ctx, nd, mini) == "implied"


def test_rediscovery_of_an_ancestor_merges_true_synonyms():
    h = ConceptHierarchy("Livestock")
    milk = h.add_concept("Milk Goats", [h.seed_id])
    dairy = h.add_concept("Dairy Goats", [milk])
    oracle, ctx, _ = mk(FARM)
    assert record_rediscovery(h, oracle, ctx, milk, dairy) == "merged"
    assert len(h) == 2
    survivor = h.find_by_name("Milk Goats")
    assert survivor == h.find_by_name("Dairy Goats") == milk


def test_rediscovery_merge_refused_by_a_bystander_is_dropped():
    # Cattle sits between the two synonym surfaces; merging would trap it in
    # a cycle, so the new edge is dropped and nothing changes.
    h = ConceptHierarchy("Livestock")
    milk = h.add_concept("Milk Goats", [h.seed_id])
    cattle = h.add_concept("Cattle", [milk])
    dairy = h.add_concept("Dairy Goats", [cattle])
    before = h.direct_edges()
    oracle, ctx, _ = mk(FARM)
    assert record_rediscovery(h, oracle, ctx, milk, dairy) == "dropped"
    assert h.direct_edges() == before
    assert len(h) == 4
    h.verify_integrity()


def test_rediscovery_of_a_non_synonym_ancestor_is_dropped(goats):
    h = hierarchy_from_taxonomy(goats)
    dairy = h.find_by_name("Dairy Goats")
    saanen = h.find_by_name("Saanen")
    before = h.direct_edges()
    oracle, ctx, _ = mk(goats)
    assert record_rediscovery(h, oracle, ctx, dairy, saanen) == "dropped"
    assert h.direct_edges() == before


def test_probe_accounting_balances_over_a_full_build(goats):
    """Replaying the whole reference taxonomy through insert() rebuilds it,
    and the placements count every probe the oracle was asked."""
    h = ConceptHierarchy("Goats")
    oracle, ctx, log = mk(goats)
    plan = [
        ("Dairy Goats", "Goats"),
        ("Meat Goats", "Goats"),
        ("Fiber Goats", "Goats"),
        ("Mini. Goats", "Goats"),
        ("Show Goats", "Goats"),
        ("Nigerian Dwarf", "Dairy Goats"),
        ("Saanen", "Dairy Goats"),
        ("Toggenburg", "Dairy Goats"),
        ("Dwarf Nigerian", "Mini. Goats"),
        ("Mini. Nubian", "Mini. Goats"),
        ("Cashmere", "Fiber Goats"),
        ("Nigora", "Fiber Goats"),
        ("Boer", "Meat Goats"),
    ]
    total_issued = 0
    for name, entry_name in plan:
        entry = h.find_by_name(entry_name)
        placement = insert(h, oracle, ctx, name, goats.description_for(name), entry)
        total_issued += placement.probes_issued
        h.verify_integrity()
    assert len(h) == 14
    assert edge_names(h) == {
        (c, p) for c, p in goats.edges
    }
    assert total_issued == log.count(op="is_subcategory_of")
    # Well under the brute-force bound of n(n-1) both-direction probes.
    assert total_issued < 14 * 13


class RecordingOracle:
    """Passes queries through, remembering the context of each probe."""

    def __init__(self, inner):
        self._inner = inner
        self.probe_contexts: list[tuple[OracleContext, str, str]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def is_subcategory_of(self, ctx, d, c):
        self.probe_contexts.append((ctx, d, c))
        return self._inner.is_subcategory_of(ctx, d, c)


def test_probes_carry_the_existing_concepts_description(goats):
    h = ConceptHierarchy("Goats")
    h.add_concept(
        "Dairy Goats", [h.seed_id], description=goats.description_for("Dairy Goats")
    )
    oracle = RecordingOracle(MockOracle(goats))
    ctx = OracleContext(
        seed_name="Goats", descriptions={"Boer": goats.description_for("Boer")}
    )
    insert(h, oracle, ctx, "Boer", goats.description_for("Boer"), h.seed_id)
    probed = [rec for rec in oracle.probe_contexts if rec[2] == "Dairy Goats"]
    assert probed, "expected an upward probe against Dairy Goats"
    probe_ctx, d, c = probed[0]
    dairy, boer = goats.description_for("Dairy Goats"), goats.description_for("Boer")
    assert probe_ctx.description_of("Dairy Goats") == dairy
    assert probe_ctx.description_of("Boer") == boer
    prompt = render("verify_subcat", {"C0": "Goats", "C": c, "D": d}, probe_ctx)
    assert prompt.endswith(f"yes or no.\nDairy Goats: {dairy}\nBoer: {boer}")


def test_synonym_questions_carry_the_stored_concepts_description():
    h = ConceptHierarchy("Livestock")
    goats = h.add_concept("Goats", [h.seed_id])
    h.add_concept("Cattle", [h.seed_id])
    dairy = h.add_concept("Dairy Goats", [goats], description="Kept for milk.")
    transport = StubTransport([reply("Yes")])
    llm = ChatCompletionOracle(transport, max_in_flight=1)
    mock = MockOracle(FARM)
    oracle = SimpleNamespace(
        is_subcategory_of=mock.is_subcategory_of, interchangeable=llm.interchangeable
    )
    ctx = OracleContext(seed_name="Livestock", descriptions={"Milk Goats": "Milkers."})
    placement = insert(h, oracle, ctx, "Milk Goats", "Milkers.", goats)
    assert placement.synonym_of == dairy
    [body] = transport.bodies
    assert body["messages"][0]["content"] == (
        "In the context of Livestock, are Milk Goats and Dairy Goats typically "
        "used interchangeably? Answer only with yes or no.\n"
        "Milk Goats: Milkers.\n"
        "Dairy Goats: Kept for milk."
    )


@pytest.fixture(scope="module")
def pinned_noisy_stream() -> list[list]:
    """(op, d, c) of every query-log record of a noisy n=300 daggen crawl."""
    edges = daggen.random_dag(random.Random(300), 300, max_outdegree=5)
    taxonomy = GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges))
    noise = all_noise_modes(3, p_hallucinated_edge=0.02)
    crawler = run_mock_crawl(taxonomy, noise=noise)
    return [[r["op"], r.get("d"), r.get("c")] for r in crawler.query_log.records]


def test_noisy_crawl_issues_the_pinned_query_stream(pinned_noisy_stream):
    """Optimizations of the hierarchy and the traversal keep every query.

    The digest covers (op, d, c) of every query-log record of a noisy n=300
    crawl; any change to which probes the traversal issues, or when, shows
    up here even where the resulting hierarchy is unchanged.  It was
    recorded when both searches moved to one probe round per traversal
    level, which reordered the probes and kept their multiset (the next
    test).
    """
    assert len(pinned_noisy_stream) == 6304
    digest = hashlib.sha256(json.dumps(pinned_noisy_stream).encode("utf-8")).hexdigest()
    assert digest == "1710ae7cbf74ed92fa804d429a7cd744a8e3612123aa462c1f0ac8318219057c"


def test_noisy_crawl_issues_the_pinned_query_multiset(pinned_noisy_stream):
    """The same crawl's queries as a multiset, whatever their order.

    A scheduler that only reorders probes keeps this digest and moves the
    ordered one above; a change to which probes are issued moves both.
    """
    lines = sorted(json.dumps(rec) for rec in pinned_noisy_stream)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == "26833687a04df7b1ccb1ee3ed6ed7f6eea23f5b80010acc0e3c541b65fac1172"
