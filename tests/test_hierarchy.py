"""Hierarchy core: closure, reduction, depths, merging, serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daggen
from ontocrawl import ConceptHierarchy, normalize_name
from ontocrawl.errors import (
    CheckpointError,
    CycleError,
    IntegrityError,
    InvalidInputError,
    NotFoundError,
)
from ontocrawl.hierarchy import topological_order
from support import build_hierarchy, scan_frontier, scan_next_unexplored, with_value_at


def test_new_hierarchy_contains_only_the_seed():
    h = ConceptHierarchy("Goats")
    assert len(h) == 1
    seed = h.concept(h.seed_id)
    assert seed.canonical_name == "Goats"
    assert seed.depth == 0
    assert not seed.explored
    assert h.direct_edges() == []
    assert h.next_unexplored() == h.seed_id


@pytest.mark.parametrize("bad", ["", "   ", "\t\n"])
def test_seed_name_must_be_nonempty(bad):
    with pytest.raises(InvalidInputError):
        ConceptHierarchy(bad)


def test_subsumption_is_reflexive():
    h = ConceptHierarchy("Drinks")
    assert h.is_subsumed(h.seed_id, h.seed_id)


def test_duplicate_names_rejected_after_normalization():
    h = ConceptHierarchy("Goats")
    h.add_concept("Dairy Goats", [h.seed_id])
    for clash in ["Dairy Goats", "dairy goats", "  Dairy   Goats "]:
        with pytest.raises(InvalidInputError):
            h.add_concept(clash, [h.seed_id])
    assert len(h) == 2


def test_add_concept_requires_a_parent():
    h = ConceptHierarchy("Goats")
    with pytest.raises(InvalidInputError):
        h.add_concept("Orphan", [])


def test_unknown_ids_raise_not_found():
    h = ConceptHierarchy("Goats")
    for call in (
        lambda: h.concept(99),
        lambda: h.ancestors(99),
        lambda: h.descendants(99),
        lambda: h.depth_of(99),
        lambda: h.is_subsumed(h.seed_id, 99),
        lambda: h.add_subsumption(h.seed_id, 99),
        lambda: h.mark_explored(99),
        lambda: h.add_synonym_name(99, "x"),
    ):
        with pytest.raises(NotFoundError):
            call()


def test_implied_edge_is_absorbed_not_stored():
    h = ConceptHierarchy("A")
    b = h.add_concept("B", [h.seed_id])
    c = h.add_concept("C", [b])
    before = h.direct_edges()
    assert h.add_subsumption(c, h.seed_id) is False
    assert h.direct_edges() == before
    assert h.is_subsumed(c, h.seed_id)


def test_diamond_keeps_both_parents():
    h = ConceptHierarchy("Goats")
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    mini = h.add_concept("Mini. Goats", [h.seed_id])
    nd = h.add_concept("Nigerian Dwarf", [dairy])
    assert h.add_subsumption(nd, mini) is True
    assert h.direct_parents(nd) == {dairy, mini}
    assert (nd, dairy) in h.direct_edges() and (nd, mini) in h.direct_edges()


def test_new_edge_displaces_previously_direct_edge():
    h = ConceptHierarchy("Goats")
    saanen = h.add_concept("Saanen", [h.seed_id])
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    assert h.add_subsumption(saanen, dairy) is True
    assert h.direct_edges() == [(saanen, dairy), (dairy, h.seed_id)]
    assert h.depth_of(saanen) == 2
    h.verify_integrity()


def test_displacing_an_edge_deepens_the_child_and_its_cone():
    # X < A drops the now redundant X < Seed: X and Y move down a level.
    h = ConceptHierarchy("Seed")
    x = h.add_concept("X", [h.seed_id])
    y = h.add_concept("Y", [x])
    a = h.add_concept("A", [h.seed_id])
    assert (h.depth_of(x), h.depth_of(y)) == (1, 2)
    assert h.add_subsumption(x, a) is True
    assert h.direct_parents(x) == {a}
    assert (h.depth_of(a), h.depth_of(x), h.depth_of(y)) == (1, 2, 3)
    h.verify_integrity()


def test_self_edge_raises_cycle_error():
    h = ConceptHierarchy("A")
    with pytest.raises(CycleError):
        h.add_subsumption(h.seed_id, h.seed_id)


def test_reverse_edge_raises_cycle_error_with_path():
    h = ConceptHierarchy("A")
    b = h.add_concept("B", [h.seed_id])
    c = h.add_concept("C", [b])
    with pytest.raises(CycleError) as exc:
        h.add_subsumption(h.seed_id, c)
    # The reported path is the existing chain parent -> ... -> child that the
    # rejected edge would have closed into a loop.
    assert exc.value.path[0] == c
    assert exc.value.path[-1] == h.seed_id
    h.verify_integrity()


def test_depth_is_shortest_path_over_parents():
    h = ConceptHierarchy("Seed")
    x1 = h.add_concept("X1", [h.seed_id])
    x2 = h.add_concept("X2", [x1])
    y = h.add_concept("Y", [h.seed_id])
    c = h.add_concept("C", [x2])
    assert h.depth_of(c) == 3
    h.add_subsumption(c, y)
    assert h.depth_of(c) == 2


def test_depths_match_bfs_oracle_on_random_dags():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(2, 40)
        edges = daggen.random_dag(rng, n)
        h = build_hierarchy(edges, n)
        expected = daggen.bfs_depths(edges)
        for cid in h.ids():
            assert h.depth_of(cid) == expected[cid]


def test_closure_matches_bfs_oracle_on_random_dags():
    rng = random.Random(202)
    for _ in range(25):
        n = rng.randint(2, 40)
        edges = daggen.random_dag(rng, n)
        h = build_hierarchy(edges, n)
        up = daggen.closure_up(edges)
        for cid in h.ids():
            assert h.ancestors(cid) == up[cid]
            assert h.descendants(cid) == {x for x in up if cid in up[x]}


def test_topological_order_orders_a_cone_and_refuses_a_cycle():
    # 0 > 1 > {2, 3} > 4, and 5 > 3: the cone of 1 counts no parent outside it.
    parents = {0: set(), 1: {0}, 2: {1}, 3: {1, 5}, 4: {2, 3}, 5: set()}
    children = {x: {c for c, ps in parents.items() if x in ps} for x in parents}
    cone = {1, 2, 3, 4}
    order = topological_order(cone, parents, children)
    assert sorted(order) == sorted(cone) and order[0] == 1
    for x in order:
        assert all(order.index(p) < order.index(x) for p in parents[x] & cone)
    parents[1].add(4)
    children[4].add(1)
    with pytest.raises(IntegrityError, match="cycle"):
        topological_order(cone, parents, children)


def test_reduction_matches_brute_force_after_random_edge_additions():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.randint(3, 25)
        edges = daggen.random_dag(rng, n)
        h = build_hierarchy(edges, n)
        asserted = list(edges)
        for _ in range(n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            try:
                h.add_subsumption(a, b)
            except CycleError:
                continue
            asserted.append((a, b))
        assert set(h.direct_edges()) == daggen.reduce_edges(asserted)
        h.verify_integrity()


def test_edge_additions_never_rescan_the_whole_graph(monkeypatch):
    """A 2,000-node build keeps depths by local recomputation only; a depth
    pass over the seed's cone, the whole graph, per edge would make every
    insertion O(N)."""
    rng = random.Random(404)
    n = 2000
    edges = daggen.random_dag(rng, n)
    parents: dict[int, list[int]] = {}
    for c, p in edges:
        parents.setdefault(c, []).append(p)
    calls = []
    recompute = ConceptHierarchy._recompute_cone_depths

    def counted(self, top):
        if top == self.seed_id:
            calls.append(len(self))
        return recompute(self, top)

    monkeypatch.setattr(ConceptHierarchy, "_recompute_cone_depths", counted)
    h = ConceptHierarchy(daggen.name_for(0))
    for i in range(1, n):
        first, *rest = sorted(parents[i])
        h.add_concept(daggen.name_for(i), [first])
        for p in rest:
            h.add_subsumption(i, p)
    assert calls == []
    expected = daggen.bfs_depths(edges)
    assert all(h.depth_of(cid) == expected[cid] for cid in h.ids())


def test_merge_collapses_two_names_into_one_concept():
    h = ConceptHierarchy("Games")
    a = h.add_concept("board game", [h.seed_id])
    b = h.add_concept("boardgames", [h.seed_id])
    survivor = h.merge_synonyms(a, b)
    assert survivor == a
    assert len(h) == 2
    concept = h.concept(survivor)
    assert set(concept.all_names()) == {"board game", "boardgames"}
    assert h.find_by_name("boardgames") == survivor
    assert h.find_by_name("board game") == survivor
    h.verify_integrity()


def test_merge_with_self_is_invalid():
    h = ConceptHierarchy("Games")
    a = h.add_concept("board game", [h.seed_id])
    with pytest.raises(InvalidInputError):
        h.merge_synonyms(a, a)


def test_merge_keeps_description_and_explored_flag():
    h = ConceptHierarchy("Games")
    a = h.add_concept("board game", [h.seed_id])
    b = h.add_concept("boardgames", [h.seed_id], description="Tabletop games.")
    h.mark_explored(b)
    survivor = h.merge_synonyms(a, b)
    assert h.concept(survivor).description == "Tabletop games."
    assert h.concept(survivor).explored


def test_merge_preserves_closure_for_third_concepts():
    rng = random.Random(404)
    for _ in range(20):
        n = rng.randint(4, 20)
        edges = daggen.random_dag(rng, n)
        h = build_hierarchy(edges, n)
        target = rng.randrange(1, n)
        parents = sorted(h.direct_parents(target))
        twin = h.add_concept("Twin", parents)
        for ch in sorted(h.direct_children(target)):
            if ch != twin:
                h.add_subsumption(ch, twin)
        others = [c for c in h.ids() if c not in (target, twin)]
        before = {(x, y): h.is_subsumed(x, y) for x in others for y in others}
        survivor = h.merge_synonyms(target, twin)
        assert survivor == target
        h.verify_integrity()
        after = {(x, y): h.is_subsumed(x, y) for x in others for y in others}
        assert after == before


def test_merge_refuses_to_create_a_cycle_and_leaves_state_intact():
    h = ConceptHierarchy("Seed")
    x = h.add_concept("X", [h.seed_id])
    m = h.add_concept("M", [x])
    y = h.add_concept("Y", [m])
    before = h.to_json()
    with pytest.raises(CycleError):
        h.merge_synonyms(x, y)
    assert h.to_json() == before
    h.verify_integrity()


def test_merge_of_direct_parent_and_child_absorbs_the_edge():
    h = ConceptHierarchy("Seed")
    x = h.add_concept("X", [h.seed_id])
    y = h.add_concept("Y", [x])
    survivor = h.merge_synonyms(x, y)
    assert survivor == x
    assert h.direct_edges() == [(x, h.seed_id)]
    h.verify_integrity()


def test_synonym_names_share_the_uniqueness_space():
    h = ConceptHierarchy("Goats")
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    h.add_synonym_name(dairy, "Milk Goats")
    assert h.find_by_name("milk goats") == dairy
    with pytest.raises(InvalidInputError):
        h.add_concept("MILK GOATS", [h.seed_id])
    with pytest.raises(InvalidInputError):
        h.add_synonym_name(h.seed_id, "Dairy Goats")


def test_next_unexplored_prefers_shallow_then_early():
    h = ConceptHierarchy("Seed")
    a = h.add_concept("A", [h.seed_id])
    b = h.add_concept("B", [h.seed_id])
    deep = h.add_concept("Deep", [a])
    assert h.next_unexplored() == h.seed_id
    h.mark_explored(h.seed_id)
    assert h.next_unexplored() == a
    h.mark_explored(a)
    assert h.next_unexplored() == b
    h.mark_explored(b)
    assert h.next_unexplored() == deep
    h.mark_explored(deep)
    assert h.next_unexplored() is None


def test_next_unexplored_respects_depth_cutoff():
    h = ConceptHierarchy("Seed")
    h.mark_explored(h.seed_id)
    a = h.add_concept("A", [h.seed_id])
    deep = h.add_concept("Deep", [a])
    assert h.next_unexplored(exploration_depth=1) is None
    assert h.next_unexplored(exploration_depth=2) == a
    assert list(h.frontier(1)) == []
    assert list(h.frontier(2)) == [a]
    assert list(h.frontier(3)) == list(h.frontier()) == [a, deep]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frontier_heap_matches_a_linear_scan_under_any_mutation(data):
    """Edge additions move depths both ways, merges and loads rebuild them;
    after each, the heap's choice is the shallowest, earliest unexplored."""
    h = ConceptHierarchy("c")
    for step in range(data.draw(st.integers(1, 40))):
        pick = st.sampled_from(h.ids())
        op = data.draw(st.sampled_from(["add", "edge", "merge", "explore", "load"]))
        try:
            if op == "add":
                parents = data.draw(st.sets(pick, min_size=1, max_size=2))
                h.add_concept(f"c{step}", parents)
            elif op == "edge":
                h.add_subsumption(data.draw(pick), data.draw(pick))
            elif op == "merge":
                h.merge_synonyms(data.draw(pick), data.draw(pick))
            elif op == "explore":
                h.mark_explored(data.draw(pick))
            else:
                h = ConceptHierarchy.from_json_dict(h.to_json_dict())
        except (CycleError, InvalidInputError):
            pass
        for cutoff in (None, 1, 2, 3):
            assert h.next_unexplored(cutoff) == scan_next_unexplored(h, cutoff)
            assert list(h.frontier(cutoff)) == scan_frontier(h, cutoff)


def test_edge_origin_bookkeeping():
    h = ConceptHierarchy("Seed")
    a = h.add_concept("A", [h.seed_id], origin="listing")
    assert h.edge_origin(a, h.seed_id) == "listing"
    h.set_edge_origin(a, h.seed_id, "insertion")
    assert h.edge_origin(a, h.seed_id) == "insertion"
    with pytest.raises(NotFoundError):
        h.set_edge_origin(h.seed_id, a, "listing")


def test_json_round_trip_preserves_everything():
    rng = random.Random(505)
    n = 30
    edges = daggen.random_dag(rng, n)
    h = build_hierarchy(edges, n)
    h.add_synonym_name(3, "Alias Three")
    h.concept(5).description = "Number five."
    h.mark_explored(0)
    h.mark_explored(7)
    restored = ConceptHierarchy.from_json(h.to_json())
    assert restored.to_json() == h.to_json()
    assert restored.find_by_name("alias three") == 3
    assert restored.concept(5).description == "Number five."
    assert restored.concept(7).explored
    restored.verify_integrity()


def test_from_json_rejects_malformed_documents():
    h = ConceptHierarchy("Seed")
    a = h.add_concept("A", [h.seed_id])
    b = h.add_concept("B", [a])
    good = h.to_json_dict()

    bad_version = {**good, "version": 99}
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(bad_version)

    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json("{not json")

    for field in ("seed", "concepts", "direct_edges"):
        broken = {k: v for k, v in good.items() if k != field}
        with pytest.raises(CheckpointError):
            ConceptHierarchy.from_json_dict(broken)

    not_reduced = {**good, "direct_edges": good["direct_edges"] + [[b, 0]]}
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(not_reduced)

    cyclic = {**good, "direct_edges": good["direct_edges"] + [[0, b]]}
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(cyclic)

    cycle_below_seed = {**good, "direct_edges": good["direct_edges"] + [[a, b]]}
    with pytest.raises(CheckpointError, match="cycle"):
        ConceptHierarchy.from_json_dict(cycle_below_seed)

    self_loop = {**good, "direct_edges": good["direct_edges"] + [[b, b]]}
    with pytest.raises(CheckpointError, match="cycle"):
        ConceptHierarchy.from_json_dict(self_loop)

    for pair in ([1.0, 0], ["1", 0], [1, True], [1], [1, 0, 0], 1, "10"):
        bad_edge = {**good, "direct_edges": [pair, [b, a]]}
        with pytest.raises(CheckpointError):
            ConceptHierarchy.from_json_dict(bad_edge)

    import copy

    wrong_depth = copy.deepcopy(good)
    wrong_depth["concepts"][2]["depth"] = 7
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(wrong_depth)

    dup_names = copy.deepcopy(good)
    dup_names["concepts"][2]["canonical_name"] = "a"
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(dup_names)

    unknown_edge = {**good, "direct_edges": [[1, 0], [2, 1], [9, 0]]}
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(unknown_edge)

    late_seed = copy.deepcopy(good)
    late_seed["seed"] = 1
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(late_seed)

    for index in (0, 2):
        for field in ("id", "canonical_name", "depth"):
            missing = copy.deepcopy(good)
            del missing["concepts"][index][field]
            with pytest.raises(CheckpointError):
                ConceptHierarchy.from_json_dict(missing)

    for depth in ("1", 1.0, None, True, [1]):
        bad_depth = copy.deepcopy(good)
        bad_depth["concepts"][1]["depth"] = depth
        with pytest.raises(CheckpointError):
            ConceptHierarchy.from_json_dict(bad_depth)

    orphan = copy.deepcopy(good)
    orphan["concepts"].append({"id": 3, "canonical_name": "C", "depth": 1})
    with pytest.raises(CheckpointError):
        ConceptHierarchy.from_json_dict(orphan)

    # Well-formed records the seed does not reach: a parentless concept, and
    # one below it, at every depth.
    for depth in (0, 1, 2, 3):
        island = copy.deepcopy(good)
        island["concepts"] += [
            {**good["concepts"][2], "id": 3, "canonical_name": "C", "depth": depth},
            {**good["concepts"][2], "id": 4, "canonical_name": "D", "depth": depth + 1},
        ]
        island["direct_edges"].append([4, 3])
        with pytest.raises(CheckpointError, match="concept 3 is not below the seed"):
            ConceptHierarchy.from_json_dict(island)
    for cid, depth in ((a, 2), (b, 1), (b, 3), (0, 1)):
        stale = copy.deepcopy(good)
        stale["concepts"][cid]["depth"] = depth
        with pytest.raises(CheckpointError, match=f"stored depth of {cid} is stale"):
            ConceptHierarchy.from_json_dict(stale)

    # Values that do not save back as they are stored.
    for path, value in (
        (("seed",), False),
        (("direct_edges",), good["direct_edges"] + [good["direct_edges"][-1]]),
        (("direct_edges",), good["direct_edges"][::-1]),
        (("concepts", 1, "id"), 0),
        (("concepts",), [good["concepts"][i] for i in (0, 2, 1)]),
        (("concepts", 1, "explored"), "no"),
        (("concepts", 1, "synonyms"), "xy"),
        (("concepts", 1, "synonyms"), ["Zed", "Alpha"]),
        (("concepts", 1, "synonyms"), ["Alpha", "Alpha"]),
        (("concepts", 1, "description"), 5),
        (("concepts", 1, "colour"), "red"),
    ):
        with pytest.raises(CheckpointError):
            ConceptHierarchy.from_json_dict(with_value_at(good, path, value))


def test_a_load_checks_each_stored_edge_once(monkeypatch):
    """A load derives the closure once and makes one structural check: one
    redundancy test per stored edge and one depth test per concept.  It
    recomputes no depth."""
    rng = random.Random(11)
    n = 150
    doc = build_hierarchy(daggen.random_dag(rng, n), n).to_json_dict()
    names = ("_closure", "_implied", "_depth_from_parents", "_recompute_cone_depths")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        original = getattr(ConceptHierarchy, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ConceptHierarchy, name, counting)
    ConceptHierarchy.from_json_dict(doc)
    assert calls == {
        "_closure": 1,
        "_implied": len(doc["direct_edges"]),
        "_depth_from_parents": n,
        "_recompute_cone_depths": 0,
    }


def test_a_refused_merge_reports_the_cycle_it_would_close():
    h = ConceptHierarchy("Seed")
    x = h.add_concept("X", [h.seed_id])
    m = h.add_concept("M", [x])
    y = h.add_concept("Y", [m])
    for a, b in ((x, y), (y, x)):
        with pytest.raises(CycleError) as exc:
            h.merge_synonyms(a, b)
        path = exc.value.path
        assert path[0] == path[-1]
        # The last step is the identification of the merged pair; every other
        # step is a direct edge, child first.
        assert {path[-2], path[-1]} == {x, y}
        assert all(h.has_edge(u, v) for u, v in zip(path[:-2], path[1:-1]))
        assert path == [y, m, x, y]


def test_verify_integrity_catches_corrupted_closure():
    h = ConceptHierarchy("Seed")
    a = h.add_concept("A", [h.seed_id])
    h.verify_integrity()
    h._up[a].add(a)
    with pytest.raises(IntegrityError):
        h.verify_integrity()


def _named_hierarchy() -> ConceptHierarchy:
    h = ConceptHierarchy("Livestock")
    dairy = h.add_concept("Dairy Goats", [h.seed_id])
    h.add_synonym_name(dairy, "Milk Goats")
    h.add_concept("Meat Goats", [h.seed_id])
    h.verify_integrity()
    return h


def test_verify_integrity_catches_a_synonym_missing_from_the_name_index():
    h = _named_hierarchy()
    del h._names[normalize_name("Milk Goats")]
    with pytest.raises(IntegrityError, match="name index"):
        h.verify_integrity()


def test_verify_integrity_catches_a_name_pointing_at_the_wrong_concept():
    h = _named_hierarchy()
    h._names[normalize_name("Milk Goats")] = h.find_by_name("Meat Goats")
    with pytest.raises(IntegrityError, match="name index"):
        h.verify_integrity()


@given(st.text(min_size=0, max_size=40))
def test_normalize_name_is_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


@given(st.text(st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=127), min_size=1, max_size=12))
def test_normalize_name_ignores_case_and_padding(word):
    assert normalize_name(f"  {word.upper()}  ") == normalize_name(word.lower())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_dags_always_pass_integrity(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    edges = daggen.random_dag(rng, n)
    h = build_hierarchy(edges, n)
    h.verify_integrity()
    up = daggen.closure_up(edges) if edges else {0: set()}
    for cid in h.ids():
        assert h.ancestors(cid) == up.get(cid, set())
