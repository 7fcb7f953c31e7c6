"""The round scheduler of the insertion searches against a rescanning reference.

``reference_top_search`` and ``reference_bottom_search`` are the searches as
they were before the counter-driven scheduler: ``_decide_wave`` re-sorts and
rescans its pending set on every pass and the top search calls it once per
expanded parent.  They probe exactly when all needed neighbours are positive,
so the scheduler must probe the same nodes and return the same placement, in
no more rounds, with every round holding every probe that is ready.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

import daggen
from ontocrawl import (
    ConceptHierarchy,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
)
from ontocrawl.insertion import bottom_search, top_search
from support import build_hierarchy, recording_rounds


def _decide_wave(
    targets: set[int],
    status: dict[int, bool],
    probe,
    neighbors_up: Mapping[int, set[int]],
) -> None:
    pending = {t for t in targets if t not in status}
    while pending:
        stack = list(pending)
        while stack:
            x = stack.pop()
            for n in neighbors_up[x]:
                if n not in status and n not in pending:
                    pending.add(n)
                    stack.append(n)
        autos = [
            x
            for x in sorted(pending)
            if any(status.get(n) is False for n in neighbors_up[x])
        ]
        if autos:
            for x in autos:
                status[x] = False
                pending.discard(x)
            continue
        ready = [
            x
            for x in sorted(pending)
            if all(status.get(n) is True for n in neighbors_up[x])
        ]
        if not ready:
            raise AssertionError("traversal stalled; dependency graph is cyclic")
        for x, answer in zip(ready, probe(ready)):
            status[x] = answer
            pending.discard(x)


def reference_top_search(h: ConceptHierarchy, session, entry: int) -> set[int]:
    status: dict[int, bool] = {h.seed_id: True, entry: True}
    for a in h.ancestors(entry):
        status[a] = True
    expanded: set[int] = set()
    while True:
        frontier = sorted(x for x, pos in status.items() if pos and x not in expanded)
        if not frontier:
            break
        for d in frontier:
            expanded.add(d)
            _decide_wave(h._children[d], status, session.probe_up, h._parents)
    return {
        x
        for x, pos in status.items()
        if pos and not any(status.get(k) is True for k in h._children[x])
    }


def reference_bottom_search(h: ConceptHierarchy, session, parents: set[int]) -> set[int]:
    region: set[int] | None = None
    for p in parents:
        cone = h._down[p] | {p}
        region = cone if region is None else (region & cone)
    region = (region or set()) - {h.seed_id}
    if not region:
        return set()
    status: dict[int, bool] = {}
    _decide_wave(region, status, session.probe_down, h._children)
    return {
        x
        for x in region
        if status[x] is True and not any(status.get(p) is True for p in h._parents[x])
    }


class ScriptedSession:
    """Answers probes from fixed sets of positive ids and records each batch."""

    def __init__(self, up: set[int], down: set[int]):
        self.up = up
        self.down = down
        self.batches: list[list[int]] = []

    def _answer(self, cids: list[int], yes: set[int]) -> list[bool]:
        assert cids == sorted(cids), "a batch goes out in id order"
        self.batches.append(list(cids))
        return [c in yes for c in cids]

    def probe_up(self, cids: list[int]) -> list[bool]:
        return self._answer(cids, self.up)

    def probe_down(self, cids: list[int]) -> list[bool]:
        return self._answer(cids, self.down)

    def probed(self) -> Counter:
        return Counter(c for batch in self.batches for c in batch)


def assert_rounds_are_maximal(
    batches: list[list[int]],
    known: set[int],
    candidates: set[int],
    needs: Mapping[int, set[int]],
    yes: set[int],
) -> None:
    """Each batch is exactly the set of undecided candidates whose needs are
    all known positive after the batches before it, and none is left over."""
    positive, decided = set(known), set(known)
    for batch in [*batches, []]:
        ready = {x for x in candidates - decided if needs[x] <= positive}
        assert set(batch) == ready
        decided |= ready
        positive |= ready & yes


@st.composite
def scripted_searches(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    h = ConceptHierarchy("c0")
    for i in range(1, n):
        parents = draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=3))
        h.add_concept(f"c{i}", sorted(parents))
    ids = st.integers(0, n - 1)
    return (
        h,
        draw(ids),
        draw(st.sets(ids)),
        draw(st.sets(ids)),
        draw(st.sets(ids, min_size=1, max_size=3)),
    )


@settings(max_examples=300, deadline=None)
@given(scripted_searches())
def test_rounds_probe_what_the_reference_probes_in_no_more_rounds(case):
    h, entry, up, down, drawn_parents = case

    ref, new = ScriptedSession(up, down), ScriptedSession(up, down)
    parents = reference_top_search(h, ref, entry)
    assert top_search(h, new.probe_up, entry) == parents
    assert new.probed() == ref.probed()
    assert len(new.batches) <= len(ref.batches)
    known = {h.seed_id, entry} | h.ancestors(entry)
    candidates = set(h.ids()) - known
    assert_rounds_are_maximal(new.batches, known, candidates, h._parents, up)

    for above in (parents, drawn_parents):
        ref, new = ScriptedSession(up, down), ScriptedSession(up, down)
        children = reference_bottom_search(h, ref, above)
        assert bottom_search(h, new.probe_down, above) == children
        assert new.probed() == ref.probed()
        assert len(new.batches) <= len(ref.batches)
        region = set.intersection(*(h.descendants(p) | {p} for p in above))
        region.discard(h.seed_id)
        assert_rounds_are_maximal(new.batches, set(), region, h._children, down)


def test_a_clean_crawl_sends_one_batch_per_traversal_level():
    """A clean n=200 crawl sends its probes in 556 rounds; the scheduler that
    probed one expanded parent's children at a time needed 1,526."""
    edges = daggen.random_dag(random.Random(1), 200, max_outdegree=5)
    taxonomy = GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges))
    crawler = Crawler(CrawlConfig(seed_name=taxonomy.root, oracle="mock:x"), MockOracle(taxonomy))
    with recording_rounds() as rounds:
        crawler.run()
    assert len(crawler.hierarchy) == 200
    assert sum(map(len, rounds)) == crawler.probes_issued == 2673
    assert len(rounds) <= 600


class CountingAdjacency(dict):
    """An adjacency map that counts the reads of each node's set."""

    def __init__(self, data):
        super().__init__(data)
        self.reads: Counter = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


def test_searches_read_each_adjacency_set_a_bounded_number_of_times():
    """A search reads each node's parents and children at most twice, however
    many rounds it takes, so no scheduler pass rescans its pending set."""
    edges = daggen.random_dag(random.Random(7), 300, max_outdegree=5)
    h = build_hierarchy(edges, 300)
    h._parents = CountingAdjacency(h._parents)
    h._children = CountingAdjacency(h._children)
    deep = sorted(h.ids(), key=lambda x: (-h.depth_of(x), x))[:20]
    worst = 0
    for target in deep:
        above = h.ancestors(target) | {target}
        below = h.descendants(target) | {target}
        session = ScriptedSession(up=above, down=below)
        for adjacency in (h._parents, h._children):
            adjacency.reads.clear()
        assert top_search(h, session.probe_up, h.seed_id) == {target}
        assert bottom_search(h, session.probe_down, {h.seed_id}) == {target}
        assert len(session.batches) > 5
        worst = max(worst, *h._parents.reads.values(), *h._children.reads.values())
    assert worst <= 4
