"""The crawl loop: frontier order, cutoffs, checkpointing, failure handling."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import daggen
import pytest

from ontocrawl import (
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    OracleContext,
    QueryLog,
    insertion,
)
from ontocrawl import crawler as crawler_mod
from ontocrawl.crawler import (
    _journal_apply,
    _journal_index,
    journal_path,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from ontocrawl.errors import (
    CheckpointError,
    ConfigError,
    CrawlAbortedError,
    TransportError,
)
from ontocrawl.export import compute_stats
from ontocrawl.insertion import ORIGIN_INSERTION
from support import (
    FIXTURE_NAMES,
    MALFORMED_CHECKPOINT_FIELDS,
    TaxonomyTransport,
    all_noise_modes,
    c2_taxonomy,
    count,
    edge_names,
    llm_crawler,
    make_mock_crawler,
    outcome,
    run_mock_crawl,
    scan_next_unexplored,
    with_value_at,
)

SMALL = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Goats",
        "edges": [["Dairy Goats", "Goats"], ["Meat Goats", "Goats"]],
    }
)

VEHICLES = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Vehicles",
        "edges": [
            ["Cars", "Vehicles"],
            ["Sports Cars", "Vehicles"],
            ["Sports Cars", "Cars"],
        ],
    }
)

UNIS = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Universities",
        "edges": [
            ["Public Universities", "Universities"],
            ["Private Universities", "Universities"],
        ],
        "instances": {"Universities": ["Yale University"]},
    }
)


# ---------------------------------------------------------------------------
# the reference crawl


def test_reference_crawl_recovers_the_whole_taxonomy(goats):
    crawler = run_mock_crawl(goats)
    h = crawler.hierarchy
    assert len(h) == 14
    assert edge_names(h) == {(c, p) for c, p in goats.edges}
    assert crawler.explorations == 14
    assert crawler.rejections == []
    assert all(c.explored for c in h.concepts())
    assert crawler.step() is False  # nothing left to do


def test_reference_crawl_places_the_dual_parent_by_insertion(goats):
    crawler = run_mock_crawl(goats)
    h = crawler.hierarchy
    nd = h.find_by_name("Nigerian Dwarf")
    dairy = h.find_by_name("Dairy Goats")
    mini = h.find_by_name("Mini. Goats")
    assert h.direct_parents(nd) == {dairy, mini}
    insertion_edges = {
        (c, p)
        for c, p in h.direct_edges()
        if h.edge_origin(c, p) == ORIGIN_INSERTION
    }
    assert insertion_edges == {(nd, mini)}
    assert crawler.discovered_from[nd] == "Dairy Goats"


def test_reference_crawl_depths_are_shortest_paths(goats):
    h = run_mock_crawl(goats).hierarchy
    by_depth: dict[int, set[str]] = {}
    for c in h.concepts():
        by_depth.setdefault(c.depth, set()).add(c.canonical_name)
    assert by_depth[0] == {"Goats"}
    assert by_depth[1] == {
        "Dairy Goats",
        "Meat Goats",
        "Fiber Goats",
        "Mini. Goats",
        "Show Goats",
    }
    assert by_depth[2] == {
        "Nigerian Dwarf",
        "Saanen",
        "Toggenburg",
        "Dwarf Nigerian",
        "Mini. Nubian",
        "Cashmere",
        "Nigora",
        "Boer",
    }


def test_probe_counters_accumulate_against_the_brute_force_baseline(goats):
    crawler = run_mock_crawl(goats)
    assert crawler.probes_issued > 0
    assert crawler.probes_issued < crawler.probe_baseline
    # One insert per non-seed concept, each worth 2 * |hierarchy before it|.
    assert crawler.probe_baseline == sum(2 * n for n in range(1, 14))


# ---------------------------------------------------------------------------
# depth cutoffs


def test_a_crawl_without_checkpoint_drains_the_change_set():
    crawler = run_mock_crawl(c2_taxonomy(1))
    assert len(crawler.hierarchy) > 1
    assert crawler.hierarchy.take_changes() == (set(), set())


def test_cutoff_one_explores_only_the_seed(goats):
    log = QueryLog()
    crawler = run_mock_crawl(goats, depth=1, query_log=log)
    h = crawler.hierarchy
    assert len(h) == 6
    assert crawler.explorations == 1
    assert [c.canonical_name for c in h.concepts() if c.explored] == ["Goats"]
    explores = [rec for rec in log.records if rec["op"] == "explore"]
    assert [(rec["concept"], rec["depth"]) for rec in explores] == [("Goats", 0)]
    assert count(log.records, op="has_subconcepts") == 1


def test_cutoff_two_stops_at_the_leaves(goats):
    log = QueryLog()
    crawler = run_mock_crawl(goats, depth=2, query_log=log)
    h = crawler.hierarchy
    assert len(h) == 14
    assert crawler.explorations == 6
    explores = [rec for rec in log.records if rec["op"] == "explore"]
    assert all(rec["depth"] < 2 for rec in explores)
    # Existence is only ever asked about explored concepts.
    assert count(log.records, op="has_subconcepts") == 6
    unexplored = {c.canonical_name for c in h.concepts() if not c.explored}
    assert all(h.concept(h.find_by_name(n)).depth == 2 for n in unexplored)
    assert len(unexplored) == 8


def test_insertion_can_push_a_concept_beyond_the_cutoff():
    """A candidate listed by the seed may still classify deeper down."""
    crawler = run_mock_crawl(VEHICLES, depth=1)
    h = crawler.hierarchy
    assert len(h) == 3
    sports = h.find_by_name("Sports Cars")
    cars = h.find_by_name("Cars")
    assert h.direct_parents(sports) == {cars}
    assert h.concept(sports).depth == 2
    assert crawler.explorations == 1
    stats = compute_stats(
        h, crawler.ledger, len(crawler.rejections), config=crawler.config
    )
    assert stats.concepts_at_or_below_cutoff == 2
    assert stats.concepts_above_cutoff == 1
    assert stats.n_subsumptions_insertion == 1


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_battery():
    good = CrawlConfig(seed_name="Goats")
    good.validate()
    bad = [
        CrawlConfig(seed_name="   "),
        CrawlConfig(seed_name="Goats", exploration_depth=0),
        CrawlConfig(seed_name="Goats", ft=0),
        CrawlConfig(seed_name="Goats", ft=101, n_samples=100),
        CrawlConfig(seed_name="Goats", n_samples=0),
        CrawlConfig(seed_name="Goats", max_concepts=0),
        CrawlConfig(seed_name="Goats", oracle="carrier pigeon"),
        CrawlConfig(seed_name="Goats", ft="3"),
        CrawlConfig(seed_name="Goats", ft=True),
        CrawlConfig(seed_name="Goats", n_samples=100.0),
        CrawlConfig(seed_name="Goats", exploration_depth="2"),
        CrawlConfig(seed_name="Goats", max_concepts=False),
        CrawlConfig(seed_name="Goats", oracle=None),
        CrawlConfig(seed_name="Goats", params=[1, 2]),
        CrawlConfig(seed_name="Goats", params={"temp": 0.5}),
        CrawlConfig(seed_name="Goats", params={"temperature": "hot"}),
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            cfg.validate()


def test_config_round_trips_and_rejects_unknown_fields():
    cfg = CrawlConfig(
        seed_name="Goats",
        exploration_depth=3,
        ft=5,
        n_samples=50,
        max_concepts=200,
        oracle="mock:tests/fixtures/goats.json",
        params={"model": "gpt-4"},
    )
    assert CrawlConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown config fields"):
        CrawlConfig.from_dict({"seed_name": "Goats", "frequency": 20})
    with pytest.raises(ConfigError, match="seed_name"):
        CrawlConfig.from_dict({"ft": 20})


def test_max_concepts_caps_the_build(goats):
    crawler = run_mock_crawl(goats, max_concepts=3)
    assert len(crawler.hierarchy) == 3
    assert crawler.explorations == 1
    assert crawler.step() is False


def test_leaf_seed_terminates_immediately():
    pebbles = GroundTruthTaxonomy.from_json_dict({"root": "Pebbles", "edges": []})
    log = QueryLog()
    crawler = run_mock_crawl(pebbles, query_log=log)
    assert len(crawler.hierarchy) == 1
    assert crawler.explorations == 1
    assert [rec["op"] for rec in log.records] == ["explore", "has_subconcepts"]


# ---------------------------------------------------------------------------
# rejection bookkeeping


def test_polluted_listing_lands_in_the_rejection_log(tmp_path):
    rej_path = tmp_path / "rejected.jsonl"
    crawler = run_mock_crawl(
        UNIS,
        noise=NoiseModel(rng_seed=4, p_wrong_relation=1.0),
        rejection_path=rej_path,
    )
    assert len(crawler.hierarchy) == 3
    (record,) = crawler.rejections
    assert record["name"] == "Yale University"
    assert record["parent"] == "Universities"
    assert record["reason"] == "instance"
    assert record["transcript"] == [["instance", True]]
    lines = rej_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == crawler.rejections
    assert crawler.to_checkpoint_dict()["counters"]["rejections"] == 1


def test_renamed_candidate_that_already_exists_is_not_duplicated():
    # Attribute inflation invents "<Modifier> Goats"; its generic description
    # renames straight back onto an existing concept.
    log = QueryLog()
    crawler = run_mock_crawl(
        SMALL,
        noise=NoiseModel(rng_seed=6, p_attribute_inflation=1.0),
        renames={"A kind of Goats.": "Dairy Goats"},
        query_log=log,
    )
    h = crawler.hierarchy
    assert len(h) == 3
    assert {c.canonical_name for c in h.concepts()} == {
        "Goats",
        "Dairy Goats",
        "Meat Goats",
    }
    assert edge_names(h) == {("Dairy Goats", "Goats"), ("Meat Goats", "Goats")}
    assert crawler.rejections == []
    assert count(log.records, op="rename_from_description") == 1


# ---------------------------------------------------------------------------
# checkpoint and resume


def checkpointed_crawler(goats, tmp_path, name="run.json"):
    return make_mock_crawler(goats, checkpoint_path=tmp_path / name)


NOISY = NoiseModel(rng_seed=1, p_attribute_inflation=0.3, p_wrong_relation=0.3)


def test_frontier_heap_matches_a_linear_scan_after_every_step():
    edges = daggen.random_dag(random.Random(41), 150, max_outdegree=5)
    taxonomy = GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges))
    crawler = make_mock_crawler(taxonomy, noise=all_noise_modes(5))
    steps = 0
    while True:
        h = crawler.hierarchy
        for cutoff in (None, 1, 2, 3, 4, 6):
            assert h.next_unexplored(cutoff) == scan_next_unexplored(h, cutoff)
        if steps % 25 == 0:
            loaded = parse_checkpoint(crawler.to_checkpoint_dict()).hierarchy
            assert loaded.next_unexplored() == scan_next_unexplored(h, None)
        if not crawler.step():
            break
        steps += 1
    assert steps > 80


def test_checkpoint_file_mirrors_the_in_memory_state(goats, tmp_path):
    crawls = {
        "clean": make_mock_crawler(goats, checkpoint_path=tmp_path / "clean.json"),
        "noisy": make_mock_crawler(
            goats, noise=NOISY, checkpoint_path=tmp_path / "noisy.json"
        ),
        "dag": make_mock_crawler(
            c2_taxonomy(1), checkpoint_path=tmp_path / "dag.json"
        ),
    }
    journaled: set[str] = set()
    for name, crawler in crawls.items():
        path = tmp_path / f"{name}.json"
        steps = 0
        while crawler.step():
            steps += 1
            on_disk = load_checkpoint(path)
            assert on_disk == crawler.to_checkpoint_dict(), (name, steps)
            assert on_disk["counters"]["explorations"] == steps
            assert set(on_disk["frontier"]) == {
                c.id for c in crawler.hierarchy.concepts() if not c.explored
            }
            # The base and its header line, then one line per later step.
            lines = journal_path(path).read_bytes().splitlines()
            assert len(lines) == steps
        for line in lines[1:]:
            journaled |= {key for key, value in json.loads(line).items() if value}
    assert {"concepts", "edges", "dropped", "discovered_from", "rejections"} <= journaled


def test_a_resumed_crawl_never_reuses_the_id_a_merge_removed(goats):
    """A merge that removes the newest concept retires its id.  A crawl
    resumed from that state numbers new concepts as the live crawl does, so
    no ``discovered_from`` entry is overwritten."""
    live = make_mock_crawler(goats)
    for _ in range(2):
        live.step()
    live.hierarchy.merge_synonyms(*live.hierarchy.ids()[-2:])
    oracle = MockOracle(goats)
    resumed = Crawler.from_checkpoint(live.to_checkpoint_dict(), oracle)
    live.run()
    resumed.run()
    assert resumed.to_checkpoint_dict() == live.to_checkpoint_dict()


def test_journal_replays_a_synonym_merge(goats, tmp_path):
    crawler = checkpointed_crawler(goats, tmp_path)
    for _ in range(2):
        crawler.step()
    h = crawler.hierarchy
    saanen, toggenburg = h.find_by_name("Saanen"), h.find_by_name("Toggenburg")
    h.merge_synonyms(saanen, toggenburg)
    assert crawler.step()
    assert load_checkpoint(tmp_path / "run.json") == crawler.to_checkpoint_dict()
    last = json.loads(journal_path(tmp_path / "run.json").read_bytes().splitlines()[-1])
    assert last["removed"] == [max(saanen, toggenburg)]


def _journal_delta(prev: dict, cur: dict) -> dict:
    """Reference journal line: the delta that turns index ``prev`` into index
    ``cur``, found by comparing every record of the two."""
    old_concepts, old_edges = prev["concepts"], prev["edges"]
    old_from = prev["discovered_from"]
    return {
        "concepts": [
            rec for cid, rec in cur["concepts"].items() if old_concepts.get(cid) != rec
        ],
        "removed": [cid for cid in old_concepts if cid not in cur["concepts"]],
        "edges": [
            [c, p, origin]
            for (c, p), origin in cur["edges"].items()
            if (c, p) not in old_edges or old_edges[(c, p)] != origin
        ],
        "dropped": [[c, p] for c, p in old_edges if (c, p) not in cur["edges"]],
        "discovered_from": {
            k: v
            for k, v in cur["discovered_from"].items()
            if k not in old_from or old_from[k] != v
        },
        "rejections": cur["rejections"][len(prev["rejections"]):],
        "ledger": cur["ledger"],
        "counters": cur["counters"],
    }


RECORD_KEYS = ("concepts", "removed", "edges", "dropped")


def crawl_checking_journal_lines(crawler, before_step=lambda step: None) -> list[dict]:
    """Crawl to the end; the reference deltas between the checkpoint dicts of
    consecutive steps.  Every journal line must turn the previous index into
    the current one, hold every entry of the reference delta, and hold no
    other record that would change the previous index."""
    journal = journal_path(crawler.checkpoint_path)
    lines, prev, steps = [], None, 0
    while True:
        before_step(steps)
        if not crawler.step():
            return lines
        steps += 1
        cur = _journal_index(crawler.to_checkpoint_dict())
        if prev is not None:
            expected = _journal_delta(prev, cur)
            written = json.loads(journal.read_bytes().splitlines()[-1])
            replayed = copy.deepcopy(prev)
            _journal_apply(replayed, written)
            assert replayed == cur, steps
            for key in ("discovered_from", "rejections", "ledger", "counters"):
                assert written[key] == expected[key], (steps, key)
            for key in RECORD_KEYS:
                assert all(e in written[key] for e in expected[key]), (steps, key)
                others = {k: [] for k in RECORD_KEYS}
                others[key] = [e for e in written[key] if e not in expected[key]]
                unchanged = copy.deepcopy(prev)
                _journal_apply(
                    unchanged,
                    {**prev, **others, "discovered_from": {}, "rejections": []},
                )
                assert unchanged == prev, (steps, key)
            lines.append(expected)
        prev = cur


DAIRY = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Livestock",
        "edges": [
            ["Goats", "Livestock"],
            ["Dairy Animals", "Livestock"],
            ["Dairy Goats", "Goats"],
            ["Milk Goats", "Dairy Animals"],
        ],
        "synonyms": [["Milk Goats", "Dairy Goats"]],
        "descriptions": {"Milk Goats": "Goats kept for their milk."},
    }
)


class UndescribedDairyGoats(MockOracle):
    """Describes every name but Dairy Goats, which enters without a text."""

    def describe(self, ctx, names):
        described = super().describe(ctx, names)
        return {n: text for n, text in described.items() if n != "Dairy Goats"}


def test_each_journal_line_is_the_delta_between_consecutive_states(goats, tmp_path):
    dag_edges = daggen.random_dag(random.Random(120), 120, max_outdegree=5)
    noisy_dag = make_mock_crawler(
        GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(dag_edges)),
        noise=all_noise_modes(3, p_hallucinated_edge=0.02),
        checkpoint_path=tmp_path / "dag.json",
    )
    merged = checkpointed_crawler(goats, tmp_path, "merge.json")
    pair = []

    def merge_after_two_steps(steps):
        h = merged.hierarchy
        if steps == 2:
            pair.extend([h.find_by_name("Saanen"), h.find_by_name("Toggenburg")])
            h.merge_synonyms(*pair)

    absorbed = Crawler(
        CrawlConfig(seed_name="Livestock", oracle="mock:fixture"),
        UndescribedDairyGoats(DAIRY),
        checkpoint_path=tmp_path / "absorb.json",
    )
    written = {
        "clean": crawl_checking_journal_lines(checkpointed_crawler(goats, tmp_path)),
        "noisy": crawl_checking_journal_lines(
            make_mock_crawler(
                goats, noise=NOISY, checkpoint_path=tmp_path / "noisy.json"
            )
        ),
        "dag": crawl_checking_journal_lines(noisy_dag),
        "merge": crawl_checking_journal_lines(merged, merge_after_two_steps),
        "absorb": crawl_checking_journal_lines(absorbed),
    }
    assert [line["removed"] for line in written["merge"] if line["removed"]] == [
        [max(pair)]
    ]
    # Dairy Goats was committed without a description; Milk Goats, found a
    # step later, is absorbed into it and brings one.
    dairy = absorbed.hierarchy.find_by_name("Dairy Goats")
    assert absorbed.hierarchy.find_by_name("Milk Goats") == dairy
    descriptions = [
        rec["description"]
        for line in written["absorb"]
        for rec in line["concepts"]
        if rec["id"] == dairy
    ]
    assert descriptions[:2] == [None, "Goats kept for their milk."]
    journaled = {
        key
        for lines in written.values()
        for line in lines
        for key, value in line.items()
        if value
    }
    assert {
        "concepts", "removed", "edges", "dropped", "discovered_from", "rejections"
    } <= journaled


def test_commits_never_rebuild_the_whole_checkpoint(tmp_path, monkeypatch):
    """Only the base, written before the first step, and the compaction
    serialize the whole state; a step's journal line is read from what the
    step changed."""
    edges = daggen.random_dag(random.Random(300), 300, max_outdegree=5)
    crawler = make_mock_crawler(
        GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges)),
        checkpoint_path=tmp_path / "run.json",
    )
    rebuilt_at: list[int] = []
    whole = Crawler.to_checkpoint_dict

    def counted(self):
        rebuilt_at.append(self.explorations)
        return whole(self)

    monkeypatch.setattr(Crawler, "to_checkpoint_dict", counted)
    crawler.run()
    assert crawler.explorations == 300
    assert rebuilt_at == [0, 300]


def test_a_crawl_keeps_no_mirror_of_the_checkpoint(tmp_path, monkeypatch):
    """A commit writes what the step touched without holding, or updating, a
    second copy of the committed state."""
    edges = daggen.random_dag(random.Random(300), 300, max_outdegree=5)
    crawler = make_mock_crawler(
        GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges)),
        checkpoint_path=tmp_path / "run.json",
    )
    called = []
    for name in ("_journal_index", "_journal_apply"):
        monkeypatch.setattr(crawler_mod, name, lambda *_, name=name: called.append(name))
    crawler.run()
    assert crawler.explorations == 300
    assert called == []


def write_journaled_checkpoint(goats, tmp_path, steps: int) -> list[dict]:
    """Crawl ``steps`` explorations; the checkpoint dict after each of them."""
    crawler = checkpointed_crawler(goats, tmp_path)
    states = []
    for _ in range(steps):
        assert crawler.step()
        states.append(json.loads(json.dumps(crawler.to_checkpoint_dict())))
    return states


def test_journal_drops_a_torn_last_line(goats, tmp_path):
    states = write_journaled_checkpoint(goats, tmp_path, 4)
    journal = journal_path(tmp_path / "run.json")
    raw = journal.read_bytes()
    assert raw.endswith(b"\n")
    last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
    for cut in (len(raw) - 1, (last_start + len(raw)) // 2, last_start + 1):
        journal.write_bytes(raw[:cut])
        assert load_checkpoint(tmp_path / "run.json") == states[2]
    journal.write_bytes(raw[:last_start])
    assert load_checkpoint(tmp_path / "run.json") == states[2]


def test_journal_refuses_a_corrupt_interior_line(goats, tmp_path):
    write_journaled_checkpoint(goats, tmp_path, 4)
    journal = journal_path(tmp_path / "run.json")
    lines = journal.read_bytes().splitlines(keepends=True)
    for bad in (b"{oops\n", b"[1, 2]\n", b'{"concepts": []}\n'):
        journal.write_bytes(b"".join([lines[0], lines[1], bad, *lines[3:]]))
        with pytest.raises(CheckpointError, match="journal line 3"):
            load_checkpoint(tmp_path / "run.json")
    journal.write_bytes(b"not a header\n" + b"".join(lines[1:]))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(tmp_path / "run.json")


def test_journal_of_a_replaced_base_is_ignored(goats, tmp_path):
    states = write_journaled_checkpoint(goats, tmp_path, 3)
    assert load_checkpoint(tmp_path / "run.json") == states[2]
    # The base was written after the first step; any other snapshot replaces it.
    save_checkpoint(states[1], tmp_path / "run.json")
    assert journal_path(tmp_path / "run.json").exists()
    assert load_checkpoint(tmp_path / "run.json") == states[1]


def test_interrupt_mid_step_leaves_the_last_committed_step(goats, tmp_path):
    path = tmp_path / "run.json"
    crawler = make_mock_crawler(
        goats, checkpoint_path=path, fail=("is_subcategory_of", KeyboardInterrupt(), 55)
    )
    with pytest.raises(KeyboardInterrupt):
        while crawler.step():
            committed = json.loads(json.dumps(crawler.to_checkpoint_dict()))
    assert committed["counters"]["explorations"] == 3
    assert journal_path(path).exists()
    assert load_checkpoint(path) == committed

    resumed = resume(goats, path)
    resumed.run()
    assert resumed.to_checkpoint_dict() == run_mock_crawl(goats).to_checkpoint_dict()


def test_run_compacts_the_journal_into_the_checkpoint(goats, tmp_path):
    crawler = checkpointed_crawler(goats, tmp_path)
    crawler.run()
    assert not journal_path(tmp_path / "run.json").exists()
    text = (tmp_path / "run.json").read_text(encoding="utf-8")
    assert json.loads(text) == crawler.to_checkpoint_dict()
    assert text == json.dumps(crawler.to_checkpoint_dict(), indent=2, ensure_ascii=False)


def resume(goats, path, noise=None, **files):
    data = load_checkpoint(path)
    oracle = MockOracle(goats, noise)
    return Crawler.from_checkpoint(data, oracle, checkpoint_path=path, **files)


def test_resume_is_indistinguishable_from_an_uninterrupted_run(goats, tmp_path):
    uninterrupted = run_mock_crawl(goats)
    crawler = checkpointed_crawler(goats, tmp_path)
    for _ in range(3):
        crawler.step()
    resumed = resume(goats, tmp_path / "run.json")
    resumed.run()
    assert resumed.to_checkpoint_dict() == uninterrupted.to_checkpoint_dict()


def test_corrupted_checkpoints_are_refused(goats, tmp_path):
    crawler = checkpointed_crawler(goats, tmp_path)
    crawler.run()
    good = crawler.to_checkpoint_dict()
    oracle = MockOracle(goats)

    def copy():
        return json.loads(json.dumps(good))

    with pytest.raises(CheckpointError, match="version"):
        bad = copy()
        bad["version"] = 99
        Crawler.from_checkpoint(bad, oracle)
    with pytest.raises(CheckpointError, match="JSON object"):
        Crawler.from_checkpoint(["not", "a", "dict"], oracle)
    with pytest.raises(CheckpointError, match="config invalid"):
        bad = copy()
        bad["config"]["ft"] = 0
        Crawler.from_checkpoint(bad, oracle)
    with pytest.raises(CheckpointError, match="frontier"):
        bad = copy()
        bad["frontier"] = [2]
        Crawler.from_checkpoint(bad, oracle)
    with pytest.raises(CheckpointError):
        bad = copy()
        del bad["hierarchy"]["direct_edges"][0]
        Crawler.from_checkpoint(bad, oracle)
    with pytest.raises(CheckpointError):
        bad = copy()
        del bad["config"]
        Crawler.from_checkpoint(bad, oracle)
    for path, value in MALFORMED_CHECKPOINT_FIELDS.values():
        with pytest.raises(CheckpointError):
            Crawler.from_checkpoint(with_value_at(good, path, value), oracle)


def test_checkpoint_loader_file_errors(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbled)


def test_a_failed_checkpoint_save_keeps_the_previous_one(goats, tmp_path, monkeypatch):
    path = tmp_path / "run.json"
    save_checkpoint(run_mock_crawl(goats).to_checkpoint_dict(), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(crawler_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint({"version": 1}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# ---------------------------------------------------------------------------
# aborts


def test_transport_failure_checkpoints_and_aborts_resumably(goats, tmp_path):
    path = tmp_path / "aborted.json"
    crawler = make_mock_crawler(
        goats,
        checkpoint_path=path,
        fail=("list_subconcepts", TransportError("HTTP 503", status=503), 0),
    )
    with pytest.raises(CrawlAbortedError) as exc:
        crawler.run()
    assert exc.value.checkpoint_path == str(path)
    assert path.exists()
    assert not journal_path(path).exists()
    assert json.loads(path.read_text(encoding="utf-8")) == crawler.to_checkpoint_dict()

    resumed = resume(goats, path)
    assert resumed.explorations == 0  # the failed step was not committed
    resumed.run()
    assert len(resumed.hierarchy) == 14
    assert edge_names(resumed.hierarchy) == {(c, p) for c, p in goats.edges}


def test_resume_keeps_the_rejections_of_the_aborted_run(goats, tmp_path):
    path, rej_path = tmp_path / "run.json", tmp_path / "rejected.jsonl"
    crawler = make_mock_crawler(
        goats,
        noise=NOISY,
        checkpoint_path=path,
        rejection_path=rej_path,
        fail=("list_subconcepts", TransportError("HTTP 503", status=503), 4),
    )
    with pytest.raises(CrawlAbortedError):
        crawler.run()
    assert crawler.rejections

    data = load_checkpoint(path)
    resumed = resume(goats, path, NOISY, rejection_path=rej_path)
    assert len(rej_path.read_text(encoding="utf-8").splitlines()) == len(
        data["rejections"]
    )
    resumed.run()
    lines = rej_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == load_checkpoint(path)["counters"]["rejections"]
    assert [json.loads(line) for line in lines] == resumed.rejections
    assert len(resumed.rejections) > len(data["rejections"])


def test_resume_writes_the_rejection_file_once(goats, tmp_path, monkeypatch):
    """Constructing the resumed crawler writes nothing; its ``run()`` writes
    the file whole once, at its first commit, and after that only appends."""
    path, rej_path = tmp_path / "run.json", tmp_path / "rejected.jsonl"
    crawler = make_mock_crawler(goats, noise=NOISY, checkpoint_path=path)
    for _ in range(4):
        crawler.step()
    assert crawler.rejections
    resumed = resume(goats, path, NOISY, rejection_path=rej_path)
    assert not rej_path.exists()
    writes = []
    write_text, open_ = Path.write_text, Path.open

    def recording_write(path, text, *args, **kwargs):
        if path == rej_path:
            writes.append(("w", [json.loads(line) for line in text.splitlines()]))
        return write_text(path, text, *args, **kwargs)

    def recording_open(path, mode="r", *args, **kwargs):
        if path == rej_path and mode != "w":  # write_text opens with "w"
            writes.append((mode, None))
        return open_(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recording_write)
    monkeypatch.setattr(Path, "open", recording_open)
    resumed.run()
    assert len(resumed.rejections) > len(crawler.rejections)
    assert writes[0] == ("w", crawler.rejections)
    assert [mode for mode, _ in writes[1:]] == ["a"] * (len(writes) - 1) != []
    lines = rej_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == resumed.rejections


def test_an_interrupt_leaves_no_rejection_the_checkpoint_lacks(tmp_path):
    """The rejection of ``Yale University`` comes before the interrupt but in
    the step it cuts short, so neither the checkpoint nor the file has it."""
    unis = GroundTruthTaxonomy.from_json_dict(
        {
            "root": "Universities",
            "edges": [["Yale University", "Universities"], ["Public Universities", "Universities"]],
            "instances": {"Universities": ["Yale University"]},
        }
    )
    path, rej_path = tmp_path / "run.json", tmp_path / "rejected.jsonl"
    crawler = make_mock_crawler(
        unis,
        checkpoint_path=path,
        rejection_path=rej_path,
        fail=("is_instance", KeyboardInterrupt(), 1),
    )
    with pytest.raises(KeyboardInterrupt):
        crawler.run()
    assert [r["name"] for r in crawler.rejections] == ["Yale University"]
    assert load_checkpoint(path)["rejections"] == []
    assert rej_path.read_text(encoding="utf-8") == ""

    resumed = resume(unis, path, rejection_path=rej_path)
    resumed.run()
    lines = rej_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == resumed.rejections
    assert [r["name"] for r in resumed.rejections] == ["Yale University"]


def test_step_propagates_the_transport_error(goats, tmp_path):
    crawler = make_mock_crawler(
        goats,
        checkpoint_path=tmp_path / "boom.json",
        fail=("has_subconcepts", TransportError("HTTP 502", status=502), 0),
    )
    with pytest.raises(TransportError):
        crawler.step()
    assert (tmp_path / "boom.json").exists()


VERIFICATION_OPS = (
    "is_instance",
    "is_part",
    "under_seed",
    "is_subcategory_of",  # step 4, and the insertion probes
    "rename_from_description",
)


@pytest.mark.parametrize("noise", [None, NOISY], ids=["clean", "noisy"])
def test_a_transport_failure_in_verification_aborts_instead_of_rejecting(
    goats, tmp_path, noise
):
    """At every call of every verification operation, a failed request aborts
    the crawl, and the resumed crawl ends where an uninterrupted one does.
    Only the ledger and counters differ: the interrupted step is asked again.
    """
    uninterrupted = run_mock_crawl(goats, noise=noise)
    expected = outcome(uninterrupted, "counters")
    for op in VERIFICATION_OPS:
        calls = count(uninterrupted.query_log.records, op=op)
        assert calls or (noise is None and op == "rename_from_description")
        for k in range(calls):
            path = tmp_path / f"{op}-{k}.json"
            error = TransportError("HTTP 401", status=401, retryable=False)
            crawler = make_mock_crawler(
                goats, noise=noise, checkpoint_path=path, fail=(op, error, k)
            )
            with pytest.raises(CrawlAbortedError):
                crawler.run()
            assert crawler.oracle.calls == k + 1
            resumed = resume(goats, path, noise)
            resumed.run()
            assert outcome(resumed, "counters") == expected, (op, k)


# ---------------------------------------------------------------------------
# the same crawl through the chat-completion oracle


# (fixture, noise seed or None for a clean oracle, whether renames are on).
# The c2 DAGs carry instances and parts, so that wrong relations are listed.
EQUIVALENCE_CASES = [
    *((fixture, seed, False) for fixture in FIXTURE_NAMES for seed in (None, 1, 2, 3)),
    ("goats", 1, True),
    ("c2-03", 1, True),
]


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize(
    "fixture, seed, renamed",
    EQUIVALENCE_CASES,
    ids=[
        f"{fixture}-{'clean' if seed is None else f'noise{seed}'}{'-renamed' * renamed}"
        for fixture, seed, renamed in EQUIVALENCE_CASES
    ],
)
def test_prompt_driven_crawl_matches_the_mock_crawl(
    crawls, fixture, seed, renamed, max_in_flight
):
    """A crawl down the LLM path, through prompts, replies and their parsers,
    ends where the same crawl of ``MockOracle`` does, noise included."""
    key = {"annotate_every": 3, "seed": seed, "renamed": renamed}
    llm = crawls.llm(fixture, max_in_flight=max_in_flight, **key)
    mock = crawls.mock(fixture, **key)
    assert outcome(llm, "config.oracle") == outcome(mock, "config.oracle")
    assert llm.transport_requests > 0
    if renamed:
        refused = sum(
            any(step == "rename" and answer for step, answer in rec["transcript"])
            for rec in mock.checkpoint["rejections"]
        )
        assert mock.renames_answered > refused  # some rename was accepted on both paths


def test_a_failed_first_token_draw_aborts_and_resumes_exactly(goats, tmp_path):
    """At every first-token draw of the crawl, a failed request aborts it
    instead of lowering the token counts, and the resumed crawl ends where
    an uninterrupted one does.  Only the ledger differs: the interrupted
    step is asked again."""

    def draw_counter(fail_at: int | None = None):
        """Counts listing requests, all first-token draws here since a first
        token always passes, and refuses draw ``fail_at`` (from 0) for good."""
        draws = []

        def fail(name, _bindings):
            if name != "listing":
                return False
            draws.append(name)
            return len(draws) - 1 == fail_at

        return TaxonomyTransport(goats, fail=fail), draws

    counting, draws = draw_counter()
    uninterrupted = llm_crawler(counting, "Goats", ft=3, n_samples=3)
    uninterrupted.run()
    expected = outcome(uninterrupted)
    assert draws and len(draws) % 3 == 0  # three per listing
    for k in range(len(draws)):
        out_dir = tmp_path / f"draw-{k}"
        failing, failed_draws = draw_counter(fail_at=k)
        with pytest.raises(CrawlAbortedError):
            llm_crawler(failing, "Goats", ft=3, n_samples=3, out_dir=out_dir).run()
        assert len(failed_draws) == k + 1
        resumed = llm_crawler(
            TaxonomyTransport(goats),
            "Goats",
            out_dir=out_dir,
            data=load_checkpoint(out_dir / "checkpoint.json"),
        )
        resumed.run()
        assert outcome(resumed) == expected, k


def test_a_crawl_builds_two_contexts_per_step_and_one_per_insert(goats, monkeypatch):
    """Stored descriptions are read live, so no context is rebuilt per
    candidate or per probe."""
    built = 0
    init = OracleContext.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    inserts = 0
    insert = insertion.insert

    def counting_insert(*args, **kwargs):
        nonlocal inserts
        inserts += 1
        return insert(*args, **kwargs)

    per_step: list[tuple[int, int]] = []
    step = Crawler.step

    def counting_step(self):
        before = built, inserts
        more = step(self)
        per_step.append((built - before[0], inserts - before[1]))
        return more

    monkeypatch.setattr(OracleContext, "__init__", counting_init)
    monkeypatch.setattr(insertion, "insert", counting_insert)
    monkeypatch.setattr(Crawler, "step", counting_step)
    crawler = run_mock_crawl(goats)
    assert len(crawler.hierarchy) == 14 and inserts == 13
    assert all(contexts <= 2 + n for contexts, n in per_step), per_step
    assert max(contexts - n for contexts, n in per_step) == 2
