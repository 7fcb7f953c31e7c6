"""The crawl loop: frontier order, cutoffs, checkpointing, failure handling."""

from __future__ import annotations

import json
import random

import daggen
import pytest

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    CostLedger,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    OracleContext,
    QueryLog,
)
from ontocrawl.crawler import journal_path, load_checkpoint, save_checkpoint
from ontocrawl.errors import (
    CheckpointError,
    ConfigError,
    CrawlAbortedError,
    TransportError,
)
from ontocrawl.export import compute_stats
from ontocrawl.insertion import ORIGIN_INSERTION
from support import (
    RaisingOracle,
    TaxonomyTransport,
    edge_names,
    make_mock_crawler,
    run_mock_crawl,
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


def test_cutoff_one_explores_only_the_seed(goats):
    log = QueryLog()
    crawler = run_mock_crawl(goats, depth=1, query_log=log)
    h = crawler.hierarchy
    assert len(h) == 6
    assert crawler.explorations == 1
    assert [c.canonical_name for c in h.concepts() if c.explored] == ["Goats"]
    explores = [rec for rec in log.records if rec["op"] == "explore"]
    assert [(rec["concept"], rec["depth"]) for rec in explores] == [("Goats", 0)]
    assert log.count(op="has_subconcepts") == 1


def test_cutoff_two_stops_at_the_leaves(goats):
    log = QueryLog()
    crawler = run_mock_crawl(goats, depth=2, query_log=log)
    h = crawler.hierarchy
    assert len(h) == 14
    assert crawler.explorations == 6
    explores = [rec for rec in log.records if rec["op"] == "explore"]
    assert all(rec["depth"] < 2 for rec in explores)
    # Existence is only ever asked about explored concepts.
    assert log.count(op="has_subconcepts") == 6
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
    assert log.count(op="rename_from_description") == 1


# ---------------------------------------------------------------------------
# checkpoint and resume


def checkpointed_crawler(goats, tmp_path, name="run.json"):
    return make_mock_crawler(goats, checkpoint_path=tmp_path / name)


NOISY = NoiseModel(rng_seed=1, p_attribute_inflation=0.3, p_wrong_relation=0.3)


def random_taxonomy(seed: int = 9001) -> GroundTruthTaxonomy:
    rng = random.Random(seed)
    edges = daggen.random_dag(rng, rng.randint(10, 50), max_outdegree=5)
    return GroundTruthTaxonomy.from_json_dict(daggen.to_fixture(edges))


def test_checkpoint_file_mirrors_the_in_memory_state(goats, tmp_path):
    crawls = {
        "clean": make_mock_crawler(goats, checkpoint_path=tmp_path / "clean.json"),
        "noisy": make_mock_crawler(
            goats, noise=NOISY, checkpoint_path=tmp_path / "noisy.json"
        ),
        "dag": make_mock_crawler(
            random_taxonomy(), checkpoint_path=tmp_path / "dag.json"
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
    ledger = CostLedger()
    flaky = RaisingOracle(
        MockOracle(goats, ledger=ledger),
        "is_subcategory_of",
        KeyboardInterrupt(),
        after=55,
    )
    crawler = Crawler(
        CrawlConfig(seed_name="Goats", oracle="mock:fixture"),
        flaky,
        ledger=ledger,
        checkpoint_path=path,
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


def resume(goats, path):
    data = load_checkpoint(path)
    oracle = MockOracle(goats)
    crawler = Crawler.from_checkpoint(data, oracle, checkpoint_path=path)
    oracle.ledger = crawler.ledger  # resume shares the restored ledger
    return crawler


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


def test_checkpoint_loader_file_errors(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_checkpoint(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(garbled)


# ---------------------------------------------------------------------------
# aborts


def test_transport_failure_checkpoints_and_aborts_resumably(goats, tmp_path):
    path = tmp_path / "aborted.json"
    log = QueryLog()
    ledger = CostLedger()
    flaky = RaisingOracle(
        MockOracle(goats, query_log=log, ledger=ledger),
        "list_subconcepts",
        TransportError("HTTP 503", status=503),
    )
    crawler = Crawler(
        CrawlConfig(seed_name="Goats", oracle="mock:fixture"),
        flaky,
        query_log=log,
        ledger=ledger,
        checkpoint_path=path,
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
    flaky = RaisingOracle(
        MockOracle(goats, NOISY),
        "list_subconcepts",
        TransportError("HTTP 503", status=503),
        after=4,
    )
    crawler = Crawler(
        CrawlConfig(seed_name="Goats", oracle="mock:fixture"),
        flaky,
        checkpoint_path=path,
        rejection_path=rej_path,
    )
    with pytest.raises(CrawlAbortedError):
        crawler.run()
    assert crawler.rejections

    data = load_checkpoint(path)
    oracle = MockOracle(goats, NOISY)
    resumed = Crawler.from_checkpoint(
        data, oracle, checkpoint_path=path, rejection_path=rej_path
    )
    oracle.ledger = resumed.ledger
    assert len(rej_path.read_text(encoding="utf-8").splitlines()) == len(
        data["rejections"]
    )
    resumed.run()
    lines = rej_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == load_checkpoint(path)["counters"]["rejections"]
    assert [json.loads(line) for line in lines] == resumed.rejections
    assert len(resumed.rejections) > len(data["rejections"])


def test_step_propagates_the_transport_error(goats, tmp_path):
    flaky = RaisingOracle(
        MockOracle(goats), "has_subconcepts", TransportError("HTTP 502", status=502)
    )
    crawler = Crawler(
        CrawlConfig(seed_name="Goats", oracle="mock:fixture"),
        flaky,
        checkpoint_path=tmp_path / "boom.json",
    )
    with pytest.raises(TransportError):
        crawler.step()
    assert (tmp_path / "boom.json").exists()


# ---------------------------------------------------------------------------
# the same crawl through the chat-completion oracle


def test_prompt_driven_crawl_matches_the_mock_crawl(goats):
    transport = TaxonomyTransport(goats)
    oracle = ChatCompletionOracle(
        transport,
        params=CompletionParams(),
        ledger=CostLedger(),
        max_in_flight=1,
    )
    config = CrawlConfig(seed_name="Goats", ft=5, n_samples=5)
    llm_crawler = Crawler(config, oracle, ledger=oracle.ledger)
    llm_crawler.run()

    mock_crawler = run_mock_crawl(goats, ft=5, n_samples=5)

    lh, mh = llm_crawler.hierarchy, mock_crawler.hierarchy
    assert lh.to_json_dict() == mh.to_json_dict()
    origins = lambda h: {e: h.edge_origin(*e) for e in h.direct_edges()}
    assert origins(lh) == origins(mh)
    assert llm_crawler.rejections == mock_crawler.rejections == []
    assert llm_crawler.probes_issued == mock_crawler.probes_issued
    assert transport.requests > 0
