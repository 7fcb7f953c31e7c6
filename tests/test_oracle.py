"""Ground-truth fixtures and the deterministic mock oracle."""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import daggen
import ontocrawl
from ontocrawl import (
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    OracleContext,
    QueryLog,
)
from ontocrawl.errors import InvalidInputError
from ontocrawl.llm_backend import CostLedger
from ontocrawl.oracle import _INFLATION_PREFIXES, tagged
from support import NOISE_RATES, all_noise_modes, c2_dag

# A small taxonomy with a synonym pair, an instance and two parts, so every
# noise mode has material to work with.
FARM = {
    "root": "Livestock",
    "edges": [
        ["Goats", "Livestock"],
        ["Cattle", "Livestock"],
        ["Dairy Goats", "Goats"],
        ["Milk Goats", "Goats"],
        ["Saanen", "Dairy Goats"],
    ],
    "synonyms": [["Milk Goats", "Dairy Goats"]],
    "descriptions": {"Saanen": "A large white Swiss dairy goat."},
    "instances": {"Cattle": ["Bessie the Cow"]},
    "parts": {"Goats": ["Hooves", "Udder"]},
}


@pytest.fixture()
def farm() -> GroundTruthTaxonomy:
    return GroundTruthTaxonomy.from_json_dict(FARM)


def mk(taxonomy, noise=None, **kwargs):
    oracle = MockOracle(taxonomy, noise, **kwargs)
    return oracle, OracleContext(seed_name=taxonomy.root)


# ---------------------------------------------------------------------------
# fixture loading and validation


def test_load_goats_fixture(goats_path):
    tax = GroundTruthTaxonomy.load(goats_path)
    assert tax.root == "Goats"
    assert tax.has_name("Dairy Goats")
    assert tax.has_name("  dairy   GOATS ")  # lookups are normalized
    assert not tax.has_name("Sheep")


def test_fixture_rejects_unknown_fields():
    with pytest.raises(InvalidInputError, match="unknown fields"):
        GroundTruthTaxonomy.from_json_dict({"root": "A", "edges": [], "bogus": 1})


def test_fixture_requires_root_and_edges():
    with pytest.raises(InvalidInputError):
        GroundTruthTaxonomy.from_json_dict({"root": "A"})
    with pytest.raises(InvalidInputError):
        GroundTruthTaxonomy.from_json_dict({"edges": []})
    with pytest.raises(InvalidInputError):
        GroundTruthTaxonomy.from_json_dict(["not", "a", "dict"])


def test_fixture_rejects_blank_root():
    with pytest.raises(InvalidInputError):
        GroundTruthTaxonomy.from_json_dict({"root": "   ", "edges": []})


def test_fixture_rejects_cycles():
    data = {"root": "A", "edges": [["B", "A"], ["C", "B"], ["B", "C"]]}
    with pytest.raises(InvalidInputError):
        GroundTruthTaxonomy.from_json_dict(data)


def test_fixture_rejects_concepts_unreachable_from_root():
    data = {"root": "A", "edges": [["C", "B"]]}
    with pytest.raises(InvalidInputError, match="not reachable"):
        GroundTruthTaxonomy.from_json_dict(data)


def test_fixture_rejects_a_cycle_through_a_synonym_class():
    # D < C < B is a chain; naming D a synonym of B closes it into a cycle.
    data = {"root": "A", "edges": [["B", "A"], ["C", "B"], ["D", "C"]]}
    GroundTruthTaxonomy.from_json_dict(data)
    with pytest.raises(InvalidInputError, match="^fixture edges contain a cycle$"):
        GroundTruthTaxonomy.from_json_dict({**data, "synonyms": [["d", "B"]]})


# A cycle (B, C) and two unreachable concepts (X, then Y), and one fixture
# with only the unreachable ones: the first error in fixture order is named.
_CYCLE_AND_ORPHANS = {"root": "A", "edges": [["B", "A"], ["C", "B"], ["B", "C"], ["X", "Y"]]}
_ORPHANS = {"root": "A", "edges": [["B", "A"], ["X", "Y"], ["P", "Q"]]}
_REPORT_ERRORS = """
import json, sys
from ontocrawl import GroundTruthTaxonomy
from ontocrawl.errors import InvalidInputError
for data in json.loads(sys.argv[1]):
    try:
        GroundTruthTaxonomy.from_json_dict(data)
    except InvalidInputError as exc:
        print(exc)
"""


def test_fixture_errors_do_not_depend_on_the_hash_seed():
    src = str(Path(ontocrawl.__file__).resolve().parents[1])
    fixtures = json.dumps([_CYCLE_AND_ORPHANS, _ORPHANS])
    want = [
        "fixture edges contain a cycle",
        "fixture concept 'X' is not reachable from the root",
    ]
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_ERRORS, fixtures],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == want, seed


def _brute_force_reaches(data: dict) -> dict[str, set[str]]:
    """Every name's reflexive reach, walking edges upward and synonym pairs
    both ways, by one search per name."""
    step: dict[str, set[str]] = {}
    names = {data["root"]} | {n for pair in data["edges"] for n in pair}
    names |= {n for pair in data["synonyms"] for n in pair}
    for child, parent in data["edges"]:
        step.setdefault(child, set()).add(parent)
    for a, b in data["synonyms"]:
        step.setdefault(a, set()).add(b)
        step.setdefault(b, set()).add(a)
    reach = {}
    for name in names:
        seen, stack = {name}, [name]
        while stack:
            for nxt in step.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[name] = seen
    return reach


def _daggen_fixture_with_synonyms() -> dict:
    """A daggen DAG plus aliases and synonym pairs of leaves.  A class of
    leaves has no child, so no cycle runs through it."""
    rng = random.Random(77)
    n = 120
    edges = daggen.random_dag(rng, n)
    leaves = sorted(set(range(1, n)) - {p for _, p in edges})
    pairs = [[f"Alias {i}", daggen.name_for(i)] for i in range(0, n, 9)]
    for _ in range(20):
        a, b = rng.sample(leaves, 2)
        pairs.append([daggen.name_for(a), daggen.name_for(b)])
    return {**daggen.to_fixture(edges), "synonyms": pairs}


def test_reaches_agrees_with_brute_force_reachability():
    cases = [daggen.to_fixture(c2_dag(i)[1]) for i in range(20)]
    cases.append(_daggen_fixture_with_synonyms())
    for data in cases:
        tax = GroundTruthTaxonomy.from_json_dict(data)
        reach = _brute_force_reaches(data)
        for low, high in itertools.product(reach, repeat=2):
            assert tax.reaches(low, high) == (high in reach[low]), (low, high)


def test_fixture_rejects_empty_concept_names():
    data = {"root": "A", "edges": [["  ", "A"]]}
    with pytest.raises(InvalidInputError, match="empty"):
        GroundTruthTaxonomy.from_json_dict(data)


def test_fixture_file_errors(tmp_path):
    with pytest.raises(InvalidInputError, match="not found"):
        GroundTruthTaxonomy.load(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInputError, match="not valid JSON"):
        GroundTruthTaxonomy.load(bad)


# ---------------------------------------------------------------------------
# fixture queries


def test_children_come_back_in_fixture_order(goats):
    assert goats.children_of("Goats") == [
        "Dairy Goats",
        "Meat Goats",
        "Fiber Goats",
        "Mini. Goats",
        "Show Goats",
    ]
    assert goats.children_of("Saanen") == []
    assert goats.children_of("Sheep") == []


def test_reaches_is_reflexive_and_transitive(goats):
    assert goats.reaches("Saanen", "Saanen")
    assert goats.reaches("Saanen", "Dairy Goats")
    assert goats.reaches("Saanen", "Goats")
    assert not goats.reaches("Goats", "Saanen")
    assert not goats.reaches("Boer", "Dairy Goats")


def test_synonyms_collapse_into_one_class(farm):
    assert farm.same_class("Milk Goats", "Dairy Goats")
    assert farm.children_of("Milk Goats") == farm.children_of("Dairy Goats")
    assert farm.reaches("Saanen", "Milk Goats")
    # The duplicate edge above the synonym pair collapses too.
    assert farm.children_of("Goats") == ["Dairy Goats"]


def test_has_subconcepts_matches_fixture(goats):
    oracle, ctx = mk(goats)
    assert oracle.has_subconcepts(ctx, "Goats")
    assert oracle.has_subconcepts(ctx, "Dairy Goats")
    assert not oracle.has_subconcepts(ctx, "Saanen")
    assert not oracle.has_subconcepts(ctx, "Sheep")


# ---------------------------------------------------------------------------
# noise-free answer sweeps


def test_subsumption_answers_match_reachability(goats):
    """Without noise the oracle is exactly the reflexive reachability relation."""
    oracle, ctx = mk(goats)
    names = [goats.root] + sorted({c for c, _ in goats.edges}) + ["Sheep"]
    for d, c in itertools.product(names, repeat=2):
        assert oracle.is_subcategory_of(ctx, d, c) == goats.reaches(d, c)


def test_synonyms_subsume_each_other(farm):
    oracle, ctx = mk(farm)
    assert oracle.is_subcategory_of(ctx, "Milk Goats", "Dairy Goats")
    assert oracle.is_subcategory_of(ctx, "Dairy Goats", "Milk Goats")


def test_interchangeable_is_symmetric_and_tracks_classes(farm):
    oracle, ctx = mk(farm)
    names = [farm.root] + sorted({n for e in farm.edges for n in e})
    for d1, d2 in itertools.product(names, repeat=2):
        expected = farm.same_class(d1, d2)
        assert oracle.interchangeable(ctx, d1, d2) == expected
        assert oracle.interchangeable(ctx, d2, d1) == expected


def test_under_seed_tracks_fixture_membership(goats):
    noisy = all_noise_modes(1, **dict.fromkeys(NOISE_RATES, 1.0))
    for noise in (None, noisy):  # under_seed must shrug off every noise mode
        oracle, ctx = mk(goats, noise)
        names = [goats.root] + sorted({n for e in goats.edges for n in e})
        for name in names:
            assert oracle.under_seed(ctx, name)
        assert not oracle.under_seed(ctx, "Sheep")


# ---------------------------------------------------------------------------
# seeded noise


@pytest.mark.parametrize("name", NOISE_RATES)
def test_every_noise_probability_must_lie_in_the_unit_interval(name):
    for p in (-0.25, 1.5):
        message = f"{name} must be within [0, 1], got {p}"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            NoiseModel(**{name: p})
    assert getattr(NoiseModel(**{name: 1.0}), name) == 1.0


FULL_NOISE = all_noise_modes(11, **dict.fromkeys(NOISE_RATES, 0.5))


def test_noisy_answers_do_not_depend_on_query_order(goats):
    """Answers are keyed by content, so shuffling the queries changes nothing."""
    names = [goats.root] + sorted({n for e in goats.edges for n in e})
    queries = [("sub", d, c) for d in names for c in names]
    queries += [("list", c, None) for c in names]

    def run(order):
        oracle, ctx = mk(goats, FULL_NOISE)
        answers = {}
        for q in order:
            kind, a, b = q
            if kind == "sub":
                answers[q] = oracle.is_subcategory_of(ctx, a, b)
            else:
                answers[q] = tuple(oracle.list_subconcepts(ctx, a, 20, 100))
        return answers

    shuffled = list(queries)
    random.Random(3).shuffle(shuffled)
    assert run(queries) == run(shuffled)


def test_noise_seed_changes_answers_somewhere(goats):
    ctx = OracleContext(seed_name=goats.root)
    baseline = None
    distinct = set()
    for seed in range(8):
        noise = NoiseModel(rng_seed=seed, p_missing_edge=0.5)
        oracle = MockOracle(goats, noise)
        listing = tuple(oracle.list_subconcepts(ctx, "Goats", 20, 100))
        distinct.add(listing)
        baseline = baseline if baseline is not None else listing
    assert len(distinct) > 1


def test_missing_edge_noise_can_empty_a_listing(goats):
    oracle, ctx = mk(goats, NoiseModel(rng_seed=0, p_missing_edge=1.0))
    assert oracle.list_subconcepts(ctx, "Goats", 20, 100) == []


def test_attribute_inflation_appends_a_modifier_concept(goats):
    noise = NoiseModel(rng_seed=5, p_attribute_inflation=1.0)
    oracle, ctx = mk(goats, noise)
    listing = oracle.list_subconcepts(ctx, "Goats", 20, 100)
    assert listing[:-1] == goats.children_of("Goats")
    prefix, _, tail = listing[-1].partition(" ")
    assert prefix in _INFLATION_PREFIXES and tail == "Goats"
    # Stable across fresh instances.
    again, ctx = mk(goats, noise)
    assert again.list_subconcepts(ctx, "Goats", 20, 100) == listing


def test_wrong_relation_noise_offers_instances_and_parts(farm):
    oracle, ctx = mk(farm, NoiseModel(rng_seed=2, p_wrong_relation=1.0))
    assert oracle.list_subconcepts(ctx, "Cattle", 20, 100) == ["Bessie the Cow"]
    goats_listing = oracle.list_subconcepts(ctx, "Goats", 20, 100)
    assert goats_listing[0] == "Dairy Goats"
    assert goats_listing[-1] in ("Hooves", "Udder")
    # Concepts without annotated instances or parts stay clean.
    assert oracle.list_subconcepts(ctx, "Dairy Goats", 20, 100) == ["Saanen"]


def test_hallucinated_edge_noise_invents_subsumptions(goats):
    oracle, ctx = mk(goats, NoiseModel(rng_seed=0, p_hallucinated_edge=1.0))
    assert oracle.is_subcategory_of(ctx, "Boer", "Fiber Goats")
    assert oracle.is_subcategory_of(ctx, "Saanen", "Goats")  # true pairs unaffected


def test_nontransitive_denial_flips_only_indirect_pairs(goats):
    oracle, ctx = mk(goats, NoiseModel(rng_seed=0, p_nontransitive_denial=1.0))
    assert not oracle.is_subcategory_of(ctx, "Saanen", "Goats")
    assert oracle.is_subcategory_of(ctx, "Saanen", "Dairy Goats")
    assert oracle.is_subcategory_of(ctx, "Dairy Goats", "Goats")


def test_membership_checks_ignore_noise(farm):
    noise = all_noise_modes(9, **dict.fromkeys(NOISE_RATES, 1.0))
    oracle, ctx = mk(farm, noise)
    assert oracle.is_instance(ctx, "Bessie the Cow")
    assert not oracle.is_instance(ctx, "Dairy Goats")
    assert oracle.is_part(ctx, "Hooves")
    assert not oracle.is_part(ctx, "Saanen")


# ---------------------------------------------------------------------------
# logging, cost, descriptions, renames, direction


def test_every_operation_logs_once_and_ticks_the_ledger(goats):
    log = QueryLog()
    ledger = CostLedger()
    oracle = MockOracle(goats, query_log=log, ledger=ledger)
    ctx = OracleContext(seed_name="Goats")
    oracle.has_subconcepts(ctx, "Goats")
    oracle.list_subconcepts(ctx, "Goats", 20, 100)
    oracle.describe(ctx, ["Saanen"])
    oracle.is_instance(ctx, "Saanen")
    oracle.is_part(ctx, "Saanen")
    oracle.under_seed(ctx, "Saanen")
    oracle.is_subcategory_of(ctx, "Saanen", "Goats")
    oracle.rename_from_description(ctx, "Saanen", "whatever")
    oracle.interchangeable(ctx, "Saanen", "Boer")
    oracle.subcategory_direction(ctx, "Saanen", "Boer")
    assert len(log.records) == 10
    assert ledger.requests == 10
    ops = [rec["op"] for rec in log.records]
    assert ops[0] == "has_subconcepts" and ops[-1] == "subcategory_direction"
    assert log.count(op="is_subcategory_of", d="Saanen", c="Goats") == 1


def test_concurrent_probes_lose_no_ledger_tick(goats):
    ledger = CostLedger()
    oracle, ctx = mk(goats, ledger=ledger)
    threads = [
        threading.Thread(
            target=lambda: [
                oracle.is_subcategory_of(ctx, "Saanen", "Dairy Goats")
                for _ in range(500)
            ]
        )
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert ledger.requests == 8 * 500


def test_query_log_tags_scope_and_restore(goats):
    log = QueryLog()
    oracle, ctx = mk(goats, query_log=log)
    with tagged(phase="verification"):
        oracle.is_instance(ctx, "Saanen")
        with tagged(step=2):
            oracle.is_part(ctx, "Saanen")
    oracle.under_seed(ctx, "Saanen")
    assert log.records[0]["phase"] == "verification" and "step" not in log.records[0]
    assert log.records[1]["phase"] == "verification" and log.records[1]["step"] == 2
    assert "phase" not in log.records[2]


def test_query_log_tags_stay_on_the_thread_that_set_them():
    """A record made on another thread while a phase is open carries none of
    its tags, as a prefetched record must be the one its step writes."""
    log = QueryLog()
    with tagged(phase="top"):
        elsewhere = threading.Thread(target=log.record, kwargs={"op": "elsewhere"})
        elsewhere.start()
        elsewhere.join()
        log.record(op="here")
    log.record(op="after")
    assert log.records == [
        {"op": "elsewhere"},
        {"phase": "top", "op": "here"},
        {"op": "after"},
    ]


def test_query_log_persists_jsonl(goats, tmp_path):
    path = tmp_path / "log" / "queries.jsonl"
    log = QueryLog(path)
    try:
        oracle, ctx = mk(goats, query_log=log)
        oracle.has_subconcepts(ctx, "Goats")
        oracle.under_seed(ctx, "Boer")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == log.records
    finally:
        log.close()


def test_describe_uses_fixture_text_and_falls_back(goats):
    oracle, ctx = mk(goats)
    out = oracle.describe(ctx, ["Saanen", "Unknown Breed"])
    assert out["Saanen"] == goats.descriptions["Saanen"]
    assert out["Unknown Breed"] == "A kind of Goats."


def test_name_lookups_match_case_variants_in_fixture_order():
    tax = GroundTruthTaxonomy.from_json_dict(
        {
            "root": "Goats",
            "edges": [["Boer", "Goats"]],
            "descriptions": {"boer": "first text", " BOER": "second text"},
            "instances": {"Boer": ["Billy"], "BOER": ["Nanny"]},
            "parts": {"boer ": ["Horn"]},
        }
    )
    assert tax.description_for("Boer") == "first text"
    assert tax.description_for("Saanen") is None
    assert tax.annotated_non_subcategories("  boer") == ["Billy", "Horn", "Nanny"]
    assert tax.annotated_non_subcategories("Goats") == []


def test_renames_are_keyed_by_description_text(goats):
    desc = goats.descriptions["Nigerian Dwarf"]
    oracle = MockOracle(goats, renames={desc: "Nigerian Dwarf"})
    ctx = OracleContext(seed_name="Goats")
    assert oracle.rename_from_description(ctx, "Dwarf", "  " + desc + " ") == (
        "Nigerian Dwarf"
    )
    assert oracle.rename_from_description(ctx, "Dwarf", "some other text") is None


def test_subcategory_direction_puts_the_narrower_term_first(goats):
    oracle, ctx = mk(goats)
    assert oracle.subcategory_direction(ctx, "Goats", "Saanen") == ("Saanen", "Goats")
    assert oracle.subcategory_direction(ctx, "Saanen", "Goats") == ("Saanen", "Goats")
    # Unrelated terms come back in the order given.
    assert oracle.subcategory_direction(ctx, "Boer", "Saanen") == ("Boer", "Saanen")
