"""Four-step candidate verification and its single rename fallback."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontocrawl import GroundTruthTaxonomy, MockOracle, OracleContext, QueryLog, verify
from ontocrawl.errors import OracleParseError
from ontocrawl.verification import (
    ACCEPTED,
    ACCEPTED_RENAMED,
    REASON_INSTANCE,
    REASON_NOT_UNDER_PARENT,
    REASON_NOT_UNDER_SEED,
    REASON_PART,
    REASON_RENAME_FAILED,
    REJECTED,
)
from support import RaisingOracle, taxonomy_of

UNIVERSITIES = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Universities",
        "edges": [
            ["Public Universities", "Universities"],
            ["Private Universities", "Universities"],
        ],
        "instances": {"Universities": ["Yale University"]},
        "parts": {"Universities": ["Campus", "Faculty"]},
    }
)

APPLE_DESC = "A tree cultivated for crisp edible fruit."

TREES = GroundTruthTaxonomy.from_json_dict(
    {
        "root": "Trees",
        "edges": [
            ["Fruit Trees", "Trees"],
            ["Apple Tree", "Fruit Trees"],
            ["Pear Tree", "Fruit Trees"],
        ],
        "descriptions": {"Apple Tree": APPLE_DESC},
    }
)


def mk(taxonomy, renames=None, **ctx_kwargs):
    log = QueryLog()
    oracle = MockOracle(taxonomy, renames=renames, query_log=log)
    ctx = OracleContext(seed_name=taxonomy.root, **ctx_kwargs)
    return oracle, ctx, log


def test_instances_are_rejected_after_one_call():
    oracle, ctx, log = mk(UNIVERSITIES)
    verdict = verify(oracle, ctx, "Yale University", "Universities")
    assert verdict.outcome == REJECTED
    assert verdict.reason == REASON_INSTANCE
    assert not verdict.accepted
    assert verdict.transcript == [("instance", True)]
    assert len(log.records) == 1


def test_parts_are_rejected_after_two_calls():
    oracle, ctx, log = mk(UNIVERSITIES)
    verdict = verify(oracle, ctx, "Campus", "Universities")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_PART)
    assert verdict.transcript == [("instance", False), ("part", True)]
    assert len(log.records) == 2


def test_clean_candidates_are_accepted_in_four_calls():
    oracle, ctx, log = mk(UNIVERSITIES)
    verdict = verify(oracle, ctx, "Public Universities", "Universities")
    assert verdict.outcome == ACCEPTED
    assert verdict.accepted and verdict.new_name is None
    assert [step for step, _ in verdict.transcript] == [
        "instance",
        "part",
        "under_seed",
        "under_parent",
    ]
    assert len(log.records) == 4


def test_sloppy_name_is_recovered_through_a_rename():
    """An off-domain surface form gets one second chance under a better name."""
    oracle, ctx, log = mk(
        TREES,
        renames={APPLE_DESC: "Apple Tree"},
        parent_name="Fruit Trees",
        descriptions={"Apple": APPLE_DESC},
    )
    verdict = verify(oracle, ctx, "Apple", "Fruit Trees")
    assert verdict.outcome == ACCEPTED_RENAMED
    assert verdict.new_name == "Apple Tree"
    assert verdict.transcript[2] == ("under_seed", False)
    assert verdict.transcript[3] == ("rename", "Apple Tree")
    assert verdict.transcript[-1] == ("under_parent", True)
    assert len(log.records) == 8


def test_worst_case_costs_exactly_nine_calls(goats):
    # Step 4 fails, the rename lands on a real dairy breed, and the full
    # battery runs again: 4 + 1 + 4.
    boer_desc = goats.descriptions["Boer"]
    oracle, ctx, log = mk(
        goats, renames={boer_desc: "Toggenburg"}, descriptions={"Boer": boer_desc}
    )
    verdict = verify(oracle, ctx, "Boer", "Dairy Goats")
    assert verdict.outcome == ACCEPTED_RENAMED
    assert verdict.new_name == "Toggenburg"
    assert len(verdict.transcript) == 9
    assert len(log.records) == 9


def test_rename_to_the_same_name_fails_the_fixpoint_guard(goats):
    boer_desc = goats.descriptions["Boer"]
    oracle, ctx, log = mk(
        goats, renames={boer_desc: "Boer"}, descriptions={" BOER ": boer_desc}
    )
    verdict = verify(oracle, ctx, " BOER ", "Dairy Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_RENAME_FAILED)
    assert verdict.transcript[-1] == ("rename", "Boer")
    assert len(log.records) == 5  # no second pass


def test_rename_returning_nothing_rejects(goats):
    oracle, ctx, log = mk(goats)
    verdict = verify(oracle, ctx, "Boer", "Dairy Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_RENAME_FAILED)
    assert verdict.transcript[-1] == ("rename", None)
    assert len(log.records) == 5


def test_second_pass_failure_reports_its_own_reason(goats):
    boer_desc = goats.descriptions["Boer"]
    oracle, ctx, _ = mk(
        goats, renames={boer_desc: "Angus Cattle"}, descriptions={"Boer": boer_desc}
    )
    verdict = verify(oracle, ctx, "Boer", "Dairy Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_NOT_UNDER_SEED)
    steps = [step for step, _ in verdict.transcript]
    assert steps == [
        "instance",
        "part",
        "under_seed",
        "under_parent",
        "rename",
        "instance",
        "part",
        "under_seed",
    ]


def test_unknown_candidate_gets_a_rename_attempt_then_rejects(goats):
    oracle, ctx, log = mk(goats)
    verdict = verify(oracle, ctx, "Sofa", "Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_RENAME_FAILED)
    assert verdict.transcript[2] == ("under_seed", False)
    assert len(log.records) == 4  # three steps plus the failed rename


def test_inconclusive_oracle_answer_rejects_without_rename(goats):
    inner = MockOracle(goats, query_log=QueryLog())
    oracle = RaisingOracle(inner, "under_seed", OracleParseError("garbled"))
    ctx = OracleContext(seed_name="Goats")
    verdict = verify(oracle, ctx, "Saanen", "Dairy Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_NOT_UNDER_SEED)
    assert verdict.transcript[-1] == ("under_seed", "inconclusive")
    assert oracle.calls == 1
    assert len(inner.query_log.records) == 2  # instance and part only


def test_inconclusive_rename_rejects(goats):
    inner = MockOracle(goats)
    oracle = RaisingOracle(inner, "rename_from_description", OracleParseError("bad"))
    ctx = OracleContext(seed_name="Goats")
    verdict = verify(oracle, ctx, "Boer", "Dairy Goats")
    assert (verdict.outcome, verdict.reason) == (REJECTED, REASON_RENAME_FAILED)
    assert verdict.transcript[-1] == ("rename", "inconclusive")


GOAT_NAMES = [
    "Goats",
    "Dairy Goats",
    "Meat Goats",
    "Saanen",
    "Boer",
    "Nigora",
    "Sofa",
    "Yale University",
]


@given(
    d=st.sampled_from(GOAT_NAMES),
    c=st.sampled_from(GOAT_NAMES),
    rename_to=st.none() | st.sampled_from(GOAT_NAMES),
)
def test_transcript_mirrors_the_oracle_call_log(goats_tax, d, c, rename_to):
    desc = f"Something about {d}."
    renames = {desc: rename_to} if rename_to else None
    log = QueryLog()
    oracle = MockOracle(goats_tax, renames=renames, query_log=log)
    ctx = OracleContext(seed_name="Goats", descriptions={d: desc})
    verdict = verify(oracle, ctx, d, c)
    assert len(verdict.transcript) == len(log.records) <= 9


@pytest.fixture(scope="module")
def goats_tax():
    return taxonomy_of("goats")
