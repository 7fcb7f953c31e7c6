"""Prompt rendering, reply parsing, and the chat-completion oracle plumbing."""

from __future__ import annotations

import json
import re
import signal
import string
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    ConceptHierarchy,
    CostLedger,
    OracleContext,
    QueryLog,
    ResponseCache,
    llm_backend,
    verify,
)
from ontocrawl.errors import (
    CheckpointError,
    InvalidInputError,
    OracleParseError,
    TemplateError,
    TransportError,
)
from ontocrawl.hierarchy import normalize_name
from ontocrawl.llm_backend import (
    TEMPLATES,
    HttpChatTransport,
    parse_csv_list,
    parse_description_lines,
    parse_direction,
    parse_keyword,
    parse_yes_no,
    passing_tokens,
    render,
)
from ontocrawl.oracle import tagged
from support import StubTransport, TaxonomyTransport, decode, llm_crawler, reply

CTX = OracleContext(seed_name="Goats")


# ---------------------------------------------------------------------------
# prompt templates


def test_existence_prompt_with_full_discovery_context():
    prompt = render(
        "existence", {"C0": "Goats", "D": "Dairy Goats", "C": "Mini. Goats"}
    )
    assert prompt == (
        "Dairy Goats is a subcategory of Goats. "
        "Mini. Goats is a subcategory of Dairy Goats. "
        "Are there any generally accepted subcategories of Mini. Goats? "
        "Answer only with yes or no."
    )


def test_context_drops_first_sentence_when_parent_is_the_seed():
    prompt = render("existence", {"C0": "Goats", "D": "Goats", "C": "Dairy Goats"})
    assert prompt == (
        "Dairy Goats is a subcategory of Goats. "
        "Are there any generally accepted subcategories of Dairy Goats? "
        "Answer only with yes or no."
    )


def test_context_vanishes_at_the_seed_itself():
    prompt = render("existence", {"C0": "Goats", "D": "Goats", "C": "Goats"})
    assert prompt == (
        "Are there any generally accepted subcategories of Goats? "
        "Answer only with yes or no."
    )


def test_listing_prompts():
    base = render("listing", {"C0": "Goats", "D": "Goats", "C": "Dairy Goats"})
    assert base == (
        "Dairy Goats is a subcategory of Goats. "
        "List all of the most important subcategories of Dairy Goats. "
        "Skip explanations and use a comma-separated format like this: "
        "important subcategory, another important subcategory, "
        "another important subcategory, etc."
    )
    cont = render(
        "listing_continuation",
        {"C0": "Goats", "D": "Goats", "C": "Dairy Goats", "t": "Saanen"},
    )
    assert cont == base + ' Start your answer with "Saanen".'


def test_description_prompt_lists_terms():
    prompt = render(
        "description", {"C": "Goats", "terms": "Dairy Goats, Meat Goats"}
    )
    assert prompt == (
        "Give a brief description of every term on the list, considered as a "
        "subcategory of Goats, without the use of examples, in the following "
        "form: List element 1: brief description for list element 1. "
        "List element 2: brief description for list element 2. ...\n"
        "Dairy Goats, Meat Goats"
    )


def test_verification_prompts():
    assert render("verify_instance", {"C0": "Goats", "D": "Yale University"}) == (
        "Is Yale University a specific instance or a subcategory of the "
        "category Goats? Answer only with Instance or Subcategory."
    )
    assert render("verify_part", {"C0": "Goats", "D": "Hooves"}) == (
        "Is Hooves a part or a subcategory of the category Goats? "
        "Answer only with Part or Subcategory."
    )
    assert render("verify_seed", {"C0": "Goats", "D": "Boer"}) == (
        "Can Boer be considered a subcategory of Goats? "
        "Answer only with yes or no."
    )
    assert render(
        "verify_subcat", {"C0": "Goats", "C": "Dairy Goats", "D": "Saanen"}
    ) == (
        "Dairy Goats is a subcategory of Goats. Is Saanen typically "
        "understood as a subcategory of Dairy Goats? "
        "Answer only with yes or no."
    )


def test_rename_and_synonym_prompts():
    assert render(
        "rename",
        {"C0": "Goats", "C": "Dairy Goats", "description": "A small breed."},
    ) == (
        "Dairy Goats is a subcategory of Goats. The following description "
        "outlines the characteristics of a subcategory of Dairy Goats. "
        "Provide a concise and unambiguous name for it. Provide only the "
        "name without any explanation.\nA small breed."
    )
    assert render(
        "synonym_interchangeable",
        {"C0": "Goats", "D1": "Dwarf Nigerian", "D2": "Nigerian Dwarf"},
    ) == (
        "In the context of Goats, are Dwarf Nigerian and Nigerian Dwarf "
        "typically used interchangeably? Answer only with yes or no."
    )
    assert render("synonym_direction", {"D1": "Iced Coffee", "D2": "Coffee"}) == (
        "Consider the terms Iced Coffee and Coffee. Which of the terms is a "
        "subcategory of the other one? Answer in the following scheme: "
        "[[X]] is a subcategory of [[Y]]."
    )


def test_render_appends_known_descriptions_with_final_period():
    ctx = OracleContext(
        seed_name="Goats",
        descriptions={"Saanen": "A Swiss dairy breed", "Dairy Goats": "Kept for milk."},
    )
    prompt = render(
        "verify_subcat", {"C0": "Goats", "C": "Dairy Goats", "D": "Saanen"}, ctx
    )
    # Slot order (C, C0, D); the seed has no stored description.
    assert prompt.endswith("\nDairy Goats: Kept for milk.\nSaanen: A Swiss dairy breed.")


def test_render_shows_a_stored_concepts_text_and_a_candidates_listing_text():
    h = ConceptHierarchy("Goats")
    h.add_concept("Dairy Goats", [h.seed_id], description="Kept for milk.")
    bindings = {"C0": "Goats", "C": "Dairy Goats", "D": "Saanen"}
    stored_only = OracleContext(seed_name="Goats", known=h.description_of)
    assert render("verify_subcat", bindings, stored_only).endswith(
        "yes or no.\nDairy Goats: Kept for milk."
    )
    listed = OracleContext(
        seed_name="Goats",
        descriptions={"dairy goats": "Listed for milk.", "Saanen": "A Swiss breed"},
        known=h.description_of,
    )
    assert render("verify_subcat", bindings, listed).endswith(
        "yes or no.\nDairy Goats: Kept for milk.\nSaanen: A Swiss breed."
    )


def test_render_skips_duplicate_and_unknown_description_names():
    ctx = OracleContext(seed_name="Goats", descriptions={"Goats": "The seed."})
    prompt = render("existence", {"C0": "Goats", "D": "Goats", "C": "Goats"}, ctx)
    assert prompt.count("Goats: The seed.") == 1


def test_render_errors():
    with pytest.raises(TemplateError, match="unknown template"):
        render("no_such_template", {})
    with pytest.raises(TemplateError, match="missing bindings"):
        render("verify_subcat", {"C": "Dairy Goats"})
    with pytest.raises(TemplateError, match="missing bindings"):
        render("listing_continuation", {"C0": "Goats", "D": "Goats", "C": "X"})


def test_render_leaves_the_placeholders_inside_bound_values():
    """Slots are substituted in one pass, so a value that holds another
    slot's placeholder gives one prompt, and one cache key, in every process."""
    bindings = {"C0": "Goats", "C": "Dairy {D}", "D": "Breeds of {C}"}
    assert render("verify_subcat", bindings) == (
        "Dairy {D} is a subcategory of Goats. Is Breeds of {C} typically "
        "understood as a subcategory of Dairy {D}? Answer only with yes or no."
    )


NAMES = st.lists(
    st.text(string.ascii_letters + string.digits + " -", min_size=1, max_size=12)
    .filter(normalize_name),
    min_size=4,
    max_size=4,
    unique_by=normalize_name,
)


@given(
    names=NAMES,
    context=st.sampled_from(["none", "self", "both"]),
    described=st.booleans(),
)
def test_decode_inverts_render_for_every_template(names, context, described):
    ctx = OracleContext("Goats", descriptions={n: f"About {n}" for n in names})
    for tpl in TEMPLATES.values():
        slots = dict.fromkeys(re.findall(r"\{(\w+)\}", tpl.body))
        if tpl.context_prefix and context != "none":
            slots.update(D=None, C0=None)
        bindings = dict(zip(slots, names))
        want = dict(bindings)
        if tpl.context_prefix and context == "self":
            # D is the seed: only "C is a subcategory of D." is rendered, so
            # C0 cannot be read back.
            bindings["D"] = want["D"] = want.pop("C0")
        prompt = render(tpl.name, bindings, ctx if described else None)
        assert decode(prompt) == (tpl.name, want)


@pytest.mark.parametrize("described", [False, True])
def test_decode_reads_a_rename_with_an_empty_description(described):
    bindings = {"C0": "Goats", "C": "Dairy Goats", "description": ""}
    ctx = OracleContext("Goats", descriptions={"Dairy Goats": "Kept for milk."})
    prompt = render("rename", bindings, ctx if described else None)
    assert decode(prompt) == ("rename", bindings)


def test_decode_refuses_a_prompt_of_no_template():
    # Each prompt is decoded once, but a refusal is raised on every call.
    for _ in range(2):
        with pytest.raises(AssertionError, match=r"matches templates \[\]"):
            decode("Is a goat a sheep? Answer only with yes or no.")
    prompt = render("verify_seed", {"D": "Dairy Goats", "C0": "Goats"})
    with pytest.raises(AssertionError):
        decode(prompt.replace("considered", "seen as"))
    bindings = decode(prompt)[1]
    assert decode(prompt) is decode(prompt)
    with pytest.raises(TypeError):  # the bindings are shared, so read-only
        bindings["D"] = "Meat Goats"


# ---------------------------------------------------------------------------
# parsers


def test_parse_csv_list_trims_and_drops_etc():
    reply = "Dairy Goats, Meat Goats , Fiber Goats, etc."
    assert parse_csv_list(reply) == ["Dairy Goats", "Meat Goats", "Fiber Goats"]
    assert parse_csv_list("Boer.") == ["Boer"]
    assert parse_csv_list("") == []
    assert parse_csv_list("  ,  , ETC") == []


def test_parse_yes_no():
    assert parse_yes_no("Yes") is True
    assert parse_yes_no("  yes, definitely.") is True
    assert parse_yes_no("No.") is False
    for bad in ("maybe", "", "42", None):
        with pytest.raises(OracleParseError):
            parse_yes_no(bad)


def test_parse_keyword():
    options = {"instance": True, "subcategory": False}
    assert parse_keyword("Instance.", options) is True
    assert parse_keyword("subcategory", options) is False
    with pytest.raises(OracleParseError):
        parse_keyword("part", options)


def test_parse_direction():
    reply = "[[Iced Coffee]] is a subcategory of [[Coffee]]."
    assert parse_direction(reply) == ("Iced Coffee", "Coffee")
    assert parse_direction("[[ ]] then [[A]] and [[B]]") == ("A", "B")
    with pytest.raises(OracleParseError):
        parse_direction("[[Coffee]] only")
    with pytest.raises(OracleParseError):
        parse_direction("no spans at all")


def test_parse_description_lines_matches_names():
    names = ["Dairy Goats", "Meat Goats", "Fiber Goats", "Show Goats"]
    reply = "\n".join(
        [
            "1. Dairy Goats: Bred for milk.",
            "- Meat Goats: Raised for meat.",
            "fiber goats: Kept for fiber.",
            "Unrelated Entry: ignored.",
            "Show Goats:   ",
        ]
    )
    out = parse_description_lines(reply, names)
    assert out == {
        "Dairy Goats": "Bred for milk.",
        "Meat Goats": "Raised for meat.",
        "Fiber Goats": "Kept for fiber.",
        "Show Goats": "",
    }


def test_parse_description_lines_keeps_first_match():
    out = parse_description_lines("A: first.\nA: second.", ["A"])
    assert out == {"A": "first."}


def test_passing_tokens_threshold_and_order():
    freqs = {"Dairy": 40, "Meat": 30, "Fiber": 20, "Show": 6, "Misc": 4}
    assert passing_tokens(freqs, 20) == ["Dairy", "Meat", "Fiber"]
    assert passing_tokens(freqs, 5) == ["Dairy", "Meat", "Fiber", "Show"]
    assert passing_tokens(freqs, 41) == []
    assert passing_tokens({"B": 10, "A": 10}, 1) == ["A", "B"]
    with pytest.raises(InvalidInputError):
        passing_tokens(freqs, 0)


@given(
    st.dictionaries(st.text(min_size=1, max_size=6), st.integers(1, 50), max_size=8),
    st.integers(1, 25),
)
def test_passing_tokens_monotone_in_threshold(freqs, ft):
    loose, tight = passing_tokens(freqs, ft), passing_tokens(freqs, ft + 1)
    assert set(tight) <= set(loose)
    assert all(freqs[tok] >= ft for tok in loose)


# ---------------------------------------------------------------------------
# params, ledger, cache


def test_completion_params_validation():
    params = CompletionParams()
    assert params.to_dict() == {
        "model": "gpt-3.5-turbo",
        "temperature": 0.0,
        "top_p": 0.99,
        "max_tokens": 256,
    }
    with pytest.raises(InvalidInputError):
        CompletionParams(model="")
    with pytest.raises(InvalidInputError):
        CompletionParams(temperature=2.5)
    with pytest.raises(InvalidInputError):
        CompletionParams(top_p=0.0)
    with pytest.raises(InvalidInputError):
        CompletionParams(max_tokens=0)


def test_cost_ledger_accumulates_and_round_trips():
    ledger = CostLedger()
    ledger.add(10, 20, 0.001, 0.002)
    ledger.add(5, 0, 0.001, 0.002)
    assert ledger.requests == 2
    assert ledger.prompt_tokens == 15
    assert ledger.completion_tokens == 20
    assert ledger.dollars == pytest.approx(0.055)
    assert CostLedger.from_dict(ledger.to_dict()) == ledger
    whole = CostLedger.from_dict({"requests": 3, "dollars": 2})
    assert whole == CostLedger(requests=3, dollars=2.0)
    assert type(whole.dollars) is float


def test_response_cache_persists_to_disk(tmp_path):
    path = tmp_path / "cache.jsonl"
    params = CompletionParams()
    key = ResponseCache.key_for("a prompt", params)
    assert key == ResponseCache.key_for("a prompt", params)
    assert key != ResponseCache.key_for("another prompt", params)
    assert key != ResponseCache.key_for("a prompt", CompletionParams(max_tokens=8))
    # A first asking keeps the key that existing cache files were written with.
    assert key == "d8e22e5a1ecf640c2ac3f5bb812df76dc142c020d5acf4ba98a71033698dd229"
    assert key != ResponseCache.key_for("a prompt", params, 1)

    cache = ResponseCache(path)
    cache.put(key, "Yes", 3, 1)
    reloaded = ResponseCache(path)
    assert len(reloaded) == 1
    assert reloaded.get(key) == "Yes"


def test_response_cache_lines_keep_their_format(tmp_path):
    """A put appends the line it always has: the key, the reply and both
    token counts, in that order, as UTF-8 JSON with non-ASCII kept."""
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "Ja, Käse", 3, 1)
    cache.put("k2", "No", 12, 2)
    assert path.read_bytes() == (
        b'{"key": "k1", "reply": "Ja, K\xc3\xa4se", "prompt_tokens": 3, "completion_tokens": 1}\n'
        b'{"key": "k2", "reply": "No", "prompt_tokens": 12, "completion_tokens": 2}\n'
    )


def test_a_cache_file_of_the_record_format_replays_every_reply(tmp_path):
    """A ``cache.jsonl`` of full records (key, reply, token counts) loads,
    and every reply it holds is answered from it without a send."""
    path = tmp_path / "cache.jsonl"
    params = CompletionParams()
    oracle = ChatCompletionOracle(StubTransport([]), max_in_flight=1)
    draws = oracle.sampling_params
    replies = {
        ResponseCache.key_for("Is it?", params): "Yes",
        ResponseCache.key_for("List.", draws, 0): "Dairy",
        ResponseCache.key_for("List.", draws, 1): "Meat",
        ResponseCache.key_for("List.", draws, 2): "Dairy",
    }
    lines = [
        json.dumps({"key": k, "reply": r, "prompt_tokens": 7, "completion_tokens": 1})
        for k, r in replies.items()
    ]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    oracle.cache = ResponseCache(path)
    assert len(oracle.cache) == len(replies)
    assert oracle.complete("Is it?") == llm_backend.CompletionResult("Yes", cached=True)
    assert oracle.sample_first_tokens("List.", 3, 1) == {"Dairy": 2, "Meat": 1}
    assert oracle.transport.bodies == [] and oracle.ledger.requests == 0


@pytest.mark.parametrize("line", ['{"key": "k"}', '{"key": "k", "reply": 7}', '["k", "Yes"]'])
def test_a_cache_line_without_a_text_reply_is_refused(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="line 1"):
        ResponseCache(path)


def test_an_llm_crawl_caches_only_reply_text(goats):
    crawler = llm_crawler(TaxonomyTransport(goats), "Goats")
    crawler.run()
    held = crawler.oracle.cache._mem
    assert len(held) == crawler.ledger.requests > 0
    assert all(type(reply) is str for reply in held.values())


# ---------------------------------------------------------------------------
# scripted transport


def make_oracle(script, **kwargs):
    transport = StubTransport(script)
    sleeps: list[float] = []
    oracle = ChatCompletionOracle(
        transport,
        max_in_flight=1,
        sleep=sleeps.append,
        **kwargs,
    )
    return oracle, transport, sleeps


def test_temperature_zero_replies_come_from_the_cache():
    oracle, transport, _ = make_oracle([reply("Yes", pt=12, ct=1)])
    first = oracle.complete("Is it?")
    second = oracle.complete("Is it?")
    assert (first.text, first.cached) == ("Yes", False)
    assert (second.text, second.cached) == ("Yes", True)
    assert len(transport.bodies) == 1
    assert oracle.ledger.requests == 1  # cache hits cost nothing


def test_a_second_sampling_of_a_prompt_replays_its_draws():
    oracle, transport, _ = make_oracle([reply("Dairy"), reply("Meat"), reply("Dairy")])
    first = oracle.sample_first_tokens("List.", 3, 1)
    assert first == {"Dairy": 2, "Meat": 1}
    assert len(transport.bodies) == 3
    assert transport.bodies[0]["max_tokens"] == 1
    assert transport.bodies[0]["temperature"] == 2.0
    assert oracle.sample_first_tokens("List.", 3, 1) == first
    assert len(transport.bodies) == oracle.ledger.requests == 3
    # Draw i is cached at index i; draw 0 under the key that a first asking
    # of the prompt had before draws were cached.
    params = oracle.sampling_params
    key = ResponseCache.key_for("List.", params, 0)
    assert key == "df6e40e627e67d017b2d2f215b50d84a6a1b79e288c65e2daac897afbfe7a151"
    assert oracle.cache.get(key) == "Dairy"
    assert oracle.cache.get(ResponseCache.key_for("List.", params, 1)) == "Meat"


def test_retryable_failures_back_off_then_succeed():
    script = [
        TransportError("HTTP 500", status=500),
        TransportError("HTTP 429", status=429),
        reply("Yes"),
    ]
    oracle, transport, sleeps = make_oracle(script)
    result = oracle.complete("Is it?")
    assert result.text == "Yes"
    assert len(transport.bodies) == 3
    assert sleeps == [0.5, 1.0]
    assert oracle.ledger.requests == 1


def test_non_retryable_failure_raises_immediately():
    oracle, transport, sleeps = make_oracle(
        [TransportError("HTTP 400", status=400, retryable=False)]
    )
    with pytest.raises(TransportError):
        oracle.complete("Is it?")
    assert len(transport.bodies) == 1 and sleeps == []


def test_retries_exhaust_and_raise_the_last_error(monkeypatch):
    monkeypatch.setattr(llm_backend, "MAX_RETRIES", 2)
    script = [TransportError(f"HTTP 503 #{i}", status=503) for i in range(3)]
    oracle, transport, sleeps = make_oracle(script)
    with pytest.raises(TransportError, match="#2"):
        oracle.complete("Is it?")
    assert len(transport.bodies) == 3
    assert sleeps == [0.5, 1.0]
    assert oracle.ledger.requests == 0


@pytest.mark.parametrize(
    "body", [{}, {"choices": []}, {"choices": [{}]}, reply(None), "Yes"]
)
def test_a_malformed_reply_body_is_retried_like_a_transport_failure(
    body, monkeypatch
):
    # A null usage is not malformed: it bills no tokens.
    oracle, transport, sleeps = make_oracle([body, {**reply("Yes"), "usage": None}])
    assert oracle.complete("Is it?").text == "Yes"
    assert len(transport.bodies) == 2 and sleeps == [0.5]
    assert oracle.ledger.requests == 1

    monkeypatch.setattr(llm_backend, "MAX_RETRIES", 2)
    oracle, transport, _ = make_oracle([body] * 3)
    with pytest.raises(TransportError, match="malformed reply body"):
        oracle.complete("Is it?")
    assert len(transport.bodies) == 3
    assert oracle.ledger.requests == 0


def test_successful_completion_logs_and_prices_the_request(monkeypatch):
    monkeypatch.setattr(
        llm_backend, "DEFAULT_PRICE_TABLE", {"gpt-3.5-turbo": (0.001, 0.002)}
    )
    log = QueryLog()
    oracle, transport, _ = make_oracle([reply("Yes", pt=7, ct=3)], query_log=log)
    oracle.complete("Is it?", template_name="existence")
    assert oracle.ledger.dollars == pytest.approx(0.013)
    assert oracle.ledger.prompt_tokens == 7
    (rec,) = log.records
    assert rec["template_name"] == "existence"
    assert rec["prompt"] == "Is it?"
    assert rec["reply"] == "Yes"
    assert rec["params"]["temperature"] == 0.0
    assert rec["latency_ms"] >= 0


def test_backoff_delay_is_capped(monkeypatch):
    monkeypatch.setattr(llm_backend, "BACKOFF_CAP", 2.0)
    script = [TransportError("HTTP 503", status=503) for _ in range(6)]
    oracle, _, sleeps = make_oracle(script)
    with pytest.raises(TransportError):
        oracle.complete("Is it?")
    assert sleeps == [0.5, 1.0, 2.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# sampling and listing through the oracle


def test_sample_first_tokens_skips_blanks_and_raises_on_a_failed_draw():
    script = [reply("Dairy"), reply("  "), reply("Dairy"), reply("Meat")]
    oracle, transport, _ = make_oracle(script)
    assert oracle.sample_first_tokens("List.", 4, 1) == {"Dairy": 2, "Meat": 1}
    assert len(transport.bodies) == 4

    script = [
        reply("Saanen"),
        TransportError("HTTP 400", status=400, retryable=False),
        reply("Saanen"),
    ]
    oracle, transport, _ = make_oracle(script)
    with pytest.raises(TransportError):
        oracle.list_subconcepts(CTX, "Dairy Goats", 2, 3)
    # The failure stops the draws: no listing prompt, plain or continued.
    assert [body["max_tokens"] for body in transport.bodies] == [1, 1]


@pytest.mark.parametrize("max_in_flight", [0, -2])
def test_max_in_flight_below_one_is_refused(max_in_flight):
    with pytest.raises(InvalidInputError):
        ChatCompletionOracle(StubTransport([]), max_in_flight=max_in_flight)


def test_map_keeps_item_order_and_stops_at_a_failure():
    oracle = ChatCompletionOracle(StubTransport([]), max_in_flight=3)
    assert oracle.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    ran = []

    def fn(x):
        ran.append(x)
        if x in (1, 5):
            raise ValueError(x)
        time.sleep(0.02)
        return x

    with pytest.raises(ValueError) as exc:
        oracle.map(fn, range(12))
    # Item 1 is claimed before item 5, so it always runs and its error wins.
    assert exc.value.args == (1,)
    assert len(ran) < 12


def test_map_stops_and_waits_when_the_caller_is_interrupted():
    """A SIGINT while items run: nothing new starts, and ``map`` returns
    only once no call is running."""
    oracle = ChatCompletionOracle(StubTransport([]), max_in_flight=3)
    lock = threading.Lock()
    started, running = [], [0]

    def fn(x):
        with lock:
            started.append(x)
            running[0] += 1
        try:
            if x == 2:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.02)
            return x
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(KeyboardInterrupt):
        oracle.map(fn, range(12))
    assert len(started) < 12
    assert running[0] == 0


def test_map_helpers_record_under_the_callers_tags():
    """Insertion opens a phase and sends its round through ``map``: the
    records the helpers make carry the phase too."""
    log = QueryLog()
    oracle = ChatCompletionOracle(StubTransport([]), max_in_flight=3)

    def record(i):
        time.sleep(0.01)
        log.record(i=i, thread=threading.current_thread().name)

    with tagged(phase="top"):
        oracle.map(record, range(9))
    assert [rec["phase"] for rec in log.records] == ["top"] * 9
    assert any(rec["thread"] != threading.current_thread().name for rec in log.records)


def test_list_subconcepts_validates_the_threshold():
    oracle, _, _ = make_oracle([])
    with pytest.raises(InvalidInputError):
        oracle.list_subconcepts(CTX, "Goats", 0, 10)
    with pytest.raises(InvalidInputError):
        oracle.list_subconcepts(CTX, "Goats", 11, 10)


def test_list_subconcepts_continues_each_passing_token():
    script = [
        reply("Yes"),
        reply("Dairy"),
        reply("Dairy"),
        reply("Meat"),
        reply("Meat"),
        reply("Show"),
        reply("Dairy Goats, Dwarf Goats"),
        reply("Meat Goats, Dairy Goats."),
        TransportError("stop at the description", retryable=False),
    ]
    transport = StubTransport(script)
    crawler = llm_crawler(transport, "Goats", ft=2, n_samples=5)
    with pytest.raises(TransportError, match="description"):
        crawler.step()
    # The crawl describes each listed name once, in order of first listing.
    name, described = decode(transport.bodies[-1]["messages"][0]["content"])
    assert name == "description"
    assert described["terms"] == "Dairy Goats, Dwarf Goats, Meat Goats"
    continuations = [b for b in transport.bodies if "Start your answer" in
                     b["messages"][0]["content"]]
    assert len(continuations) == 2
    assert 'Start your answer with "Dairy".' in continuations[0]["messages"][0]["content"]
    assert continuations[0]["temperature"] == 0.0


def test_list_subconcepts_falls_back_to_a_plain_listing():
    script = [
        reply("Dairy"),
        reply("Meat"),
        reply("Show"),
        reply("Dairy Goats, Meat Goats"),
    ]
    oracle, transport, _ = make_oracle(script)
    out = oracle.list_subconcepts(CTX, "Goats", 3, 3)
    assert out == ["Dairy Goats", "Meat Goats"]
    last = transport.bodies[-1]
    assert last["temperature"] == 0.0 and last["max_tokens"] == 256
    assert "Start your answer" not in last["messages"][0]["content"]


def test_list_subconcepts_dedupes_up_to_normalization():
    script = [
        reply("Dairy"),
        reply("dairy goats, Meat Goats"),
    ]
    oracle, _, _ = make_oracle(script)
    out = oracle.list_subconcepts(CTX, "Goats", 1, 1)
    assert out == ["dairy goats", "Meat Goats"]


# ---------------------------------------------------------------------------
# parsing retries and reply cleanup


def test_unparseable_reply_retries_once_bypassing_the_cache():
    oracle, transport, _ = make_oracle([reply("hmm"), reply("Yes")])
    assert oracle.is_subcategory_of(CTX, "Saanen", "Dairy Goats") is True
    assert len(transport.bodies) == 2
    # The retry is cached under its own key, so asking again sends nothing.
    assert oracle.is_subcategory_of(CTX, "Saanen", "Dairy Goats") is True
    assert len(transport.bodies) == 2


def test_unparseable_reply_twice_raises():
    oracle, transport, _ = make_oracle([reply("hmm"), reply("still hmm")])
    for _ in range(2):
        with pytest.raises(OracleParseError, match="after retry"):
            oracle.under_seed(CTX, "Boer")
    assert len(transport.bodies) == 2


def test_existence_parse_failure_degrades_to_leaf():
    oracle, transport, _ = make_oracle([reply("hmm"), reply("still hmm")])
    assert oracle.has_subconcepts(CTX, "Saanen") is False
    assert len(transport.bodies) == 2


def test_describe_round_trip_and_empty_call():
    oracle, transport, _ = make_oracle(
        [reply("Saanen: A Swiss dairy breed.\nBoer: A meat breed.")]
    )
    assert oracle.describe(CTX, []) == {}
    out = oracle.describe(CTX, ["Saanen", "Boer"])
    assert out == {"Saanen": "A Swiss dairy breed.", "Boer": "A meat breed."}
    assert len(transport.bodies) == 1


def test_rename_cleans_up_the_reply():
    cases = {
        '"Apple Tree".': "Apple Tree",
        "Apple Tree\nIt grows fruit.": "Apple Tree",
        "  Apple Tree  ": "Apple Tree",
    }
    for raw, expected in cases.items():
        oracle, _, _ = make_oracle([reply(raw)])
        assert oracle.rename_from_description(CTX, "Apple", "desc") == expected
    for raw in ("", "."):
        oracle, _, _ = make_oracle([reply(raw)])
        assert oracle.rename_from_description(CTX, "Apple", "desc") is None


def test_rename_transport_failure_aborts_verification():
    # Steps 1-2 pass, step 3 fails, so verification asks for a rename; the
    # failed rename request must abort, not dismiss the candidate.
    oracle, transport, _ = make_oracle(
        [
            reply("Subcategory"),
            reply("Subcategory"),
            reply("No"),
            TransportError("HTTP 400", status=400, retryable=False),
        ]
    )
    with pytest.raises(TransportError):
        verify(oracle, CTX, "Apple", "Goats")
    assert len(transport.bodies) == 4
    assert not transport.script


def test_subcategory_direction_through_the_oracle():
    oracle, _, _ = make_oracle(
        [reply("[[Iced Coffee]] is a subcategory of [[Coffee]].")]
    )
    assert oracle.subcategory_direction(CTX, "Coffee", "Iced Coffee") == (
        "Iced Coffee",
        "Coffee",
    )


def test_is_instance_and_is_part_parse_keywords():
    oracle, _, _ = make_oracle([reply("Instance"), reply("Subcategory")])
    assert oracle.is_instance(CTX, "Yale University") is True
    assert oracle.is_part(CTX, "Hooves") is False


# ---------------------------------------------------------------------------
# HTTP transport


class DummyResponse:
    def __init__(self, status_code: int, text: str = "", payload: dict | None = None):
        self.status_code = status_code
        self.text = text
        self._payload = payload

    def json(self) -> dict:
        return json.loads(self.text) if self._payload is None else self._payload


def test_http_transport_requires_the_api_key_env(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    transport = HttpChatTransport()
    with pytest.raises(TransportError) as exc:
        transport.send({"model": "m"})
    assert exc.value.retryable is False
    assert "OPENAI_API_KEY" in str(exc.value)


def test_http_transport_maps_status_codes(monkeypatch):
    import requests

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-secret")
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["json"] = json
        captured["headers"] = headers
        return fake_post.response

    monkeypatch.setattr(requests, "post", fake_post)
    transport = HttpChatTransport(endpoint="https://example.test/v1/chat")

    fake_post.response = DummyResponse(200, payload=reply("Yes"))
    assert transport.send({"model": "m"}) == reply("Yes")
    assert captured["url"] == "https://example.test/v1/chat"
    assert captured["headers"]["Authorization"] == "Bearer sk-test-secret"

    fake_post.response = DummyResponse(500, text="server exploded")
    with pytest.raises(TransportError) as exc:
        transport.send({"model": "m"})
    assert exc.value.retryable is True and exc.value.status == 500

    fake_post.response = DummyResponse(400, text="bad request")
    with pytest.raises(TransportError) as exc:
        transport.send({"model": "m"})
    assert exc.value.retryable is False
    assert "sk-test-secret" not in str(exc.value)  # key never leaks into errors


def test_http_transport_retries_a_reply_that_is_not_json(monkeypatch):
    """A 200 reply whose body is not JSON fails retryably, like a dropped
    connection, so the oracle sends the request again."""
    import requests

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-secret")
    gateway = DummyResponse(200, text="<html>gateway</html>")
    responses = [gateway, gateway, DummyResponse(200, payload=reply("Yes"))]
    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: responses.pop(0))
    with pytest.raises(TransportError, match="not JSON") as exc:
        HttpChatTransport().send({"model": "m"})
    assert exc.value.retryable is True

    sleeps: list[float] = []
    oracle = ChatCompletionOracle(HttpChatTransport(), max_in_flight=1, sleep=sleeps.append)
    assert oracle.complete("hi").text == "Yes"
    assert not responses and sleeps == [0.5]


def test_http_transport_wraps_connection_errors(monkeypatch):
    import requests

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test-secret")

    def fake_post(*args, **kwargs):
        raise requests.ConnectionError("boom")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(TransportError) as exc:
        HttpChatTransport().send({"model": "m"})
    assert exc.value.retryable is True
