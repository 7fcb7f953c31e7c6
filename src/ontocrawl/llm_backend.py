"""Chat-completion oracle: prompt templates, sampling, parsing, caching, cost.

The wire protocol is a plain chat-completions POST carrying one user message.
Listing uses first-token frequency sampling: the listing prompt is sampled
up to ``n_samples`` times with ``max_tokens=1`` at high temperature, and every
first token reaching the frequency threshold spawns a full listing prompt
forced to start with that token.  Sampling stops once the draws left cannot
change which tokens pass, or their order, so the listing is the one that all
``n_samples`` draws would give (curtailed sampling: a stop once the outcome is
certain).  All other prompts run under the configured parameters (temperature
0 by default).  One replay rule holds for every request: its reply is cached
under the prompt, the parameters and an index (a draw's number, or the
attempt number of a retry after an unparseable reply), so asking the same
question again replays the reply instead of sending it.
"""

from __future__ import annotations

import contextvars
import copy
import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import ClassVar, Protocol

from .errors import (
    CheckpointError,
    InvalidInputError,
    OracleParseError,
    TemplateError,
    TransportError,
)
from .hierarchy import normalize_name
from .oracle import OracleContext, QueryLog

logger = logging.getLogger(__name__)

DEFAULT_MODEL = "gpt-3.5-turbo"
DEFAULT_API_KEY_ENV = "OPENAI_API_KEY"
DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"

# Price per single token (prompt, completion), by model.
DEFAULT_PRICE_TABLE: dict[str, tuple[float, float]] = {
    "gpt-3.5-turbo": (0.0015e-3, 0.002e-3),
    "gpt-4": (0.03e-3, 0.06e-3),
}


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt body with placeholder slots.

    ``concept_slots`` lists, in order of appearance, the placeholders whose
    bound values are concept names; their descriptions get appended as
    ``Name: description.`` lines.  ``context_prefix`` marks templates that
    carry the two discovery-context sentences.
    """

    name: str
    body: str
    concept_slots: tuple[str, ...] = ()
    context_prefix: bool = False


CONTEXT_SENTENCE_PARENT = "{D} is a subcategory of {C0}."
CONTEXT_SENTENCE_SELF = "{C} is a subcategory of {D}."

TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        PromptTemplate(
            "existence",
            "Are there any generally accepted subcategories of {C}? "
            "Answer only with yes or no.",
            concept_slots=("D", "C0", "C"),
            context_prefix=True,
        ),
        PromptTemplate(
            "listing",
            "List all of the most important subcategories of {C}. "
            "Skip explanations and use a comma-separated format like this: "
            "important subcategory, another important subcategory, "
            "another important subcategory, etc.",
            concept_slots=("D", "C0", "C"),
            context_prefix=True,
        ),
        PromptTemplate(
            "listing_continuation",
            "List all of the most important subcategories of {C}. "
            "Skip explanations and use a comma-separated format like this: "
            "important subcategory, another important subcategory, "
            "another important subcategory, etc. "
            'Start your answer with "{t}".',
            concept_slots=("D", "C0", "C"),
            context_prefix=True,
        ),
        PromptTemplate(
            "description",
            "Give a brief description of every term on the list, considered "
            "as a subcategory of {C}, without the use of examples, in the "
            "following form: List element 1: brief description for list "
            "element 1. List element 2: brief description for list element 2. "
            "...\n{terms}",
            concept_slots=("C",),
        ),
        PromptTemplate(
            "verify_instance",
            "Is {D} a specific instance or a subcategory of the category {C0}? "
            "Answer only with Instance or Subcategory.",
            concept_slots=("D", "C0"),
        ),
        PromptTemplate(
            "verify_part",
            "Is {D} a part or a subcategory of the category {C0}? "
            "Answer only with Part or Subcategory.",
            concept_slots=("D", "C0"),
        ),
        PromptTemplate(
            "verify_seed",
            "Can {D} be considered a subcategory of {C0}? "
            "Answer only with yes or no.",
            concept_slots=("D", "C0"),
        ),
        PromptTemplate(
            "verify_subcat",
            "{C} is a subcategory of {C0}. Is {D} typically understood as a "
            "subcategory of {C}? Answer only with yes or no.",
            concept_slots=("C", "C0", "D"),
        ),
        PromptTemplate(
            "rename",
            "{C} is a subcategory of {C0}. The following description outlines "
            "the characteristics of a subcategory of {C}. Provide a concise "
            "and unambiguous name for it. Provide only the name without any "
            "explanation.\n{description}",
            concept_slots=("C", "C0"),
        ),
        PromptTemplate(
            "synonym_interchangeable",
            "In the context of {C0}, are {D1} and {D2} typically used "
            "interchangeably? Answer only with yes or no.",
            concept_slots=("C0", "D1", "D2"),
        ),
        PromptTemplate(
            "synonym_direction",
            "Consider the terms {D1} and {D2}. Which of the terms is a "
            "subcategory of the other one? Answer in the following scheme: "
            "[[X]] is a subcategory of [[Y]].",
            concept_slots=("D1", "D2"),
        ),
    )
}

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z0-9_]+)\}")


def render(
    template_name: str,
    bindings: dict[str, str],
    ctx: OracleContext | None = None,
) -> str:
    """Substitute ``bindings`` into a template and, given a context, append
    the description ``ctx.description_of`` picks for each concept slot.

    The discovery-context sentences degenerate at the top of the hierarchy and
    are dropped there: the first when D coincides with the seed, both when C
    itself is the seed.
    """
    if template_name not in TEMPLATES:
        raise TemplateError(f"unknown template {template_name!r}")
    tpl = TEMPLATES[template_name]
    body = tpl.body
    if tpl.context_prefix:
        c0 = bindings.get("C0", "")
        c = bindings.get("C", "")
        d = bindings.get("D")
        sentences = []
        if d and normalize_name(c) != normalize_name(c0):
            if normalize_name(d) != normalize_name(c0):
                sentences.append(CONTEXT_SENTENCE_PARENT)
            sentences.append(CONTEXT_SENTENCE_SELF)
        body = "".join(s + " " for s in sentences) + body

    missing = sorted({s for s in _PLACEHOLDER_RE.findall(body) if bindings.get(s) is None})
    if missing:
        raise TemplateError(
            f"template {template_name!r} is missing bindings for {missing}"
        )
    # One pass, so that a bound value's own braces are never substituted.
    prompt = _PLACEHOLDER_RE.sub(lambda m: str(bindings[m.group(1)]), body)

    if ctx is not None:
        lines = []
        seen: set[str] = set()
        for slot in tpl.concept_slots:
            name = bindings.get(slot)
            if not name or normalize_name(name) in seen:
                continue
            seen.add(normalize_name(name))
            desc = ctx.description_of(name)
            if desc:
                desc = desc.strip()
                if not desc.endswith("."):
                    desc += "."
                lines.append(f"{name}: {desc}")
        if lines:
            prompt = prompt + "\n" + "\n".join(lines)
    return prompt


# ---------------------------------------------------------------------------
# reply parsers


def parse_csv_list(text: str) -> list[str]:
    """Split a comma-separated reply into trimmed names.

    Drops empty items and the literal "etc."; a single trailing period is
    stripped so sentence-final items survive intact.
    """
    items: list[str] = []
    for raw in text.split(","):
        item = raw.strip()
        if item.endswith(".") and not item.endswith(".."):
            item = item[:-1].rstrip() if item[:-1].strip() else item
        if not item:
            continue
        if item.casefold() in ("etc", "etc."):
            continue
        items.append(item)
    return items


_WORD_RE = re.compile(r"[A-Za-z]+")


def parse_yes_no(text: str) -> bool:
    """First alphabetic word decides; anything else is a parse error."""
    return parse_keyword(text, {"yes": True, "no": False})


def parse_keyword(text: str, options: dict[str, bool]) -> bool:
    """Map the first alphabetic word onto one of ``options`` (case-insensitive)."""
    m = _WORD_RE.search(text or "")
    if m:
        word = m.group(0).casefold()
        if word in options:
            return options[word]
    raise OracleParseError(
        f"expected one of {sorted(options)}, got {text!r}"
    )


_BRACKETED_RE = re.compile(r"\[\[(.+?)\]\]")


def parse_direction(text: str) -> tuple[str, str]:
    """Extract (subcategory, supercategory) from a "[[X]] is a subcategory of
    [[Y]]" style reply; the two spans are taken in order of appearance."""
    spans = [s.strip() for s in _BRACKETED_RE.findall(text or "") if s.strip()]
    if len(spans) < 2:
        raise OracleParseError(f"expected two [[...]] spans, got {text!r}")
    return spans[0], spans[1]


def parse_description_lines(text: str, names: list[str]) -> dict[str, str]:
    """Match "Name: description" reply lines to the requested names.

    Names that never appear map to "" (the caller logs the gap).  Leading list
    markers like "1." or "-" before a name are tolerated.
    """
    by_key = {normalize_name(n): n for n in names}
    found: dict[str, str] = {}
    for line in (text or "").splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        head, _, tail = line.partition(":")
        head = re.sub(r"^\s*(?:list element\s+\d+|\d+[.)]|[-*])\s*", "", head,
                      flags=re.IGNORECASE).strip()
        key = normalize_name(head)
        if key in by_key and tail.strip():
            found.setdefault(key, tail.strip())
    return {name: found.get(normalize_name(name), "") for name in names}


def passing_tokens(frequencies: dict[str, int], ft: int) -> list[str]:
    """Tokens at or above the threshold, most frequent first (name-tiebreak)."""
    if ft < 1:
        raise InvalidInputError(f"frequency threshold must be >= 1, got {ft}")
    chosen = [(count, tok) for tok, count in frequencies.items() if count >= ft]
    return [tok for count, tok in sorted(chosen, key=lambda p: (-p[0], p[1]))]


def _decided(counts: dict[str, int], left: int, ft: int) -> bool:
    """Whether no ``left`` further draws can change ``passing_tokens(counts,
    ft)``: no token below ``ft``, an undrawn one at 0, can reach it, and no
    passing token can overtake or tie past the one before it, even if it
    takes every draw left.  Adjacent pairs suffice: if a token can pass an
    earlier one, so can every token between them."""
    if left >= ft or any(ft - left <= count < ft for count in counts.values()):
        return False
    passing = passing_tokens(counts, ft)
    return all(
        (-counts[a], a) < (-(counts[b] + left), b) for a, b in zip(passing, passing[1:])
    )


# ---------------------------------------------------------------------------
# completion plumbing


@dataclass(frozen=True)
class CompletionParams:
    model: str = DEFAULT_MODEL
    temperature: float = 0.0
    top_p: float = 0.99
    max_tokens: int = 256

    def __post_init__(self):
        if not self.model:
            raise InvalidInputError("model must be non-empty")
        if not 0.0 <= self.temperature <= 2.0:
            raise InvalidInputError(f"temperature out of range: {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise InvalidInputError(f"top_p out of range: {self.top_p}")
        if self.max_tokens < 1:
            raise InvalidInputError(f"max_tokens must be positive: {self.max_tokens}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_SAMPLING_TEMPERATURE = 2.0
MAX_RETRIES = 5  # a request is sent at most 1 + MAX_RETRIES times
BACKOFF_BASE = 0.5  # seconds before the first retry; each retry doubles it
BACKOFF_CAP = 30.0  # seconds; no wait between attempts is longer


@dataclass
class CostLedger:
    """Accumulates request counts, token usage and spend; ``add`` is thread safe."""

    requests: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    dollars: float = 0.0
    # A class attribute, so that it is neither a field nor serialized.
    _lock: ClassVar[threading.Lock] = threading.Lock()

    def add(
        self,
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
        prompt_price: float = 0.0,
        completion_price: float = 0.0,
    ) -> None:
        with self._lock:
            self.requests += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens
            self.dollars += (
                prompt_tokens * prompt_price + completion_tokens * completion_price
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "CostLedger":
        """Missing fields take their defaults.  A count must be an int and
        ``dollars`` an int or float, read as a float; a bool is neither, and
        any other value raises CheckpointError."""
        values = {}
        for f in fields(cls):
            value = data.get(f.name, f.default)
            kind = type(f.default)
            allowed = (int, float) if kind is float else (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise CheckpointError(
                    f"ledger {f.name} must be a {kind.__name__}, not {value!r}"
                )
            values[f.name] = kind(value)
        return cls(**values)


class ResponseCache:
    """Content-addressed reply cache, persisted as append-only JSONL; a torn
    last line is cut off, any other bad line raises CheckpointError."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._mem: dict[str, dict] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            raw = self.path.read_bytes()
            *lines, torn = raw.split(b"\n")
            if torn:  # uncommitted: cut it, so that the next append starts a line
                os.truncate(self.path, len(raw) - len(torn))
            for number, line in enumerate(lines, start=1):
                try:
                    rec = json.loads(line)
                    self._mem[rec["key"]] = rec
                except (LookupError, TypeError, ValueError) as exc:
                    raise CheckpointError(f"{self.path} line {number}: {exc!r}") from exc

    @staticmethod
    def key_for(prompt: str, params: CompletionParams, index: int = 0) -> str:
        """The key of the ``index``-th reply to ``prompt`` under ``params``:
        a first-token draw's number, or the attempt number of a retry after
        an unparseable reply.  Index 0 adds nothing to the key and any other
        adds it as ``attempt``, so keys written before draws were cached hold."""
        fields = {"prompt": prompt, **params.to_dict()}
        if index:
            fields["attempt"] = index
        material = json.dumps(fields, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._mem.get(key)

    def put(self, key: str, record: dict) -> None:
        record = {"key": key, **record}
        with self._lock:
            self._mem[key] = record
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    def __len__(self) -> int:
        return len(self._mem)


class ChatTransport(Protocol):
    def send(self, body: dict) -> dict: ...


class HttpChatTransport:
    """POSTs chat-completion request bodies; the API key comes from the
    environment and never appears in logs or config files."""

    def __init__(
        self,
        endpoint: str = DEFAULT_ENDPOINT,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout = timeout

    def send(self, body: dict) -> dict:
        import requests

        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise TransportError(
                f"environment variable {self.api_key_env} is not set",
                retryable=False,
            )
        try:
            resp = requests.post(
                self.endpoint,
                json=body,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if resp.status_code != 200:
            retryable = resp.status_code in (408, 409, 429, 500, 502, 503, 504)
            raise TransportError(
                f"HTTP {resp.status_code}: {resp.text[:200]}",
                status=resp.status_code,
                retryable=retryable,
            )
        try:
            return resp.json()
        except ValueError as exc:  # a body that is not JSON fails like a dropped connection
            raise TransportError(f"reply body is not JSON: {resp.text[:200]}") from exc


def _read_reply(data) -> tuple[str, int, int]:
    """``choices[0].message.content`` of a reply body and its prompt and
    completion token counts.  A body without that string fails like a
    dropped connection, retryably; a count that is not a non-negative int
    bills 0, as a missing ``usage`` does."""
    try:
        text = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise TransportError(f"malformed reply body: {str(data)[:200]}")
    usage = data.get("usage") if isinstance(data.get("usage"), dict) else {}
    counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    return text, *(n if type(n) is int and n >= 0 else 0 for n in counts)


@dataclass
class CompletionResult:
    text: str
    cached: bool = False


class ChatCompletionOracle:
    """KnowledgeOracle backed by a chat-completion endpoint.

    Retries transport failures with exponential backoff (bounded), caches
    every reply under ``ResponseCache.key_for(prompt, params, index)``, counts
    every successful request in the cost ledger and appends one query-log
    record per request; a crawler sets both to the run's own.

    At most ``max_in_flight`` requests are in flight at once, whichever
    threads send them: a semaphore is held around each send.  A key already
    in flight is never sent twice (single flight): a second asker waits and
    takes the cached reply, or sends the request itself if that attempt
    failed.  ``map`` sends independent requests together: first-token draws,
    continuations, insertion probe rounds and warmed dialogues.  The calling
    thread sends a share, alongside at most ``max_in_flight - 1`` threads of
    one pool made on first use and kept; at 1, no thread starts.  ``lane``
    gives the crawler's prefetch lane a view of the oracle that holds at most
    one slot, tries a request once and sends nothing once the lane stops.
    """

    def __init__(
        self,
        transport: ChatTransport | None = None,
        *,
        params: CompletionParams | None = None,
        cache: ResponseCache | None = None,
        query_log: QueryLog | None = None,
        ledger: CostLedger | None = None,
        max_in_flight: int = 8,
        sleep=time.sleep,
    ):
        self.transport = transport or HttpChatTransport()
        self.params = params or CompletionParams()
        self.sampling_params = replace(
            self.params, temperature=DEFAULT_SAMPLING_TEMPERATURE, max_tokens=1
        )
        self.cache = cache or ResponseCache()
        self.query_log = query_log
        self.ledger = ledger if ledger is not None else CostLedger()
        if max_in_flight < 1:
            raise InvalidInputError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.max_in_flight = max_in_flight
        self._sleep = sleep
        self._slots = threading.BoundedSemaphore(max_in_flight)
        # The keys being sent, each with the event set once its send ends.
        self._flights: dict[str, threading.Event] = {}
        self._flights_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._stop: threading.Event | None = None  # a lane view's; see ``lane``

    def lane(self, stop: threading.Event) -> "ChatCompletionOracle | None":
        """A view of this oracle for the prefetch lane, or None at
        ``max_in_flight`` 1.  It shares the transport, the cache, the ledger,
        the query log, the send slots and the single-flight table, but runs
        ``map`` inline, so that it holds at most one slot, tries each request
        once, and raises a non-retryable TransportError in place of any send
        once ``stop`` is set."""
        if self.max_in_flight < 2:
            return None
        view = copy.copy(self)
        view.max_in_flight, view._stop = 1, stop
        return view

    def map(self, fn, items) -> list:
        """``[fn(x) for x in items]``, with up to ``max_in_flight`` calls at once,
        each thread claiming the next item from one shared iterator, the
        helpers in copies of the caller's context (its query-log tags).  After
        a call raises, no further item is started; the calls already running
        finish, and the exception of the earliest failed item is raised.
        """
        items = list(items)
        helpers = min(self.max_in_flight, len(items)) - 1
        if helpers < 1:
            return [fn(x) for x in items]
        results: list = [None] * len(items)
        failures: dict[int, Exception] = {}
        pending = iter(range(len(items)))
        stop, running = False, 0
        claim = threading.Lock()
        idle = threading.Condition(claim)

        def drain() -> None:
            nonlocal stop, running
            with claim:
                running += 1
            try:
                while True:
                    with claim:
                        i = None if stop else next(pending, None)
                    if i is None:
                        return
                    try:
                        results[i] = fn(items[i])
                    except Exception as exc:
                        failures[i] = exc
                        stop = True
            finally:
                # Items are gone or a call failed: either way nothing new starts.
                with claim:
                    stop = True
                    running -= 1
                    if not running:
                        idle.notify()

        with self._pool_lock:
            if self._pool is None:
                # Looked up at call time, so a patched module name takes effect.
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_in_flight - 1,
                    thread_name_prefix="ontocrawl-oracle",
                )
            pool = self._pool
        try:
            futures = [
                pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)
            ]
            drain()
        finally:
            # Also when the calling thread is interrupted, even inside submit():
            # start nothing new and wait for the calls already running.
            with idle:
                stop = True
                idle.wait_for(lambda: not running)
        for future in futures:
            future.result()  # what a helper raised beyond ``Exception``
        if failures:
            raise failures[min(failures)]
        return results

    # -- low level ---------------------------------------------------------

    def complete(
        self,
        prompt: str,
        params: CompletionParams | None = None,
        *,
        template_name: str = "",
        index: int = 0,
    ) -> CompletionResult:
        """The ``index``-th reply to ``prompt`` under ``params``: from the
        cache if it holds one, else sent and then cached."""
        params = params or self.params
        key = ResponseCache.key_for(prompt, params, index)
        mine = threading.Event()
        try:
            hit = self._claim(key, mine)
            if hit is None:
                return self._send(prompt, params, key, template_name)
        finally:
            # Also on an interrupt: a flight left behind would hold its waiters.
            with self._flights_lock:
                if self._flights.get(key) is mine:
                    del self._flights[key]
            mine.set()
        return CompletionResult(hit["reply"], cached=True)

    def _claim(self, key: str, mine: threading.Event) -> dict | None:
        """The cached record under ``key``, or None once ``mine`` is the key's
        flight, so that the calling thread is to send it.  A key in flight on
        another thread is waited for, then looked up again."""
        while True:
            with self._flights_lock:
                hit = self.cache.get(key)
                if hit is not None:
                    return hit
                flight = self._flights.setdefault(key, mine)
            if flight is mine:
                return None
            flight.wait()

    def _send(
        self, prompt: str, params: CompletionParams, key: str, template_name: str
    ) -> CompletionResult:
        """Send ``prompt``, retrying a retryable failure with backoff (not on
        a lane view), then bill, log and cache the reply."""
        body = {
            "model": params.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": params.temperature,
            "top_p": params.top_p,
            "max_tokens": params.max_tokens,
        }
        last_error: TransportError | None = None
        attempts = MAX_RETRIES + 1 if self._stop is None else 1
        for attempt in range(attempts):
            if attempt:
                delay = min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP)
                self._sleep(delay)
            try:
                with self._slots:
                    if self._stop is not None and self._stop.is_set():
                        raise TransportError("the prefetch lane is stopped", retryable=False)
                    started = time.monotonic()
                    data = self.transport.send(body)
                text, pt, ct = _read_reply(data)
            except TransportError as exc:
                last_error = exc
                logger.warning(
                    "completion attempt %d/%d failed: %s",
                    attempt + 1,
                    attempts,
                    exc,
                )
                if not exc.retryable:
                    break
                continue
            latency_ms = (time.monotonic() - started) * 1000.0
            prices = DEFAULT_PRICE_TABLE.get(params.model, (0.0, 0.0))
            self.ledger.add(pt, ct, prices[0], prices[1])
            if self.query_log is not None:
                self.query_log.record(
                    template_name=template_name,
                    prompt=prompt,
                    params=params.to_dict(),
                    reply=text,
                    prompt_tokens=pt,
                    completion_tokens=ct,
                    latency_ms=round(latency_ms, 3),
                )
            self.cache.put(
                key, {"reply": text, "prompt_tokens": pt, "completion_tokens": ct}
            )
            return CompletionResult(text)
        raise last_error if last_error is not None else TransportError("request failed")

    def sample_first_tokens(self, prompt: str, n_samples: int, ft: int) -> dict[str, int]:
        """Frequency map of the non-blank first completion tokens over the
        draws of ``prompt`` it takes to decide ``passing_tokens`` at
        threshold ``ft`` (1 <= ft <= n_samples), draw ``i`` cached at index
        ``i``; the map passes the tokens, in the order, that all
        ``n_samples`` draws would.  The draws go through ``map`` in at most
        two waves: first ``n_samples - ft + 1``, the fewest that can decide,
        then, unless ``_decided`` holds, the ``ft - 1`` left.  At ``ft`` 1
        every draw goes in the first wave.  A draw that exhausts its retries
        raises, like any other request, rather than lowering the counts.
        """
        if not 1 <= ft <= n_samples:
            raise InvalidInputError(
                f"ft must lie within [1, n_samples]; got ft={ft}, n_samples={n_samples}"
            )
        counts: dict[str, int] = {}

        def one(i: int) -> str:
            return self.complete(
                prompt, self.sampling_params, template_name="listing", index=i
            ).text

        def tally(indices: range) -> None:
            for text in self.map(one, indices):
                token = text.strip()
                if token:
                    counts[token] = counts.get(token, 0) + 1

        first = n_samples - ft + 1
        tally(range(first))
        if not _decided(counts, ft - 1, ft):
            tally(range(first, n_samples))
        return counts

    # -- contract ------------------------------------------------------------

    def _bindings(self, ctx: OracleContext, c: str) -> dict[str, str]:
        return {"C0": ctx.seed_name, "D": ctx.parent_name or ctx.seed_name, "C": c}

    def _yes_no(
        self, template_name: str, bindings: dict[str, str], ctx: OracleContext
    ) -> bool:
        return self._parsed(template_name, bindings, ctx, parse_yes_no)

    def _parsed(self, template_name, bindings, ctx, parser):
        prompt = render(template_name, bindings, ctx)
        for attempt in (0, 1):
            result = self.complete(
                prompt, self.params, template_name=template_name, index=attempt
            )
            try:
                return parser(result.text)
            except OracleParseError as exc:
                if attempt == 0:
                    logger.warning("unparseable reply, retrying once: %s", exc)
        raise OracleParseError(f"reply to {template_name!r} unparseable after retry")

    def has_subconcepts(self, ctx: OracleContext, c: str) -> bool:
        try:
            return self._yes_no("existence", self._bindings(ctx, c), ctx)
        except OracleParseError:
            logger.warning("existence reply unparseable; treating %r as leaf", c)
            return False

    def list_subconcepts(
        self, ctx: OracleContext, c: str, ft: int, n_samples: int
    ) -> list[str]:
        bindings = self._bindings(ctx, c)
        base_prompt = render("listing", bindings, ctx)
        frequencies = self.sample_first_tokens(base_prompt, n_samples, ft)
        tokens = passing_tokens(frequencies, ft)

        if not tokens:
            # Fallback: one plain listing under the configured parameters.
            result = self.complete(base_prompt, self.params, template_name="listing")
            return parse_csv_list(result.text)
        # Sent together; every parsed name is returned, in token order.
        continued = [render("listing_continuation", {**bindings, "t": t}, ctx) for t in tokens]
        replies = self.map(
            lambda p: self.complete(p, template_name="listing_continuation"), continued
        )
        return [name for result in replies for name in parse_csv_list(result.text)]

    def describe(self, ctx: OracleContext, names: list[str]) -> dict[str, str]:
        if not names:
            return {}
        c = ctx.parent_name or ctx.seed_name
        prompt = render(
            "description", {"C": c, "terms": ", ".join(names)}, ctx
        )
        result = self.complete(prompt, self.params, template_name="description")
        parsed = parse_description_lines(result.text, names)
        for name, text in parsed.items():
            if not text:
                logger.warning("no description parsed for %r", name)
        return parsed

    def is_instance(self, ctx: OracleContext, d: str) -> bool:
        return self._parsed(
            "verify_instance",
            {"C0": ctx.seed_name, "D": d},
            ctx,
            lambda text: parse_keyword(text, {"instance": True, "subcategory": False}),
        )

    def is_part(self, ctx: OracleContext, d: str) -> bool:
        return self._parsed(
            "verify_part",
            {"C0": ctx.seed_name, "D": d},
            ctx,
            lambda text: parse_keyword(text, {"part": True, "subcategory": False}),
        )

    def under_seed(self, ctx: OracleContext, d: str) -> bool:
        return self._yes_no("verify_seed", {"C0": ctx.seed_name, "D": d}, ctx)

    def is_subcategory_of(self, ctx: OracleContext, d: str, c: str) -> bool:
        return self._yes_no(
            "verify_subcat", {"C0": ctx.seed_name, "C": c, "D": d}, ctx
        )

    def rename_from_description(
        self, ctx: OracleContext, c: str, description: str
    ) -> str | None:
        prompt = render(
            "rename",
            {"C0": ctx.seed_name, "C": c, "description": description},
            ctx,
        )
        result = self.complete(prompt, self.params, template_name="rename")
        text = result.text.strip()
        first_line = text.splitlines()[0] if text else ""
        # Peel interleaved quoting and a sentence period, e.g. '"Apple Tree".'
        while True:
            trimmed = first_line.strip().strip('"').strip("'")
            if trimmed.endswith("."):
                trimmed = trimmed[:-1].rstrip()
            if trimmed == first_line:
                break
            first_line = trimmed
        return first_line or None

    def interchangeable(self, ctx: OracleContext, d1: str, d2: str) -> bool:
        return self._yes_no(
            "synonym_interchangeable",
            {"C0": ctx.seed_name, "D1": d1, "D2": d2},
            ctx,
        )

    def subcategory_direction(
        self, ctx: OracleContext, d1: str, d2: str
    ) -> tuple[str, str]:
        return self._parsed(
            "synonym_direction", {"D1": d1, "D2": d2}, ctx, parse_direction
        )
