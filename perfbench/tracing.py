"""Span tracing for a benchmark iteration, installed from outside the library.

``install`` wraps the public functions at each layer boundary.  Functions
bound by ``from ... import`` are patched where the caller looks them up (for
example ``ontocrawl.crawler.verify``), methods on their class.  A span is
(id, parent id, name, start, end); spans stay in memory and are written out
once at the end.  A span's self time is its duration minus the part of it
covered by its child spans, so concurrent children are counted once.

Hierarchy reads (``find_by_name``, ``ancestors``, ``descendants``,
``direct_parents``, ``direct_children``) run millions of times on the larger
workloads and are cheap, so they are counted and timed rather than spanned:
their time is not subtracted from the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

from ontocrawl import cli, crawler, export, insertion, llm_backend
from ontocrawl.errors import TransportError
from ontocrawl.hierarchy import ConceptHierarchy
from ontocrawl.llm_backend import ChatCompletionOracle, ResponseCache
from ontocrawl.oracle import GroundTruthTaxonomy, MockOracle, QueryLog

ORACLE_METHODS = (
    "has_subconcepts",
    "list_subconcepts",
    "describe",
    "is_instance",
    "is_part",
    "under_seed",
    "is_subcategory_of",
    "rename_from_description",
    "interchangeable",
    "subcategory_direction",
)
HIERARCHY_READS = (
    "find_by_name",
    "ancestors",
    "descendants",
    "direct_parents",
    "direct_children",
)
REJECTION_REASONS = (
    "instance",
    "part",
    "not_under_seed",
    "not_under_parent",
    "rename_failed",
)


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._in_flight = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span plumbing --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call_under(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` on this thread as if called inside span ``parent``."""
        saved = self._local.__dict__.get("stack")
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` may update counters."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Count calls and their time without creating spans (hot paths)."""
        counts = self.counts
        calls_key, s_key = f"{name}.calls", f"{name}.s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[s_key] += time.perf_counter() - start
                counts[calls_key] += 1

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- installation -----------------------------------------------------

    def install(self, transport=None) -> None:
        """Wrap every layer boundary; ``transport`` is the benchmark's own."""
        counts = self.counts
        for name in ORACLE_METHODS:
            self.patch(MockOracle, name, self.span(f"oracle.mock.{name}", getattr(MockOracle, name)))
            self.patch(
                ChatCompletionOracle,
                name,
                self.span(f"llm_backend.{name}", getattr(ChatCompletionOracle, name)),
            )
        self.patch(QueryLog, "record", self.span("oracle.querylog.record", QueryLog.record))
        self.patch(
            GroundTruthTaxonomy,
            "description_for",
            self.span("oracle.description_for", GroundTruthTaxonomy.description_for),
        )

        for name in ("add_subsumption", "add_concept", "next_unexplored"):
            self.patch(
                ConceptHierarchy, name, self.span(f"hierarchy.{name}", getattr(ConceptHierarchy, name))
            )
        for name in HIERARCHY_READS:
            self.patch(ConceptHierarchy, name, self.counted("hierarchy.reads", getattr(ConceptHierarchy, name)))

        def after_verify(verdict, _args):
            counts["verification.accepted"] += verdict.accepted
            if not verdict.accepted:
                counts[f"verification.rejected.{verdict.reason}"] += 1

        self.patch(crawler, "verify", self.span("verification.verify", crawler.verify, after_verify))

        # ``insert`` grows the hierarchy, so its size is read before the call.
        raw_insert = self.span("insertion.insert", insertion.insert)

        def insert(h, *args, **kwargs):
            pre_n = len(h)
            placement = raw_insert(h, *args, **kwargs)
            counts["insertion.probes"] += placement.probes_issued
            counts["insertion.baseline"] += 2 * pre_n
            return placement

        self.patch(insertion, "insert", insert)
        self.patch(
            insertion,
            "record_rediscovery",
            self.span("insertion.rediscovery", insertion.record_rediscovery),
        )

        self.patch(crawler.Crawler, "step", self.span("crawler.step", crawler.Crawler.step))

        def after_checkpoint(_result, args):
            counts["crawler.checkpoint.bytes"] += os.path.getsize(args[1])

        for module in (crawler, cli):
            self.patch(
                module,
                "save_checkpoint",
                self.span("crawler.checkpoint", module.save_checkpoint, after_checkpoint),
            )
        self.patch(cli, "load_checkpoint", self.span("cli.load_checkpoint", cli.load_checkpoint))
        self.patch(cli, "_write_outputs", self.span("cli.write_outputs", cli._write_outputs))
        self.patch(export, "to_owl_rdfxml", self.span("export.owl", export.to_owl_rdfxml))
        self.patch(export, "to_dot", self.span("export.dot", export.to_dot))
        for name in ("compute_stats", "stats_to_json_dict", "render_stats_text"):
            self.patch(export, name, self.span("export.stats", getattr(export, name)))

        raw_complete = self.span("llm_backend.complete", ChatCompletionOracle.complete)

        def complete(oracle, *args, **kwargs):
            log = oracle.query_log
            before = len(log.records) if log is not None else 0
            result = raw_complete(oracle, *args, **kwargs)
            # A hit that left no query-log record is an exchange the log lost.
            if result.cached and (log is None or len(log.records) == before):
                counts["llm_backend.cache.unlogged_hits"] += 1
            return result

        self.patch(ChatCompletionOracle, "complete", complete)
        self.patch(
            ChatCompletionOracle,
            "sample_first_tokens",
            self.span("llm_backend.sample_first_tokens", ChatCompletionOracle.sample_first_tokens),
        )

        def after_get(hit, _args):
            counts["llm_backend.cache.gets"] += 1
            counts["llm_backend.cache.hits"] += hit is not None

        self.patch(ResponseCache, "get", self.span("llm_backend.cache.get", ResponseCache.get, after_get))
        self.patch(ResponseCache, "put", self.span("llm_backend.cache.put", ResponseCache.put))

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Carries the submitting span into pool threads as their parent."""

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call_under, tracer.current(), fn, *args, **kwargs)

        self.patch(llm_backend, "ThreadPoolExecutor", TracedPool)

        if transport is not None:
            raw_send = self.span("transport.send", transport.send)

            def send(body):
                with self._lock:
                    self._in_flight += 1
                    peak = counts["llm_backend.transport.peak_in_flight"]
                    counts["llm_backend.transport.peak_in_flight"] = max(peak, self._in_flight)
                try:
                    return raw_send(body)
                except TransportError:
                    counts["llm_backend.transport.failed"] += 1
                    raise
                finally:
                    with self._lock:
                        self._in_flight -= 1

            self.patch(transport, "send", send)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[int, float] = {}
        for sid, _parent, _name, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        step_ms: list[float] = []
        self_of = self.self_times()
        for sid, _parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_of[sid]
            if name == "crawler.step":
                step_ms.append((end - start) * 1000.0)
        c = self.counts

        def prefixed(prefix: str) -> float:
            return sum(v for k, v in own.items() if k.startswith(prefix))

        if len(step_ms) >= 2:
            cuts = statistics.quantiles(step_ms, n=20, method="inclusive")
            p50, p95 = statistics.median(step_ms), cuts[18]
        else:
            p50 = p95 = step_ms[0] if step_ms else 0.0
        verified = calls["verification.verify"]
        out = {
            "hierarchy.add_subsumption.calls": calls["hierarchy.add_subsumption"],
            "hierarchy.add_subsumption.s": total["hierarchy.add_subsumption"],
            "hierarchy.add_concept.calls": calls["hierarchy.add_concept"],
            "hierarchy.add_concept.s": total["hierarchy.add_concept"],
            "hierarchy.next_unexplored.calls": calls["hierarchy.next_unexplored"],
            "hierarchy.next_unexplored.s": total["hierarchy.next_unexplored"],
            "hierarchy.reads.calls": c["hierarchy.reads.calls"],
            "hierarchy.reads.s": c["hierarchy.reads.s"],
            "oracle.mock.self_s": prefixed("oracle.mock."),
            "oracle.querylog.records": calls["oracle.querylog.record"],
            "oracle.querylog.s": total["oracle.querylog.record"],
            "oracle.description_for.calls": calls["oracle.description_for"],
            "oracle.description_for.s": total["oracle.description_for"],
            "llm_backend.complete.calls": calls["llm_backend.complete"],
            "llm_backend.cache.hit_ratio": _ratio(c["llm_backend.cache.hits"], c["llm_backend.cache.gets"]),
            "llm_backend.transport.requests": calls["transport.send"],
            "llm_backend.transport.failed": c["llm_backend.transport.failed"],
            "llm_backend.transport.wait_s": total["transport.send"],
            "llm_backend.transport.peak_in_flight": c["llm_backend.transport.peak_in_flight"],
            "llm_backend.sampling.s": total["llm_backend.sample_first_tokens"],
            "llm_backend.self_s": prefixed("llm_backend."),
            "verification.verify.calls": verified,
            "verification.verify.self_s": own["verification.verify"],
            "verification.accept_ratio": _ratio(c["verification.accepted"], verified),
            **{
                f"verification.rejected.{reason}": c[f"verification.rejected.{reason}"]
                for reason in REJECTION_REASONS
            },
            "insertion.insert.calls": calls["insertion.insert"],
            "insertion.insert.self_s": own["insertion.insert"],
            "insertion.probes": c["insertion.probes"],
            "insertion.probe_ratio": _ratio(c["insertion.probes"], c["insertion.baseline"]),
            "insertion.rediscovery.calls": calls["insertion.rediscovery"],
            "crawler.step.calls": calls["crawler.step"],
            "crawler.step.self_s": own["crawler.step"],
            "crawler.step_ms.p50": p50,
            "crawler.step_ms.p95": p95,
            "crawler.checkpoint.calls": calls["crawler.checkpoint"],
            "crawler.checkpoint.s": total["crawler.checkpoint"],
            "crawler.checkpoint.bytes": c["crawler.checkpoint.bytes"],
            "crawler.resume.load_s": total["crawler.resume.load"],
            "export.owl.s": total["export.owl"],
            "export.dot.s": total["export.dot"],
            "export.stats.s": total["export.stats"],
            "cli.write_outputs.s": total["cli.write_outputs"],
            "cli.load_checkpoint.s": total["cli.load_checkpoint"],
            "trace.spans": len(self.spans),
        }
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
