"""The three crawl workloads: set-up, timed crawl, timed re-read, checks.

Each workload drives the unmodified library from outside: ``cli-io`` through
``cli.main`` as a user runs it, ``mock-large`` and ``live-shaped`` through the
public ``Crawler`` API.  ``run_iteration`` runs one iteration in the calling
process and returns its metrics and the failures of its correctness checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import time
from pathlib import Path

from ontocrawl import (
    ChatCompletionOracle,
    CompletionParams,
    ConceptHierarchy,
    CostLedger,
    Crawler,
    CrawlConfig,
    GroundTruthTaxonomy,
    MockOracle,
    NoiseModel,
    QueryLog,
    ResponseCache,
    cli,
)
from ontocrawl.crawler import load_checkpoint, save_checkpoint
from ontocrawl.errors import CrawlAbortedError, OntocrawlError

import inputs
from transport import SleepingTaxonomyTransport

MOCK_NOISE = {"p_attribute_inflation": 0.3, "p_wrong_relation": 0.3}
LIVE_LATENCY_S = 0.002
LIVE_FT, LIVE_SAMPLES = 3, 10
# Pool size for first-token sampling; never more threads than CPUs.
LIVE_IN_FLIGHT = min(4, len(os.sched_getaffinity(0)))

# The re-read is short, so it is repeated (at least REREAD_MIN_REPEATS
# times and for REREAD_MIN_S in total) and its median reported.
REREAD_MIN_REPEATS, REREAD_MIN_S = 3, 2.0


class Workload:
    """One iteration's objects.

    Subclasses define ``setup()`` (what the program builds before its first
    oracle call, timed as set-up), ``crawl(tracer)`` (the timed crawl,
    returning outcome fields) and ``outcome(fields)`` (untimed: adds the
    final hierarchy, concept count and billed requests for the checks).
    """

    def __init__(self, fixture_path: Path, out_dir: Path, seed: int):
        self.fixture_path = Path(fixture_path)
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.checkpoint = self.out_dir / "checkpoint.json"


class CliIo(Workload):
    """``ontocrawl crawl`` in-process: checkpoint and query log on every step."""

    def setup(self) -> None:
        # What ``ontocrawl crawl`` builds before its first oracle call.
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.taxonomy = GroundTruthTaxonomy.load(self.fixture_path)
        query_log = QueryLog(self.out_dir / "queries.jsonl")
        ledger = CostLedger()
        oracle = MockOracle(self.taxonomy, query_log=query_log, ledger=ledger)
        Crawler(
            CrawlConfig(seed_name=self.taxonomy.root, oracle=f"mock:{self.fixture_path}"),
            oracle,
            query_log=query_log,
            ledger=ledger,
            checkpoint_path=self.checkpoint,
            rejection_path=self.out_dir / "rejected.jsonl",
        )

    def crawl(self, tracer) -> dict:
        argv = [
            "crawl",
            "--seed", self.taxonomy.root,
            "--oracle", f"mock:{self.fixture_path}",
            "--depth", "none",
            "--out-dir", str(self.out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = cli.main(argv)
        return {"exit_code": exit_code}

    def outcome(self, fields: dict) -> dict:
        data = load_checkpoint(self.checkpoint)
        stats_path = self.out_dir / "stats.json"
        fields["files"] = sorted(p.name for p in self.out_dir.iterdir())
        fields["stats_concepts"] = (
            json.loads(stats_path.read_text(encoding="utf-8"))["n_concepts"]
            if stats_path.exists()
            else None
        )
        return _from_checkpoint_data(data, fields)


class MockLarge(Workload):
    """``Crawler.run()`` with a noisy mock and no files: CPU-bound layers."""

    def setup(self) -> None:
        self.taxonomy = GroundTruthTaxonomy.load(self.fixture_path)
        self.ledger = CostLedger()
        query_log = QueryLog()
        oracle = MockOracle(
            self.taxonomy,
            NoiseModel(rng_seed=self.seed, **MOCK_NOISE),
            query_log=query_log,
            ledger=self.ledger,
        )
        self.crawler = Crawler(
            CrawlConfig(seed_name=self.taxonomy.root, oracle=f"mock:{self.fixture_path}"),
            oracle,
            query_log=query_log,
            ledger=self.ledger,
        )

    def crawl(self, tracer) -> dict:
        self.crawler.run()
        return {}

    def outcome(self, fields: dict) -> dict:
        # The crawl itself writes nothing; the result is kept the way a
        # library user would keep it, so that it can be re-read.
        self.out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(self.crawler.to_checkpoint_dict(), self.checkpoint)
        fields["rejected_names"] = [r["name"] for r in self.crawler.rejections]
        fields["rejection_reasons"] = _tally(r["reason"] for r in self.crawler.rejections)
        return _outcome(self.crawler.hierarchy, self.ledger.requests, fields)


class LiveShaped(Workload):
    """A real ChatCompletionOracle over a sleeping transport, aborted once and resumed."""

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.taxonomy = GroundTruthTaxonomy.load(self.fixture_path)
        n = len({self.taxonomy.root, *(name for edge in self.taxonomy.edges for name in edge)})
        self.transport = SleepingTaxonomyTransport(
            self.taxonomy, LIVE_LATENCY_S, fail_at=max(1, n // 2)
        )
        self.config = CrawlConfig(
            seed_name=self.taxonomy.root, ft=LIVE_FT, n_samples=LIVE_SAMPLES, oracle="llm"
        )
        self.query_logs = [QueryLog(self.out_dir / "queries.jsonl")]
        oracle = self._oracle(self.query_logs[0], CostLedger())
        self.crawler = Crawler(
            self.config,
            oracle,
            query_log=self.query_logs[0],
            ledger=oracle.ledger,
            checkpoint_path=self.checkpoint,
            rejection_path=self.out_dir / "rejected.jsonl",
        )

    def _oracle(self, query_log: QueryLog, ledger: CostLedger) -> ChatCompletionOracle:
        return ChatCompletionOracle(
            self.transport,
            params=CompletionParams(),
            cache=ResponseCache(self.out_dir / "cache.jsonl"),
            query_log=query_log,
            ledger=ledger,
            max_in_flight=LIVE_IN_FLIGHT,
        )

    def _resume(self) -> Crawler:
        # What ``ontocrawl resume`` does, with the benchmark's transport.
        data = load_checkpoint(self.checkpoint)
        query_log = QueryLog(self.out_dir / "queries.jsonl")
        self.query_logs.append(query_log)
        oracle = self._oracle(query_log, CostLedger())
        crawler = Crawler.from_checkpoint(
            data,
            oracle,
            query_log=query_log,
            checkpoint_path=self.checkpoint,
            rejection_path=self.out_dir / "rejected.jsonl",
        )
        oracle.ledger = crawler.ledger
        return crawler

    def crawl(self, tracer) -> dict:
        aborts = []
        try:
            self.crawler.run()
        except CrawlAbortedError as exc:
            aborts.append(str(exc))
            resume = self._resume if tracer is None else tracer.span("crawler.resume.load", self._resume)
            self.crawler = resume()
            try:
                self.crawler.run()
            except CrawlAbortedError as again:
                aborts.append(str(again))
        return {"aborts": aborts}

    def outcome(self, fields: dict) -> dict:
        fields["querylog_records"] = sum(len(log.records) for log in self.query_logs)
        with open(self.out_dir / "queries.jsonl", encoding="utf-8") as fh:
            fields["querylog_lines"] = sum(1 for _ in fh)
        return _outcome(self.crawler.hierarchy, self.crawler.ledger.requests, fields)


WORKLOADS = {"cli-io": CliIo, "mock-large": MockLarge, "live-shaped": LiveShaped}


def _tally(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


def _from_checkpoint_data(data: dict, fields: dict) -> dict:
    h = ConceptHierarchy.from_json_dict(data["hierarchy"])
    return _outcome(h, int(data["ledger"]["requests"]), fields)


def _outcome(h, requests: int, fields: dict) -> dict:
    fields["hierarchy"] = h
    fields["concepts"] = len(h)
    fields["requests"] = requests
    return fields


def edges_by_name(h) -> set[tuple[str, str]]:
    return {
        (h.concept(c).canonical_name, h.concept(p).canonical_name)
        for c, p in h.direct_edges()
    }


def check(workload: str, outcome: dict, fixture: dict) -> list[str]:
    """Every failed correctness check of one iteration, as messages."""
    failures: list[str] = []
    h = outcome["hierarchy"]
    got, want = edges_by_name(h), inputs.truth_edges(fixture)
    if got != want:
        failures.append(
            f"direct edges differ from the ground-truth reduction: "
            f"{len(want - got)} missing, {len(got - want)} extra"
        )
    try:
        h.verify_integrity()
    except OntocrawlError as exc:
        failures.append(f"verify_integrity failed: {exc}")
    if workload == "cli-io":
        n = len(inputs.truth_names(fixture))
        if outcome["exit_code"] != 0:
            failures.append(f"ontocrawl crawl exited with {outcome['exit_code']}")
        missing = sorted(set(cli.OUTPUT_FILES) - set(outcome["files"]))
        if missing:
            failures.append(f"output files missing: {missing}")
        if outcome["stats_concepts"] != n:
            failures.append(f"stats.json counts {outcome['stats_concepts']} concepts, expected {n}")
    elif workload == "mock-large":
        names = {inputs.normalize(x) for x in inputs.truth_names(fixture)}
        wrongly = [x for x in outcome["rejected_names"] if inputs.normalize(x) in names]
        if wrongly:
            failures.append(f"rejected names present in ground truth: {wrongly[:5]}")
    elif workload == "live-shaped":
        if len(outcome["aborts"]) != 1:
            failures.append(f"expected exactly one CrawlAbortedError, got {len(outcome['aborts'])}")
    return failures


def reread(checkpoint: Path, dest: Path) -> float:
    """``ontocrawl stats`` plus OWL and DOT export of a finished checkpoint."""
    dest.mkdir(parents=True, exist_ok=True)
    commands = (
        ["stats", str(checkpoint)],
        ["export", str(checkpoint), "--format", "owl", "-o", str(dest / "hierarchy.owl")],
        ["export", str(checkpoint), "--format", "dot", "-o", str(dest / "hierarchy.dot")],
    )
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in commands]
    elapsed = time.perf_counter() - start
    if any(codes):
        raise RuntimeError(f"re-read commands exited with {codes}")
    return elapsed


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_iteration(
    workload: str,
    fixture_path: Path,
    out_dir: Path,
    seed: int,
    *,
    tracer=None,
    setup_s: float = 0.0,
) -> dict:
    """Set up, crawl, re-read and check one iteration of ``workload``.

    ``setup_s`` is the time the caller already spent importing the package;
    the fixture load and object construction are added to it here.
    """
    fixture = json.loads(Path(fixture_path).read_text(encoding="utf-8"))
    w = WORKLOADS[workload](fixture_path, out_dir, seed)
    start = time.perf_counter()
    w.setup()
    setup_s += time.perf_counter() - start
    if tracer is not None:
        tracer.install(getattr(w, "transport", None))

    start = time.perf_counter()
    fields = w.crawl(tracer)
    crawl_s = time.perf_counter() - start

    outcome = w.outcome(fields)
    output_bytes = dir_bytes(w.out_dir)
    rereads: list[float] = []
    while len(rereads) < REREAD_MIN_REPEATS or sum(rereads) < REREAD_MIN_S:
        rereads.append(reread(w.checkpoint, w.out_dir.parent / "reread"))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check(workload, outcome, fixture)

    result = {
        "ok": not failures,
        "failures": failures,
        "metrics": {
            "setup_s": setup_s,
            "crawl_s": crawl_s,
            "reread_s": statistics.median(rereads),
            "oracle_calls_per_concept": outcome["requests"] / outcome["concepts"],
            "output_mb": output_bytes / 1e6,
            "peak_rss_mb": peak_kib / 1024.0,
        },
        "info": {
            "concepts": outcome["concepts"],
            "requests": outcome["requests"],
            **{k: outcome[k] for k in ("rejection_reasons", "aborts") if k in outcome},
        },
    }
    if tracer is not None:
        per_layer = tracer.metrics()
        lost = 0
        if workload == "live-shaped":
            lost = (
                outcome["querylog_records"]
                + tracer.counts["llm_backend.cache.unlogged_hits"]
                - outcome["querylog_lines"]
            )
        per_layer["crawler.resume.querylog_lines_lost"] = lost
        result["per_layer"] = per_layer
    return result


def setup_only(workload: str, fixture_path: Path, out_dir: Path, seed: int) -> float:
    """Time the set-up alone (the caller adds its import time)."""
    w = WORKLOADS[workload](fixture_path, out_dir, seed)
    start = time.perf_counter()
    w.setup()
    return time.perf_counter() - start
