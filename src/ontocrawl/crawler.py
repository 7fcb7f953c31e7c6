"""Breadth-first concept crawl: existence, listing, verification, insertion.

The frontier is the set of unexplored concepts above the depth cutoff,
visited shallowest-first with discovery order as the tiebreak.  A listing's
names are deduplicated here, by normalized name, keeping the first surface
form.  Every listed candidate is either recognized as an existing concept (rediscovery: a new
edge, no re-verification) or verified and classified into the hierarchy.  An
unrecoverable oracle failure aborts the run resumably.  With an oracle that
has ``map``, a listing's verification dialogues are first run together to
warm its reply cache (``verify_ahead``); decisions still come one by one.

Each step opens with one chain of dependent questions, ``explore``:
existence, the listing, deduplication, the descriptions.  During ``run()``
of a crawl without a ``max_concepts`` cap, with an oracle whose ``lane``
hook gives a view, one background thread (the prefetch lane) runs that
chain through the view ahead for the next ``PREFETCH_AHEAD`` frontier
concepts, each with a snapshot of what its prompts show: the seed, its
discovering parent and their three stored descriptions.  The lane never
reads the hierarchy and drops every result and every exception.  The step
renders its own prompts from live state, so an unchanged prompt replays the
lane's cached reply and a changed one is sent: outputs cannot depend on the
lane, only the ledger.

``parse_checkpoint`` is the one reader of a checkpoint document: ``resume``,
``stats`` and ``export`` all read through it, so they refuse the same
documents, and an accepted document saves back to itself.

Every exploration commits to the checkpoint.  The first commit writes the
full snapshot (the base), and ``run()`` makes it before its first step, so a
checkpoint that ``resume`` accepts exists before the first oracle call.  Each
later commit appends one JSON line to a journal beside it
(``<checkpoint>.journal``) holding the after-image of every concept and edge
the hierarchy's change set marked since the last commit (its key alone, under
``removed`` or ``dropped``, once it is gone) and the ``discovered_from``
entries and rejections added since.  Replaying an unchanged record or removing
an absent key is a no-op, so a commit costs what the step touched, not the size
of the hierarchy; a synonym merge rebuilds, and so journals, every record.
``run()`` compacts the journal into the snapshot when it ends, so the journal
exists only mid-run; ``load_checkpoint`` replays a journal left behind by an
interrupted run onto its base.  A commit then writes the rejection file,
whole at the base and after that the rejections its journal line carries, so
the file never runs ahead of the checkpoint; constructing a crawler writes
nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import insertion
from .errors import (
    CheckpointError,
    ConfigError,
    CrawlAbortedError,
    InvalidInputError,
    TransportError,
)
from .hierarchy import ConceptHierarchy, json_fields, normalize_name
from .llm_backend import CompletionParams, CostLedger
from .oracle import KnowledgeOracle, OracleContext, QueryLog
from .verification import verify, verify_ahead

logger = logging.getLogger(__name__)

CHECKPOINT_WRAPPER_VERSION = 1

# How many frontier concepts past its own each step hands the prefetch lane.
PREFETCH_AHEAD = 2


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CrawlConfig:
    """Everything a crawl run needs to be reproduced.

    ``oracle`` is "llm" or "mock:<fixture path>".  ``params`` holds overrides
    for the completion parameters (model, temperature, top_p, max_tokens).
    """

    seed_name: str
    exploration_depth: int | None = None
    ft: int = 20
    n_samples: int = 100
    max_concepts: int | None = None
    oracle: str = "llm"
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not isinstance(self.seed_name, str) or not self.seed_name.strip():
            raise ConfigError("seed_name must be a non-empty string")
        for name in ("exploration_depth", "ft", "n_samples", "max_concepts"):
            value = getattr(self, name)
            unbounded = value is None and name in ("exploration_depth", "max_concepts")
            if not (_is_int(value) or unbounded):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.oracle, str):
            raise ConfigError(f"oracle must be a string, got {self.oracle!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        try:
            CompletionParams(**self.params)
        except (TypeError, InvalidInputError) as exc:
            raise ConfigError(f"params {self.params!r}: {exc}") from exc
        if self.exploration_depth is not None and self.exploration_depth < 1:
            raise ConfigError("exploration_depth must be >= 1 or unbounded (None)")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if not 1 <= self.ft <= self.n_samples:
            raise ConfigError(
                f"ft must lie within [1, n_samples]; got ft={self.ft}, "
                f"n_samples={self.n_samples}"
            )
        if self.max_concepts is not None and self.max_concepts < 1:
            raise ConfigError("max_concepts must be >= 1 or unbounded (None)")
        if self.oracle != "llm" and not self.oracle.startswith("mock:"):
            raise ConfigError(
                f"oracle must be 'llm' or 'mock:<fixture path>', got {self.oracle!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CrawlConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "seed_name" not in data:
            raise ConfigError("config needs a seed_name")
        cfg = cls(**data)
        cfg.validate()
        cfg.params = dict(cfg.params)
        return cfg


@dataclass
class CrawlStats:
    """Final run summary (rendered by the export module)."""

    seed: str
    exploration_depth: int | None
    ft: int
    n_concepts: int
    n_dismissed: int
    n_subsumptions: int
    n_subsumptions_insertion: int
    prompts_per_concept: float
    cost_dollars: float
    concepts_at_or_below_cutoff: int
    concepts_above_cutoff: int
    depth_histogram: dict[int, int]
    outdegree_histogram: dict[int, int]
    max_outdegree: int
    avg_outdegree: float


def explore(
    oracle: KnowledgeOracle, ctx: OracleContext, c_name: str, ft: int, n_samples: int
) -> tuple[list[str], OracleContext]:
    """The chain that opens a step on ``c_name``, asked in ``ctx``: the
    existence question, the listing, its names deduplicated by normalized
    name (the first surface form kept), and their descriptions.

    Returns the names and the listing context: ``c_name`` as the parent,
    ``ctx``'s stored descriptions, and the listing text ``describe`` gave,
    which its own prompt was rendered without.  No names, no description
    request."""
    if not oracle.has_subconcepts(ctx, c_name):
        return [], ctx
    seen: set[str] = set()
    names: list[str] = []
    for cand in oracle.list_subconcepts(ctx, c_name, ft, n_samples):
        cand = cand.strip()
        key = normalize_name(cand)
        if key and key not in seen:
            seen.add(key)
            names.append(cand)
    if not names:
        return [], ctx
    descriptions: dict[str, str] = {}
    listing = OracleContext(ctx.seed_name, c_name, descriptions, known=ctx.known)
    descriptions.update(oracle.describe(listing, names))
    return names, listing


def _prefetch(
    oracle: KnowledgeOracle, ctx: OracleContext, c_name: str, ft: int, n_samples: int
) -> None:
    """``explore`` for the replies alone: the result and any exception are dropped."""
    try:
        explore(oracle, ctx, c_name, ft, n_samples)
    except Exception:  # the step asks again for itself
        logger.debug("prefetch of %r dropped", c_name, exc_info=True)


class Crawler:
    """Drives one crawl; checkpointable after every exploration step.  It owns
    the run's ledger and query log: those given, else the oracle's, else a new
    ledger and no log, and sets both on the oracle (``_bind_oracle``)."""

    def __init__(
        self,
        config: CrawlConfig,
        oracle: KnowledgeOracle,
        *,
        query_log: QueryLog | None = None,
        ledger: CostLedger | None = None,
        checkpoint_path: str | Path | None = None,
        rejection_path: str | Path | None = None,
    ):
        config.validate()
        self.config = config
        self.oracle = oracle
        if ledger is None:
            ledger = getattr(oracle, "ledger", None)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.query_log = query_log if query_log is not None else getattr(oracle, "query_log", None)
        self._bind_oracle()
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.rejection_path = Path(rejection_path) if rejection_path else None
        self.hierarchy = ConceptHierarchy(config.seed_name)
        self.discovered_from: dict[int, str | None] = {self.hierarchy.seed_id: None}
        self.rejections: list[dict] = []
        self.explorations = 0
        self.probes_issued = 0
        self.probe_baseline = 0
        # Committed ``discovered_from`` entries and rejections; None before the base.
        self._committed_counts: tuple[int, int] | None = None
        # The lane's oracle and thread, and the ids handed to it; only inside run().
        self._lane: tuple[KnowledgeOracle, ThreadPoolExecutor, set[int]] | None = None

    def _bind_oracle(self) -> None:
        for name in ("ledger", "query_log"):
            if hasattr(self.oracle, name):
                setattr(self.oracle, name, getattr(self, name))

    # ------------------------------------------------------------------

    def _at_capacity(self) -> bool:
        cap = self.config.max_concepts
        return cap is not None and len(self.hierarchy) >= cap

    def step(self) -> bool:
        """Explore one frontier concept; False when the crawl is finished."""
        if self._at_capacity():
            return False
        cid = self.hierarchy.next_unexplored(self.config.exploration_depth)
        if cid is None:
            return False
        concept = self.hierarchy.concept(cid)
        c_name = concept.canonical_name
        if self.query_log is not None:
            self.query_log.record(op="explore", concept=c_name, depth=concept.depth)

        if self._lane is not None:
            self._prefetch_after(cid)

        ctx = OracleContext(
            self.config.seed_name,
            self.discovered_from.get(cid),
            known=self.hierarchy.description_of,
        )
        try:
            names, listing = explore(
                self.oracle, ctx, c_name, self.config.ft, self.config.n_samples
            )
            if names:
                self._process_candidates(cid, c_name, names, listing)
        except TransportError:
            self._commit()
            raise
        self.hierarchy.mark_explored(self.hierarchy.find_by_name(c_name))
        self.explorations += 1
        self._commit()
        return True

    def run(self) -> None:
        """Crawl to completion or abort resumably on an unrecoverable failure.

        Either way the checkpoint ends as one compacted snapshot; any other
        exception leaves the base and journal of the last committed step.
        The prefetch lane, if any, is stopped and joined before this returns
        or raises, so no request of this run is sent after it.
        """
        self._commit()
        stop = threading.Event()
        lane = getattr(self.oracle, "lane", None)
        view = lane(stop) if lane is not None and self.config.max_concepts is None else None
        if view is not None:
            pool = ThreadPoolExecutor(1, thread_name_prefix="ontocrawl-prefetch")
            self._lane = (view, pool, set())
        try:
            while self.step():
                pass
        except TransportError as exc:
            self._compact()
            path = str(self.checkpoint_path) if self.checkpoint_path else None
            raise CrawlAbortedError(
                f"crawl aborted by oracle failure: {exc}", checkpoint_path=path
            ) from exc
        finally:
            if view is not None:
                self._lane = None
                stop.set()
                pool.shutdown(cancel_futures=True)
        self._compact()

    # ------------------------------------------------------------------

    def _prefetch_after(self, cid: int) -> None:
        """Hand the lane each of the next ``PREFETCH_AHEAD`` frontier concepts
        after ``cid`` that it has not had, with a context that shows what
        the concept's step will show if nothing it reads changes first."""
        h, seed, (view, pool, handed) = self.hierarchy, self.config.seed_name, self._lane
        ahead = (other for other in h.frontier(self.config.exploration_depth) if other != cid)
        for other in itertools.islice(ahead, PREFETCH_AHEAD):
            if other in handed:
                continue
            handed.add(other)
            name = h.concept(other).canonical_name
            parent = self.discovered_from.get(other)
            shown = {n: h.description_of(n) for n in (seed, parent, name) if n is not None}
            ctx = OracleContext(seed, parent, known=shown.get)
            pool.submit(_prefetch, view, ctx, name, self.config.ft, self.config.n_samples)

    def _process_candidates(
        self, cid: int, c_name: str, names: list[str], ctx: OracleContext
    ) -> None:
        """Verify and place the deduplicated ``names`` of ``c_name``'s
        listing; ``ctx`` is the listing context ``explore`` returned."""
        # Warm the reply cache for the loop below, up to the capacity left.
        cap = self.config.max_concepts
        room = None if cap is None else cap - len(self.hierarchy)
        fresh = (n for n in names if self.hierarchy.find_by_name(n) is None)
        verify_ahead(self.oracle, ctx, itertools.islice(fresh, room), c_name)

        for cand in names:
            if self._at_capacity():
                return
            final_name = cand
            existing = self.hierarchy.find_by_name(cand)
            if existing is None:
                verdict = verify(self.oracle, ctx, cand, c_name)
                if not verdict.accepted:
                    self._reject(cand, c_name, verdict)
                    continue
                # A renamed candidate may name a concept we already have.
                final_name = verdict.new_name or cand
                existing = self.hierarchy.find_by_name(final_name)
            if existing is not None:
                insertion.record_rediscovery(
                    self.hierarchy, self.oracle, ctx, existing, cid
                )
                # A merge may fold ``c_name`` into an earlier concept: go on under it.
                cid = self.hierarchy.find_by_name(c_name)
                continue
            # Brute force would ask both directions against every concept.
            baseline = 2 * len(self.hierarchy)
            placement = insertion.insert(
                self.hierarchy,
                self.oracle,
                ctx,
                final_name,
                ctx.descriptions.get(cand) or None,
                cid,
            )
            self.probes_issued += placement.probes_issued
            self.probe_baseline += baseline
            if placement.concept_id is not None:
                self.discovered_from[placement.concept_id] = c_name

    def _reject(self, name: str, parent: str, verdict) -> None:
        record = {
            "name": name,
            "parent": parent,
            "reason": verdict.reason,
            "transcript": [[step, answer] for step, answer in verdict.transcript],
        }
        self.rejections.append(record)

    # ------------------------------------------------------------------
    # checkpointing

    def to_checkpoint_dict(self) -> dict:
        return {
            "version": CHECKPOINT_WRAPPER_VERSION,
            "config": self.config.to_dict(),
            "hierarchy": self.hierarchy.to_json_dict(),
            "frontier": [
                c.id for c in self.hierarchy.concepts() if not c.explored
            ],
            "discovered_from": {
                str(k): v for k, v in self.discovered_from.items()
            },
            "edge_origins": [
                [child, parent, self.hierarchy.edge_origin(child, parent)]
                for child, parent in self.hierarchy.direct_edges()
            ],
            "ledger": self.ledger.to_dict(),
            "counters": self._counters(),
            "rejections": self.rejections,
        }

    def _counters(self) -> dict:
        return {
            "explorations": self.explorations,
            "rejections": len(self.rejections),
            "probes_issued": self.probes_issued,
            "probe_baseline": self.probe_baseline,
        }

    def _commit(self) -> None:
        """Persist the current state: the base on the first commit, a journal
        line after that, and then the rejection file, whole at the base and
        its new tail after that, so that it never runs ahead of the
        checkpoint.  Without a checkpoint the change set is still drained so
        that it stays as small as one step's changes."""
        base = self._committed_counts is None
        if self.checkpoint_path is None:
            self.hierarchy.take_changes()
        elif base:
            data = self.to_checkpoint_dict()
            self.hierarchy.take_changes()  # the base holds them all
            digest = save_checkpoint(data, self.checkpoint_path)
            with journal_path(self.checkpoint_path).open("w", encoding="utf-8") as fh:
                fh.write(_jsonl({"base": digest}))
        else:
            with journal_path(self.checkpoint_path).open("a", encoding="utf-8") as fh:
                fh.write(_jsonl(self._journal_line()))
        if self.rejection_path is not None:
            if base:
                self.rejection_path.parent.mkdir(parents=True, exist_ok=True)
                self.rejection_path.write_text(
                    "".join(map(_jsonl, self.rejections)), encoding="utf-8"
                )
            elif tail := self.rejections[self._committed_counts[1]:]:
                with self.rejection_path.open("a", encoding="utf-8") as fh:
                    fh.write("".join(map(_jsonl, tail)))
        self._committed_counts = (len(self.discovered_from), len(self.rejections))

    def _journal_line(self) -> dict:
        """The records marked or added since the last commit, as they stand."""
        h = self.hierarchy
        ids, edges = h.take_changes()
        ids, edges = sorted(ids), sorted(edges)
        committed_from, committed_rejections = self._committed_counts
        # Entries are only ever added to ``discovered_from``, so the new ones
        # are its tail.
        fresh = len(self.discovered_from) - committed_from
        tail = itertools.islice(reversed(self.discovered_from.items()), fresh)
        return {
            "concepts": [h.concept_record(cid) for cid in ids if cid in h],
            "removed": [cid for cid in ids if cid not in h],
            "edges": [[c, p, h.edge_origin(c, p)] for c, p in edges if h.has_edge(c, p)],
            "dropped": [[c, p] for c, p in edges if not h.has_edge(c, p)],
            "discovered_from": {str(k): v for k, v in reversed(list(tail))},
            "rejections": self.rejections[committed_rejections:],
            "ledger": self.ledger.to_dict(),
            "counters": self._counters(),
        }

    def _compact(self) -> None:
        """Fold the journal into one full snapshot and remove it."""
        self._committed_counts = None
        if self.checkpoint_path is None:
            return
        save_checkpoint(self.to_checkpoint_dict(), self.checkpoint_path)
        journal_path(self.checkpoint_path).unlink(missing_ok=True)

    @classmethod
    def from_checkpoint(
        cls,
        data: dict | Checkpoint,
        oracle: KnowledgeOracle,
        *,
        query_log: QueryLog | None = None,
        checkpoint_path: str | Path | None = None,
        rejection_path: str | Path | None = None,
    ) -> "Crawler":
        """The crawler that continues checkpoint ``data``: a document, or the
        values ``parse_checkpoint`` read from one.  It bills the restored
        ledger, and so does the oracle."""
        checked = data if isinstance(data, Checkpoint) else parse_checkpoint(data)
        crawler = cls(
            checked.config,
            oracle,
            query_log=query_log,
            checkpoint_path=checkpoint_path,
            rejection_path=rejection_path,
        )
        vars(crawler).update(vars(checked))  # every field is a crawler attribute
        crawler._bind_oracle()
        return crawler


@dataclass
class Checkpoint:
    """The checked values of a checkpoint document (``parse_checkpoint``)."""

    config: CrawlConfig
    hierarchy: ConceptHierarchy
    discovered_from: dict[int, str | None]
    ledger: CostLedger
    rejections: list[dict]
    explorations: int
    probes_issued: int
    probe_baseline: int


_CHECKPOINT_FIELDS = ("version", "config", "hierarchy", "frontier", "discovered_from",
                      "edge_origins", "ledger", "counters", "rejections")
_COUNTERS = ("explorations", "rejections", "probes_issued", "probe_baseline")


def parse_checkpoint(data: dict) -> Checkpoint:
    """Read the checkpoint document ``data`` that ``load_checkpoint`` returns.
    It must be as ``Crawler.to_checkpoint_dict`` writes it: its fields, their
    types, the writer's order in every list, and each derived field equal to
    its source.  So it raises CheckpointError, or it saves back to itself."""
    version, config, hierarchy, frontier, discovered, origins, ledger, counters, rejections = (
        json_fields(data, "checkpoint", _CHECKPOINT_FIELDS)
    )
    if type(version) is not int or version != CHECKPOINT_WRAPPER_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    json_fields(config, "checkpoint config", tuple(f.name for f in fields(CrawlConfig)))
    try:
        config = CrawlConfig.from_dict(config)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config invalid: {exc}") from exc
    json_fields(ledger, "ledger", tuple(f.name for f in fields(CostLedger)))
    if type(rejections) is not list or not all(isinstance(r, dict) for r in rejections):
        raise CheckpointError("checkpoint rejections must be a list of objects")
    counts = json_fields(counters, "counters", _COUNTERS)
    if not all(map(_is_int, counts)) or counts[1] != len(rejections):
        raise CheckpointError(f"counters {counters} must be ints with {len(rejections)} rejections")
    if not isinstance(discovered, dict) or not all(
        type(k) is str and k.isdecimal() and str(int(k)) == k and (v is None or type(v) is str)
        for k, v in discovered.items()
    ):
        raise CheckpointError("discovered_from must map concept ids to names or null")
    h = ConceptHierarchy.from_json_dict(hierarchy)
    unexplored = [c.id for c in h.concepts() if not c.explored]
    if type(frontier) is not list or not all(map(_is_int, frontier)) or frontier != unexplored:
        raise CheckpointError("frontier disagrees with explored flags")
    edges = h.direct_edges()
    if type(origins) is not list or len(origins) != len(edges):
        raise CheckpointError("edge_origins must list the direct edges")
    for entry, (child, parent) in zip(origins, edges):
        if not (
            type(entry) is list and len(entry) == 3 and entry[0] == child and entry[1] == parent
            and type(entry[0]) is int and type(entry[1]) is int
            and (entry[2] is None or type(entry[2]) is str)
        ):
            raise CheckpointError(f"edge origin {entry!r} is not [{child}, {parent}, origin]")
        h.set_edge_origin(child, parent, entry[2])
    explorations, _, probes_issued, probe_baseline = counts
    # Every concept made keeps its discovered_from key after a merge: reuse no id.
    h._next_id = max([h._next_id - 1, *map(int, discovered)]) + 1
    return Checkpoint(config, h, {int(k): v for k, v in discovered.items()},
                      CostLedger.from_dict(ledger), list(rejections),
                      explorations, probes_issued, probe_baseline)


def _jsonl(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


def journal_path(path: str | Path) -> Path:
    """Where the journal of the checkpoint at ``path`` lives."""
    path = Path(path)
    return path.with_name(path.name + ".journal")


def _journal_index(data: dict) -> dict:
    """The parts of a checkpoint dict that journal lines change, keyed by id."""
    return {
        "concepts": {rec["id"]: rec for rec in data["hierarchy"]["concepts"]},
        "edges": {(c, p): origin for c, p, origin in data["edge_origins"]},
        "discovered_from": dict(data["discovered_from"]),
        "rejections": list(data["rejections"]),
        "ledger": data["ledger"],
        "counters": data["counters"],
    }


def _journal_apply(state: dict, line: dict) -> None:
    """Replay one line onto a journal index; it may remove keys the index lacks."""
    concepts, edges = state["concepts"], state["edges"]
    for rec in line["concepts"]:
        concepts[rec["id"]] = rec
    for cid in line["removed"]:
        concepts.pop(cid, None)
    for c, p, origin in line["edges"]:
        edges[(c, p)] = origin
    for c, p in line["dropped"]:
        edges.pop((c, p), None)
    state["discovered_from"].update(line["discovered_from"])
    state["rejections"].extend(line["rejections"])
    state["ledger"], state["counters"] = line["ledger"], line["counters"]


def _checkpoint_from_index(base: dict, state: dict) -> dict:
    """The checkpoint dict of ``state``, in the order ``to_checkpoint_dict`` uses."""
    concepts = state["concepts"]
    ids = sorted(concepts)
    edges = sorted(state["edges"].items())
    return {
        "version": base["version"],
        "config": base["config"],
        "hierarchy": {
            **base["hierarchy"],
            "concepts": [concepts[cid] for cid in ids],
            "direct_edges": [[c, p] for (c, p), _ in edges],
        },
        "frontier": [cid for cid in ids if not concepts[cid]["explored"]],
        "discovered_from": state["discovered_from"],
        "edge_origins": [[c, p, origin] for (c, p), origin in edges],
        "ledger": state["ledger"],
        "counters": {**state["counters"], "rejections": len(state["rejections"])},
        "rejections": state["rejections"],
    }


def _journal_lines(path: Path, base_digest: str) -> list[bytes]:
    """The committed delta lines of the journal at ``path`` that extend the
    base with SHA-256 ``base_digest``; none when it is missing or stale."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return []
    # The text after the last newline is empty or a torn, uncommitted line.
    lines = raw.split(b"\n")[:-1]
    if not lines:
        return []
    try:
        named = json.loads(lines[0])["base"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"journal {path} has a malformed header: {exc!r}") from exc
    if named != base_digest:
        logger.warning("ignoring journal %s: it extends a different base", path)
        return []
    return lines[1:]


def save_checkpoint(data: dict, path: str | Path) -> str:
    """Atomic write: temp file in the target directory, then rename.

    Returns the SHA-256 of the bytes written, which a journal names as its base.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(data, indent=2, ensure_ascii=False).encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(raw)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(raw).hexdigest()


def load_checkpoint(path: str | Path) -> dict:
    """The checkpoint document at ``path``, with its journal replayed onto it."""
    p = Path(path)
    if not p.exists():
        raise CheckpointError(f"checkpoint not found: {p}")
    raw = p.read_bytes()
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
    lines = _journal_lines(journal_path(p), hashlib.sha256(raw).hexdigest())
    if not lines:
        return data
    try:
        state = _journal_index(data)
        for number, line in enumerate(lines, start=2):
            try:
                _journal_apply(state, json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"journal line {number} is malformed: {exc!r}") from exc
        return _checkpoint_from_index(data, state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint base or journal is malformed: {exc!r}") from exc
