"""Breadth-first concept crawl: existence, listing, verification, insertion.

The frontier is the set of unexplored concepts above the depth cutoff,
visited shallowest-first with discovery order as the tiebreak.  Every listed
candidate is either recognized as an existing concept (rediscovery: a new
edge, no re-verification) or verified and classified into the hierarchy.  An
unrecoverable oracle failure aborts the run resumably.

Every exploration commits to the checkpoint.  The first commit writes the
full snapshot (the base); each later one appends one JSON line to a journal
beside it (``<checkpoint>.journal``) holding the delta from the previous
commit.  ``run()`` compacts the journal into the snapshot when it ends, so
the journal exists only mid-run; ``load_checkpoint`` replays a journal left
behind by an interrupted run onto its base.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import insertion
from .errors import CheckpointError, ConfigError, CrawlAbortedError, TransportError
from .hierarchy import ConceptHierarchy, normalize_name
from .llm_backend import CostLedger
from .oracle import KnowledgeOracle, OracleContext, QueryLog
from .verification import verify

logger = logging.getLogger(__name__)

CHECKPOINT_WRAPPER_VERSION = 1


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
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "seed_name" not in data:
            raise ConfigError("config needs a seed_name")
        cfg = cls(**data)
        cfg.params = dict(cfg.params)
        cfg.validate()
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


class Crawler:
    """Drives one crawl; checkpointable after every exploration step."""

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
        self.query_log = query_log
        self.ledger = ledger if ledger is not None else CostLedger()
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.rejection_path = Path(rejection_path) if rejection_path else None
        self.hierarchy = ConceptHierarchy(config.seed_name)
        self.discovered_from: dict[int, str | None] = {self.hierarchy.seed_id: None}
        self.rejections: list[dict] = []
        self.explorations = 0
        self.probes_issued = 0
        self.probe_baseline = 0
        # The journal index of the last commit; None until the base is written.
        self._committed: dict | None = None
        self._rewrite_rejection_file()

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

        explore_ctx = self._context(
            parent_name=self.discovered_from.get(cid),
            names=[self.config.seed_name, self.discovered_from.get(cid), c_name],
        )
        try:
            if self.oracle.has_subconcepts(explore_ctx, c_name):
                candidates = self.oracle.list_subconcepts(
                    explore_ctx, c_name, self.config.ft, self.config.n_samples
                )
                self._process_candidates(cid, c_name, candidates)
        except TransportError:
            self._commit()
            raise
        self.hierarchy.mark_explored(cid)
        self.explorations += 1
        self._commit()
        return True

    def run(self) -> None:
        """Crawl to completion or abort resumably on an unrecoverable failure.

        Either way the checkpoint ends as one compacted snapshot; any other
        exception leaves the base and journal of the last committed step.
        """
        try:
            while self.step():
                pass
        except TransportError as exc:
            self._compact()
            path = str(self.checkpoint_path) if self.checkpoint_path else None
            raise CrawlAbortedError(
                f"crawl aborted by oracle failure: {exc}", checkpoint_path=path
            ) from exc
        self._compact()

    # ------------------------------------------------------------------

    def _context(
        self, parent_name: str | None, names: list[str | None]
    ) -> OracleContext:
        descriptions: dict[str, str] = {}
        for name in names:
            if not name:
                continue
            cid = self.hierarchy.find_by_name(name)
            if cid is not None:
                desc = self.hierarchy.concept(cid).description
                if desc:
                    descriptions[name] = desc
        return OracleContext(
            seed_name=self.config.seed_name,
            parent_name=parent_name,
            descriptions=descriptions,
        )

    def _process_candidates(
        self, cid: int, c_name: str, candidates: list[str]
    ) -> None:
        # Dedupe by normalized name, keeping the first surface form.
        seen: set[str] = set()
        names: list[str] = []
        for cand in candidates:
            cand = cand.strip()
            key = normalize_name(cand)
            if not key or key in seen:
                continue
            seen.add(key)
            names.append(cand)
        if not names:
            return

        base_ctx = self._context(parent_name=c_name, names=[self.config.seed_name, c_name])
        descriptions = self.oracle.describe(base_ctx, names)

        for cand in names:
            if self._at_capacity():
                return
            existing = self.hierarchy.find_by_name(cand)
            if existing is not None:
                ctx = self._candidate_ctx(base_ctx, cand, descriptions)
                insertion.record_rediscovery(
                    self.hierarchy, self.oracle, ctx, existing, cid
                )
                continue
            ctx = self._candidate_ctx(base_ctx, cand, descriptions)
            verdict = verify(self.oracle, ctx, cand, c_name)
            if not verdict.accepted:
                self._reject(cand, c_name, verdict)
                continue
            final_name = verdict.new_name if verdict.new_name else cand
            existing = self.hierarchy.find_by_name(final_name)
            if existing is not None:
                insertion.record_rediscovery(
                    self.hierarchy, self.oracle, ctx, existing, cid
                )
                continue
            placement = insertion.insert(
                self.hierarchy,
                self.oracle,
                ctx,
                final_name,
                descriptions.get(cand) or None,
                cid,
                query_log=self.query_log,
            )
            self.probes_issued += placement.probes_issued
            self.probe_baseline += placement.probes_issued + placement.probes_saved
            if placement.concept_id is not None:
                self.discovered_from[placement.concept_id] = c_name

    def _candidate_ctx(
        self, base_ctx: OracleContext, cand: str, descriptions: dict[str, str]
    ) -> OracleContext:
        merged = dict(base_ctx.descriptions)
        if descriptions.get(cand):
            merged[cand] = descriptions[cand]
        return OracleContext(
            seed_name=base_ctx.seed_name,
            parent_name=base_ctx.parent_name,
            descriptions=merged,
        )

    def _reject(self, name: str, parent: str, verdict) -> None:
        record = {
            "name": name,
            "parent": parent,
            "reason": verdict.reason,
            "transcript": [[step, answer] for step, answer in verdict.transcript],
        }
        self.rejections.append(record)
        if self.rejection_path is not None:
            with self.rejection_path.open("a", encoding="utf-8") as fh:
                fh.write(_jsonl(record))

    def _rewrite_rejection_file(self) -> None:
        if self.rejection_path is not None:
            self.rejection_path.parent.mkdir(parents=True, exist_ok=True)
            self.rejection_path.write_text(
                "".join(_jsonl(r) for r in self.rejections), encoding="utf-8"
            )

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
            "counters": {
                "explorations": self.explorations,
                "rejections": len(self.rejections),
                "probes_issued": self.probes_issued,
                "probe_baseline": self.probe_baseline,
            },
            "rejections": self.rejections,
        }

    def _commit(self) -> None:
        """Persist the current state: the base on the first commit, a journal
        line holding the delta from the previous commit after that."""
        if self.checkpoint_path is None:
            return
        data = self.to_checkpoint_dict()
        state = _journal_index(data)
        journal = journal_path(self.checkpoint_path)
        if self._committed is None:
            digest = save_checkpoint(data, self.checkpoint_path)
            with journal.open("w", encoding="utf-8") as fh:
                fh.write(_jsonl({"base": digest}))
        else:
            with journal.open("a", encoding="utf-8") as fh:
                fh.write(_jsonl(_journal_delta(self._committed, state)))
        self._committed = state

    def _compact(self) -> None:
        """Fold the journal into one full snapshot and remove it."""
        if self.checkpoint_path is None:
            return
        save_checkpoint(self.to_checkpoint_dict(), self.checkpoint_path)
        journal_path(self.checkpoint_path).unlink(missing_ok=True)
        self._committed = None

    @classmethod
    def from_checkpoint(
        cls,
        data: dict,
        oracle: KnowledgeOracle,
        *,
        query_log: QueryLog | None = None,
        checkpoint_path: str | Path | None = None,
        rejection_path: str | Path | None = None,
    ) -> "Crawler":
        if not isinstance(data, dict) or data.get("version") != CHECKPOINT_WRAPPER_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {data.get('version')!r}"
                if isinstance(data, dict)
                else "checkpoint must be a JSON object"
            )
        try:
            config = CrawlConfig.from_dict(data["config"])
        except ConfigError as exc:
            raise CheckpointError(f"checkpoint config invalid: {exc}") from exc
        crawler = cls(
            config,
            oracle,
            query_log=query_log,
            ledger=CostLedger.from_dict(data.get("ledger", {})),
            checkpoint_path=checkpoint_path,
            rejection_path=rejection_path,
        )
        crawler.hierarchy = ConceptHierarchy.from_json_dict(data["hierarchy"])
        stored_frontier = set(data.get("frontier", []))
        actual_frontier = {
            c.id for c in crawler.hierarchy.concepts() if not c.explored
        }
        if stored_frontier != actual_frontier:
            raise CheckpointError("frontier disagrees with explored flags")
        crawler.discovered_from = {
            int(k): v for k, v in data.get("discovered_from", {}).items()
        }
        current_edges = set(crawler.hierarchy.direct_edges())
        for child, parent, origin in data.get("edge_origins", []):
            if (child, parent) in current_edges:
                crawler.hierarchy.set_edge_origin(child, parent, origin)
        counters = data.get("counters", {})
        crawler.explorations = int(counters.get("explorations", 0))
        crawler.probes_issued = int(counters.get("probes_issued", 0))
        crawler.probe_baseline = int(counters.get("probe_baseline", 0))
        crawler.rejections = list(data.get("rejections", []))
        crawler._rewrite_rejection_file()
        return crawler


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


def _journal_delta(prev: dict, cur: dict) -> dict:
    """The journal line that turns index ``prev`` into index ``cur``."""
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


def _journal_apply(state: dict, line: dict) -> None:
    concepts, edges = state["concepts"], state["edges"]
    for rec in line["concepts"]:
        concepts[rec["id"]] = rec
    for cid in line["removed"]:
        del concepts[cid]
    for c, p, origin in line["edges"]:
        edges[(c, p)] = origin
    for c, p in line["dropped"]:
        del edges[(c, p)]
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
    """The checkpoint dict at ``path``, with its journal replayed onto it."""
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
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint base is malformed: {exc!r}") from exc
    for number, line in enumerate(lines, start=2):
        try:
            _journal_apply(state, json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"journal line {number} is malformed: {exc!r}"
            ) from exc
    try:
        return _checkpoint_from_index(data, state)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"journal replay is malformed: {exc!r}") from exc
