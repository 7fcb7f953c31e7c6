"""Knowledge-oracle contract, the deterministic mock, and shared query logging.

The crawler talks to any object satisfying :class:`KnowledgeOracle`.  The mock
answers from a ground-truth taxonomy fixture, optionally perturbed by a seeded
noise model.  Every answer is derived from a private RNG keyed by the query
content, so identical queries get identical answers regardless of call order,
interleaving or process; that is what makes checkpoint/resume and concurrent
probing reproducible.  The taxonomy derives each synonym class's ancestors in
the order of ``hierarchy.topological_order``, the package's one topological
sort, and the same pass refuses a fixture cycle.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Protocol, runtime_checkable

from .errors import IntegrityError, InvalidInputError
from .hierarchy import normalize_name, reach_along, topological_order

logger = logging.getLogger(__name__)


def _nothing_stored(name: str) -> str | None:
    return None


@dataclass(frozen=True)
class OracleContext:
    """Ambient bindings for a query.

    ``seed_name`` is the crawl root.  ``parent_name`` is the superconcept the
    current concept (or candidate list) was discovered from; None at the seed.
    Prompt-based oracles attach a short description to each concept name
    they mention, for disambiguation, and ``description_of`` picks it by one
    rule: a stored concept shows its stored text, looked up through
    ``known`` (the crawler binds ``ConceptHierarchy.description_of``, read
    live); any other name, such as a candidate, shows the text filed under
    it in ``descriptions`` (its listing text).
    """

    seed_name: str
    parent_name: str | None = None
    descriptions: Mapping[str, str] = field(default_factory=dict)
    known: Callable[[str], str | None] = _nothing_stored

    def description_of(self, name: str) -> str | None:
        """The stored text of ``name``, else the first non-empty text filed
        under it in ``descriptions`` (compared normalized), else None."""
        text = self.known(name)
        if text:
            return text
        key = normalize_name(name)
        for cand, text in self.descriptions.items():
            if text and normalize_name(cand) == key:
                return text
        return None


@runtime_checkable
class KnowledgeOracle(Protocol):
    """Everything the crawl pipeline may ask about the domain.

    One optional hook answers independent calls concurrently: ``map(fn,
    items)``, ``[fn(x) for x in items]``, through which the crawler warms a
    listing's verification dialogues and insertion sends a round of probes.
    Without it, every question is asked one at a time.  A second optional
    hook, ``lane(stop)``, returns an oracle for the crawler's prefetch lane,
    or None for none: during ``Crawler.run`` of a crawl without a
    ``max_concepts`` cap, a second thread asks it the existence, listing and
    description questions of frontier concepts ahead of their steps, and
    sets the ``threading.Event`` ``stop`` when the run ends.  The oracle and
    its lane oracle must answer calls from both threads at once.

    An oracle may also have ``ledger`` and ``query_log`` attributes, a
    ``CostLedger`` it bills each answer to and a ``QueryLog`` it records each
    one in.  A ``Crawler`` sets both to the run's own, so a library caller
    passes each once, to the oracle or to the crawler.
    """

    def has_subconcepts(self, ctx: OracleContext, c: str) -> bool: ...

    def list_subconcepts(
        self, ctx: OracleContext, c: str, ft: int, n_samples: int
    ) -> list[str]: ...

    def describe(self, ctx: OracleContext, names: list[str]) -> dict[str, str]: ...

    def is_instance(self, ctx: OracleContext, d: str) -> bool: ...

    def is_part(self, ctx: OracleContext, d: str) -> bool: ...

    def under_seed(self, ctx: OracleContext, d: str) -> bool: ...

    def is_subcategory_of(self, ctx: OracleContext, d: str, c: str) -> bool: ...

    def rename_from_description(
        self, ctx: OracleContext, c: str, description: str
    ) -> str | None: ...

    def interchangeable(self, ctx: OracleContext, d1: str, d2: str) -> bool: ...

    def subcategory_direction(
        self, ctx: OracleContext, d1: str, d2: str
    ) -> tuple[str, str]: ...


# The query-log tags of the current context; replaced, never mutated.
_TAGS: ContextVar[dict] = ContextVar("ontocrawl_query_log_tags", default={})


@contextmanager
def tagged(**tags: object):
    """Add ``tags`` to every query-log record made inside the with-block
    (used to mark traversal phases), whichever log makes it.  The tags belong
    to the calling context, so a record made on another thread carries none
    of them, unless that thread runs a copy of the context, as the helpers of
    ``ChatCompletionOracle.map`` do."""
    token = _TAGS.set({**_TAGS.get(), **tags})
    try:
        yield
    finally:
        _TAGS.reset(token)


class QueryLog:
    """Append-only log of oracle exchanges shared by oracles and the crawler.

    Records are flat dicts; each one starts with the tags ``tagged`` has open
    in the recording context.  Appends are locked so concurrent probes
    interleave without corruption.  The records of one concurrent wave land
    in the order its requests complete, not in the order they were asked.

    ``QueryLog()`` keeps its records in memory, in ``records``.  With a
    ``path``, the file is the log: it is truncated and then held open for
    appending, line-buffered, so each record is in the file when ``record``
    returns, and no record is kept in memory (``records`` stays an empty
    list, so a caller that counts it reads 0).  ``close`` releases the file.
    """

    def __init__(self, path: str | Path | None = None):
        self.records: list[dict] = []
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("", encoding="utf-8")
            self._fh = self.path.open("a", encoding="utf-8", buffering=1)

    def record(self, **fields: object) -> None:
        rec = {**_TAGS.get(), **fields}
        if self._fh is None:
            with self._lock:
                self.records.append(rec)
            return
        line = json.dumps(rec, ensure_ascii=False) + "\n"
        with self._lock:
            self._fh.write(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


FIXTURE_FIELDS = ("root", "edges", "synonyms", "descriptions", "instances", "parts")


class GroundTruthTaxonomy:
    """A reference taxonomy the mock oracle answers from.

    Loaded from JSON ``{root, edges, synonyms, descriptions, instances,
    parts}`` with edges listed child-first.  Synonym pairs collapse names into
    classes; all lookups go through a normalized-name index.  A fixture is
    refused when its class edges contain a cycle, else when a class does not
    reach the root; the first such class in fixture order is named.
    """

    def __init__(
        self,
        root: str,
        edges: list[tuple[str, str]],
        synonyms: list[tuple[str, str]] | None = None,
        descriptions: dict[str, str] | None = None,
        instances: dict[str, list[str]] | None = None,
        parts: dict[str, list[str]] | None = None,
    ):
        if not root or not str(root).strip():
            raise InvalidInputError("fixture root must be a non-empty name")
        self.root = str(root).strip()
        self.edges = [(str(c).strip(), str(p).strip()) for c, p in edges]
        self.synonyms = [(str(a).strip(), str(b).strip()) for a, b in (synonyms or [])]
        self.descriptions = dict(descriptions or {})
        self.instances = {k: list(v) for k, v in (instances or {}).items()}
        self.parts = {k: list(v) for k, v in (parts or {}).items()}
        self._build()

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroundTruthTaxonomy":
        if not isinstance(data, dict):
            raise InvalidInputError("fixture must be a JSON object")
        unknown = set(data) - set(FIXTURE_FIELDS)
        if unknown:
            raise InvalidInputError(f"fixture has unknown fields: {sorted(unknown)}")
        if "root" not in data or "edges" not in data:
            raise InvalidInputError("fixture needs at least 'root' and 'edges'")
        return cls(
            root=data["root"],
            edges=[tuple(e) for e in data["edges"]],
            synonyms=[tuple(s) for s in data.get("synonyms", [])],
            descriptions=data.get("descriptions", {}),
            instances=data.get("instances", {}),
            parts=data.get("parts", {}),
        )

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruthTaxonomy":
        p = Path(path)
        if not p.exists():
            raise InvalidInputError(f"fixture file not found: {p}")
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"fixture {p} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    # -- derived state --------------------------------------------------

    def _build(self) -> None:
        # Union-find over normalized names for synonym classes.
        rep: dict[str, str] = {}

        def find(key: str) -> str:
            rep.setdefault(key, key)
            while rep[key] != key:
                rep[key] = rep[rep[key]]
                key = rep[key]
            return key

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                # Deterministic representative: lexicographically smaller key.
                lo, hi = sorted((ra, rb))
                rep[hi] = lo

        names: dict[str, str] = {}  # normalized -> first surface form

        def note(name: str) -> str:
            key = normalize_name(name)
            if not key:
                raise InvalidInputError("fixture contains an empty concept name")
            names.setdefault(key, name)
            find(key)
            return key

        note(self.root)
        for child, parent in self.edges:
            note(child)
            note(parent)
        for a, b in self.synonyms:
            union(note(a), note(b))

        self._surface = names
        self._class_of = {key: find(key) for key in names}
        self._root_key = self._class_of[normalize_name(self.root)]

        # Class keys in fixture order; edges within a class fold away.
        self._parents: dict[str, set[str]] = {k: set() for k in self._class_of.values()}
        below: dict[str, set[str]] = {k: set() for k in self._parents}
        self._children: dict[str, list[str]] = {}
        for child, parent in self.edges:
            ck = self._class_of[normalize_name(child)]
            pk = self._class_of[normalize_name(parent)]
            if ck == pk or ck in below[pk]:
                continue
            below[pk].add(ck)
            self._children.setdefault(pk, []).append(child)
            self._parents[ck].add(pk)
        try:
            order = topological_order(self._parents.keys(), self._parents, below)
        except IntegrityError:
            raise InvalidInputError("fixture edges contain a cycle") from None
        self._up = reach_along(order, self._parents)
        for key in self._parents:
            if key != self._root_key and self._root_key not in self._up[key]:
                raise InvalidInputError(
                    f"fixture concept {self._surface[key]!r} is not reachable "
                    f"from the root"
                )

        # First spelling in fixture order wins, as a scan of the table would.
        self._descriptions: dict[str, str] = {}
        for name, text in self.descriptions.items():
            self._descriptions.setdefault(normalize_name(name), text)
        self._annotations: dict[str, list[str]] = {}
        for table in (self.instances, self.parts):
            for concept, vals in table.items():
                self._annotations.setdefault(normalize_name(concept), []).extend(vals)

        self._instance_names = {
            normalize_name(n) for vals in self.instances.values() for n in vals
        }
        self._part_names = {
            normalize_name(n) for vals in self.parts.values() for n in vals
        }

    # -- queries ---------------------------------------------------------

    def class_key(self, name: str) -> str | None:
        return self._class_of.get(normalize_name(name))

    def has_name(self, name: str) -> bool:
        return self.class_key(name) is not None

    def children_of(self, name: str) -> list[str]:
        key = self.class_key(name)
        if key is None:
            return []
        return list(self._children.get(key, ()))

    def reaches(self, low: str, high: str) -> bool:
        """Reflexive: does ``low`` sit at or below ``high``?"""
        lk, hk = self.class_key(low), self.class_key(high)
        if lk is None or hk is None:
            return False
        return lk == hk or hk in self._up[lk]

    def same_class(self, a: str, b: str) -> bool:
        ka, kb = self.class_key(a), self.class_key(b)
        return ka is not None and ka == kb

    def description_for(self, name: str) -> str | None:
        return self._descriptions.get(normalize_name(name))

    def annotated_non_subcategories(self, name: str) -> list[str]:
        """Instance and part names recorded under ``name`` (listing pollution pool)."""
        return sorted(self._annotations.get(normalize_name(name), ()))

    def is_instance_name(self, name: str) -> bool:
        return normalize_name(name) in self._instance_names

    def is_part_name(self, name: str) -> bool:
        return normalize_name(name) in self._part_names


@dataclass(frozen=True)
class NoiseModel:
    """Seeded error injection for the mock oracle.

    Each probability enables one failure mode observed in generative models:
    hallucinated subsumptions, dropped children, instances or parts offered as
    subcategories, invented modifier concepts, and denial of relations that
    only hold transitively.
    """

    rng_seed: int = 0
    p_hallucinated_edge: float = 0.0
    p_missing_edge: float = 0.0
    p_wrong_relation: float = 0.0
    p_attribute_inflation: float = 0.0
    p_nontransitive_denial: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            p = getattr(self, f.name)
            if f.name.startswith("p_") and not 0.0 <= p <= 1.0:
                raise InvalidInputError(f"{f.name} must be within [0, 1], got {p}")


_INFLATION_PREFIXES = ("Specialized", "Traditional", "Modern", "Hybrid")


class MockOracle:
    """Answers oracle queries from a ground-truth taxonomy plus seeded noise.

    Determinism: every noisy decision draws from a fresh RNG seeded by
    (rng_seed, operation, arguments), so answer streams are byte-identical
    across runs and independent of query order.  Internal counters are locked;
    callers may probe concurrently.  Each answer bills one request to
    ``ledger`` and writes one record to ``query_log``, when set.
    """

    def __init__(
        self,
        taxonomy: GroundTruthTaxonomy,
        noise: NoiseModel | None = None,
        *,
        renames: Mapping[str, str] | None = None,
        query_log: QueryLog | None = None,
        ledger=None,
    ):
        self.taxonomy = taxonomy
        self.noise = noise or NoiseModel()
        self.renames = {k.strip(): v for k, v in (renames or {}).items()}
        self.query_log = query_log
        self.ledger = ledger

    # -- plumbing ---------------------------------------------------------

    def _rng(self, *key: object) -> random.Random:
        material = "\x1f".join([str(self.noise.rng_seed), *map(str, key)])
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _flip(self, p: float, *key: object) -> bool:
        return p > 0.0 and self._rng(*key).random() < p

    def _done(self, op: str, answer: object, **args: object) -> None:
        if self.ledger is not None:
            self.ledger.add()
        if self.query_log is not None:
            self.query_log.record(op=op, **args, answer=answer)

    # -- contract ----------------------------------------------------------

    def has_subconcepts(self, ctx: OracleContext, c: str) -> bool:
        answer = bool(self.taxonomy.children_of(c))
        self._done("has_subconcepts", answer, c=c)
        return answer

    def list_subconcepts(
        self, ctx: OracleContext, c: str, ft: int, n_samples: int
    ) -> list[str]:
        kids = self.taxonomy.children_of(c)
        out = [
            kid
            for kid in kids
            if not self._flip(self.noise.p_missing_edge, "missing", c, kid)
        ]
        if self._flip(self.noise.p_wrong_relation, "wrong_relation", c):
            pool = self.taxonomy.annotated_non_subcategories(c)
            if pool:
                out.append(self._rng("wrong_relation_pick", c).choice(pool))
        if self._flip(self.noise.p_attribute_inflation, "inflation", c):
            prefix = self._rng("inflation_pick", c).choice(_INFLATION_PREFIXES)
            out.append(f"{prefix} {c}")
        self._done("list_subconcepts", list(out), c=c, ft=ft, n_samples=n_samples)
        return out

    def describe(self, ctx: OracleContext, names: list[str]) -> dict[str, str]:
        result = {
            name: self.taxonomy.description_for(name)
            or f"A kind of {ctx.seed_name}."
            for name in names
        }
        self._done("describe", dict(result), names=list(names))
        return result

    def is_instance(self, ctx: OracleContext, d: str) -> bool:
        answer = self.taxonomy.is_instance_name(d)
        self._done("is_instance", answer, d=d)
        return answer

    def is_part(self, ctx: OracleContext, d: str) -> bool:
        answer = self.taxonomy.is_part_name(d)
        self._done("is_part", answer, d=d)
        return answer

    def under_seed(self, ctx: OracleContext, d: str) -> bool:
        answer = self.taxonomy.has_name(d) and self.taxonomy.reaches(
            d, ctx.seed_name
        )
        self._done("under_seed", answer, d=d)
        return answer

    def is_subcategory_of(self, ctx: OracleContext, d: str, c: str) -> bool:
        tax = self.taxonomy
        dk, ck = tax.class_key(d), tax.class_key(c)
        if dk is not None and dk == ck:
            answer = True  # synonyms subsume each other
        elif dk is not None and ck in tax._up[dk]:
            # True; a relation that holds only transitively may be denied.
            answer = ck in tax._parents.get(dk, ()) or not self._flip(
                self.noise.p_nontransitive_denial, "denial", d, c
            )
        else:
            answer = self._flip(self.noise.p_hallucinated_edge, "hallucination", d, c)
        self._done("is_subcategory_of", answer, d=d, c=c)
        return answer

    def rename_from_description(
        self, ctx: OracleContext, c: str, description: str
    ) -> str | None:
        answer = self.renames.get(description.strip())
        self._done("rename_from_description", answer, c=c, description=description)
        return answer

    def interchangeable(self, ctx: OracleContext, d1: str, d2: str) -> bool:
        answer = self.taxonomy.same_class(d1, d2)
        self._done("interchangeable", answer, d1=d1, d2=d2)
        return answer

    def subcategory_direction(
        self, ctx: OracleContext, d1: str, d2: str
    ) -> tuple[str, str]:
        if self.taxonomy.reaches(d1, d2):
            answer = (d1, d2)
        elif self.taxonomy.reaches(d2, d1):
            answer = (d2, d1)
        else:
            answer = (d1, d2)
        self._done("subcategory_direction", list(answer), d1=d1, d2=d2)
        return answer
