"""Concept hierarchy: a rooted DAG of subsumptions with synonym classes.

The persistent representation is the transitive reduction (direct edges,
child -> parent).  The reflexive-transitive closure is derived state, kept
incrementally up to date on every edge addition so that subsumption queries
are O(1) set lookups.  Depth is the shortest edge distance from the seed in
the reduction, kept by one rule: the seed is at 0, and any other concept at 1
plus the least depth among its direct parents.  An edge addition applies it
only over the child and its descendants, in topological order: every edge it
adds or drops has its lower end there.  Depths can rise as well as fall,
because the new edge can make a shorter direct edge redundant and drop it.
One rule decides redundancy everywhere: an edge (u, v) is implied when
another parent of u reaches v, since the reduction of a DAG is unique (Aho,
Garey and Ullman, 1972).  Loads and synonym merges install a whole edge set
and derive its closure in one topological pass that refuses a cycle; a merge
then drops the implied edges and applies the depth rule over the seed and
its descendants, every concept.  A load takes the stored depths as they are
and refuses the document on a cycle, an implied edge, a concept other than
the seed without a parent, a depth the rule does not give, or an empty or
repeated name: the checks of ``verify_integrity`` but its closure and
name-index comparisons, which on a load would compare a derivation with
itself.  One concept may carry several names (a canonical name plus
synonyms); name lookups are whitespace- and case-insensitive.

``topological_order`` (Kahn, 1962) is the package's one topological sort:
the closure derivation, the depth recompute after each edge addition and the
ancestor sets of ``oracle.GroundTruthTaxonomy`` all walk its order.

Every mutation marks what it touched in a change set: the concept ids whose
record (``concept_record``) may differ, and the direct edges that may have
appeared, vanished or changed origin.  A marked record or edge need not have
changed, but every change is marked; only a depth recompute filters, marking
just the depths that moved.  ``take_changes`` hands the set to its one
consumer, the crawler, and clears it.  The crawler drains it after every
exploration, into the checkpoint journal when it keeps one, so the set holds
one step's changes.

Not thread safe: one writer at a time, readers must not overlap mutations.
"""

from __future__ import annotations

import gc
import heapq
import json
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    CheckpointError,
    CycleError,
    IntegrityError,
    InvalidInputError,
    NotFoundError,
)

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1
_DOC_FIELDS = ("version", "seed", "concepts", "direct_edges")
_RECORD_FIELDS = ("id", "canonical_name", "synonyms", "description", "explored", "depth")


def json_fields(value, what: str, keys: tuple[str, ...]) -> list:
    """The values of ``keys`` in ``value``; CheckpointError unless ``value``
    is a JSON object with exactly those fields."""
    try:
        if isinstance(value, dict) and len(value) == len(keys):
            return [value[k] for k in keys]
    except KeyError:
        pass
    raise CheckpointError(f"{what} must be a JSON object with the fields {', '.join(keys)}")


def normalize_name(name: str) -> str:
    """Collapse whitespace runs and case-fold; the key used for name equality."""
    return " ".join(name.split()).casefold()


def topological_order(nodes, parents, children) -> list:
    """``nodes`` parents first, by Kahn's algorithm counting only the parents
    among them.  ``nodes`` is a set or keys view that holds every child of
    its members; ``parents`` and ``children`` map each node to a set of
    neighbours.  Raises IntegrityError when a cycle leaves some unordered."""
    waiting = {x: len(parents[x] & nodes) for x in nodes}
    order = [x for x, n in waiting.items() if not n]
    for x in order:  # grows while it is walked
        for ch in children[x]:
            waiting[ch] -= 1
            if not waiting[ch]:
                order.append(ch)
    if len(order) < len(waiting):
        raise IntegrityError("the direct edges contain a cycle")
    return order


def reach_along(order, step) -> dict:
    """The strict closure of ``step`` (node -> set of neighbours) for every
    node of ``order``, which lists each node after all its neighbours."""
    reach: dict = {}
    for x in order:
        reach[x] = r = step[x].copy()
        for y in step[x]:
            r |= reach[y]
    return reach


@dataclass
class Concept:
    """One node of the hierarchy.  ``canonical_name`` keeps its original casing."""

    id: int
    canonical_name: str
    synonym_names: set[str] = field(default_factory=set)
    description: str | None = None
    explored: bool = False
    depth: int = 0

    def all_names(self) -> list[str]:
        return [self.canonical_name, *sorted(self.synonym_names)]


class ConceptHierarchy:
    """Rooted DAG of concepts ordered by subsumption (child below parent)."""

    def __init__(self, seed_name: str):
        if not isinstance(seed_name, str) or not seed_name.strip():
            raise InvalidInputError("seed name must be a non-empty string")
        self._concepts: dict[int, Concept] = {}
        self._parents: dict[int, set[int]] = {}
        self._children: dict[int, set[int]] = {}
        # Strict closure sets: _up[c] = all d != c with c below d.
        self._up: dict[int, set[int]] = {}
        self._down: dict[int, set[int]] = {}
        self._edge_origin: dict[tuple[int, int], str | None] = {}
        self._names: dict[str, int] = {}
        self._changed_ids: set[int] = set()
        self._changed_edges: set[tuple[int, int]] = set()
        # Lazy (depth, id) heap of the frontier: an entry is pushed whenever a
        # concept appears or its depth moves, and entries of explored,
        # removed or since-moved concepts are skipped when they surface.
        self._frontier: list[tuple[int, int]] = []
        self._next_id = 0
        self.seed_id = self._register(seed_name, description=None)

    # ------------------------------------------------------------------
    # basic access

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, cid: int) -> bool:
        return cid in self._concepts

    def ids(self) -> list[int]:
        return sorted(self._concepts)

    def concepts(self) -> Iterator[Concept]:
        for cid in sorted(self._concepts):
            yield self._concepts[cid]

    def concept(self, cid: int) -> Concept:
        self._require(cid)
        return self._concepts[cid]

    def find_by_name(self, name: str) -> int | None:
        return self._names.get(normalize_name(name))

    def description_of(self, name: str) -> str | None:
        """The stored description of the concept named ``name``, or None."""
        cid = self._names.get(normalize_name(name))
        return None if cid is None else self._concepts[cid].description

    def direct_parents(self, cid: int) -> set[int]:
        self._require(cid)
        return set(self._parents[cid])

    def direct_children(self, cid: int) -> set[int]:
        self._require(cid)
        return set(self._children[cid])

    def ancestors(self, cid: int) -> set[int]:
        """All strict superconcepts in the closure."""
        self._require(cid)
        return set(self._up[cid])

    def descendants(self, cid: int) -> set[int]:
        """All strict subconcepts in the closure."""
        self._require(cid)
        return set(self._down[cid])

    def direct_edges(self) -> list[tuple[int, int]]:
        """All reduction edges as (child, parent), sorted."""
        return sorted(self._edge_origin)

    def has_edge(self, child: int, parent: int) -> bool:
        """Is (child, parent) a direct edge of the reduction?"""
        return (child, parent) in self._edge_origin

    def edge_origin(self, child: int, parent: int) -> str | None:
        return self._edge_origin.get((child, parent))

    def set_edge_origin(self, child: int, parent: int, origin: str | None) -> None:
        if (child, parent) not in self._edge_origin:
            raise NotFoundError(f"no direct edge {(child, parent)}")
        self._edge_origin[(child, parent)] = origin
        self._changed_edges.add((child, parent))

    def is_subsumed(self, c: int, d: int) -> bool:
        """Reflexive closure query: is c at or below d?"""
        self._require(c)
        self._require(d)
        return c == d or d in self._up[c]

    def depth_of(self, cid: int) -> int:
        self._require(cid)
        return self._concepts[cid].depth

    # ------------------------------------------------------------------
    # mutation

    def add_concept(
        self,
        name: str,
        parents: Iterable[int],
        *,
        description: str | None = None,
        origin: str | None = None,
    ) -> int:
        """Create a concept attached below every id in ``parents`` (at least one)."""
        parents = list(parents)
        if not parents:
            raise InvalidInputError("a new concept needs at least one parent")
        for p in parents:
            self._require(p)
        cid = self._register(name, description)
        # A fresh node has nothing below it, so no parent edge closes a cycle.
        for p in parents:
            self.add_subsumption(cid, p, origin=origin)
        return cid

    def add_synonym_name(self, cid: int, name: str) -> None:
        """Attach an extra surface name to an existing concept."""
        self._require(cid)
        key = self._check_new_name(name)
        self._concepts[cid].synonym_names.add(name.strip())
        self._names[key] = cid
        self._changed_ids.add(cid)

    def set_description(self, cid: int, description: str | None) -> None:
        self._require(cid)
        self._concepts[cid].description = description
        self._changed_ids.add(cid)

    def add_subsumption(self, child: int, parent: int, *, origin: str | None = None) -> bool:
        """Assert child below parent.

        Returns True when the reduction changed, False when the edge was already
        implied by the closure (absorbed).  Raises CycleError (with the offending
        path) when the opposite relation already holds.
        """
        self._require(child)
        self._require(parent)
        if child == parent:
            raise CycleError(
                f"self-subsumption of {self._concepts[child].canonical_name!r}",
                path=[child, child],
            )
        if child in self._up[parent]:
            path = self._reduction_path(parent, child)
            names = " < ".join(self._concepts[i].canonical_name for i in path)
            raise CycleError(f"edge would close a cycle: {names}", path=path)
        if parent in self._up[child]:
            return False

        self._parents[child].add(parent)
        self._children[parent].add(child)
        self._edge_origin[(child, parent)] = origin
        self._changed_edges.add((child, parent))

        gained_up = {parent} | self._up[parent]
        for x in (child, *self._down[child]):
            self._up[x] |= gained_up
        gained_down = {child} | self._down[child]
        for y in (parent, *self._up[parent]):
            self._down[y] |= gained_down

        # The new edge may make previously direct edges redundant; only edges
        # from the child's cone up into the parent's cone can be affected.  The
        # new edge itself is not implied: parent was not above child before.
        low = {child} | self._down[child]
        high = {parent} | self._up[parent]
        redundant = sorted(
            (u, v) for u in low for v in self._parents[u] & high if self._implied(u, v)
        )
        for u, v in redundant:
            self._drop_edge(u, v)
        self._recompute_cone_depths(child)
        return True

    def merge_synonyms(self, a: int, b: int) -> int:
        """Collapse two concepts that denote the same thing.

        The earlier-discovered id survives; names, descriptions and edges are
        unioned, the reduction re-minimized, depths recomputed.  Raises
        CycleError, before changing anything, when the union would create a
        cycle among the remaining concepts (the pair is then not a pure
        synonym).  That happens exactly when one is a strict ancestor of the
        other through a path of two or more edges; a direct edge between them
        is the only path, since the reduction of a DAG is unique, and merely
        folds away.
        """
        self._require(a)
        self._require(b)
        if a == b:
            raise InvalidInputError("cannot merge a concept with itself")
        for low, high in ((a, b), (b, a)):
            if high in self._up[low] and (low, high) not in self._edge_origin:
                cycle = self._reduction_path(low, high) + [low]
                names = " < ".join(self._concepts[i].canonical_name for i in cycle)
                raise CycleError(f"merge would close a cycle: {names}", path=cycle)
        survivor, loser = (a, b) if a < b else (b, a)

        merged_edges: dict[tuple[int, int], str | None] = {}
        for (u, v), org in self._edge_origin.items():
            u2 = survivor if u == loser else u
            v2 = survivor if v == loser else v
            if u2 == v2:
                continue
            if (u2, v2) in merged_edges and merged_edges[(u2, v2)] is not None:
                continue
            merged_edges[(u2, v2)] = org

        s, l = self._concepts[survivor], self._concepts[loser]
        s.synonym_names |= {l.canonical_name} | l.synonym_names
        s.description = s.description or l.description
        s.explored = s.explored or l.explored
        for key, cid in list(self._names.items()):
            if cid == loser:
                self._names[key] = survivor
        del self._concepts[loser]
        self._changed_ids.add(loser)

        self._rebuild_from_edges(merged_edges)
        return survivor

    def mark_explored(self, cid: int) -> None:
        self._require(cid)
        self._concepts[cid].explored = True
        self._changed_ids.add(cid)

    def next_unexplored(self, exploration_depth: int | None = None) -> int | None:
        """Breadth-first frontier choice: shallowest unexplored concept strictly
        above the cutoff, ties broken by discovery order."""
        heap = self._frontier
        while heap:
            depth, cid = heap[0]
            c = self._concepts.get(cid)
            if c is None or c.explored or c.depth != depth:
                heapq.heappop(heap)
            elif exploration_depth is not None and depth >= exploration_depth:
                return None
            else:
                return cid
        return None

    def frontier(self, exploration_depth: int | None = None) -> Iterator[int]:
        """The unexplored concepts strictly above the cutoff, in the order
        ``next_unexplored`` picks them while the hierarchy does not change."""
        seen: set[int] = set()
        for depth, cid in sorted(self._frontier):
            if exploration_depth is not None and depth >= exploration_depth:
                return
            c = self._concepts.get(cid)
            if c is not None and not c.explored and c.depth == depth and cid not in seen:
                seen.add(cid)
                yield cid

    def take_changes(self) -> tuple[set[int], set[tuple[int, int]]]:
        """The concept ids and direct edges marked since the last call, which
        clears them.  An id or edge may since have been removed."""
        changes = self._changed_ids, self._changed_edges
        self._changed_ids, self._changed_edges = set(), set()
        return changes

    # ------------------------------------------------------------------
    # serialization

    def concept_record(self, cid: int) -> dict:
        """The serialized form of one concept, as ``to_json_dict`` lists it."""
        c = self.concept(cid)
        return {
            "id": c.id,
            "canonical_name": c.canonical_name,
            "synonyms": sorted(c.synonym_names),
            "description": c.description,
            "explored": c.explored,
            "depth": c.depth,
        }

    def to_json_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "seed": self.seed_id,
            "concepts": [self.concept_record(cid) for cid in self.ids()],
            "direct_edges": [list(e) for e in self.direct_edges()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConceptHierarchy":
        """Load a hierarchy document as ``to_json_dict`` writes it (its fields,
        their types, concepts by increasing id, synonyms and edges sorted), so
        that it saves back to itself, or raise CheckpointError.  Records are
        taken as stored and checked as the module docstring says.  The cyclic
        garbage collector is paused for the load, whose many new containers
        would set it off again and again, then left as the caller had it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(data)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _load(cls, data: dict) -> "ConceptHierarchy":
        version, seed, concepts, edges = json_fields(data, "hierarchy document", _DOC_FIELDS)
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported hierarchy version {version!r}")
        if type(concepts) is not list or not concepts or type(edges) is not list:
            raise CheckpointError("a hierarchy needs a list of concepts and one of edges")
        try:
            h = cls(concepts[0]["canonical_name"])
            h._concepts, h._names, h._next_id = {}, {}, 0
            for rec in concepts:
                cid, name, synonyms, description, explored, depth = json_fields(
                    rec, "concept record", _RECORD_FIELDS
                )
                if not (
                    type(cid) is int and cid >= h._next_id and type(depth) is int
                    and type(explored) is bool and type(synonyms) is list
                    and synonyms == sorted(synonyms)
                    and (description is None or type(description) is str)
                ):
                    raise CheckpointError(f"malformed concept record {rec!r}")
                h._next_id = cid + 1
                h._concepts[cid] = Concept(
                    cid, name, set(synonyms), description, explored, depth
                )
                for label in (name, *synonyms):
                    key = normalize_name(label)
                    if not key or key in h._names:
                        raise CheckpointError(f"duplicate or empty name {label!r}")
                    h._names[key] = cid
            if type(seed) is not int or seed != concepts[0]["id"]:
                raise CheckpointError("seed must be the earliest concept")
            h.seed_id = seed
            stored: dict[tuple[int, int], str | None] = {}
            for pair in edges:
                child, parent = pair
                if type(child) is not int or type(parent) is not int:
                    raise CheckpointError(f"edge {pair!r}: endpoints must be ints")
                if child not in h._concepts or parent not in h._concepts:
                    raise CheckpointError(f"edge {pair} references unknown concept")
                stored[(child, parent)] = None
        except (AttributeError, InvalidInputError, LookupError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed hierarchy record: {exc!r}") from None
        try:
            h._install_edges(stored)
            h._verify_records()
        except IntegrityError as exc:
            raise CheckpointError(f"hierarchy document is not a valid DAG: {exc}") from exc
        if len(stored) < len(edges) or list(stored) != sorted(stored):
            raise CheckpointError("direct edges must be sorted and distinct")
        h._reset_frontier()
        h._changed_ids, h._changed_edges = set(h._concepts), set(h._edge_origin)
        return h

    @classmethod
    def from_json(cls, text: str) -> "ConceptHierarchy":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"hierarchy document is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    # ------------------------------------------------------------------
    # integrity (a debug aid: a fresh derivation, compared to live state)

    def verify_integrity(self) -> None:
        up, down = self._closure()
        if up != self._up or down != self._down:
            raise IntegrityError("closure disagrees with its topological derivation")
        self._verify_records()
        concepts = self._concepts.items()
        names = {normalize_name(n): cid for cid, c in concepts for n in c.all_names()}
        if names != self._names:
            raise IntegrityError("name index disagrees with the concepts' names")

    def _verify_records(self) -> None:
        """Refuse an implied edge, a parentless concept other than the seed or
        a depth the depth rule does not give, given an acyclic closure derived
        from the current edges.  The one structural check of a load."""
        for u, v in self._edge_origin:
            if self._implied(u, v):
                raise IntegrityError(f"direct edge {(u, v)} is implied by other edges")
        for cid, c in self._concepts.items():
            if cid != self.seed_id and not self._parents[cid]:
                raise IntegrityError(f"concept {cid} is not below the seed")
            if c.depth != self._depth_from_parents(cid):
                raise IntegrityError(f"stored depth of {cid} is stale")

    # ------------------------------------------------------------------
    # internals

    def _register(self, name: str, description: str | None) -> int:
        key = self._check_new_name(name)
        cid = self._next_id
        self._next_id += 1
        self._concepts[cid] = Concept(
            id=cid, canonical_name=name.strip(), description=description
        )
        self._parents[cid] = set()
        self._children[cid] = set()
        self._up[cid] = set()
        self._down[cid] = set()
        self._names[key] = cid
        self._changed_ids.add(cid)
        heapq.heappush(self._frontier, (0, cid))
        return cid

    def _check_new_name(self, name: str) -> str:
        if not isinstance(name, str) or not name.strip():
            raise InvalidInputError("concept name must be a non-empty string")
        key = normalize_name(name)
        if key in self._names:
            raise InvalidInputError(f"name {name!r} already present")
        return key

    def _require(self, cid: int) -> None:
        if cid not in self._concepts:
            raise NotFoundError(f"no concept with id {cid!r}")

    def _implied(self, u: int, v: int) -> bool:
        """Does another parent of u already reach v, making the direct edge
        (u, v) redundant?  Exact given an acyclic closure, in which v does not
        reach itself."""
        return any(v in self._up[w] for w in self._parents[u])

    def _reduction_path(self, src: int, dst: int) -> list[int]:
        """Shortest upward path src -> dst over direct edges (both inclusive)."""
        prev: dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for p in self._parents[x]:
                if p not in prev:
                    prev[p] = x
                    queue.append(p)
        if dst not in prev:
            raise IntegrityError("expected path missing from reduction")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return list(reversed(path))

    def _drop_edge(self, u: int, v: int) -> None:
        self._parents[u].discard(v)
        self._children[v].discard(u)
        self._edge_origin.pop((u, v), None)
        self._changed_edges.add((u, v))

    def _closure(self) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
        """The strict closure of the direct edges, from one topological order:
        ``up`` built parents first, ``down`` children first.  Raises
        IntegrityError when a cycle leaves concepts unordered."""
        order = topological_order(self._parents.keys(), self._parents, self._children)
        up = reach_along(order, self._parents)
        return up, reach_along(reversed(order), self._children)

    def _depth_from_parents(self, cid: int) -> int:
        """1 plus the least stored depth among the direct parents of ``cid``;
        0 for a concept without parents, the seed."""
        parents = self._parents[cid]
        return 1 + min([self._concepts[p].depth for p in parents]) if parents else 0

    def _reset_frontier(self) -> None:
        self._frontier = [
            (c.depth, cid) for cid, c in self._concepts.items() if not c.explored
        ]
        heapq.heapify(self._frontier)

    def _recompute_cone_depths(self, top: int) -> None:
        """Recompute the depths of ``top`` and its descendants, parents first.

        Every edge added or dropped since depths were last correct has its
        child end inside this cone, so no depth outside it can have changed.
        Only ``top`` has all its parents outside the cone.
        """
        cone = self._down[top] | {top}
        for x in topological_order(cone, self._parents, self._children):
            depth = self._depth_from_parents(x)
            if self._concepts[x].depth != depth:
                self._concepts[x].depth = depth
                self._changed_ids.add(x)
                heapq.heappush(self._frontier, (depth, x))

    def _install_edges(self, edges: dict[tuple[int, int], str | None]) -> None:
        """Make ``edges`` (with their origins) the direct edges of the current
        concepts and derive their closure; IntegrityError on a cycle."""
        self._parents = {cid: set() for cid in self._concepts}
        self._children = {cid: set() for cid in self._concepts}
        self._edge_origin = dict(edges)
        for child, parent in edges:
            self._parents[child].add(parent)
            self._children[parent].add(child)
        self._up, self._down = self._closure()

    def _rebuild_from_edges(self, edges: dict[tuple[int, int], str | None]) -> None:
        """Replace the direct edges with the acyclic ``edges``, drop the ones
        that others imply, and recompute depths and the frontier."""
        self._changed_ids |= self._concepts.keys()
        self._changed_edges |= self._edge_origin.keys() | edges.keys()
        self._install_edges(edges)
        # Dropping an implied edge keeps the closure, so every edge can be
        # tested before the first drop.
        for u, v in [e for e in edges if self._implied(*e)]:
            self._drop_edge(u, v)
        self._recompute_cone_depths(self.seed_id)
        self._reset_frontier()
