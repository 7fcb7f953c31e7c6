"""Placement of a verified concept into the hierarchy by enhanced traversal.

The top search walks downward from the seed to find the most specific
existing concepts subsuming the new one; a concept is only probed when all of
its direct parents already tested positive, so one failed test prunes the
whole cone below it.  The discovering edge and everything above it come for
free (imposed transitivity) and are never re-verified.  The bottom search is
symmetric and runs only inside the region below all found parents.  A concept
appearing on both sides is a synonym candidate and is resolved by an
interchangeability question, falling back to a direction question.  A probe
or interchangeability answer that is still unparseable after its retry reads
as no, and an unparseable direction keeps the top-search edge.

Both searches run on one scheduler, in rounds.  Each candidate keeps a count
of the neighbours it needs (its parents in the top search, its children in
the bottom search) that are not yet known to be positive.  A positive answer
decrements the counts of the candidates it unlocks, and a candidate whose
count reaches zero joins the next round; below a negative answer no count
ever reaches zero, which is the pruning.  So a round holds every probe whose
needs are met, one traversal level of the whole search, and none of its
probes depends on another's answer.  Each round is one call of the search's
probe function, which ``insert`` builds over the oracle and which counts the
probes: an oracle with ``map`` may send its questions concurrently, any other
oracle answers them one by one in id order.  The answers are applied in
id order on the calling thread, which alone reads and mutates the hierarchy.
The query-log records of each search carry its phase, set with
``oracle.tagged``, so ``insert`` needs no handle on the log.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Container, Mapping

from .errors import CycleError, OracleParseError
from .hierarchy import ConceptHierarchy, normalize_name
from .oracle import KnowledgeOracle, OracleContext, tagged

logger = logging.getLogger(__name__)

ORIGIN_LISTING = "listing"
ORIGIN_INSERTION = "insertion"


@dataclass
class Placement:
    """Result of inserting (or absorbing) one concept."""

    concept_id: int | None = None
    parents: set[int] = field(default_factory=set)
    children: set[int] = field(default_factory=set)
    synonym_of: int | None = None
    probes_issued: int = 0
    dropped_edges: list[tuple[str, str]] = field(default_factory=list)


def _yes(ask, *args) -> bool:
    """``ask(*args)``, with an answer still unparseable after its retry read as no."""
    try:
        return ask(*args)
    except OracleParseError as exc:
        logger.warning("%s; reading it as no", exc)
        return False


def _ask(oracle: KnowledgeOracle, questions: list[tuple]) -> list[bool]:
    """Answer each ``is_subcategory_of`` question, through ``map`` if the
    oracle has it, else one by one in order."""
    if hasattr(oracle, "map"):
        return oracle.map(lambda q: _yes(oracle.is_subcategory_of, *q), questions)
    return [_yes(oracle.is_subcategory_of, *q) for q in questions]


# The searches read the hierarchy's adjacency sets directly rather than
# through the copies ``direct_parents``/``direct_children`` return: they sit
# in the innermost loops and never mutate the hierarchy.


def _probe_rounds(
    status: dict[int, bool],
    ready: list[int],
    probe,
    needs: Mapping[int, set[int]],
    unlocks: Mapping[int, set[int]],
    within: Container[int],
) -> None:
    """Probe, round by round, every node of ``within`` whose needs all test
    positive, and record each answer in ``status``.

    ``needs`` maps a node to the neighbours that must be positive before it
    is probed (parents in the top search, children in the bottom search);
    ``unlocks`` is the reverse map.  ``status`` starts with the nodes known
    positive without a probe, and ``ready`` holds the nodes that need
    nothing.  Each node met keeps a count of its needs not yet known to be
    positive; a positive answer decrements the counts of the nodes it
    unlocks, and a node whose count reaches zero joins the next round.  A
    negative answer does nothing, so no node with a negative need is ever
    probed.  Each round is one call of ``probe`` with the ready ids in id
    order, whose answers are applied in that order.
    """
    waiting: dict[int, int] = {}
    positive = [x for x, pos in status.items() if pos]
    while True:
        for p in positive:
            for x in unlocks[p]:
                if x in status or x not in within:
                    continue
                if x not in waiting:
                    waiting[x] = len(needs[x])
                waiting[x] -= 1
                if not waiting[x]:
                    ready.append(x)
        if not ready:
            return
        batch, ready, positive = sorted(ready), [], []
        for x, answer in zip(batch, probe(batch)):
            status[x] = answer
            if answer:
                positive.append(x)


def top_search(
    h: ConceptHierarchy,
    probe,
    entry: int,
) -> set[int]:
    """Most specific existing concepts subsuming the new one.

    ``probe(cids)`` answers, in order, whether each concept in ``cids``
    subsumes the new one.  The seed, the discovering concept and all of its
    superconcepts are taken as subsumers without a query.
    """
    status: dict[int, bool] = {h.seed_id: True, entry: True}
    for a in h.ancestors(entry):
        status[a] = True
    _probe_rounds(status, [], probe, h._parents, h._children, h._concepts)
    return {
        x
        for x, pos in status.items()
        if pos and not any(status.get(k) for k in h._children[x])
    }


def bottom_search(
    h: ConceptHierarchy,
    probe,
    parents: set[int],
) -> set[int]:
    """Most general existing concepts below the new one.

    ``probe(cids)`` answers, in order, whether each concept in ``cids`` is
    below the new one.  Candidates are confined to the reflexive descendants
    of every found parent (anything else would contradict an accepted
    superconcept); the seed is never a candidate.  A concept is probed only
    once all of its direct children tested positive, mirroring the top
    search.  The region is closed downward, so no probe ever depends on a
    concept outside it.
    """
    region: set[int] | None = None
    for p in parents:
        cone = h._down[p] | {p}
        region = cone if region is None else (region & cone)
    region = (region or set()) - {h.seed_id}
    if not region:
        return set()

    status: dict[int, bool] = {}
    leaves = [x for x in region if not h._children[x]]
    _probe_rounds(status, leaves, probe, h._children, h._parents, region)
    return {
        x
        for x, pos in status.items()
        if pos and not any(status.get(p) for p in h._parents[x])
    }


def insert(
    h: ConceptHierarchy,
    oracle: KnowledgeOracle,
    ctx: OracleContext,
    name: str,
    description: str | None,
    entry: int,
) -> Placement:
    """Classify ``name`` against the hierarchy and wire it in.

    ``entry`` is the concept whose listing produced the name; the edge to it
    is trusted.  Every prompt of the insert reads stored descriptions from
    ``h``.  The query-log records of the two searches are tagged with
    ``phase`` "top" and "bottom".  Returns the placement, including the
    number of probes issued.
    """
    ctx = replace(ctx, known=h.description_of)
    placement = Placement()

    def probed(cids: list[int]) -> list[str]:
        placement.probes_issued += len(cids)
        return [h._concepts[cid].canonical_name for cid in cids]

    def probe_up(cids: list[int]) -> list[bool]:
        return _ask(oracle, [(ctx, name, o) for o in probed(cids)])

    def probe_down(cids: list[int]) -> list[bool]:
        return _ask(oracle, [(ctx, o, name) for o in probed(cids)])

    with tagged(phase="top"):
        parents = top_search(h, probe_up, entry)
    with tagged(phase="bottom"):
        children = bottom_search(h, probe_down, parents)

    for d in sorted(parents & children):
        d_name = h.concept(d).canonical_name
        if _yes(oracle.interchangeable, ctx, name, d_name):
            return _absorb(h, placement, name, description, d)
        try:
            sub, _sup = oracle.subcategory_direction(ctx, name, d_name)
        except OracleParseError:
            logger.warning(
                "direction between %r and %r unparseable; keeping the "
                "top-search edge",
                name,
                d_name,
            )
            children.discard(d)
            placement.dropped_edges.append((d_name, name))
            continue
        if normalize_name(sub) == normalize_name(d_name):
            parents.discard(d)
            placement.dropped_edges.append((name, d_name))
        else:
            children.discard(d)
            placement.dropped_edges.append((d_name, name))

    if not parents:
        # Pathological oracle answers removed every superconcept; the
        # discovering edge is the one assertion we never give up.
        parents = {entry}

    ordered = sorted(parents)
    first = entry if entry in parents else ordered[0]
    first_origin = ORIGIN_LISTING if first == entry else ORIGIN_INSERTION
    cid = h.add_concept(name, [first], description=description, origin=first_origin)
    for p in ordered:
        if p != first:
            h.add_subsumption(cid, p, origin=ORIGIN_INSERTION)
    for e in sorted(children):
        try:
            h.add_subsumption(e, cid, origin=ORIGIN_INSERTION)
        except CycleError as exc:
            child_name = h.concept(e).canonical_name
            logger.error(
                "dropping contradictory edge %r below %r: %s", child_name, name, exc
            )
            placement.dropped_edges.append((child_name, name))

    placement.concept_id = cid
    placement.parents = set(parents)
    placement.children = set(h.direct_children(cid))
    return placement


def _absorb(
    h: ConceptHierarchy,
    placement: Placement,
    name: str,
    description: str | None,
    target: int,
) -> Placement:
    """The new name denotes an existing concept: merge names, add no edge."""
    if h.find_by_name(name) != target:
        h.add_synonym_name(target, name)
    if description and not h.concept(target).description:
        h.set_description(target, description)
    # No parent edge is needed: the bottom search found target below every
    # parent the top search found, and those parents form an antichain, so
    # target is the only one.  No child edge is either: the bottom search ran
    # in target's cone and probed target only once every concept below it
    # tested positive, so target is the only child it found.
    placement.synonym_of = target
    return placement


def record_rediscovery(
    h: ConceptHierarchy,
    oracle: KnowledgeOracle,
    ctx: OracleContext,
    existing: int,
    entry: int,
) -> str:
    """A listing returned a name that already exists: assert existing <= entry.

    Returns one of "self", "edge_added", "implied", "merged", "dropped".
    Cycles escalate to synonym resolution; a refused merge keeps the earlier
    relation and drops the new edge.  A merge keeps the smaller id, so it
    may fold ``entry`` into ``existing``.
    """
    if existing == entry:
        return "self"
    try:
        changed = h.add_subsumption(existing, entry, origin=ORIGIN_LISTING)
        return "edge_added" if changed else "implied"
    except CycleError:
        e_name = h.concept(existing).canonical_name
        n_name = h.concept(entry).canonical_name
        if _yes(oracle.interchangeable, ctx, e_name, n_name):
            try:
                h.merge_synonyms(existing, entry)
                return "merged"
            except CycleError as exc:
                logger.error(
                    "synonym merge of %r and %r impossible: %s", e_name, n_name, exc
                )
                return "dropped"
        logger.warning(
            "dropping rediscovered edge %r under %r: contradicts existing order",
            e_name,
            n_name,
        )
        return "dropped"
