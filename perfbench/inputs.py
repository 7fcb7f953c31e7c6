"""Seeded ground-truth taxonomies for the crawl benchmark.

The shape of each taxonomy is fixed (``SHAPE_SEED``); the benchmark's
``--seed`` relabels its concepts with a seeded permutation of the names and
seeds the mock's noise model.  Crawls of the same shape do the same work
whatever the labels, because the crawler orders its work by discovery and
the fixture lists edges, descriptions and annotations in shape order, so
runs with different seeds are comparable.  A new shape per seed was tried:
at n=1600 oracle calls per concept ranged from 44.4 to 55.7 over five
seeds, wider than any bound a regression check could use.

The DAG generator follows the algorithm of ``tests/daggen.random_dag`` (max
outdegree 5, transitively reduced, child-first edges over ids 0..n-1 with 0
as the root).  It is kept here on purpose so that edits to the test helpers
cannot change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import random

# Workload -> (concept count, whether concepts carry instances and parts).
# README.md gives the reasons for each size.
WORKLOAD_INPUTS = {
    "cli-io": (400, False),
    "mock-large": (1600, True),
    "live-shaped": (200, False),
}

SHAPE_SEED = 1
MAX_OUTDEGREE = 5
# Every ANNOTATE_EVERY-th concept carries one instance and one part, which a
# wrong-relation noise model can offer as (false) subcategories.
ANNOTATE_EVERY = 4


def name_for(i: int) -> str:
    return f"Concept {i:03d}"


def random_dag(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Rooted DAG over 0..n-1, edges (child, parent), transitively reduced."""
    if n < 1:
        raise ValueError("a taxonomy needs at least its root")
    edges: list[tuple[int, int]] = []
    outdeg = [0] * n
    for child in range(1, n):
        open_parents = [p for p in range(child) if outdeg[p] < MAX_OUTDEGREE]
        k = min(len(open_parents), 1 + (rng.random() < 0.3) + (rng.random() < 0.1))
        for parent in rng.sample(open_parents, k):
            edges.append((child, parent))
            outdeg[parent] += 1
    return sorted(reduce_edges(edges))


def reduce_edges(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Drop (u, v) when v is also reachable through another parent of u."""
    parents: dict[int, set[int]] = {}
    for child, parent in edges:
        parents.setdefault(child, set()).add(parent)
        parents.setdefault(parent, set())
    up: dict[int, set[int]] = {}
    for node in sorted(parents):  # parents have smaller ids than children
        acc: set[int] = set()
        for p in parents[node]:
            acc |= {p} | up[p]
        up[node] = acc
    return {
        (child, parent)
        for child, parent in set(edges)
        if not any(parent in up[w] for w in parents[child] if w != parent)
    }


def fixture_for(edges: list[tuple[int, int]], labels: list[int], *, annotate: bool) -> dict:
    """Ground-truth fixture JSON; node i is named after ``labels[i]``.

    ``annotate`` gives every ANNOTATE_EVERY-th node an instance and a part.
    """
    n = len(labels)
    instances: dict[str, list[str]] = {}
    parts: dict[str, list[str]] = {}
    if annotate:
        for i in range(ANNOTATE_EVERY, n, ANNOTATE_EVERY):
            instances[name_for(labels[i])] = [f"Exemplar {labels[i]:03d}"]
            parts[name_for(labels[i])] = [f"Component {labels[i]:03d}"]
    return {
        "root": name_for(labels[0]),
        "edges": [[name_for(labels[c]), name_for(labels[p])] for c, p in edges],
        "synonyms": [],
        "descriptions": {
            name_for(labels[i]): f"Synthetic category number {labels[i]}." for i in range(n)
        },
        "instances": instances,
        "parts": parts,
    }


def write_fixture(path, seed: int, n: int, *, annotate: bool) -> dict:
    """Write the fixture for (seed, n) and return its provenance record.

    The record carries the seed, n and a SHA-256 of the written bytes, so a
    resized or re-seeded input is visible in every benchmark report.
    """
    edges = random_dag(random.Random(SHAPE_SEED), n)
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    data = json.dumps(fixture_for(edges, labels, annotate=annotate), indent=1).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return {
        "seed": seed,
        "shape_seed": SHAPE_SEED,
        "n": n,
        "annotated": annotate,
        "edges": len(edges),
        "fixture_sha256": hashlib.sha256(data).hexdigest(),
    }


def truth_edges(fixture: dict) -> set[tuple[str, str]]:
    """The ground-truth reduction as (child name, parent name) pairs."""
    return {(c, p) for c, p in fixture["edges"]}


def normalize(name: str) -> str:
    """Whitespace- and case-insensitive name key."""
    return " ".join(name.split()).casefold()


def truth_names(fixture: dict) -> set[str]:
    return {fixture["root"]} | {name for edge in fixture["edges"] for name in edge}
