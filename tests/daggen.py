"""Random rooted DAGs and brute-force graph oracles for the test suite.

Everything here is deliberately naive (per-node BFS, quadratic reduction) so
it can serve as an independent oracle against the library's incremental
algorithms.  Edges are (child, parent) pairs over integer ids; id 0 is the
root and every node is reachable from it.
"""

from __future__ import annotations

import random


def name_for(i: int) -> str:
    return f"Concept {i:03d}"


def random_dag(
    rng: random.Random, n: int, max_outdegree: int = 5
) -> list[tuple[int, int]]:
    """Rooted DAG over 0..n-1, edges child-first, already transitively reduced."""
    assert n >= 1
    edges: list[tuple[int, int]] = []
    outdeg = [0] * n
    for child in range(1, n):
        open_parents = [p for p in range(child) if outdeg[p] < max_outdegree]
        assert open_parents, "outdegree budget exhausted"
        k = min(len(open_parents), 1 + (rng.random() < 0.3) + (rng.random() < 0.1))
        for parent in rng.sample(open_parents, k):
            edges.append((child, parent))
            outdeg[parent] += 1
    reduced = sorted(reduce_edges(edges))
    return reduced


def parents_map(edges: list[tuple[int, int]]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for child, parent in edges:
        out.setdefault(child, set()).add(parent)
        out.setdefault(parent, set())
    return out


def closure_up(edges: list[tuple[int, int]]) -> dict[int, set[int]]:
    """Strict ancestor sets by per-node BFS over the raw edge list."""
    parents = parents_map(edges)
    up: dict[int, set[int]] = {}
    for node in parents:
        seen: set[int] = set()
        queue = list(parents[node])
        while queue:
            x = queue.pop()
            if x in seen:
                continue
            seen.add(x)
            queue.extend(parents[x])
        up[node] = seen
    return up


def reduce_edges(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive reduction: drop (u, v) when v is reachable via another parent."""
    up = closure_up(edges)
    parents = parents_map(edges)
    kept: set[tuple[int, int]] = set()
    for child, parent in set(edges):
        others = [w for w in parents[child] if w != parent]
        if not any(parent in up[w] for w in others):
            kept.add((child, parent))
    return kept


def bfs_depths(edges: list[tuple[int, int]], root: int = 0) -> dict[int, int]:
    """Shortest edge distance from the root, walking parent -> child."""
    children: dict[int, list[int]] = {}
    nodes = {root}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)
        nodes.add(child)
        nodes.add(parent)
    depths = {root: 0}
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for x in frontier:
            for ch in children.get(x, ()):
                if ch not in depths:
                    depths[ch] = depths[x] + 1
                    nxt.append(ch)
        frontier = nxt
    return depths


def is_acyclic(nodes: set[int], edges: set[tuple[int, int]]) -> bool:
    up = closure_up(sorted(edges))
    return all(n not in up.get(n, set()) for n in nodes)


def to_fixture(edges: list[tuple[int, int]], *, annotate_every: int = 0) -> dict:
    """Ground-truth taxonomy JSON dict for a generated DAG.  With
    ``annotate_every`` k, every k-th node but the root gets one instance and
    one part, the pool a wrong-relation answer draws from."""
    ids = {0} | {i for e in edges for i in e}
    annotated = sorted(ids)[annotate_every::annotate_every] if annotate_every else []
    return {
        "root": name_for(0),
        "edges": [[name_for(c), name_for(p)] for c, p in sorted(edges)],
        "synonyms": [],
        "descriptions": {
            name_for(i): f"Synthetic category number {i}." for i in sorted(ids)
        },
        "instances": {name_for(i): [f"Exemplar {i:03d}"] for i in annotated},
        "parts": {name_for(i): [f"Component {i:03d}"] for i in annotated},
    }
