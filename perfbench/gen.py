"""Seeded graph generators for the benchmark.

Both generators write edge-list text with labels 1..n, so label k is node
index k - 1 after the package's numeric ordering.  Every node appears on
some line (an edge-list file cannot state an isolated node), and the bytes
depend only on the arguments.
"""

from __future__ import annotations

import numpy as np

# The workloads' graph shapes: uniform graphs have mean out-degree 8 and 10%
# dangling nodes; preferential attachment adds 4 links per node and
# reciprocates 30% of them.
MEAN_OUT = 8.0
DANGLING_FRAC = 0.1
PA_LINKS = 4
RECIPROCITY = 0.3
# Streams of the two generators, so one seed gives unrelated graphs.
UNIFORM_SALT, PA_SALT = 0, 1


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(salt,))))


def uniform_edges(n: int, seed: int, salt: int = UNIFORM_SALT) -> set[tuple[int, int]]:
    """Uniform random digraph without self-loops.

    ``round(DANGLING_FRAC * n)`` nodes get no out-links; every other node
    links to each other node with the same probability, so the mean
    out-degree over all nodes is ``MEAN_OUT``.  Nodes left without an
    out-link (when they should have one) or an in-link get one random edge.
    ``salt`` picks another stream for a second graph from the same seed.
    """
    rng = _rng(seed, salt)
    dangling = set(rng.permutation(n)[: round(DANGLING_FRAC * n)].tolist())
    linked = [s for s in range(n) if s not in dangling]
    p = MEAN_OUT * n / (len(linked) * (n - 1))
    edges = set()
    for s in linked:
        row = np.flatnonzero(rng.random(n) < p)
        row = row[row != s]
        if row.size == 0:
            row = np.array([(s + 1 + int(rng.integers(n - 1))) % n])
        edges.update((s, int(t)) for t in row)
    has_in = {t for _, t in edges}
    for t in range(n):
        if t not in has_in:
            s = t
            while s == t:
                s = linked[int(rng.integers(len(linked)))]
            edges.add((s, t))
    return edges


def preferential_edges(n: int, seed: int) -> set[tuple[int, int]]:
    """Hub-heavy digraph by preferential attachment.

    Node t links to ``min(t, PA_LINKS)`` distinct earlier nodes drawn with
    probability proportional to in-degree + 1; each such edge is
    reciprocated with probability ``RECIPROCITY``, so hubs link back and
    the graph has cycles.  Node 0 starts with no out-links.
    """
    rng = _rng(seed, PA_SALT)
    weight = np.zeros(n)
    edges = set()
    for t in range(n):
        weight[t] = 1.0
        k = min(t, PA_LINKS)
        if k:
            w = weight[:t]
            targets = rng.choice(t, size=k, replace=False, p=w / w.sum())
            for s in targets.tolist():
                edges.add((t, s))
                weight[s] += 1.0
                if rng.random() < RECIPROCITY:
                    edges.add((s, t))
                    weight[t] += 1.0
    return edges


def edge_list_text(edges: set[tuple[int, int]]) -> str:
    return "".join(f"{s + 1} {t + 1}\n" for s, t in sorted(edges))
