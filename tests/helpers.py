"""Shared generators for randomized tests."""

import numpy as np

from rankreach import CSRMatrix, DirectedGraph, RankContext, RowStochasticMatrix


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_graph(rng, n, density=0.2, dangling_frac=0.0) -> DirectedGraph:
    """Random directed graph; a chosen fraction of nodes is forced dangling."""
    labels = tuple(str(i + 1) for i in range(n))
    mask = rng.random((n, n)) < density
    k = int(round(dangling_frac * n))
    if k:
        mask[rng.permutation(n)[:k], :] = False
    edges = frozenset((int(s), int(t)) for s, t in np.argwhere(mask))
    return DirectedGraph(labels=labels, edges=edges)


def random_context(rng, n, density=0.2, dangling_frac=0.3, alpha=0.85) -> RankContext:
    return RankContext.from_graph(
        random_graph(rng, n, density, dangling_frac), alpha=alpha
    )


def csr(dense) -> CSRMatrix:
    """The square matrix ``dense`` in CSR form."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return CSRMatrix.from_entries(dense.shape[0], rows, cols, dense[rows, cols])


def random_row_stochastic(rng, n) -> RowStochasticMatrix:
    w = -np.log(rng.random((n, n)))
    return RowStochasticMatrix(p=csr(w / w.sum(axis=1, keepdims=True)))


def preferential_graph(rng, n, links=4, reciprocity=0.3) -> DirectedGraph:
    """Hub-heavy graph by preferential attachment: node t links to up to
    ``links`` earlier nodes drawn by in-degree + 1, and each link is
    reciprocated with probability ``reciprocity``.  Such graphs put many
    witness rows of the competitor scan deep in the columns of X."""
    weight = np.zeros(n)
    edges = set()
    for t in range(n):
        weight[t] = 1.0
        for s in rng.choice(t, size=min(t, links), replace=False,
                            p=weight[:t] / weight[:t].sum() if t else None).tolist():
            edges.add((t, s))
            weight[s] += 1.0
            if rng.random() < reciprocity:
                edges.add((s, t))
                weight[t] += 1.0
    return DirectedGraph(labels=tuple(str(i + 1) for i in range(n)), edges=frozenset(edges))
