"""Small digraphs checked against exact X.

``exact_x`` is the suite's one exact oracle: X = (1 - alpha)(I - alpha
P_u)^{-1} in rational arithmetic, with a dangling distribution u that may
hold zeros.  ``mismatches`` runs graphs through the package at each u of
``distributions`` and each alpha of ``ALPHAS``, and lists every answer
that differs from the one exact X gives:

- X, and every node's column solved alone, within ``TOL`` of exact X;
- each node's lo and lo witness;
- the competitor scan's verdicts and witness rows;
- the leaders and their witness rows;
- each node's ``competitivity_interval`` hull within 2 ``TOL``, and the
  node's value under the personalization ``achieve_value`` returns for
  the midpoint of its exact interval, within the tolerance asked plus
  2 ``TOL``: both read off a column solved alone and off X's report.

A comparison against ``STRICT_MARGIN`` is skipped for a pair, and the
leaders for a whole case, when an exact gap lies within ``SKIP`` of the
margin, where X's error may decide it; so is a lo witness when a row lies
within 2 ``TOL`` of ``FLOAT_RESOLUTION`` above the column minimum.  The
hull and the achieved value compare no gap with a margin, and hold
whichever near-minimal row is the witness, so they skip no case.
``tests/test_exhaustive.py`` runs
every graph on at most 3 nodes and the isomorphism classes on 4 nodes;
``scripts/exhaustive_check.py`` runs every labelled graph on 1 to 4 nodes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from fractions import Fraction

import numpy as np

from rankreach import (
    DirectedGraph,
    RankContext,
    RankReachError,
    achieve_value,
    competitivity_interval,
    competitor_scan,
    leadership_group,
)
from rankreach.competition import STRICT_MARGIN
from rankreach.localization import FLOAT_RESOLUTION

ALPHAS = (0.3, 0.85, 0.99)
TOL = 1e-13
SKIP = 1e-12
# the concentration of the hull, as sc-interval's default, and the
# tolerance asked of achieve_value
EPSILON = 0.01
ACHIEVE_TOL = 1e-10


def exact_x(
    g: DirectedGraph, alpha: float, u: Sequence[float] | None = None
) -> list[list[Fraction]]:
    """X of graph g in rational arithmetic, by Gauss-Jordan elimination.

    alpha and u are taken at their exact binary values; u is uniform,
    1/n exactly, unless given, and may hold zeros: a dangling row of P_u
    is u."""
    n = g.n
    alpha = Fraction(alpha)
    u = [Fraction(1, n)] * n if u is None else [Fraction(float(x)) for x in u]
    targets = [[] for _ in range(n)]
    for s, t in g.edges:
        targets[s].append(t)
    a = [[Fraction(int(r == c)) for c in range(2 * n)] for r in range(n)]
    for r in range(n):
        row = {t: Fraction(1, len(targets[r])) for t in targets[r]} or dict(enumerate(u))
        for t, p in row.items():
            a[r][t] -= alpha * p
        a[r][n + r] = 1 - alpha
    for c in range(n):
        # I - alpha P_u is strictly diagonally dominant: no pivoting needed;
        # the zero entries, most of them, are left as they are
        pivot = a[c][c]
        a[c] = [entry / pivot if entry else entry for entry in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                factor = a[r][c]
                a[r] = [x - factor * y if y else x for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _graph(n: int, edges) -> DirectedGraph:
    return DirectedGraph(labels=tuple(map(str, range(n))), edges=frozenset(edges))


def _slots(n: int, loops: bool) -> list[tuple[int, int]]:
    return [(s, t) for s in range(n) for t in range(n) if loops or s != t]


def labelled_graphs(n: int, loops: bool) -> Iterator[DirectedGraph]:
    """Every digraph on the nodes 0, ..., n - 1, with self-loops or without."""
    slots = _slots(n, loops)
    for mask in range(2 ** len(slots)):
        yield _graph(n, (e for k, e in enumerate(slots) if mask >> k & 1))


def isomorphism_classes(n: int) -> list[DirectedGraph]:
    """One loop-free digraph on n nodes per isomorphism class: the one
    whose edge mask over ``_slots`` is least among its relabellings."""
    slots = _slots(n, False)
    masks = np.arange(2 ** len(slots))
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        moved = np.zeros_like(masks)
        for k, (s, t) in enumerate(slots):
            moved |= (masks >> k & 1) << slots.index((perm[s], perm[t]))
        np.minimum(least, moved, out=least)
    return [_graph(n, (e for k, e in enumerate(slots) if mask >> k & 1))
            for mask in np.flatnonzero(least == masks).tolist()]


def distributions(g: DirectedGraph) -> list[np.ndarray | None]:
    """The dangling distributions a graph runs at: uniform (None), zero on
    the dangling nodes, and all on node 0.  A graph without dangling nodes
    has the one P_u whatever u is, and one where every node dangles no u
    that is zero on them all."""
    dangling = np.ones(g.n, dtype=bool)
    dangling[[s for s, _ in g.edges]] = False
    if not dangling.any():
        return [None]
    on_node_0 = np.eye(g.n)[0]
    if dangling.all():
        return [None, on_node_0]
    kept = (~dangling) / np.count_nonzero(~dangling)
    return [None, kept, on_node_0]


def _first(flags: np.ndarray) -> int | None:
    return int(flags.argmax()) if flags.any() else None


def _node_mismatches(ctx: RankContext, ex: np.ndarray, i: int) -> list[str]:
    """What the context answers on node i's hull and achieved value that
    exact X does not; the rank of i under v is v @ ex[:, i]."""
    found = []
    w = EPSILON / (ctx.n - 1)
    family = (1.0 - EPSILON - w) * ex[:, i] + w * ex[:, i].sum()
    lo, hi = float(family.min()), float(family.max())
    sc = competitivity_interval(ctx, i, EPSILON)
    # each end is a convex mix of X's entries, off by at most TOL each
    if not max(abs(sc.lo - lo), abs(sc.hi - hi)) <= 2 * TOL:
        found.append(f"hull of {i} is [{sc.lo!r}, {sc.hi!r}], exactly [{lo!r}, {hi!r}]")
    target = float(0.5 * (ex[:, i].min() + ex[:, i].max()))
    result = achieve_value(ctx, i, target, ACHIEVE_TOL)
    value = float(result.v.v @ ex[:, i])
    if not (abs(value - target) <= ACHIEVE_TOL + 2 * TOL
            and abs(result.achieved - target) <= ACHIEVE_TOL):
        found.append(f"achieve of {i} at {target!r} reads {result.achieved!r}, "
                     f"exactly {value!r}")
    return found


def _case_mismatches(g: DirectedGraph, u, alpha: float) -> list[str]:
    """What the package answers on one graph, u and alpha that exact X
    does not."""
    n, found = g.n, []
    # float of the exact entries: off by about 1e-17, far inside SKIP
    ex = np.array(exact_x(g, alpha, u), dtype=float)
    # each column solved alone, before the context holds X; a lone node
    # has no interval to take a hull of or a value inside
    ctx = RankContext.from_graph(g, alpha, u)
    for i in range(n):
        col = ctx.column(i)
        if not np.abs(col - ex[:, i]).max() <= TOL:
            found.append(f"column {i} off by {np.abs(col - ex[:, i]).max():.2e}")
        if n > 1:
            found += _node_mismatches(ctx, ex, i)
    fm = ctx.fundamental()
    if not np.abs(fm.x - ex).max() <= TOL:
        found.append(f"X off by {np.abs(fm.x - ex).max():.2e}")
    for i in range(n if n > 1 else 0):
        found += _node_mismatches(ctx, ex, i)
    report = fm.report
    for i in range(n):
        lo = ex[:, i].min()
        near = ex[:, i] - lo
        if not abs(report.column_lo[i] - lo) <= TOL:
            found.append(f"lo of {i} is {report.column_lo[i]!r}, exactly {lo!r}")
        if not (np.abs(near - FLOAT_RESOLUTION) <= 2 * TOL).any():
            if report.lo_witness[i] != _first(near <= FLOAT_RESOLUTION):
                found.append(f"lo witness of {i} is {report.lo_witness[i]}")
    for i, competes, above, below in competitor_scan(fm):
        for j in range(i + 1, n):
            d = ex[:, i] - ex[:, j]
            if (np.abs(np.abs(d) - STRICT_MARGIN) <= SKIP).any():
                continue
            k, l = _first(d > STRICT_MARGIN), _first(d < -STRICT_MARGIN)
            want = (True, k, l) if k is not None and l is not None else (False,)
            at = j - i - 1
            got = (True, int(above[at]), int(below[at])) if competes[at] else (False,)
            if got != want:
                found.append(f"pair ({i}, {j}) reads {got}, exactly {want}")
    ordered = np.sort(ex, axis=1)
    gaps = ordered[:, -1] - (ordered[:, -2] if n > 1 else -np.inf)
    if not (np.abs(gaps - STRICT_MARGIN) <= SKIP).any():
        rows = np.flatnonzero(gaps > STRICT_MARGIN)
        want = {}
        for r in rows.tolist():
            want.setdefault(int(ex[r].argmax()), r)
        group = leadership_group(fm)
        if (set(group.leaders), group.witness_rows) != (set(want), want):
            found.append(f"leaders {group.witness_rows}, exactly {want}")
    return found


def mismatches(graphs) -> tuple[int, list[str]]:
    """The number of cases run over ``graphs``, and a line for each answer
    that differs from exact X, naming its graph, u and alpha."""
    cases, found = 0, []
    for g in graphs:
        for u, alpha in itertools.product(distributions(g), ALPHAS):
            cases += 1
            try:
                lines = _case_mismatches(g, u, alpha)
            except RankReachError as exc:
                lines = [f"{type(exc).__name__}: {exc}"]
            spec = "uniform" if u is None else u.tolist()
            found += [f"{sorted(g.edges)} u={spec} alpha={alpha}: {line}" for line in lines]
    return cases, found
