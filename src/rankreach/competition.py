"""Competitor detection, leadership groups, and finite-family value intervals.

All verdicts come from column and row comparisons of the fundamental
matrix; the certificate constructors then exhibit explicit personalization
vectors realizing each verdict.  Nodes i and j compete exactly when
X[:, i] - X[:, j] changes sign.  One kernel, ``_verdicts``, compares a
column with a block of columns; ``effective_competitors`` asks it about
one pair, and ``competitor_scan`` about all n(n-1)/2 pairs, one row of
the upper triangle at a time.

The scan runs in two passes per row i.  The row-head pass compares only
the top ``SCAN_HEAD`` rows of X, held once as a contiguous copy, for every
later column.  A pair whose difference changes sign there is resolved
exactly: the first rows above and below the margin in the head are the
first in the whole column, so its witnesses are the ones a full-column
comparison reports.  Only the pairs the head leaves open go through the
full columns.  On most graphs the head resolves most pairs, so the scan
costs little more than SCAN_HEAD * n^2 comparisons instead of n^3.  Where
it resolves few, as on paths, rings and stars, whose witnesses sit deep,
the pass is wasted and gathering the open columns costs extra.

The certificates read rows of X as well.  The rank vector of the
concentrated personalization v_k(epsilon), 1 - epsilon on node k and
epsilon/(n-1) on every other node, is row k of X mixed with X's column
sums, by the one expression of ``localization._family_values``.  The
halving search of ``witness_epsilon`` evaluates it on four entries of X a
step and forms its two rank vectors once; ``leadership_certificate``
evaluates it on its witness row, read once; neither makes a solve.
``competitivity_interval`` evaluates it on the two ends of column i,
its minimum and its diagonal entry.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .localization import (
    FundamentalMatrix,
    RankContext,
    _check_concentration,
    _check_nodes,
    _family_values,
    _read_column,
)
from .stochastic import PageRankVector

# Comparisons of X entries closer than this are ties: they yield neither
# competitors nor leaders.  Being conservative never fabricates a verdict.
# The margin does not scale with the conditioning (1 + alpha)/(1 - alpha):
# at alpha = 1 - 1e-9 X's float error exceeds it, yet on the graphs tested
# every verdict holds in exact arithmetic, and a scaled margin drops true ones.
STRICT_MARGIN = 1e-9
# Certificate searches try epsilon = 1/2, 1/4, ... down to this floor.
EPSILON_FLOOR = 1e-12
_HALVINGS = tuple(0.5**k for k in range(1, 1 + int(-math.log2(EPSILON_FLOOR))))
# Competitor scans compare column i with this many later columns at a time and
# leadership_group masks this many rows: temporaries stay at n * SCAN_BLOCK floats.
SCAN_BLOCK = 64
# Rows of X the competitor scan's first pass compares for every pair.
SCAN_HEAD = 64


@dataclass(frozen=True)
class CompetitionVerdict:
    """Whether nodes i and j can swap rank order, with witness rows."""

    i: int
    j: int
    competes: bool
    witness_k: int | None = None
    witness_l: int | None = None


@dataclass(frozen=True)
class LeadershipGroup:
    """Nodes that some personalization makes strictly top-ranked.

    ``witness_rows`` maps each leader to the first row of X where it is
    the strict row maximum.
    """

    leaders: frozenset[int]
    witness_rows: dict[int, int]


@dataclass(frozen=True)
class CompetitivityInterval:
    """Closed hull of node i's rank values over the n concentrated vectors."""

    node: int
    epsilon: float
    lo: float
    hi: float


@dataclass(frozen=True)
class WitnessCertificate:
    """Two rank vectors exhibiting both orderings of a competing pair."""

    epsilon: float
    rank_high: PageRankVector
    rank_low: PageRankVector


def _verdicts(
    col_i: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Verdicts of column i against each column of ``cols``: whether the
    difference changes sign beyond ``STRICT_MARGIN``, with the first row
    above and the first row below (meaningful only where the pair competes)."""
    d = col_i[:, None] - cols
    above = d > STRICT_MARGIN
    below = d < -STRICT_MARGIN
    first_above, first_below = above.argmax(0), below.argmax(0)
    # a column with no row past the margin points argmax at a False row
    k = np.arange(cols.shape[1])
    competes = above[first_above, k] & below[first_below, k]
    return competes, first_above, first_below


def effective_competitors(
    fm: FundamentalMatrix | RankContext, i: int, j: int
) -> CompetitionVerdict:
    """Compare columns i and j of X; a sign change in the difference means
    the pair competes.  Witnesses are the first qualifying rows.

    Given a context rather than X, only the two columns are solved for,
    unless the context already holds X."""
    if i == j:
        raise DomainError("competitivity is defined for distinct nodes")
    _check_nodes(fm.n, i, j)
    competes, above, below = _verdicts(fm.column(i), fm.column(j)[:, None])
    if competes[0]:
        return CompetitionVerdict(
            i=i, j=j, competes=True,
            witness_k=int(above[0]), witness_l=int(below[0]),
        )
    return CompetitionVerdict(i=i, j=j, competes=False)


def competitor_scan(
    fm: FundamentalMatrix,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Verdicts of every pair i < j, in row-major order.

    Yields ``(i, competes, witness_k, witness_l)`` for i = 0 .. n-2, each
    array indexed by j - i - 1 over j = i+1 .. n-1; the witnesses are the
    rows ``effective_competitors`` reports and are meaningful only where
    ``competes`` holds.  Every array equals what ``_verdicts`` gives for
    the full columns: the row-head pass resolves a pair only where the
    head already holds its first rows above and below the margin."""
    x = fm.x
    n = fm.n
    # each column's head rows side by side, so a row's later columns are
    # one contiguous slice
    head = np.asfortranarray(x[:SCAN_HEAD])
    for i in range(n - 1):
        competes, above, below = _verdicts(head[:, i], head[:, i + 1:])
        # a head of all n rows leaves nothing to compare further
        unresolved = np.flatnonzero(~competes) if n > SCAN_HEAD else ()
        for start in range(0, len(unresolved), SCAN_BLOCK):
            at = unresolved[start:start + SCAN_BLOCK]
            competes[at], above[at], below[at] = _verdicts(x[:, i], x[:, at + (i + 1)])
        yield i, competes, above, below


def competitivity_graph(fm: FundamentalMatrix) -> set[tuple[int, int]]:
    """All competing pairs (i, j) with i < j."""
    pairs = set()
    for i, competes, _, _ in competitor_scan(fm):
        js = np.flatnonzero(competes) + (i + 1)
        pairs.update(zip([i] * js.size, js.tolist()))
    return pairs


def leadership_group(fm: FundamentalMatrix) -> LeadershipGroup:
    """Union of strict row maxima of X; tied rows contribute no leader."""
    top, gap = np.empty(fm.n, dtype=np.intp), np.empty(fm.n)
    # Masking each row's top leaves its runner-up as the row maximum (a tied
    # top stays, so the gap is 0), in a copy of SCAN_BLOCK rows, not of X.
    for start in range(0, fm.n, SCAN_BLOCK):
        block = slice(start, start + SCAN_BLOCK)
        rows = fm.x[block].copy(order="C")
        k = np.arange(len(rows))
        top[block] = rows.argmax(1)
        best = rows[k, top[block]]
        rows[k, top[block]] = -np.inf
        gap[block] = best - rows.max(1)
    rows = np.flatnonzero(gap > STRICT_MARGIN)
    leaders, first = np.unique(top[rows], return_index=True)
    return LeadershipGroup(
        leaders=frozenset(leaders.tolist()),
        witness_rows=dict(zip(leaders.tolist(), rows[first].tolist())),
    )


def competitivity_interval(
    ctx: RankContext, i: int, epsilon: float
) -> CompetitivityInterval:
    """Hull of node i's rank over all n epsilon-concentrated personalizations.

    Node i's rank under v_k(epsilon) is affine in x_ki and s_i, the sum of
    column i (see ``localization._family_values``), and its computed value
    is monotone in x_ki, so the hull reads lo_i, x_ii and s_i alone: X's
    checked column i has minimum lo_i and strict maximum x_ii."""
    _check_concentration(ctx.n, epsilon)
    interval, _, s_i = _read_column(ctx, i)
    vals = _family_values(np.array([interval.lo, interval.hi]), s_i, epsilon, ctx.n)
    return CompetitivityInterval(
        node=i, epsilon=epsilon, lo=float(vals.min()), hi=float(vals.max())
    )


def witness_epsilon(ctx: RankContext, verdict: CompetitionVerdict) -> WitnessCertificate:
    """Halve epsilon from 1/2 until the two witness personalizations
    actually swap the rank order of the pair, comparing four entries of X
    a step; returns both rank vectors, each formed once from its witness
    row and X's column sums and checked once in place."""
    if not verdict.competes:
        raise DomainError("certificate requires a competing pair")
    i, j = verdict.i, verdict.j
    k, l = verdict.witness_k, verdict.witness_l
    n = ctx.n
    _check_nodes(n, i, j, k, l)
    fm = ctx.fundamental()
    x, sums = fm.x, fm.report.column_sums
    _check_concentration(n, _HALVINGS[0])
    entries = [(float(x[a, b]), float(sums[b])) for a in (k, l) for b in (i, j)]
    for epsilon in _HALVINGS:
        high_i, high_j, low_i, low_j = [_family_values(a, s, epsilon, n) for a, s in entries]
        if high_i > high_j and low_i < low_j:
            return WitnessCertificate(
                epsilon=epsilon,
                rank_high=ctx._rank_vector(_family_values(x[k], sums, epsilon, n)),
                rank_low=ctx._rank_vector(_family_values(x[l], sums, epsilon, n)),
            )
    raise NumericalError(
        f"no rank-swap certificate for pair ({i}, {j}) above epsilon "
        f"floor {EPSILON_FLOOR:g}",
        details={"i": i, "j": j, "floor": EPSILON_FLOOR},
    )


def leadership_certificate(
    ctx: RankContext, leader: int, witness_row: int
) -> tuple[float, PageRankVector]:
    """Epsilon and rank vector making ``leader`` strictly top-ranked, found
    by halving from 1/2 with the personalization concentrated on the
    witness row, which is read off X once."""
    _check_nodes(ctx.n, leader, witness_row)
    fm = ctx.fundamental()
    x, sums = fm.x, fm.report.column_sums
    _check_concentration(ctx.n, _HALVINGS[0])
    row = np.ascontiguousarray(x[witness_row])
    for epsilon in _HALVINGS:
        ranked = _family_values(row, sums, epsilon, ctx.n)
        rest = np.delete(ranked, leader)
        if (ranked[leader] > rest).all():
            return epsilon, ctx._rank_vector(ranked)
    raise NumericalError(
        f"no leadership certificate for node {leader} from row {witness_row} "
        f"above epsilon floor {EPSILON_FLOOR:g}",
        details={"leader": leader, "witness_row": witness_row, "floor": EPSILON_FLOOR},
    )
