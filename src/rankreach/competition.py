"""Competitor detection, leadership groups, and finite-family value intervals.

All verdicts come from column and row comparisons of the fundamental
matrix; the certificate constructors then exhibit explicit personalization
vectors realizing each verdict.  Nodes i and j compete exactly when
X[:, i] - X[:, j] changes sign.  One kernel, ``_verdicts``, compares a
column with a block of columns; ``effective_competitors`` asks it about
one pair, and ``competitor_scan`` about all n(n-1)/2 pairs, one row of
the upper triangle at a time.

The certificates read rows of X as well.  The concentrated personalization
v_k(epsilon) puts 1 - epsilon on node k and epsilon/(n-1) on every other
node, so its rank vector is affine in row k of X:

    pi(v_k(epsilon)) = (1 - epsilon) x_k + epsilon/(n-1) (s - x_k),

where s = X^T 1 holds X's column sums.  ``RankContext.concentrated``
evaluates it, so the halving searches of ``witness_epsilon`` and
``leadership_certificate`` cost O(n) a step and no solve, and
``competitivity_interval`` is the hull of the same expression over the
entries of one column of X.
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
# Competitor scans compare column i with this many later columns at a time,
# which bounds the temporaries at n * SCAN_BLOCK floats.
SCAN_BLOCK = 64


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
    return above.any(0) & below.any(0), above.argmax(0), below.argmax(0)


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
    ``competes`` holds."""
    x = fm.x
    n = fm.n
    for i in range(n - 1):
        blocks = [
            _verdicts(x[:, i], x[:, start:start + SCAN_BLOCK])
            for start in range(i + 1, n, SCAN_BLOCK)
        ]
        yield (i, *(np.concatenate(parts) for parts in zip(*blocks)))


def competitivity_graph(fm: FundamentalMatrix) -> set[tuple[int, int]]:
    """All competing pairs (i, j) with i < j."""
    pairs = set()
    for i, competes, _, _ in competitor_scan(fm):
        js = np.flatnonzero(competes) + (i + 1)
        pairs.update(zip([i] * js.size, js.tolist()))
    return pairs


def leadership_group(fm: FundamentalMatrix) -> LeadershipGroup:
    """Union of strict row maxima of X; tied rows contribute no leader."""
    if fm.n == 1:
        return LeadershipGroup(leaders=frozenset({0}), witness_rows={0: 0})
    x = fm.x
    every_row = np.arange(fm.n)
    top = x.argmax(1)
    # Masking each row's top leaves its runner-up as the row maximum (a tied
    # top stays, so the gap is 0).  One max over a copy of X measured twice
    # as fast as np.partition, with half the temporaries.
    rest = x.copy(order="K")
    rest[every_row, top] = -np.inf
    rows = np.flatnonzero(x[every_row, top] - rest.max(1) > STRICT_MARGIN)
    leaders, first = np.unique(top[rows], return_index=True)
    return LeadershipGroup(
        leaders=frozenset(leaders.tolist()),
        witness_rows=dict(zip(leaders.tolist(), rows[first].tolist())),
    )


def competitivity_interval(
    ctx: RankContext, i: int, epsilon: float
) -> CompetitivityInterval:
    """Hull of node i's rank over all n epsilon-concentrated personalizations.

    Under v_k(epsilon) node i ranks (1 - epsilon) x_ki + epsilon/(n-1)
    (s_i - x_ki), so the hull reads column i of X alone."""
    _check_concentration(ctx.n, epsilon)
    col = ctx.column(i)
    vals = (1.0 - epsilon) * col + epsilon / (ctx.n - 1) * (col.sum() - col)
    return CompetitivityInterval(
        node=i, epsilon=epsilon, lo=float(vals.min()), hi=float(vals.max())
    )


def witness_epsilon(ctx: RankContext, verdict: CompetitionVerdict) -> WitnessCertificate:
    """Halve epsilon from 1/2 until the two witness personalizations
    actually swap the rank order of the pair; returns both rank vectors."""
    if not verdict.competes:
        raise DomainError("certificate requires a competing pair")
    i, j = verdict.i, verdict.j
    _check_nodes(ctx.n, i, j)
    witnesses = [verdict.witness_k, verdict.witness_l]
    for epsilon, ranked in ctx.concentrated(witnesses, _HALVINGS):
        high, low = ranked[:, 0], ranked[:, 1]
        if high[i] > high[j] and low[i] < low[j]:
            return WitnessCertificate(
                epsilon=epsilon,
                rank_high=PageRankVector(pi=high),
                rank_low=PageRankVector(pi=low),
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
    witness row."""
    _check_nodes(ctx.n, leader)
    for epsilon, ranked in ctx.concentrated([witness_row], _HALVINGS):
        ranked = ranked[:, 0]
        rest = np.delete(ranked, leader)
        if (ranked[leader] > rest).all():
            return epsilon, PageRankVector(pi=ranked)
    raise NumericalError(
        f"no leadership certificate for node {leader} from row {witness_row} "
        f"above epsilon floor {EPSILON_FLOOR:g}",
        details={"leader": leader, "witness_row": witness_row, "floor": EPSILON_FLOOR},
    )
