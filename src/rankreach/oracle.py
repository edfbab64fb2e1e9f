"""Independent cross-checks for the analytic machinery: Monte-Carlo
sampling, power iteration on the Google matrix, and Gauss-Jordan inversion.

Sampling is seeded and counter-based (Philox) so every report reproduces
bit-for-bit.  Rank values for sampled personalizations always come from
the linear solve, never from the fundamental matrix they are checked
against, keeping the two routes independent.  The power iteration and
the elimination share no code with the production LU; production never
calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .competition import STRICT_MARGIN
from .errors import ConvergenceError, DomainError, NumericalError, OracleMismatchError
from .localization import FLOAT_RESOLUTION, RankContext, _check_nodes
from .stochastic import (
    PageRankVector,
    PersonalizationVector,
    RowStochasticMatrix,
    _check_alpha,
    _is_integer,
    _is_real,
)

POWER_TOL = 1e-12
INVERSE_SIZE_CAP = 10
INVERSE_DEVIATION_TOL = 1e-10
VERTEX_CONCENTRATION = 0.01


@dataclass(frozen=True)
class SampleReport:
    """Empirical hull of one node's sampled rank values.

    ``violations`` counts samples outside the analytic open interval
    (beyond the floating-point resolution guard); it is 0 in a correct
    build.  ``first_violation`` records one offending personalization.
    """

    node: int
    samples: int
    observed_min: float
    observed_max: float
    violations: int
    lo: float
    hi: float
    first_violation: tuple[tuple[float, ...], float] | None = None


def _philox(seed: int, salt: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(salt,))
    return np.random.Generator(np.random.Philox(seq))


def sample_personalization_batch(
    seed: int, n: int, count: int, concentration: float = 1.0, salt: int = 0
) -> np.ndarray:
    """``count`` simplex points, one per row, deterministic in (seed, salt).

    Rows are softmax(U / concentration) of uniform draws, so concentration
    below 1 biases samples toward simplex vertices and row k never depends
    on ``count`` (prefixes of a longer batch are identical).
    """
    if not all(map(_is_integer, (seed, n, count))):
        raise DomainError(
            f"seed, node count and sample count must be integers, "
            f"got {seed!r}, {n!r}, {count!r}"
        )
    if n < 1:
        raise DomainError("need at least one node")
    if not _is_real(concentration):
        raise DomainError(f"concentration must be a number, got {concentration!r}")
    if not concentration > 0.0:  # NaN fails it too
        raise DomainError(f"concentration must be positive, got {concentration}")
    if concentration < np.finfo(float).tiny:
        # below the normal floats, U / concentration overflows to inf
        raise DomainError(f"concentration {concentration!r} is too small to sample with")
    if count < 0:
        raise DomainError("sample count must be nonnegative")
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    try:
        u = _philox(seed, salt).random((count, n))
    except ValueError:  # numpy refuses the shape before allocating anything
        raise DomainError(f"sample count {count} is too large for {n} nodes") from None
    z = u / concentration
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _check_sample_count(samples: int) -> None:
    """Raise :class:`DomainError` unless ``samples`` is an integer >= 1."""
    if not _is_integer(samples):
        raise DomainError(f"sample counts must be integers, got {samples!r}")
    if samples < 1:
        raise DomainError(f"sample count must be at least 1, got {samples}")


def monte_carlo_interval(
    ctx: RankContext,
    nodes: list[int],
    samples: int,
    seed: int,
    concentration: float = 1.0,
) -> list[SampleReport]:
    """Sample personalizations and check each node's rank stays inside its
    analytic interval; the empirical hull is reported alongside.

    One batch of ``samples`` personalizations is drawn and solved once, and
    every node in ``nodes`` is read off it: one report per node, in order.
    """
    if ctx.n < 2:
        raise DomainError("interval sampling needs at least 2 nodes")
    _check_sample_count(samples)
    intervals = [ctx.interval(i) for i in nodes]
    batch = sample_personalization_batch(seed, ctx.n, samples, concentration)
    ranked = ctx.rank_weights(batch.T)
    reports = []
    for interval in intervals:
        vals = ranked[interval.node, :]
        outside = (vals < interval.lo - FLOAT_RESOLUTION) | (
            vals > interval.hi + FLOAT_RESOLUTION
        )
        violations = int(outside.sum())
        first = None
        if violations:
            k = int(np.flatnonzero(outside)[0])
            first = (tuple(float(x) for x in batch[k]), float(vals[k]))
        reports.append(SampleReport(
            node=interval.node,
            samples=samples,
            observed_min=float(vals.min()),
            observed_max=float(vals.max()),
            violations=violations,
            lo=interval.lo,
            hi=interval.hi,
            first_violation=first,
        ))
    return reports


def observe_rank_swaps(
    ctx: RankContext, i: int, j: int, samples: int, seed: int
) -> bool:
    """True iff sampled personalizations exhibit both orderings of the pair.

    Half the samples are near-uniform, half vertex-biased (the swaps of a
    competing pair live near simplex vertices).  Differences inside the
    strict margin count as ties, so sampling can under-detect but never
    over-detect a competing pair.
    """
    if i == j:
        raise DomainError("rank swaps are defined for distinct nodes")
    _check_nodes(ctx.n, i, j)
    _check_sample_count(samples)
    uniform_half = (samples + 1) // 2
    vertex_half = samples // 2
    batches = [sample_personalization_batch(seed, ctx.n, uniform_half, 1.0, salt=0)]
    if vertex_half:
        batches.append(
            sample_personalization_batch(
                seed, ctx.n, vertex_half, VERTEX_CONCENTRATION, salt=1
            )
        )
    ranked = ctx.rank_weights(np.vstack(batches).T)
    diff = ranked[i, :] - ranked[j, :]
    return bool((diff > STRICT_MARGIN).any() and (diff < -STRICT_MARGIN).any())


def google_matrix(
    alpha: float, p_u: RowStochasticMatrix, v: PersonalizationVector
) -> np.ndarray:
    """Dense G = alpha * P_u + (1 - alpha) 1 v^T, P_u plus the rank-one
    teleport to v: row-stochastic and strictly positive by construction."""
    # checked before use: an infinite alpha times P's zeros warns of NaN
    _check_alpha(alpha)
    if v.v.shape != (p_u.n,):
        raise DomainError("personalization vector must have length n")
    return alpha * p_u.toarray() + (1.0 - alpha) * v.v[None, :]


def default_power_iterations(alpha: float) -> int:
    # alpha bounds the contraction rate of the iteration, hence the cap.
    return 10 * math.ceil(math.log(POWER_TOL) / math.log(alpha))


def pagerank_power(
    alpha: float, p_u: RowStochasticMatrix, v: PersonalizationVector
) -> PageRankVector:
    """Left fixed point of :func:`google_matrix` by power iteration from
    the uniform start.

    Returns x with ``||x G - x||_1 <= POWER_TOL``; raises
    :class:`ConvergenceError` carrying the last residual when
    ``default_power_iterations`` steps run out first.
    """
    g = google_matrix(alpha, p_u, v)
    max_iter = default_power_iterations(alpha)
    x = np.full(p_u.n, 1.0 / p_u.n)
    residual = math.inf
    for _ in range(max_iter):
        nxt = x @ g
        residual = float(np.abs(nxt - x).sum())
        if residual <= POWER_TOL:
            return PageRankVector(pi=x, alpha=alpha, _adopt=True)
        x = nxt
    raise ConvergenceError(
        f"power iteration missed tol={POWER_TOL:g} after {max_iter} iterations",
        details={"residual": residual, "tol": POWER_TOL, "max_iter": max_iter},
    )


def _gauss_jordan_inverse(m: np.ndarray) -> np.ndarray:
    """Plain Gauss-Jordan elimination with partial pivoting.

    Kept free of library solver calls on purpose: it is the independent
    route that :func:`explicit_inverse_check` compares against.
    """
    n = m.shape[0]
    aug = np.hstack([m.astype(float), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.abs(aug[col:, col]).argmax())
        if aug[pivot, col] == 0.0:
            raise NumericalError("singular matrix in elimination")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def explicit_inverse_check(alpha: float, p_u: RowStochasticMatrix) -> float:
    """Recompute X by explicit elimination and compare entrywise, for
    n up to ``INVERSE_SIZE_CAP``.

    Returns the max absolute deviation; raises
    :class:`OracleMismatchError` beyond ``INVERSE_DEVIATION_TOL``.
    """
    if p_u.n > INVERSE_SIZE_CAP:
        raise DomainError(
            f"explicit inversion capped at n={INVERSE_SIZE_CAP}, got n={p_u.n}"
        )
    brute = (1.0 - alpha) * _gauss_jordan_inverse(np.eye(p_u.n) - alpha * p_u.toarray())
    fast = RankContext(alpha, p_u).fundamental().x
    deviation = float(np.abs(brute - fast).max())
    if deviation > INVERSE_DEVIATION_TOL:
        raise OracleMismatchError(
            f"explicit inverse deviates by {deviation:.3e}",
            details={"deviation": deviation, "n": p_u.n},
        )
    return deviation
