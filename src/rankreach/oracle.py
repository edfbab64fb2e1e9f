"""Monte-Carlo and brute-force cross-checks for the analytic machinery.

Sampling is seeded and counter-based (Philox) so every report reproduces
bit-for-bit.  Rank values for sampled personalizations always come from
the linear solve, never from the fundamental matrix they are checked
against, keeping the two routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .competition import STRICT_MARGIN
from .errors import DomainError, NumericalError, OracleMismatchError
from .localization import FLOAT_RESOLUTION, RankContext, fundamental_matrix
from .stochastic import PersonalizationVector, RowStochasticMatrix

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
    if n < 1:
        raise DomainError("need at least one node")
    if concentration <= 0.0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    if count < 0:
        raise DomainError("sample count must be nonnegative")
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    u = _philox(seed, salt).random((count, n))
    z = u / concentration
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    return w


def sample_personalization(
    seed: int, n: int, concentration: float = 1.0
) -> PersonalizationVector:
    """Single deterministic simplex sample."""
    row = sample_personalization_batch(seed, n, 1, concentration)[0]
    return PersonalizationVector(v=row)


def monte_carlo_interval(
    ctx: RankContext,
    i: int,
    samples: int,
    seed: int,
    concentration: float = 1.0,
) -> SampleReport:
    """Sample personalizations and check node i's rank stays inside its
    analytic interval; the empirical hull is reported alongside."""
    if ctx.n < 2:
        raise DomainError("interval sampling needs at least 2 nodes")
    interval = ctx.interval(i)
    batch = sample_personalization_batch(seed, ctx.n, samples, concentration)
    vals = ctx.rank_weights(batch.T)[i, :]
    outside = (vals < interval.lo - FLOAT_RESOLUTION) | (
        vals > interval.hi + FLOAT_RESOLUTION
    )
    violations = int(outside.sum())
    first = None
    if violations:
        k = int(np.flatnonzero(outside)[0])
        first = (tuple(float(x) for x in batch[k]), float(vals[k]))
    return SampleReport(
        node=i,
        samples=samples,
        observed_min=float(vals.min()),
        observed_max=float(vals.max()),
        violations=violations,
        lo=interval.lo,
        hi=interval.hi,
        first_violation=first,
    )


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


def explicit_inverse_check(
    alpha: float, p_u: RowStochasticMatrix, n_cap: int = INVERSE_SIZE_CAP
) -> float:
    """Recompute X by explicit elimination and compare entrywise.

    Returns the max absolute deviation; raises
    :class:`OracleMismatchError` beyond ``INVERSE_DEVIATION_TOL``.
    """
    if p_u.n > n_cap:
        raise DomainError(
            f"explicit inversion capped at n={n_cap}, got n={p_u.n}"
        )
    brute = (1.0 - alpha) * _gauss_jordan_inverse(np.eye(p_u.n) - alpha * p_u.toarray())
    fast = fundamental_matrix(alpha, p_u).x
    deviation = float(np.abs(brute - fast).max())
    if deviation > INVERSE_DEVIATION_TOL:
        raise OracleMismatchError(
            f"explicit inverse deviates by {deviation:.3e}",
            details={"deviation": deviation, "n": p_u.n},
        )
    return deviation
