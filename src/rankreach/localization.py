"""Fundamental matrix and the exact localization of attainable rank values.

Everything downstream reads off X = (1 - alpha) * (I - alpha P_u)^{-1}:
its rows are limiting rank vectors under personalizations concentrated on
one node, each column's minimum and diagonal entry bound the attainable
rank of that node, and any interior value is realized constructively by
mixing two concentrated personalizations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateIntervalError,
    DomainError,
    NumericalError,
    StructureError,
)
from .graph import DirectedGraph
from .stochastic import (
    DEFAULT_ALPHA,
    PageRankVector,
    PersonalizationVector,
    RowStochasticMatrix,
    SOLVE_RESIDUAL_TOL,
    _check_alpha,
    row_stochastic,
)

ROW_SUM_CHECK_TOL = 1e-10
# Strict inequalities on X cannot be resolved past solver precision; entries
# within this guard of each other count as equal (argmin ties, nonnegativity).
FLOAT_RESOLUTION = 1e-12
# Columns of X, and of rank-vector batches, are checked this many at a time,
# which bounds the temporaries at n * RESIDUAL_BLOCK floats; narrow blocks
# stay in cache and measured faster than 256 or 512 columns at n = 300 to 2000.
RESIDUAL_BLOCK = 64


@dataclass(frozen=True)
class FundamentalMatrix:
    """Dense X together with the damping factor it was built from."""

    x: np.ndarray
    alpha: float
    # RankContext.fundamental hands over the X its solve wrote, kept as it is;
    # any other array is copied, so freezing X never freezes a caller's array.
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        # Column-major: intervals and competitor verdicts read columns.
        x = self.x if _adopt else np.array(self.x, dtype=float, order="F")
        if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] == 0:
            raise DomainError("matrix must be square and nonempty")
        _check_alpha(self.alpha)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.x[:, i]


@dataclass(frozen=True)
class StructureReport:
    """Verified structural facts about a computed X.

    ``column_margins[i]`` is the diagonal entry minus the largest
    off-diagonal entry of column i (inf if it has none), strictly positive.
    """

    column_margins: np.ndarray
    min_entry: float
    max_row_sum_error: float


@dataclass(frozen=True)
class PRInterval:
    """Open interval of attainable rank values of one node.

    ``lo_witness`` is the first row attaining the column minimum; rows
    within :data:`FLOAT_RESOLUTION` of the minimum count as attaining it.
    """

    node: int
    lo: float
    hi: float
    lo_witness: int


@dataclass(frozen=True)
class AchieveResult:
    """Mixture parameters realizing a requested rank value."""

    lam: float
    epsilon: float
    achieved: float
    v: PersonalizationVector


def _check_residual(r: np.ndarray, what: str, first: int = 0) -> None:
    """Raise :class:`NumericalError` when a residual A x - b exceeds
    SOLVE_RESIDUAL_TOL; column k of ``r`` is ``what`` number first + k."""
    per_column = np.abs(r, out=r).max(axis=0)
    worst = first + int(np.argmax(per_column))
    residual = float(np.max(per_column))
    if residual > SOLVE_RESIDUAL_TOL:
        raise NumericalError(
            f"{what} {worst}: residual {residual:.3e} exceeds "
            f"{SOLVE_RESIDUAL_TOL:g}",
            details={what: worst, "residual": residual},
        )


def _check_structure(
    min_entry: float,
    row_sum_error: float,
    margins: np.ndarray,
    first_column: int,
    alpha: float,
) -> None:
    """Raise :class:`StructureError` unless X's guaranteed structure holds;
    ``margins`` covers the columns from ``first_column`` on.

    The row-sum tolerance is max(ROW_SUM_CHECK_TOL, kappa u), u the unit
    roundoff and kappa = (1 + alpha)/(1 - alpha) a bound on the 1-norm
    condition number of A_t: A_t^{-1} = X^T/(1 - alpha), and X is
    nonnegative with unit row sums, so ||A_t^{-1}||_1 = 1/(1 - alpha), while
    ||A_t||_1 <= 1 + alpha.  A solve can carry that much error, which
    exceeds the fixed tolerance only near alpha = 1."""
    kappa = (1.0 + alpha) / (1.0 - alpha)
    failures = {}
    if min_entry < -FLOAT_RESOLUTION:
        failures["min_entry"] = min_entry
    if row_sum_error > max(ROW_SUM_CHECK_TOL, kappa * np.finfo(float).eps / 2):
        failures["row_sum_error"] = row_sum_error
    if margins.min() <= 0.0:
        failures["worst_margin"] = float(margins.min())
        failures["worst_column"] = first_column + int(margins.argmin())
    if failures:
        raise StructureError(
            f"fundamental matrix structure violated: {failures}", details=failures
        )


def _column_margins(cols: np.ndarray, first: int) -> tuple[float, np.ndarray]:
    """Minimum entry and dominance margins of X's columns first, first + 1,
    ..., held side by side in ``cols``: each diagonal entry minus the
    largest other entry of its column."""
    k = np.arange(cols.shape[1])
    off_diag = cols.copy()
    off_diag[first + k, k] = -np.inf
    return float(cols.min()), cols[first + k, k] - off_diag.max(axis=0)


def verify_structure(fm: FundamentalMatrix) -> StructureReport:
    """Check the guaranteed structure of X; a violation means solver breakdown.

    Asserts entrywise nonnegativity, unit row sums, and that each diagonal
    entry strictly dominates its column, read in blocks of columns.  Returns
    the per-column dominance margins, raises :class:`StructureError` else.
    """
    x = fm.x
    blocks = [
        _column_margins(x[:, start:start + RESIDUAL_BLOCK], start)
        for start in range(0, fm.n, RESIDUAL_BLOCK)
    ]
    min_entry = min(block_min for block_min, _ in blocks)
    margins = np.concatenate([block_margins for _, block_margins in blocks])
    row_sum_error = float(np.abs(x.sum(axis=1) - 1.0).max())
    _check_structure(min_entry, row_sum_error, margins, 0, fm.alpha)
    margins.flags.writeable = False
    return StructureReport(
        column_margins=margins,
        min_entry=min_entry,
        max_row_sum_error=row_sum_error,
    )


def pr_interval(src: FundamentalMatrix | RankContext, i: int) -> PRInterval:
    """Open interval (column minimum, diagonal entry) for node i.

    Reads only column i of X, from a dense X or from a context, which
    solves for that one column unless it already holds X.
    """
    if src.n == 1:
        raise DegenerateIntervalError(
            "single-node graph: the rank is identically 1"
        )
    _check_nodes(src.n, i)
    col = src.column(i)
    lo = float(col.min())
    witness = int(np.flatnonzero(col <= lo + FLOAT_RESOLUTION)[0])
    return PRInterval(node=i, lo=lo, hi=float(col[i]), lo_witness=witness)


def _check_nodes(n: int, *nodes: int) -> None:
    """Raise :class:`DomainError` unless every node index lies in [0, n);
    checked before X is indexed, which would wrap negative indices."""
    for i in nodes:
        if not 0 <= i < n:
            raise DomainError(f"node index {i} out of range")


def _check_concentration(n: int, epsilon: float) -> None:
    """Raise :class:`DomainError` unless the concentrated family
    v_k(epsilon) exists: n >= 2 and epsilon in (0, 1)."""
    if n < 2:
        raise DomainError("concentrated family needs at least 2 nodes")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")


def basis_family(j: int, epsilon: float, n: int) -> PersonalizationVector:
    """Vector with 1 - epsilon at node j and epsilon/(n-1) everywhere else."""
    _check_concentration(n, epsilon)
    _check_nodes(n, j)
    v = np.full(n, epsilon / (n - 1))
    v[j] = 1.0 - epsilon
    return PersonalizationVector(v=v)


class RankContext:
    """Fixed damping factor and patched transition matrix.

    Owns the package's only factorization: one LU of the rank system
    A_t = I - alpha P_u^T, made on first use.  Every solve goes through
    it: rank vectors solve with A_t, and X, whole or a column at a time,
    with its transpose A_t^T = I - alpha P_u.  X itself is built and
    verified at most once, and point queries (one interval, one pair)
    solve only the columns they read unless X is already built.
    Concentrated-family rank vectors are rows of X and its column sums,
    read off X when it is built and solved for once otherwise.
    """

    def __init__(self, alpha: float, p_u: RowStochasticMatrix):
        _check_alpha(alpha)
        if not p_u.dangling_patched:
            raise DomainError("matrix must be dangling-patched first")
        self.alpha = alpha
        self.p_u = p_u
        self._lu = None
        self._fundamental = None
        self._structure = None
        self._row_sum_error = None
        self._sums = None

    @classmethod
    def from_graph(
        cls,
        g: DirectedGraph,
        alpha: float = DEFAULT_ALPHA,
        u: np.ndarray | None = None,
    ) -> "RankContext":
        """Context of graph g; the dangling distribution u is uniform unless given."""
        if u is None:
            u = np.full(g.n, 1.0 / g.n)
        return cls(alpha=alpha, p_u=row_stochastic(g, u))

    @property
    def n(self) -> int:
        return self.p_u.n

    def _factorization(self):
        if self._lu is None:
            a = self.p_u.toarray()
            a *= self.alpha
            # 0 - alpha P rather than -alpha P, which would leave -0.0 in
            # the structural zeros and could sign the zeros of X.
            np.subtract(0.0, a, out=a)
            a.flat[:: self.n + 1] += 1.0
            # a is I - alpha P_u in C order, so a.T is A_t in Fortran order,
            # which LAPACK factors in place.
            self._lu = scipy.linalg.lu_factor(a.T, overwrite_a=True)
        return self._lu

    def _system_times(self, x: np.ndarray, trans: int) -> np.ndarray:
        """A_t x (trans 0) or A_t^T x (trans 1) as a fresh array, applied
        through the sparse P and its rank-one term, never a dense product."""
        y = self.p_u.rmatvec(x) if trans == 0 else self.p_u.matvec(x)
        y *= -self.alpha
        y += x
        return y

    def _check_column_residuals(self, cols: np.ndarray, first: int) -> None:
        """Check A_t^T X = (1 - alpha) I on X's columns first, first + 1,
        ..., solved into ``cols``: a block of X, or one column of it."""
        r = self._system_times(cols, 1)
        k = np.arange(cols.shape[1])
        r[first + k, k] -= 1.0 - self.alpha
        _check_residual(r, "column", first=first)

    def rank_weights(self, weights: np.ndarray) -> np.ndarray:
        """Rank vector(s) for raw weight vector(s); columns are independent.

        Every column's residual is checked, ``RESIDUAL_BLOCK`` columns at a
        time, so checking a large batch holds no second copy of it."""
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != self.n:
            raise DomainError("weight vector must have length n")
        b = (1.0 - self.alpha) * w
        x = scipy.linalg.lu_solve(self._factorization(), b)
        # views of x and b with one column per vector, a lone vector included
        cols, rhs = x.reshape(self.n, -1), b.reshape(self.n, -1)
        for start in range(0, cols.shape[1], RESIDUAL_BLOCK):
            block = slice(start, start + RESIDUAL_BLOCK)
            r = self._system_times(cols[:, block], 0)
            r -= rhs[:, block]
            _check_residual(r, "weight column", first=start)
        return x

    def rank(self, v: PersonalizationVector) -> PageRankVector:
        """Residual-checked rank vector for personalization v."""
        return PageRankVector(pi=self.rank_weights(v.v))

    def fundamental(self) -> FundamentalMatrix:
        """Structure-verified X, computed once.

        Column i of X solves A_t^T x = (1 - alpha) e_i, as in
        :meth:`column`; all n columns are one transposed solve, which
        overwrites the Fortran-order right-hand side with X in place.  Each
        column's residual is checked.
        """
        if self._fundamental is None:
            x = np.eye(self.n, order="F")
            x *= 1.0 - self.alpha
            x = scipy.linalg.lu_solve(
                self._factorization(), x, trans=1, overwrite_b=True
            )
            for start in range(0, self.n, RESIDUAL_BLOCK):
                self._check_column_residuals(x[:, start:start + RESIDUAL_BLOCK], start)
            fm = FundamentalMatrix(x=x, alpha=self.alpha, _adopt=True)
            self._structure = verify_structure(fm)
            self._fundamental = fm
            # column sums solved before X existed give way to X's own
            self._sums = None
        return self._fundamental

    def structure(self) -> StructureReport:
        self.fundamental()
        return self._structure

    def _row_sums(self) -> float:
        """Max deviation of X's row sums from 1: X 1 is one transposed
        solve, made once per context."""
        if self._row_sum_error is None:
            ones = np.full(self.n, 1.0 - self.alpha)
            sums = scipy.linalg.lu_solve(self._factorization(), ones, trans=1)
            self._row_sum_error = float(np.abs(sums - 1.0).max())
        return self._row_sum_error

    def column(self, i: int) -> np.ndarray:
        """Column i of X: read off X when it is built, else one transposed
        solve, whose residual and structure are checked as X's would be
        (nonnegative, diagonal strictly dominant, unit row sums)."""
        _check_nodes(self.n, i)
        if self._fundamental is not None:
            return self._fundamental.column(i)
        b = np.zeros((self.n, 1))
        b[i] = 1.0 - self.alpha
        col = scipy.linalg.lu_solve(self._factorization(), b, trans=1)
        self._check_column_residuals(col, i)
        min_entry, margins = _column_margins(col, i)
        _check_structure(min_entry, self._row_sums(), margins, i, self.alpha)
        return col[:, 0]

    def _column_sums(self) -> np.ndarray:
        """s = X^T 1, the column sums of X: summed off X when it is built,
        else one residual-checked solve A_t s = (1 - alpha) 1; cached."""
        if self._sums is None:
            if self._fundamental is not None:
                self._sums = self._fundamental.x.sum(axis=0)
            else:
                self._sums = self.rank_weights(np.ones(self.n))
        return self._sums

    def concentrated(
        self, rows: Sequence[int], epsilons: Iterable[float]
    ) -> Iterator[tuple[float, np.ndarray]]:
        """Rank vectors of the concentrated personalizations v_k(epsilon),
        1 - epsilon on node k and epsilon/(n-1) elsewhere, one column per k
        in ``rows``, yielded as ``(epsilon, vectors)`` for each epsilon.

        The family is affine in row k of X: with s = X^T 1,
        pi(v_k(epsilon)) = (1 - epsilon - w) x_k + w s, w = epsilon/(n-1).
        So each epsilon costs O(n) per row and no solve.  The rows are read
        off X when it is built, else solved for once, residual-checked, as
        rank vectors of unit weights.
        """
        n = self.n
        rows = list(rows)
        _check_nodes(n, *rows)
        if self._fundamental is not None:
            x_rows = self._fundamental.x[rows].T
        else:
            units = np.zeros((n, len(rows)))
            units[rows, np.arange(len(rows))] = 1.0
            x_rows = self.rank_weights(units)
        sums = self._column_sums()[:, None]

        def family() -> Iterator[tuple[float, np.ndarray]]:
            for epsilon in epsilons:
                _check_concentration(n, epsilon)
                w = epsilon / (n - 1)
                yield epsilon, (1.0 - epsilon - w) * x_rows + w * sums

        return family()

    def interval(self, i: int) -> PRInterval:
        return pr_interval(self, i)

    def intervals(self) -> list[PRInterval]:
        self.fundamental()
        return [self.interval(i) for i in range(self.n)]


def achieve_value(
    ctx: RankContext, i: int, target: float, tol: float = 1e-6
) -> AchieveResult:
    """Realize ``target`` as node i's rank value, within ``tol``.

    Fixes epsilon = min(1e-6, tol/10), then bisects the mixture weight
    lambda between the personalization concentrated on i and the one
    concentrated on the column-minimum witness.  Node i's rank is affine
    in lambda, lambda * f1 + (1 - lambda) * f0 with f1 and f0 its values
    under the two ends, so bisection converges unconditionally and each
    step costs O(1).
    """
    if not math.isfinite(tol):
        raise DomainError(f"tol must be finite, got {tol}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    epsilon = min(1e-6, tol / 10.0)
    if epsilon == 0.0:
        raise DomainError(f"tol {tol!r} is too small: tol/10 underflows to 0")
    interval = ctx.interval(i)
    if not interval.lo < target < interval.hi:
        raise DomainError(
            f"target {target!r} outside the attainable open interval "
            f"({interval.lo!r}, {interval.hi!r})"
        )
    ((_, ends),) = ctx.concentrated([i, interval.lo_witness], [epsilon])
    # node i's value at lambda = 1 (concentrated on i) and at lambda = 0
    f1, f0 = (float(value) for value in ends[i])

    def at(lam: float) -> float:
        return lam * f1 + (1.0 - lam) * f0

    if not min(f0, f1) <= target <= max(f0, f1):
        closest = f0 if abs(f0 - target) <= abs(f1 - target) else f1
        raise NumericalError(
            f"target {target!r} unreachable at epsilon floor {epsilon:g}; "
            f"closest achieved {closest!r}",
            details={"closest_achieved": closest, "epsilon": epsilon},
        )
    increasing = f1 >= f0
    lo_lam, hi_lam = 0.0, 1.0
    val = f0
    lam = 0.0
    for _ in range(200):
        lam = 0.5 * (lo_lam + hi_lam)
        val = at(lam)
        if abs(val - target) <= tol:
            v_top = basis_family(i, epsilon, ctx.n).v
            v_bot = basis_family(interval.lo_witness, epsilon, ctx.n).v
            return AchieveResult(
                lam=lam,
                epsilon=epsilon,
                achieved=val,
                v=PersonalizationVector(v=lam * v_top + (1.0 - lam) * v_bot),
            )
        if (val < target) == increasing:
            lo_lam = lam
        else:
            hi_lam = lam
    raise NumericalError(
        f"bisection stalled at {val!r} for target {target!r} (tol {tol:g})",
        details={"closest_achieved": val, "lambda": lam, "epsilon": epsilon},
    )
