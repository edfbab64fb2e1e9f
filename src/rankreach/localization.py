"""Fundamental matrix and the exact localization of attainable rank values.

Everything downstream reads off X = (1 - alpha) * (I - alpha P_u)^{-1}:
its rows are limiting rank vectors under personalizations concentrated on
one node, each column's minimum and diagonal entry bound the attainable
rank of that node, and any interior value is realized constructively by
mixing two concentrated personalizations.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

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
    _is_integer,
    _is_real,
    row_stochastic,
    solve_sum_tol,
)

# Strict inequalities on X cannot be resolved past solver precision; entries
# within this guard of each other count as equal (argmin ties, nonnegativity).
FLOAT_RESOLUTION = 1e-12
# Columns of X, and of rank-vector batches, are checked this many at a time,
# or fewer above n = 1024: a block holds at most RESIDUAL_FLOATS floats, so
# the gather-adds of the sparse products stay in cache.  That bounds the
# temporaries at n * RESIDUAL_BLOCK floats; 32 columns measured 12% faster
# than 64 on building X at n = 2000 and slower at n <= 1000.
RESIDUAL_BLOCK = 64
RESIDUAL_FLOATS = 2**16
# Products b -= a @ c in the block LU update this many rows of b at a time,
# which bounds their temporaries at LU_PANEL * columns floats.
LU_PANEL = 256


@dataclass(frozen=True)
class FundamentalMatrix:
    """Dense X together with the damping factor it was built from, and
    the :class:`StructureReport` of its columns, read on first use."""

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

    @cached_property
    def report(self) -> StructureReport:
        """Every per-column fact of X, read in one pass over blocks of
        columns, with its row-sum error; checks nothing.  A caller's X read
        only by the scan or the leaders never pays for the pass."""
        x = self.x
        width = _block_width(self.n)
        blocks = [
            _column_facts(x[:, start:start + width], start)
            for start in range(0, self.n, width)
        ]
        lo, witness, margins, sums = (np.concatenate(facts) for facts in zip(*blocks))
        for facts in (lo, witness, margins, sums):
            facts.flags.writeable = False
        return StructureReport(
            column_margins=margins,
            min_entry=float(lo.min()),
            max_row_sum_error=float(np.abs(x.sum(axis=1) - 1.0).max()),
            column_lo=lo,
            lo_witness=witness,
            column_sums=sums,
        )


@dataclass(frozen=True)
class StructureReport:
    """Facts about X, read off it in one pass over column blocks: a
    :class:`FundamentalMatrix`'s ``report``.

    ``column_margins[i]`` is the diagonal entry minus the largest
    off-diagonal entry of column i (inf if it has none), strictly positive
    once checked.  ``column_lo[i]`` is column i's minimum and ``lo_witness[i]``
    its first row within :data:`FLOAT_RESOLUTION` of it, as :func:`pr_interval`
    reports them; ``column_sums`` is s = X^T 1, as the certificates mix it in.
    """

    column_margins: np.ndarray
    min_entry: float
    max_row_sum_error: float
    column_lo: np.ndarray
    lo_witness: np.ndarray
    column_sums: np.ndarray


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


def _block_width(n: int) -> int:
    """Columns per residual or structure check block at n rows."""
    return max(1, min(RESIDUAL_BLOCK, RESIDUAL_FLOATS // n))


def _check_residual(r: np.ndarray, what: str, first: int = 0) -> None:
    """Raise :class:`NumericalError` when a residual A x - b exceeds
    SOLVE_RESIDUAL_TOL or is NaN; column k of ``r`` is ``what`` number
    first + k."""
    per_column = np.abs(r, out=r).max(axis=0)
    # argmax and max both pick out a NaN, which the comparison then fails
    worst = first + int(np.argmax(per_column))
    residual = float(np.max(per_column))
    if not residual <= SOLVE_RESIDUAL_TOL:
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
    n: int,
) -> None:
    """Raise :class:`StructureError` unless X's guaranteed structure holds;
    ``margins`` covers the columns from ``first_column`` on of the n x n X.

    Each row of X is a rank vector, so its sum may stray from 1 by
    :func:`~rankreach.stochastic.solve_sum_tol`.  Every test is written so
    that a NaN fails it."""
    failures = {}
    if not min_entry >= -FLOAT_RESOLUTION:
        failures["min_entry"] = min_entry
    if not row_sum_error <= solve_sum_tol(alpha, n):
        failures["row_sum_error"] = row_sum_error
    if not margins.min() > 0.0:
        failures["worst_margin"] = float(margins.min())
        failures["worst_column"] = first_column + int(margins.argmin())
    if failures:
        raise StructureError(
            f"fundamental matrix structure violated: {failures}", details=failures
        )


def _column_facts(cols: np.ndarray, first: int) -> tuple[np.ndarray, ...]:
    """Minimum, first witness row, dominance margin and sum of each of X's
    columns first, first + 1, ..., held side by side in ``cols``.  The
    witness is the first row within FLOAT_RESOLUTION of the minimum, and
    the margin is the diagonal entry minus the largest other entry."""
    k = np.arange(cols.shape[1])
    lo = cols.min(axis=0)
    # argmax finds the first True row of each column
    witness = (cols <= lo + FLOAT_RESOLUTION).argmax(axis=0)
    off_diag = cols.copy()
    off_diag[first + k, k] = -np.inf
    margins = cols[first + k, k] - off_diag.max(axis=0)
    return lo, witness, margins, cols.sum(axis=0)


def verify_structure(fm: FundamentalMatrix) -> StructureReport:
    """Check the guaranteed structure of X; a violation means solver breakdown.

    Asserts entrywise nonnegativity, unit row sums, and that each diagonal
    entry strictly dominates its column, on ``fm.report``.  Returns that
    report, and raises :class:`StructureError` else.
    """
    report = fm.report
    _check_structure(report.min_entry, report.max_row_sum_error, report.column_margins,
                     0, fm.alpha, fm.n)
    return report


def pr_interval(src: FundamentalMatrix | RankContext, i: int) -> PRInterval:
    """Open interval (column minimum, diagonal entry) for node i, read off
    X's ``report`` or, from a context without X, one solved column."""
    return _read_column(src, i)[0]


def _read_column(src, i: int) -> tuple[PRInterval, float, np.float64]:
    """Node i's :func:`pr_interval`, x_wi at its witness row w and its
    column sum s_i, which every one-node question reads: off the report of
    X, given or held, else off the facts of the one column solved for."""
    if src.n == 1:
        raise DegenerateIntervalError(
            "single-node graph: the rank is identically 1"
        )
    _check_nodes(src.n, i)
    fm = src._fundamental if isinstance(src, RankContext) else src
    if fm is None:
        col, facts = src._solved_column(i)
        lo, w, _, s_i = (fact[0] for fact in facts)
    else:
        report, col = fm.report, fm.x[:, i]
        lo, w, s_i = report.column_lo[i], report.lo_witness[i], report.column_sums[i]
    interval = PRInterval(node=i, lo=float(lo), hi=float(col[i]), lo_witness=int(w))
    return interval, float(col[w]), s_i


def _check_nodes(n: int, *nodes: int) -> None:
    """Raise :class:`DomainError` unless every node index is an integer in
    [0, n); checked before X is indexed, which would wrap negative indices,
    truncate floats and read bools as 0 and 1."""
    for i in nodes:
        if not _is_integer(i):
            raise DomainError(f"node index must be an integer, got {i!r}")
        if not 0 <= i < n:
            raise DomainError(f"node index {i} out of range")


def _check_concentration(n: int, epsilon: float) -> None:
    """Raise :class:`DomainError` unless the concentrated family
    v_k(epsilon) exists: n >= 2 and epsilon in (0, 1)."""
    if n < 2:
        raise DomainError("concentrated family needs at least 2 nodes")
    if not _is_real(epsilon):
        raise DomainError(f"epsilon must be a number, got {epsilon!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")


def basis_family(j: int, epsilon: float, n: int) -> PersonalizationVector:
    """Vector with 1 - epsilon at node j and epsilon/(n-1) everywhere else."""
    if not _is_integer(n):
        raise DomainError(f"node count must be an integer, got {n!r}")
    _check_concentration(n, epsilon)
    _check_nodes(n, j)
    v = np.full(n, epsilon / (n - 1))
    v[j] = 1.0 - epsilon
    return PersonalizationVector(v=v, _adopt=True)


def _family_values(x: np.ndarray, s, epsilon: float, n: int) -> np.ndarray:
    """Rank values under the concentrated personalizations v_k(epsilon) of
    :func:`basis_family`, affine in the entries x_ki of X:

        pi(v_k(epsilon))_i = (1 - epsilon - w) x_ki + w s_i,

    w = epsilon/(n-1) and s = X^T 1.  ``s`` broadcasts against ``x``: a
    column beside rows of X, or the sum of the one column of X given."""
    w = epsilon / (n - 1)
    # the bits of (1 - epsilon - w) * x + w * s, with one temporary
    v = (1.0 - epsilon - w) * x
    v += w * s
    return v


def _lu_width(n: int) -> int:
    """Rows per diagonal block of the block LU of an n x n matrix: the
    multiple of 64 at or above n/8, clamped to [64, 256].  Inverting a
    wide block costs more than the whole LU of a small matrix, while at
    large n narrow blocks split the Schur updates into too many products."""
    return min(256, max(64, -(-n // 512) * 64))


def _subtract_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out -= a @ b, LU_PANEL rows of out at a time; out is row-major."""
    for start in range(0, out.shape[0], LU_PANEL):
        rows = slice(start, start + LU_PANEL)
        out[rows] -= a[rows] @ b


def _lu_blocks(n: int) -> list[tuple[slice, slice]]:
    """(d, rest) for each diagonal block d of the block LU of an n x n
    matrix, in order: d's indices and the indices past it."""
    width = _lu_width(n)
    return [
        (slice(start, start + width), slice(start + width, n))
        for start in range(0, n, width)
    ]


def _lu_factor(a: np.ndarray) -> np.ndarray:
    """Block LU of a square C-order array without pivoting, in place.

    A right-looking loop over diagonal blocks of :func:`_lu_width` rows:
    each block of U is inverted outright, the column of L below it is
    scaled by that inverse, and the Schur complement update is one matrix
    product.  So L has identity diagonal blocks, and ``a`` ends up holding
    L and U off the diagonal blocks and the inverses of U's diagonal
    blocks on them.  Without pivoting this is stable for the strictly
    column diagonally dominant matrices it is used on: partial pivoting
    would never swap a row of them, and block LU of such a matrix is
    stable (Demmel, Higham and Schreiber, 1995).
    """
    try:
        for d, rest in _lu_blocks(a.shape[0]):
            a[d, d] = np.linalg.inv(a[d, d])
            a[rest, d] = a[rest, d] @ a[d, d]
            _subtract_product(a[rest, rest], a[rest, d], a[d, rest])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"block LU met a singular diagonal block: {exc}",
            details={"n": a.shape[0]},
        ) from None
    return a


def _lu_solve(
    lu: np.ndarray, b: np.ndarray, trans: int = 0, lower_rhs: bool = False
) -> np.ndarray:
    """Solve A x = b (trans 0) or A^T x = b (trans 1) with A's block LU,
    overwriting b, a vector or a matrix of columns, with x; returns it.

    ``lower_rhs`` says b is square and zero above its diagonal blocks, as
    a multiple of I is.  L^{-1} b is zero there too, so the forward loop
    of a trans 0 solve updates only the columns up to the current block.
    """
    cols = b.reshape(lu.shape[0], -1)
    blocks = _lu_blocks(lu.shape[0])
    if trans == 0:
        for d, rest in blocks:  # L y = b, L with identity diagonal blocks
            done = slice(0, d.stop) if lower_rhs else slice(None)
            _subtract_product(cols[rest, done], lu[rest, d], cols[d, done])
        for d, rest in reversed(blocks):  # U x = y
            cols[d] -= lu[d, rest] @ cols[rest]
            cols[d] = lu[d, d] @ cols[d]
    else:
        for d, rest in blocks:  # U^T y = b
            cols[d] = lu[d, d].T @ cols[d]
            _subtract_product(cols[rest], lu[d, rest].T, cols[d])
        for d, rest in reversed(blocks):  # L^T x = y
            cols[d] -= lu[rest, d].T @ cols[rest]
    return b


class RankContext:
    """Fixed damping factor and patched transition matrix.

    Owns the package's only factorization: one block LU of the rank
    system A_t = I - alpha P_u^T, made on first use.  It answers in three
    ways.  A personalization's rank vector is a solve with A_t
    (:meth:`rank`, :meth:`rank_weights`, the Monte-Carlo batches).  A
    one-node question (one interval, one pair, one hull, ``achieve_value``)
    reads the columns of X it needs, each one transposed solve with
    A_t^T = I - alpha P_u unless X is held.  A family or whole-graph
    question (a certificate, intervals, leaders, the scan) reads X, built
    and verified at most once, on first use.  The one pass over X that
    verifies it is X's ``report``, which keeps every column's minimum,
    witness row and sum for the one-node questions that follow.
    """

    def __init__(self, alpha: float, p_u: RowStochasticMatrix):
        _check_alpha(alpha)
        self.alpha = alpha
        self.p_u = p_u
        self._lu = None
        self._fundamental = None
        self._row_sum_error = None

    @classmethod
    def from_graph(
        cls,
        g: DirectedGraph,
        alpha: float = DEFAULT_ALPHA,
        u: np.ndarray | None = None,
    ) -> "RankContext":
        """Context of graph g; the dangling distribution u is uniform unless given."""
        return cls(alpha=alpha, p_u=row_stochastic(g, u))

    @property
    def n(self) -> int:
        return self.p_u.n

    def _factorization(self) -> np.ndarray:
        if self._lu is None:
            n, p = self.n, self.p_u.p
            # A_t = I - alpha P_u^T in C order: entry (j, i) is -alpha P_ij,
            # and a dangling row of P_u, u^T, is a column of A_t
            a = np.zeros((n, n))
            a[p.indices, p.rows()] = -self.alpha * p.data
            a[:, self.p_u.dangling] = -self.alpha * self.p_u.u[:, None]
            a.reshape(-1)[:: n + 1] += 1.0
            self._lu = _lu_factor(a)
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

        ``weights`` is finite, of shape (n,) or (n, k).  Every column's
        residual is checked, at most ``RESIDUAL_BLOCK`` columns at a time, so
        checking a large batch holds no third copy of it."""
        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            raise DomainError("weights must be an array of numbers") from None
        if w.ndim not in (1, 2) or w.shape[0] != self.n:
            raise DomainError(
                f"weights must have shape (n,) or (n, k) with n = {self.n}, "
                f"got {w.shape}"
            )
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        b = np.multiply(w, 1.0 - self.alpha, order="C")
        x = _lu_solve(self._factorization(), b.copy())
        # views of x and b with one column per vector, a lone vector included
        cols, rhs = x.reshape(self.n, -1), b.reshape(self.n, -1)
        width = _block_width(self.n)
        for start in range(0, cols.shape[1], width):
            block = slice(start, start + width)
            r = self._system_times(cols[:, block], 0)
            r -= rhs[:, block]
            _check_residual(r, "weight column", first=start)
        return x

    def rank(self, v: PersonalizationVector) -> PageRankVector:
        """Residual-checked rank vector for personalization v."""
        return self._rank_vector(self.rank_weights(v.v))

    def _rank_vector(self, pi: np.ndarray) -> PageRankVector:
        """A rank vector this context computed, as a :class:`PageRankVector`
        that adopts ``pi``: checked once and frozen in place, not copied.
        One that is not strictly positive or strays from sum 1 by more than
        the solve allows is a :class:`NumericalError`, not a bad input."""
        try:
            return PageRankVector(pi=pi, alpha=self.alpha, _adopt=True)
        except DomainError as exc:
            raise NumericalError(
                f"solved {exc}",
                details={
                    "rank_sum_error": float(abs(pi.sum() - 1.0)),
                    "min_entry": float(pi.min()),
                },
            ) from None

    def fundamental(self) -> FundamentalMatrix:
        """Structure-verified X, computed once.

        Column i of X solves A_t^T x = (1 - alpha) e_i, as in
        :meth:`column`; all n columns at once are the rows of one solve
        A_t X^T = (1 - alpha) I.  Each column's residual is checked.
        """
        if self._fundamental is None:
            # A_t Y = (1 - alpha) I makes Y = X^T, so the C-order right-hand
            # side turns into X in Fortran order, in place
            y = np.eye(self.n)
            y *= 1.0 - self.alpha
            x = _lu_solve(self._factorization(), y, lower_rhs=True).T
            width = _block_width(self.n)
            for start in range(0, self.n, width):
                self._check_column_residuals(x[:, start:start + width], start)
            fm = FundamentalMatrix(x=x, alpha=self.alpha, _adopt=True)
            verify_structure(fm)
            self._fundamental = fm
        return self._fundamental

    def _row_sums(self) -> float:
        """Max deviation of X's row sums from 1: X 1 is one transposed
        solve, made once per context."""
        if self._row_sum_error is None:
            ones = np.full(self.n, 1.0 - self.alpha)
            sums = _lu_solve(self._factorization(), ones, trans=1)
            self._row_sum_error = float(np.abs(sums - 1.0).max())
        return self._row_sum_error

    def column(self, i: int) -> np.ndarray:
        """Column i of X: read off X when it is built, else one transposed
        solve, whose residual and structure are checked as X's would be
        (nonnegative, diagonal strictly dominant, unit row sums)."""
        _check_nodes(self.n, i)
        if self._fundamental is not None:
            return self._fundamental.column(i)
        return self._solved_column(i)[0]

    def _solved_column(self, i: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Column i of X by one transposed solve, checked as :meth:`column`
        says, with the :func:`_column_facts` its structure check read."""
        b = np.zeros((self.n, 1))
        b[i] = 1.0 - self.alpha
        col = _lu_solve(self._factorization(), b, trans=1)
        self._check_column_residuals(col, i)
        facts = _column_facts(col, i)
        lo, _, margins, _ = facts
        _check_structure(float(lo[0]), self._row_sums(), margins, i, self.alpha, self.n)
        return col[:, 0], facts

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
    step costs O(1).  The interval, f1 and f0 read x_ii, x_wi and s_i
    of column i alone, from X's report when the context holds X.
    The personalization returned is written entry by entry and checked
    once, where it is made.
    """
    for name, value in (("tol", tol), ("target", target)):
        if not _is_real(value):
            raise DomainError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(tol):
        raise DomainError(f"tol must be finite, got {tol}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    epsilon = min(1e-6, tol / 10.0)
    if epsilon == 0.0:
        raise DomainError(f"tol {tol!r} is too small: tol/10 underflows to 0")
    interval, x_wi, s_i = _read_column(ctx, i)
    if not interval.lo < target < interval.hi:
        raise DomainError(
            f"target {target:.12g} outside the attainable open interval "
            f"({interval.lo:.12g}, {interval.hi:.12g})"
        )
    # node i's value at lambda = 1 (concentrated on i) and at lambda = 0
    ends = _family_values(np.array([interval.hi, x_wi]), s_i, epsilon, ctx.n)
    f1, f0 = ends.tolist()
    if not min(f0, f1) <= target <= max(f0, f1):
        closest = f0 if abs(f0 - target) <= abs(f1 - target) else f1
        raise NumericalError(
            f"target {target:.12g} unreachable at epsilon floor {epsilon:g}; "
            f"closest achieved {closest:.12g}",
            details={"closest_achieved": closest, "epsilon": epsilon},
        )
    increasing = f1 >= f0
    lo_lam, hi_lam = 0.0, 1.0
    for _ in range(200):
        lam = 0.5 * (lo_lam + hi_lam)
        val = lam * f1 + (1.0 - lam) * f0
        if abs(val - target) <= tol:
            # lam * v_i(epsilon) + (1 - lam) * v_w(epsilon), entry by entry
            far, near = epsilon / (ctx.n - 1), 1.0 - epsilon
            v = np.full(ctx.n, lam * far + (1.0 - lam) * far)
            v[interval.lo_witness] = lam * far + (1.0 - lam) * near
            v[i] = lam * near + (1.0 - lam) * (near if interval.lo_witness == i else far)
            return AchieveResult(
                lam=lam, epsilon=epsilon, achieved=val,
                v=PersonalizationVector(v=v, _adopt=True),
            )
        if (val < target) == increasing:
            lo_lam = lam
        else:
            hi_lam = lam
    raise NumericalError(
        f"bisection stalled at {val:.12g} for target {target:.12g} (tol {tol:g})",
        details={"closest_achieved": val, "lambda": lam, "epsilon": epsilon},
    )
