"""Fundamental matrix and the exact localization of attainable rank values.

Everything downstream reads off X = (1 - alpha) * (I - alpha P_u)^{-1}:
its rows are limiting rank vectors under personalizations concentrated on
one node, each column's minimum and diagonal entry bound the attainable
rank of that node, and any interior value is realized constructively by
mixing two concentrated personalizations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateIntervalError,
    DomainError,
    NumericalError,
    StructureError,
)
from .graph import CSRMatrix, DirectedGraph
from .stochastic import (
    DEFAULT_ALPHA,
    PageRankVector,
    PersonalizationVector,
    RowStochasticMatrix,
    SOLVE_RESIDUAL_TOL,
    _GatherPlan,
    _check_alpha,
    _is_integer,
    _is_real,
    _real_array,
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
        x = self.x if _adopt else _real_array(self.x, "matrix", order="F")
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


def _check_residual(
    r: np.ndarray, what: str, first: int = 0, scale: float | np.ndarray = 1.0
) -> None:
    """Raise :class:`NumericalError` when a residual A x - b exceeds
    SOLVE_RESIDUAL_TOL times max(1, scale), ``scale`` one number or one
    per column, or is NaN; column k of ``r`` is ``what`` number first + k."""
    per_column = np.abs(r, out=r).max(axis=0)
    bounds = np.broadcast_to(SOLVE_RESIDUAL_TOL * np.maximum(1.0, scale), per_column.shape)
    # argmax picks out a NaN, which the comparison then fails
    k = int(np.argmax(per_column / bounds))
    residual = float(per_column[k])
    if not residual <= bounds[k]:
        raise NumericalError(
            f"{what} {first + k}: residual {residual:.3e} exceeds {bounds[k]:g}",
            details={what: first + k, "residual": residual},
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
    lu: np.ndarray, b: np.ndarray, trans: int = 0, lower_rhs: Sequence[int] = ()
) -> np.ndarray:
    """Solve A x = b (trans 0) or A^T x = b (trans 1) with A's block LU,
    overwriting b, a vector or a matrix of columns, with x; returns it.

    ``lower_rhs`` says b is zero above a staircase, and L^{-1} b is zero
    there too, so the forward loop of a trans 0 solve updates, at each
    diagonal block, only the leading columns that its rows reach: it gives,
    for each row r, how many leading columns of b may be nonzero in rows 0
    to r.
    """
    n = lu.shape[0]
    cols = b.reshape(n, -1)
    blocks = _lu_blocks(n)
    if trans == 0:
        for d, rest in blocks:  # L y = b, L with identity diagonal blocks
            done = slice(0, lower_rhs[min(d.stop, n) - 1]) if lower_rhs else slice(None)
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


def _peel_levels(m: int, source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Each state's Kahn level in the chain on m states with links
    source[k] -> target[k], -1 for the core: level 0 has no in-link, and
    level l + 1 none but from levels 0 to l.  A state on a cycle, or fed
    by one, never peels; a self-loop is an in-link like any other, and a
    repeated link counts each time.  The in-link counts are over the links
    of the states not yet peeled: each pass peels the states at 0, then
    takes their out-links off the counts."""
    level_of = np.full(m, -1)
    in_links = np.bincount(target, minlength=m)
    level = 0
    while (peel := (in_links == 0) & (level_of < 0)).any():
        level_of[peel] = level
        in_links -= np.bincount(target[peel[source]], minlength=m)
        level += 1
    return level_of


def _rows_of(rows: int, at: np.ndarray, cols: np.ndarray, data: np.ndarray) -> CSRMatrix:
    """The sparse W with ``rows`` rows and entry data[k] at (at[k],
    cols[k]), in CSR form; a row keeps its entries in the order given."""
    order = np.argsort(at, kind="stable")
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(at, minlength=rows), out=indptr[1:])
    return CSRMatrix(indptr=indptr, indices=cols[order], data=data[order])


def _split(keys: np.ndarray, count: int) -> list[np.ndarray]:
    """For each key 0, ..., count - 1, the positions in ``keys`` that hold
    it; negative keys are left out."""
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(count + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


class _Reduction:
    """The chain that the block LU factors, the LU of its core, and the
    sparse steps that carry a solve of the n-node system onto the core
    and back.

    Lumping: every dangling row of P_u is u^T, so two or more dangling
    nodes move alike and merge into one state, delta (Ipsen and Selee,
    *PageRank computation, with special attention to dangling nodes*,
    2007).  The lumped chain P_L keeps a state per other node and delta: a
    link into a dangling node leads to delta, and delta's row is u with
    its dangling part summed.  A lone dangling node is a state of its own,
    with row u.  Peeling: a state with no in-link in P_L is entered by no
    walk that starts elsewhere, and once it goes others may have none;
    they come off level by level, in Kahn's order, read off in-link counts
    over P_L's link table ``links`` (:func:`_peel_levels`).  A peeled state
    links only to later levels and to the core, so a solve goes forward
    through the levels into the core, or back from the core through the
    levels, last level first; each level's step is planned from ``links``
    too.  What stays is the core.  No core state links to a
    peeled one, so P_L on the core is row-stochastic, and A_C = I - alpha
    P_CC^T is strictly column diagonally dominant as A_t is; ``lu`` is its
    block LU, made here.  With at most one dangling node and nothing to
    peel, the core is every node and A_C is A_t, bit for bit.

    Every index is a node's: a state is its node, and delta is the first
    dangling node, so the states keep node order and a work array has a
    row per node.  The other lumped dangling nodes are in no link, no
    level and not the core; their rows are read by no step.  A kept node's
    column of X is a trans 1 solve from its own right-hand side, 0 on the
    dangling rows and so lumped as it stands.  Only a general right-hand
    side, such as the constant one of X's row sums, is lumped by adding
    alpha P_u b_D, a product with P_u itself.
    """

    def __init__(self, p_u: RowStochasticMatrix, alpha: float):
        p, n = p_u.p, p_u.n
        self.p_u, self.n, self.alpha = p_u, n, alpha
        self.dangling = np.flatnonzero(p_u.dangling)
        self.u_dangling = p_u.u[self.dangling]
        self.lumped = self.dangling.size > 1
        source, target = p.rows(), p.indices
        into = p_u.dangling[target]
        # P_L's links, each once: P's links between kept nodes, each kept
        # row's links into the dangling nodes summed into one to delta, and
        # delta's row, u with its dangling part summed; with no dangling
        # node, delta and its links are empty
        delta, mass = self.dangling[:1], self.u_dangling.sum()
        to_delta = np.bincount(source[into], weights=p.data[into], minlength=n)
        feeding = np.flatnonzero(to_delta)
        support = np.flatnonzero((p_u.u > 0) & ~p_u.dangling & (delta.size > 0))
        loop = delta if mass > 0 else delta[:0]
        self.links = (
            np.concatenate([source[~into], feeding, np.repeat(delta, support.size), loop]),
            np.concatenate([target[~into], np.repeat(delta, feeding.size), support, loop]),
            np.concatenate([p.data[~into], to_delta[feeding], p_u.u[support],
                            np.full(loop.size, mass)]),
        )
        # (P^T y)_j over the kept rows, for the dangling columns j
        self.in_links = _rows_of(
            self.dangling.size, np.searchsorted(self.dangling, target[into]),
            source[into], p.data[into])
        self.into_dangling = _GatherPlan(self.in_links)
        source, target, _ = self.links
        self.level_of = level_of = _peel_levels(n, source, target)
        # the other lumped dangling nodes, in no link, would peel at level 0
        level_of[self.dangling[1:]] = -2
        self.levels = _split(level_of, level_of.max() + 1)
        self.core = np.flatnonzero(level_of == -1)
        self.position = np.full(n, -1)
        self.position[self.core] = np.arange(self.core.size)
        # P_L's rows of each level, last level first
        self.back = self._level_steps(source, target)[::-1]
        self.diagonal = np.flatnonzero(level_of >= 0)
        self.lu = _lu_factor(self._core_system())

    def _level_steps(self, at: np.ndarray, to: np.ndarray) -> list[tuple[np.ndarray, _GatherPlan]]:
        """Each Kahn level's nodes, first level first, with the gather plan
        of the links that leave them at ``at`` for the nodes ``to``: P_L's
        rows of the level from (source, target), P_L^T's from (target,
        source)."""
        levels, data = self.levels, self.links[2]
        return [
            (level, _GatherPlan(_rows_of(
                level.size, np.searchsorted(level, at[links]), to[links], data[links])))
            for level, links in zip(levels, _split(self.level_of[at], len(levels)))
        ]

    @cached_property
    def forward(self) -> list[tuple[np.ndarray, _GatherPlan]]:
        """The forward steps of a trans 0 solve: P_L^T's rows of each Kahn
        level, then P_L^T's rows of the core restricted to peeled columns,
        what the peeled states feed into it.  Made on first use, as only
        rank vectors need them."""
        source, target, data = self.links
        feed = (self.level_of[target] < 0) & (self.level_of[source] >= 0)
        return [*self._level_steps(target, source), (self.core, _GatherPlan(_rows_of(
            self.core.size, self.position[target[feed]], source[feed], data[feed])))]

    def _core_system(self) -> np.ndarray:
        """A_C = I - alpha P_CC^T in C order: entry (j, i) is -alpha P_ij."""
        position, c = self.position, self.core.size
        source, target, data = self.links
        # a core state links to core states alone
        keep = position[source] >= 0
        a = np.zeros((c, c))
        a[position[target[keep]], position[source[keep]]] = -self.alpha * data[keep]
        a.reshape(-1)[:: c + 1] += 1.0
        return a

    def solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        """x with A_t x = b (trans 0) or A_t^T x = b (trans 1), for b a
        vector or a matrix of columns, as a fresh array; one
        :func:`_lu_solve` on the core.

        trans 1 is (I - alpha P_u) x = b.  The lumped right-hand side adds
        alpha P_u b_D, b_D being b on the dangling rows and 0 on the rest:
        each kept row gains alpha times its links into dangling nodes, and
        delta, its own b dropped, is alpha u^T b_D.  Delta's value is then
        alpha u^T x, and a dangling node's x is its b plus that.  A peeled
        state's x follows from its out-links, so the peeled states go back
        from the core, level by level.  trans 0 is (I - alpha P_u^T) y = b.
        Delta's right-hand side and value are the sums over the dangling
        nodes; a peeled state's y follows from its in-links, so the levels
        go forward into the core, and a dangling node's y is its b plus
        alpha times its in-links and u's share of delta.
        """
        # x starts as b: the rows of the lumped-away dangling nodes are read
        # by no step and written last
        alpha = self.alpha
        x = b.copy()
        w, b = x.reshape(self.n, -1), b.reshape(self.n, -1)
        dangling = self.dangling
        if trans == 1:
            if self.lumped:
                w[dangling[0]] = 0.0
                w += alpha * self.p_u.matvec(np.where(self.p_u.dangling[:, None], b, 0.0))
            self._solve_back(w, b[dangling])
            return x
        if self.lumped:
            w[dangling[0]] = b[dangling].sum(axis=0)
        if self.levels:
            for rows, forward in self.forward:
                w[rows] += alpha * forward(w)
        w[self.core] = _lu_solve(self.lu, w[self.core])
        if self.lumped:
            self._dangling_rows(w, b[dangling])
        return x

    def _dangling_rows(self, w: np.ndarray, b_dangling) -> None:
        """The dangling rows of a trans 0 solve, in place, from its other
        rows and its right-hand side's dangling rows: a dangling node's y
        is its b plus alpha times its in-links and u's share of delta."""
        rows = self.into_dangling(w)
        rows += self.u_dangling[:, None] * w[self.dangling[0]]
        rows *= self.alpha
        rows += b_dangling
        w[self.dangling] = rows

    def _solve_back(self, w: np.ndarray, b_dangling) -> None:
        """The trans 1 solve from its lumped right-hand side w, in place:
        the core, then the peeled states back from it, then the dangling
        nodes."""
        w[self.core] = _lu_solve(self.lu, w[self.core], trans=1)
        self._peel(w)
        if self.lumped:
            w[self.dangling] = b_dangling + w[self.dangling[0]]

    def column(self, j: int) -> np.ndarray:
        """Column j of X, shape (n, 1): the trans 1 solve of (1 - alpha)
        e_j, whose right-hand side is lumped as it stands, being 0 on the
        dangling rows, so it takes no product with P_u.  But a lumped
        dangling node j's column is made as :meth:`fundamental` makes it
        from X, by :meth:`_dangling_rows`: from the columns of j's in-links
        and delta's column of X_L, all in one trans 1 solve.  So where those
        columns have the bits of X's, this one does too."""
        alpha = self.alpha
        if not (self.lumped and self.p_u.dangling[j]):
            col = np.zeros((self.n, 1))
            col[j] = 1.0 - alpha
            self._solve_back(col, 0.0)
            return col
        k = int(np.searchsorted(self.dangling, j))
        links = slice(self.in_links.indptr[k], self.in_links.indptr[k + 1])
        rows = np.append(self.in_links.indices[links], self.dangling[0])
        cols = np.zeros((self.n, rows.size))
        cols[rows, np.arange(rows.size)] = 1.0 - alpha
        self._solve_back(cols, 0.0)
        # the gather-adds of _dangling_rows, in their order
        col = np.zeros(self.n)
        for weight, source in zip(self.in_links.data[links], cols.T):
            col += weight * source
        col += self.u_dangling[k] * cols[:, -1]
        col *= alpha
        col[j] += 1.0 - alpha
        return col[:, None]

    def fundamental(self, check) -> np.ndarray:
        """X in Fortran order, each block of its columns handed to
        ``check(cols, first)`` once it is final.

        A_t Y = (1 - alpha) I makes Y = X^T, so a C-order right-hand side
        turns into X in Fortran order, in place, in three steps.  First
        the core's columns of X come out of the LU, from (1 - alpha) in row
        k and column ``core[k]``: the columns keep node order, so each
        solved row is a whole column of X, moved to its node's row; a
        peeled node's column is 0 on the core, and a lumped dangling one is
        made last.  Then the peeled rows go back from the core, as in a
        trans 1 solve (:meth:`_peel`).  Last, the lumped-away dangling rows
        take delta's row of X_L, and the dangling columns are the dangling
        rows of the trans 0 solve of (1 - alpha) I (:meth:`_dangling_rows`),
        as X = (1 - alpha) I + alpha X P_u.
        """
        c, n = self.core.size, self.n
        y = np.zeros((n, n))
        y[np.arange(c), self.core] = 1.0 - self.alpha
        z = _lu_solve(self.lu, y[:c], lower_rhs=(self.core + 1).tolist())
        if not np.shares_memory(y, z):
            y[:c] = z
        # row k moves to row core[k]: runs of rows with one shift, from the
        # last run, each in pieces of at most LU_PANEL rows, so that the copy
        # numpy makes of a piece that overlaps where it goes stays small
        shift = self.core - np.arange(c)
        cuts = np.flatnonzero(np.diff(shift)) + 1
        for lo, hi in zip(np.append(0, cuts)[::-1].tolist(), np.append(cuts, c)[::-1].tolist()):
            if step := int(shift[lo]):
                for top in range(hi, lo, -LU_PANEL):
                    bottom = max(lo, top - LU_PANEL)
                    y[bottom + step:top + step] = y[bottom:top]
        stale = np.ones(c, dtype=bool)
        stale[self.core[self.core < c]] = False
        y[:c][stale] = 0.0
        x, width = y.T, _block_width(n)
        if self.lumped:
            # the dangling columns read every other column, peeled rows and
            # all, so the peeled rows take a pass of their own
            if self.back:
                for start in range(0, n, width):
                    self._peel_block(x[:, start:start + width], start)
            dangling = self.dangling
            y[:, dangling[1:]] = y[:, dangling[:1]]
            # the right-hand side (1 - alpha) I, its diagonal added last: as
            # a (dangling, n) array it cost 0.5 ms more at n = 2000
            self._dangling_rows(y, 0.0)
            y[dangling, dangling] += 1.0 - self.alpha
        for start in range(0, n, width):
            cols = x[:, start:start + width]
            if self.back and not self.lumped:
                cols = self._peel_block(cols, start)
            check(cols, start)
        return x

    def _peel(self, w: np.ndarray) -> None:
        """The peeled rows of a trans 1 solve, level by level back from the
        core: w_a += alpha (P_L w)_a, w_a holding the right-hand side."""
        for rows, back in self.back:
            w[rows] += self.alpha * back(w)

    def _peel_block(self, cols: np.ndarray, first: int) -> np.ndarray:
        """X's peeled rows in a block of its columns first, first + 1, ...,
        Fortran order, where they are 0: written there, and returned with
        the rest of the block in a C-order copy.  Row a of X_L is
        (1 - alpha) e_a + alpha P_L[a] X_L."""
        block = np.ascontiguousarray(cols)
        lo, hi = np.searchsorted(self.diagonal, (first, first + block.shape[1]))
        block[self.diagonal[lo:hi], self.diagonal[lo:hi] - first] = 1.0 - self.alpha
        self._peel(block)
        cols[self.diagonal] = block[self.diagonal]
        return block


class RankContext:
    """Fixed damping factor and patched transition matrix.

    Owns the package's only factorization through ``_chain``, the rank
    system A_t = I - alpha P_u^T reduced to its core (:class:`_Reduction`),
    which holds the block LU of that core; both are made on first use.
    Two or more dangling nodes leave the core as one lumped state, and
    the nodes that no walk enters, save from where it starts, leave it
    altogether.  Their part of X has a closed form in the rest: row i of
    X is (1 - alpha) e_i + alpha P_u[i] X, so a dangling row is
    (1 - alpha) e_j + alpha u^T X and the peeled rows go back from the
    core level by level, each from the rows it links to; a peeled node's
    column is 0 on the core; and as X = (1 - alpha) I + alpha X P_u, a
    dangling node's column follows from the columns of its in-links.
    Every residual and structure check still runs on the full n-node
    system, through P_u, and makes its own product with it.
    It answers in three ways.  A personalization's rank vector is a solve with A_t
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

    @cached_property
    def _chain(self) -> _Reduction:
        """The reduced chain and the block LU of its core, made on first use;
        every solve goes through it (:meth:`_Reduction.solve`)."""
        return _Reduction(self.p_u, self.alpha)

    def _system_times(self, x: np.ndarray, trans: int) -> np.ndarray:
        """A_t x (trans 0) or A_t^T x (trans 1), applied through the sparse
        P and its rank-one term, never a dense product, in a fresh array."""
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
        checking a large batch holds no third copy of it.  A solve of w
        errs in proportion to w, so column k's residual may reach
        SOLVE_RESIDUAL_TOL times max(1, max |w[:, k]|)."""
        w = _real_array(weights, "weights", copy=False)
        if w.ndim not in (1, 2) or w.shape[0] != self.n:
            raise DomainError(
                f"weights must have shape (n,) or (n, k) with n = {self.n}, "
                f"got {w.shape}"
            )
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        b = np.multiply(w, 1.0 - self.alpha, order="C")
        # a solve that overflows leaves inf or NaN, which its residual check
        # reports as one NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            x = self._chain.solve(b, 0)
            # views of x, b and w with one column per vector, a lone vector included
            cols, rhs, w = (a.reshape(self.n, -1) for a in (x, b, w))
            width = _block_width(self.n)
            for start in range(0, cols.shape[1], width):
                block = slice(start, start + width)
                r = self._system_times(cols[:, block], 0)
                r -= rhs[:, block]
                _check_residual(r, "weight column", start, np.abs(w[:, block]).max(axis=0))
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
        A_t X^T = (1 - alpha) I.  Only the core's columns come out of the
        LU: their right-hand sides keep node order, so each solved row is a
        whole column of X, moved in place to its node.  Peeled rows then go
        back from the core level by level, a block of columns at a time;
        the columns of lumped dangling nodes follow from their in-links.
        Each column's residual is checked on the full system, from the
        block's own product with P_u.
        """
        if self._fundamental is None:
            x = self._chain.fundamental(self._check_column_residuals)
            fm = FundamentalMatrix(x=x, alpha=self.alpha, _adopt=True)
            verify_structure(fm)
            self._fundamental = fm
        return self._fundamental

    def _row_sums(self) -> float:
        """Max deviation of X's row sums from 1: X 1 is one transposed
        solve, made once per context."""
        if self._row_sum_error is None:
            ones = np.full(self.n, 1.0 - self.alpha)
            sums = self._chain.solve(ones, 1)
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
        col = self._chain.column(i)
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
