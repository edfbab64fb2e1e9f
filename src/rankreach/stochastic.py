"""Row-stochastic machinery: the patched transition matrix P_u, the
probability vectors around it, and the model configuration.

P_u = P + d u^T is built once, from the graph's adjacency and the dangling
distribution u, and everything else solves against it through
:class:`~rankreach.localization.RankContext`.  The independent
cross-check routes (power iteration on the Google matrix, Gauss-Jordan
inversion) live in :mod:`rankreach.oracle`.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainError, ParseError
from .graph import CSRMatrix, DirectedGraph, adjacency

ROW_SUM_TOL = 1e-12
RANK_SUM_TOL = 1e-10
UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
SOLVE_RESIDUAL_TOL = 1e-10
DEFAULT_ALPHA = 0.85


def _is_integer(value) -> bool:
    """True for Python and NumPy integers, False for bools and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and NumPy integers and floats, NaN and inf included;
    False for bools and the rest, which no comparison should meet."""
    # a Python float first: certificate searches check every epsilon
    return type(value) is float or isinstance(value, np.floating) or _is_integer(value)


def _real_array(raw, name: str, *, copy: bool = True, order: str = "K") -> np.ndarray:
    """A caller's array as floats: a fresh copy in ``order``, or, unless
    ``copy``, ``raw`` itself where it is a float array already.  Entries
    that are not real numbers (complex, strings, objects or bools) are a
    :class:`DomainError` that names the argument; numpy would drop an
    imaginary part with a warning, or raise a bare ``ValueError``."""
    try:
        a = np.asarray(raw)
    except (TypeError, ValueError):
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers")
    return np.array(a, dtype=float, order=order) if copy else a.astype(float, copy=False)


def _check_alpha(alpha: float) -> None:
    """Raise :class:`DomainError` unless the damping factor lies in (0, 1)."""
    if not _is_real(alpha):
        raise DomainError(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def solve_sum_tol(alpha: float, n: int) -> float:
    """How far from 1 the sum of a probability vector of length n solved
    at damping factor alpha may stray: max(RANK_SUM_TOL, n kappa u), u the
    unit roundoff.

    kappa = (1 + alpha)/(1 - alpha) bounds the 1-norm condition number of
    A_t = I - alpha P_u^T: A_t^{-1} = X^T/(1 - alpha), and X is nonnegative
    with unit row sums, so ||A_t^{-1}||_1 = 1/(1 - alpha), while
    ||A_t||_1 <= 1 + alpha.  A backward stable solve returns the exact
    solution of (A_t + E) x = b with ||E||_1 <= c_n u ||A_t||_1, so to first
    order ||x - pi||_1 <= kappa c_n u ||pi||_1, and the sum of x strays
    from 1 by at most that.  The dimension factor c_n comes from rounding:
    every entry of the LU and of its triangular solves is a sum of up to n
    rounded terms, a length-n inner product errs by at most
    gamma_n = n u / (1 - n u) relative to |x|^T |y| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, Lemma 3.1), and the factors of the
    diagonally dominant A_t stay within a small multiple of its norm.  So
    c_n = n, to first order.  The bound exceeds the fixed tolerance only
    near alpha = 1 or at very large n."""
    return max(RANK_SUM_TOL, n * (1.0 + alpha) / (1.0 - alpha) * UNIT_ROUNDOFF)


def _frozen_vector(
    raw, name: str, *, sum_tol: float, adopt: bool = False, zeros: bool = False
) -> np.ndarray:
    """``raw`` as a read-only probability vector: 1-D, nonempty, strictly
    positive (nonnegative if ``zeros``), summing to 1 within ``sum_tol``;
    :class:`DomainError` else.

    ``raw`` is copied into a fresh float array (:func:`_real_array`),
    unless ``adopt`` says it is a float array the package has just computed
    and hands over: that one is checked and frozen where it lies, never
    copied."""
    v = raw if adopt else _real_array(raw, name)
    if v.ndim != 1 or v.size == 0:
        raise DomainError(f"{name} must be a nonempty vector")
    # argmin stops at a NaN, which the comparison then fails; it reads the
    # minimum at less fixed cost than a ufunc reduction
    low = v[v.argmin()]
    if not (low >= 0 if zeros else low > 0):
        raise DomainError(
            f"{name} entries must be {'zero or positive' if zeros else 'strictly positive'}"
        )
    total = np.add.reduce(v)
    if abs(total - 1.0) > sum_tol:
        raise DomainError(f"{name} must sum to 1, got {float(total):.12g}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class PersonalizationVector:
    """Strictly positive probability vector biasing the teleport step.

    An array passed in is copied before it is checked and frozen, so the
    caller's array stays writeable; one the package computed is handed
    over with ``_adopt`` and checked once, in place."""

    v: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        object.__setattr__(
            self,
            "v",
            _frozen_vector(self.v, "personalization vector", sum_tol=ROW_SUM_TOL, adopt=_adopt),
        )

    @classmethod
    def uniform(cls, n: int) -> "PersonalizationVector":
        return cls(v=np.full(n, 1.0 / n), _adopt=True)


class _GatherPlan:
    """y = W x for a sparse W and a C-order matrix of columns x, as gather-adds.

    W is given in CSR form, one row of y per row of W, and its column
    indices are rows of x; it need not be square.  The rows of W are kept
    sorted by entry count, longest first, so the rows that hold a k-th
    entry are a prefix of that order: step k adds w_k * x[cols_k] to that
    prefix, one whole row of x per row of W.  A step whose weights are all
    1 adds without multiplying.
    """

    def __init__(self, m: CSRMatrix):
        counts = np.diff(m.indptr)
        order = np.argsort(-counts, kind="stable")
        # position of each row of W in the sorted order
        self.rank = np.argsort(order)
        starts = m.indptr[order]
        sorted_counts = counts[order]
        self.steps = []
        for k in range(int(sorted_counts[0]) if m.n else 0):
            at = starts[: np.count_nonzero(sorted_counts > k)] + k
            w = m.data[at]
            self.steps.append((m.indices[at], None if (w == 1.0).all() else w[:, None]))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        acc = np.zeros((self.rank.size, x.shape[1]))
        if self.steps:
            buf = np.empty((self.steps[0][0].size, x.shape[1]))
            for cols, w in self.steps:
                part = np.take(x, cols, axis=0, out=buf[: cols.size], mode="clip")
                if w is not None:
                    part *= w
                acc[: cols.size] += part
        return np.take(acc, self.rank, axis=0)


@dataclass(frozen=True)
class RowStochasticMatrix:
    """The patched transition matrix P_u = P + d u^T, kept sparse.

    ``p`` is P, a :class:`~rankreach.graph.CSRMatrix` whose rows each sum
    to 1, except the all-zero rows of dangling nodes, marked by the boolean
    mask ``dangling`` (d); a dense square array is accepted too and stored
    in CSR form.  Patching does not fill those rows in: the dangling
    distribution ``u`` is kept beside ``p``, so P_u is a sparse part plus a
    rank-one term.  ``u`` is uniform when not given; it may hold zeros, so
    a dangling row of P_u links to the support of ``u`` alone.
    """

    p: CSRMatrix
    u: np.ndarray | None = None
    dangling: np.ndarray = field(init=False, repr=False)
    # P = diag(scale) W, scale the first entry of each row, so W is 1 on
    # every row whose entries are equal, as they are in a graph's P
    _scale: np.ndarray = field(init=False, repr=False, compare=False)
    _times: _GatherPlan = field(init=False, repr=False, compare=False)
    _times_t: _GatherPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.p, CSRMatrix):
            n, rows, cols, data = self.p.n, self.p.rows(), self.p.indices, self.p.data
        else:
            dense = _real_array(self.p, "transition matrix", copy=False)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise DomainError("transition matrix must be square and nonempty")
            n = dense.shape[0]
            rows, cols = np.nonzero(dense)
            data = dense[rows, cols]
        if n == 0:
            raise DomainError("transition matrix must be square and nonempty")
        p = CSRMatrix.from_entries(n, rows, cols, data)
        # written so that NaN entries fail it too
        if p.data.size and not (p.data.min() >= 0.0 and p.data.max() <= 1.0 + ROW_SUM_TOL):
            raise DomainError("transition entries must lie in [0, 1]")
        sums = np.bincount(p.rows(), weights=p.data, minlength=n)
        dangling = np.diff(p.indptr) == 0
        bad = ~dangling & (np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DomainError(f"row {row} sums to {sums[row]:.12g}, not stochastic")
        dangling.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dangling", dangling)
        u = np.full(n, 1.0 / n) if self.u is None else self.u
        u = _frozen_vector(u, "dangling distribution", sum_tol=ROW_SUM_TOL, zeros=True)
        if u.shape != (n,):
            raise DomainError("dangling distribution must have length n")
        object.__setattr__(self, "u", u)
        scale = np.zeros(n)
        scale[~dangling] = p.data[p.indptr[:-1][~dangling]]
        w = CSRMatrix(
            indptr=p.indptr,
            indices=p.indices,
            data=p.data / np.repeat(scale, np.diff(p.indptr)),
        )
        object.__setattr__(self, "_scale", scale[:, None])
        object.__setattr__(self, "_times", _GatherPlan(w))
        w_t = CSRMatrix.from_entries(n, w.indices, w.rows(), w.data)
        object.__setattr__(self, "_times_t", _GatherPlan(w_t))

    @property
    def n(self) -> int:
        return self.p.n

    def toarray(self) -> np.ndarray:
        """Dense P_u, for the oracles and tests."""
        dense = self.p.toarray()
        dense[self.dangling] = self.u
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """P_u x for a vector or a matrix of columns."""
        cols = x.reshape(self.n, -1)
        y = self._times(np.ascontiguousarray(cols))
        y *= self._scale
        y[self.dangling] += self.u @ cols
        return y.reshape(x.shape)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """P_u^T x for a vector or a matrix of columns."""
        cols = x.reshape(self.n, -1)
        y = self._times_t(np.multiply(cols, self._scale, order="C"))
        y += np.multiply.outer(self.u, cols[self.dangling].sum(axis=0))
        return y.reshape(x.shape)


@dataclass(frozen=True)
class PageRankVector:
    """Strictly positive rank vector summing to 1, solved at damping factor
    ``alpha``: its sum may stray from 1 by :func:`solve_sum_tol`.  A vector
    that fails these checks is a :class:`DomainError` here; one that a
    :class:`~rankreach.localization.RankContext` computed, for ``rank`` or
    a certificate, is a :class:`NumericalError` there.

    An array passed in is copied first, as :class:`PersonalizationVector`
    copies one; a vector the package computed is handed over with
    ``_adopt``, checked once where it was made and frozen there."""

    pi: np.ndarray
    alpha: float = field(repr=False, compare=False)
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        _check_alpha(self.alpha)
        sum_tol = solve_sum_tol(self.alpha, np.size(self.pi))
        object.__setattr__(
            self, "pi", _frozen_vector(self.pi, "rank vector", sum_tol=sum_tol, adopt=_adopt)
        )


def row_stochastic(g: DirectedGraph, u: np.ndarray | None = None) -> RowStochasticMatrix:
    """P_u = P + d u^T of graph g, with P its out-degree-normalized
    adjacency; the dangling distribution ``u`` is uniform unless given."""
    a = adjacency(g)
    kout = np.diff(a.indptr)
    p = CSRMatrix(indptr=a.indptr, indices=a.indices, data=1.0 / np.repeat(kout, kout))
    return RowStochasticMatrix(p=p, u=u)


@dataclass(frozen=True)
class StochasticConfig:
    """Damping factor plus dangling/personalization specs.

    A spec is either the string ``"uniform"`` or an explicit tuple of
    floats, validated on load: ``v`` strictly positive, ``u`` nonnegative.
    """

    alpha: float = DEFAULT_ALPHA
    u_spec: str | tuple[float, ...] = "uniform"
    v_spec: str | tuple[float, ...] = "uniform"

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name, spec in (("u", self.u_spec), ("v", self.v_spec)):
            if isinstance(spec, str):
                if spec != "uniform":
                    raise DomainError(f'{name} spec must be "uniform" or a vector')
            else:
                _frozen_vector(spec, f"{name} vector", sum_tol=ROW_SUM_TOL, zeros=name == "u")

    def dangling_distribution(self, n: int) -> np.ndarray:
        if self.u_spec == "uniform":
            return np.full(n, 1.0 / n)
        if len(self.u_spec) != n:
            raise DomainError(f"u vector has length {len(self.u_spec)}, graph has {n} nodes")
        return np.array(self.u_spec)

    def personalization(self, n: int) -> PersonalizationVector:
        if self.v_spec == "uniform":
            return PersonalizationVector.uniform(n)
        if len(self.v_spec) != n:
            raise DomainError(f"v vector has length {len(self.v_spec)}, graph has {n} nodes")
        return PersonalizationVector(v=np.array(self.v_spec, dtype=float), _adopt=True)


def load_config(text: str) -> StochasticConfig:
    """Parse the config JSON ``{"alpha": float, "u": [...]|"uniform", "v": ...}``."""
    try:
        # integers parse as floats, so none is too large to convert
        doc = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid config JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(doc) - {"alpha", "u", "v"}
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")

    def vector_spec(key):
        spec = doc.get(key, "uniform")
        if isinstance(spec, str):
            return spec
        numeric = isinstance(spec, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in spec
        )
        if numeric:
            return tuple(float(x) for x in spec)
        raise ParseError(f'config "{key}" must be "uniform" or a list of floats')

    alpha = doc.get("alpha", DEFAULT_ALPHA)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ParseError('config "alpha" must be a number')
    return StochasticConfig(
        alpha=float(alpha), u_spec=vector_spec("u"), v_spec=vector_spec("v")
    )
