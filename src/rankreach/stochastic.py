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
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DomainError, ParseError
from .graph import DirectedGraph, adjacency

ROW_SUM_TOL = 1e-12
RANK_SUM_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10
DEFAULT_ALPHA = 0.85


def _check_alpha(alpha: float) -> None:
    """Raise :class:`DomainError` unless the damping factor lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")


def _frozen_vector(raw, name: str, *, sum_tol: float) -> np.ndarray:
    v = np.array(raw, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError(f"{name} must be a nonempty vector")
    if not (v > 0).all():
        raise DomainError(f"{name} entries must be strictly positive")
    if abs(v.sum() - 1.0) > sum_tol:
        raise DomainError(f"{name} must sum to 1, got {v.sum()!r}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class PersonalizationVector:
    """Strictly positive probability vector biasing the teleport step."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "v", _frozen_vector(self.v, "personalization vector", sum_tol=ROW_SUM_TOL)
        )

    @classmethod
    def uniform(cls, n: int) -> "PersonalizationVector":
        return cls(v=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class RowStochasticMatrix:
    """Transition structure of the graph, kept sparse.

    ``p`` is a CSR matrix whose rows each sum to 1, except the all-zero
    rows of dangling nodes.  Patching does not fill those rows in: it
    records the dangling distribution ``u``, so the patched matrix is
    P_u = p + d u^T, a sparse part plus a rank-one term, with ``dangling``
    the boolean mask d.  Unpatched, ``u`` is None.
    """

    p: scipy.sparse.csr_array
    u: np.ndarray | None = None
    dangling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = scipy.sparse.csr_array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise DomainError("transition matrix must be square and nonempty")
        p.sum_duplicates()
        # written so that NaN entries fail it too
        if p.nnz and not (p.data.min() >= 0.0 and p.data.max() <= 1.0 + ROW_SUM_TOL):
            raise DomainError("transition entries must lie in [0, 1]")
        sums = p.sum(axis=1)
        dangling = sums == 0.0
        bad = ~dangling & (np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DomainError(f"row {row} sums to {sums[row]!r}, not stochastic")
        for arr in (p.data, p.indices, p.indptr, dangling):
            arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dangling", dangling)
        if self.u is not None:
            u = _frozen_vector(self.u, "dangling distribution", sum_tol=ROW_SUM_TOL)
            if u.shape != (self.n,):
                raise DomainError("dangling distribution must have length n")
            object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def dangling_patched(self) -> bool:
        return self.u is not None

    def toarray(self) -> np.ndarray:
        """Dense P_u (dense p before patching), for the oracles and tests."""
        dense = self.p.toarray()
        if self.dangling_patched:
            dense[self.dangling] = self.u
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """P_u x for a vector or a matrix of columns."""
        y = self.p @ x
        if self.dangling_patched:
            y[self.dangling] += self.u @ x
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """P_u^T x for a vector or a matrix of columns."""
        y = self.p.T @ x
        if self.dangling_patched:
            y += np.multiply.outer(self.u, x[self.dangling].sum(axis=0))
        return y


@dataclass(frozen=True)
class PageRankVector:
    """Strictly positive rank vector summing to 1."""

    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "pi", _frozen_vector(self.pi, "rank vector", sum_tol=RANK_SUM_TOL)
        )


def row_stochastic(g: DirectedGraph, u: np.ndarray | None = None) -> RowStochasticMatrix:
    """Out-degree-normalized adjacency P, patched to P_u = P + d u^T when a
    dangling distribution ``u`` is given; unpatched, dangling rows stay zero."""
    p = adjacency(g).astype(float)
    kout = np.diff(p.indptr)
    p.data /= np.repeat(kout, kout)
    return RowStochasticMatrix(p=p, u=u)


@dataclass(frozen=True)
class StochasticConfig:
    """Damping factor plus dangling/personalization specs.

    A spec is either the string ``"uniform"`` or an explicit tuple of
    floats, validated on load.
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
                _frozen_vector(spec, f"{name} vector", sum_tol=ROW_SUM_TOL)

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
        return PersonalizationVector(v=np.array(self.v_spec))


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
