"""Directed-graph ingestion: edge-list and JSON parsing, adjacency, dangling nodes.

Two input formats are supported.  The edge-list form is one ``src dst`` pair
per line ('#' starts a comment, blank lines are skipped); the node set is
everything mentioned on some line.  The JSON form declares nodes explicitly,
``{"nodes": [...], "edges": [[s, t], ...]}`` with index pairs, which is the
only way to state an isolated node (no in- or out-links).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError


def _is_integer(value) -> bool:
    """True for Python and NumPy integers, False for bools and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _canonical_order(labels) -> list[str]:
    """Numeric ascending when every label is a base-10 integer, else lexicographic."""
    try:
        return sorted(labels, key=lambda t: (int(t), t))
    except ValueError:
        return sorted(labels)


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable directed graph over labelled nodes.

    ``labels`` are distinct strings, and ``edges`` holds (source, target)
    pairs of integer indices into ``labels``, kept as Python ints; anything
    else is a :class:`ParseError`.  Set semantics make duplicate edges
    impossible; self-loops are allowed and count toward the out-degree.
    """

    labels: tuple[str, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise ParseError("no nodes")
        if not all(isinstance(label, str) for label in self.labels):
            raise ParseError("node labels must be strings")
        if len(set(self.labels)) != n:
            raise ParseError("node labels must be distinct")
        try:
            # two Python ints in range pass at once; on anything else every
            # edge takes the full test, and NumPy integers become ints
            for s, t in self.edges:
                if not (type(s) is int is type(t) and 0 <= s < n and 0 <= t < n):
                    edges = frozenset(_edge(s, t, n) for s, t in self.edges)
                    object.__setattr__(self, "edges", edges)
                    break
        except (TypeError, ValueError):  # no iterable of pairs
            raise ParseError("edges must be (source, target) pairs of node indices") from None

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown node label {label!r}") from None

    def to_edge_list(self) -> str:
        """Serialize as edge-list text; refuses graphs it cannot spell.

        An isolated node appears on no line, and an empty label, one with
        whitespace or a source starting with '#' (a comment) does not read
        back as one token, so re-parsing would lose them.  A label starting
        with U+FEFF is refused too: a file is read with a leading byte-order
        mark dropped, which would cut it from the first line's source.
        Such graphs round-trip through :meth:`to_json` instead.
        """
        mentioned = {i for e in self.edges for i in e}
        if len(mentioned) < self.n:
            missing = next(i for i in range(self.n) if i not in mentioned)
            raise DomainError(
                f"node {self.labels[missing]!r} has no edges; use the JSON form"
            )
        sources = {s for s, _ in self.edges}
        for k, label in enumerate(self.labels):
            unreadable = label.startswith("\ufeff") or (label.startswith("#") and k in sources)
            if label.split() != [label] or unreadable:
                raise DomainError(f"node {label!r} is no edge-list token; use the JSON form")
        lines = [
            f"{self.labels[s]} {self.labels[t]}" for s, t in sorted(self.edges)
        ]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"nodes": list(self.labels), "edges": sorted(map(list, self.edges))}
        return json.dumps(doc, sort_keys=True)


def _edge(s, t, n: int) -> tuple[int, int]:
    """The edge s -> t as Python ints; :class:`ParseError` unless s and t
    are integer indices of n nodes."""
    if not (_is_integer(s) and _is_integer(t)):
        raise ParseError(f"edge ({s!r}, {t!r}) is not a pair of integer node indices")
    if not (0 <= s < n and 0 <= t < n):
        raise ParseError(f"edge ({s}, {t}) out of range for {n} nodes")
    return int(s), int(t)


def parse_edge_list(text: str) -> DirectedGraph:
    """Parse edge-list text into a graph with canonically ordered labels."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # split() drops the whitespace that strip() would
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(
                f"line {lineno}: expected 2 tokens 'src dst', got {len(tokens)}"
            )
        pairs.append(tokens)
    labels = _canonical_order(set(itertools.chain.from_iterable(pairs)))
    if not labels:
        raise ParseError("no nodes")
    index = {label: i for i, label in enumerate(labels)}
    edges = frozenset((index[s], index[t]) for s, t in pairs)
    return DirectedGraph(labels=tuple(labels), edges=edges)


def parse_graph_json(text: str) -> DirectedGraph:
    """Parse the JSON graph form; node order is the declared order."""
    # ValueError also covers integers too long to convert, RecursionError
    # arrays nested too deep
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise ParseError('expected an object with "nodes" and "edges"')
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise ParseError('"nodes" must be a list of labels')
    labels = tuple(str(x) for x in raw_nodes)
    try:
        # JSON escapes can spell lone surrogates, which no output can encode
        "".join(labels).encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError("node labels must be valid Unicode text") from None
    if not isinstance(doc["edges"], list):
        raise ParseError('"edges" must be a list of [source_index, target_index] pairs')
    edges = set()
    for k, pair in enumerate(doc["edges"]):
        ok = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        )
        if not ok:
            raise ParseError(f"edge {k}: expected [source_index, target_index]")
        edges.add((pair[0], pair[1]))
    return DirectedGraph(labels=labels, edges=frozenset(edges))


@dataclass(frozen=True)
class CSRMatrix:
    """Sparse matrix in compressed sparse row form, with ``n`` rows.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``.  Arrays that form no CSR matrix
    are a :class:`DomainError`: ``indptr`` must be integer and rise from 0
    to ``len(indices)``, and ``indices`` must be nonnegative integers and
    ``data`` real, both of that length; ``data`` is kept as floats.  Built by
    :meth:`from_entries`, it is square and the form is canonical: columns
    ascend within each row, no entry is repeated and none is an explicit
    zero.  The reduced chain's sparse steps (``localization._rows_of``)
    are rectangular, with a row per state they write and a column per node.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        data = _real_array(self.data, "CSR matrix", copy=False)
        try:
            indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        except ValueError:  # a ragged list
            indptr = indices = np.empty(0, dtype=object)
        csr = (
            indptr.dtype.kind in "iu" and indices.dtype.kind in "iu"
            and indptr.ndim == indices.ndim == data.ndim == 1
            and indptr.size > 0 and indptr[0] == 0 and indptr[-1] == indices.size == data.size
            and (indptr[:-1] <= indptr[1:]).all() and (indices >= 0).all()
        )
        if not csr:
            raise DomainError(
                "CSR matrix must have an integer indptr rising from 0 to len(indices), "
                "and nonnegative integer indices and real data of that length"
            )
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_entries(
        cls, n: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> "CSRMatrix":
        """n x n matrix with entry data[k] at (rows[k], cols[k]); repeated
        positions are summed.  The arrays are frozen, ``data`` is float."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and not (
            0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < n
        ):
            raise DomainError(f"matrix entry out of range for {n} rows")
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        sums = np.bincount(slot.reshape(-1), weights=data, minlength=keys.size)
        sums = sums.astype(float, copy=False)  # bincount of nothing is int
        # NaN compares unequal to 0, so it stays for validation to see
        keep = sums != 0
        keys, sums = keys[keep], sums[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        csr = cls(indptr=indptr, indices=keys % n, data=sums)
        for arr in (csr.indptr, csr.indices, csr.data):
            arr.flags.writeable = False
        return csr

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        """The dense n x n matrix; a column index at or past n, which a
        rectangular CSR may hold, is a :class:`DomainError`."""
        if self.indices.size and self.indices.max() >= self.n:
            raise DomainError(
                f"toarray builds a square matrix, but column {int(self.indices.max())} "
                f"is out of range for {self.n} rows"
            )
        dense = np.zeros((self.n, self.n), dtype=self.data.dtype)
        dense[self.rows(), self.indices] = self.data
        return dense


def adjacency(g: DirectedGraph) -> CSRMatrix:
    """Binary adjacency matrix in CSR form; row i's entry count is node i's
    out-degree, so dangling nodes are its empty rows."""
    e = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    return CSRMatrix.from_entries(
        g.n, e[:, 0], e[:, 1], np.ones(len(e))
    )
