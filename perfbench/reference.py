"""Package-independent reference values and the output checks built on them.

The reference X is (1 - alpha)(I - alpha P_u)^{-1} from a plain numpy
inverse of a P_u built here from the edge set, never from the package.
Each ``check_*`` function takes a CLI stdout and returns a list of
problems; an empty list means the output agrees with the reference.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# The CLI prints 6 decimals; allow the rounding plus solver noise.
PRINT_TOL = 2e-6
# The package treats X entries closer than 1e-9 as ties.  A verdict the
# reference sees on the other side of a half- or double-margin band is wrong.
MARGIN_IN, MARGIN_OUT = 0.5e-9, 2e-9
# Full-precision rank values (library sessions) must match the reference
# this closely; they agree to about 1e-16 at alpha 0.99, n=1000.
VALUE_TOL = 1e-11
# The CLI's default ``achieve --tol``.
ACHIEVE_TOL = 1e-6
# Random pairs sampled for the competing-pair fraction of the graph facts.
FACT_PAIRS = 20000


def patched_transition(n: int, edges) -> np.ndarray:
    """Dense P_u with uniform rows for dangling nodes."""
    p = np.zeros((n, n))
    src, dst = np.array(sorted(edges)).T
    p[src, dst] = 1.0
    out = p.sum(axis=1)
    p[out == 0] = 1.0 / n
    p[out > 0] /= out[out > 0, None]
    return p


def fundamental(n: int, edges, alpha: float) -> np.ndarray:
    p_u = patched_transition(n, edges)
    return (1.0 - alpha) * np.linalg.inv(np.eye(n) - alpha * p_u)


def pagerank(n: int, edges, alpha: float) -> np.ndarray:
    """Rank vector for the uniform personalization."""
    p_u = patched_transition(n, edges)
    rhs = np.full(n, (1.0 - alpha) / n)
    return np.linalg.solve(np.eye(n) - alpha * p_u.T, rhs)


def concentrated_values(x: np.ndarray, rows, eps: float) -> np.ndarray:
    """Rank vectors X^T v for the vectors with 1 - eps at each of ``rows``
    and eps/(n-1) elsewhere, one row per entry of ``rows``."""
    n = x.shape[0]
    sub = x[np.atleast_1d(rows)]
    return (1.0 - eps) * sub + eps / (n - 1) * (x.sum(axis=0) - sub)


def leaders(x: np.ndarray, margin: float) -> set[int]:
    """Nodes that are the strict maximum of some row by more than margin."""
    top2 = np.partition(x, -2, axis=1)[:, -2:]
    strict = top2[:, 1] - top2[:, 0] > margin
    return set(np.argmax(x, axis=1)[strict].tolist())


def competing_fraction(x: np.ndarray, pairs: np.ndarray) -> float:
    """Share of the (i, j) rows of ``pairs`` whose column difference changes sign."""
    hits = 0
    for block in np.array_split(pairs, max(1, len(pairs) // 2000)):
        d = x[:, block[:, 0]] - x[:, block[:, 1]]
        hits += int(((d > 1e-9).any(axis=0) & (d < -1e-9).any(axis=0)).sum())
    return hits / max(len(pairs), 1)


def graph_facts(n: int, edges, x: np.ndarray, rng: np.random.Generator) -> dict:
    """Size and structure facts recorded with every result."""
    out_deg = np.bincount(np.array([s for s, _ in edges]), minlength=n)
    ij = rng.integers(0, n, size=(FACT_PAIRS, 2))
    pairs = ij[ij[:, 0] != ij[:, 1]]
    return {
        "n": n,
        "edges": len(edges),
        "dangling": int((out_deg == 0).sum()),
        "competing_frac": competing_fraction(x, pairs),
        "competing_pairs_sampled": len(pairs),
        "leaders": len(leaders(x, 1e-9)),
    }


def _first(mask: np.ndarray) -> np.ndarray:
    """First True row of each column, or the row count when there is none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), mask.shape[0])


def _rows(stdout: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout.decode())))


def _label_index(label: str, n: int) -> int:
    k = int(label) - 1
    if not 0 <= k < n:
        raise ValueError(f"label {label} out of range")
    return k


def check_intervals(stdout: bytes, x: np.ndarray) -> list[str]:
    n = x.shape[0]
    rows = _rows(stdout)
    if rows[:1] != [["node", "lo", "hi", "lo_witness"]] or len(rows) != n + 1:
        return ["bad header or row count"]
    lo_ref, hi_ref = x.min(axis=0), np.diag(x)
    problems = []
    for k, (node, lo, hi, wit) in enumerate(rows[1:]):
        lo, hi, w = float(lo), float(hi), _label_index(wit, n)
        if node != str(k + 1) or not lo < hi:
            problems.append(f"row {k + 1} malformed or lo >= hi")
        elif abs(lo - lo_ref[k]) > PRINT_TOL or abs(hi - hi_ref[k]) > PRINT_TOL:
            problems.append(f"node {node} endpoints off the reference")
        elif x[w, k] > lo_ref[k] + 2e-12 or w > _first(x[:, [k]] <= lo_ref[k] + 0.5e-12)[0]:
            problems.append(f"node {node} witness is not the first row attaining lo")
    return problems


def midpoint_target(stdout: bytes, node_label: str) -> str:
    """Target for ``achieve``: the midpoint of a node's printed interval."""
    for row in _rows(stdout)[1:]:
        if row[0] == node_label:
            return f"{(float(row[1]) + float(row[2])) / 2:.6f}"
    raise ValueError(f"node {node_label} missing from intervals output")


def check_leaders(stdout: bytes, x: np.ndarray) -> list[str]:
    n = x.shape[0]
    rows = _rows(stdout)
    if rows[:1] != [["leader", "witness_row"]]:
        return ["bad header"]
    printed = {_label_index(a, n): _label_index(b, n) for a, b in rows[1:]}
    top2 = np.partition(x, -2, axis=1)[:, -2:]
    gap, top = top2[:, 1] - top2[:, 0], np.argmax(x, axis=1)
    problems = []
    for leader, row in printed.items():
        others = np.delete(x[row], leader)
        earlier = np.flatnonzero((top[:row] == leader) & (gap[:row] > MARGIN_OUT))
        if x[row, leader] - others.max() <= MARGIN_IN or earlier.size:
            problems.append(f"row {row + 1} is not where {leader + 1} first leads")
    if not leaders(x, MARGIN_OUT) <= set(printed) <= leaders(x, MARGIN_IN):
        problems.append("set differs from the reference")
    return problems


def check_competitors(stdout: bytes, x: np.ndarray, pair=None) -> list[str]:
    """Full scan in row order, or one pair when ``pair`` is given as (i, j)."""
    n = x.shape[0]
    rows = _rows(stdout)
    if rows[:1] != [["i", "j", "competes", "witness_k", "witness_l"]]:
        return ["bad header"]
    body = rows[1:]
    firsts = [pair[0]] if pair else range(n)
    problems = []
    at = 0
    for i in firsts:
        js = [pair[1]] if pair else list(range(i + 1, n))
        block = body[at:at + len(js)]
        at += len(js)
        if [(r[0], r[1]) for r in block] != [(str(i + 1), str(j + 1)) for j in js]:
            return [f"rows for node {i + 1} missing or out of order"]
        d = x[:, [i]] - x[:, js]
        competes = np.array([r[2] == "true" for r in block], dtype=bool)
        strong = (d > MARGIN_OUT).any(axis=0) & (d < -MARGIN_OUT).any(axis=0)
        if (strong & ~competes).any():
            problems.append(f"node {i + 1} misses reference competitors")
        cols = np.flatnonzero(competes)
        if cols.size:
            wk = np.array([_label_index(block[c][3], n) for c in cols])
            wl = np.array([_label_index(block[c][4], n) for c in cols])
            # Witnesses are the first rows past the margin, so no earlier
            # row may be clearly past it in the reference.
            ok = (d[wk, cols] > MARGIN_IN) & (d[wl, cols] < -MARGIN_IN)
            ok &= wk <= _first(d[:, cols] > MARGIN_OUT)
            ok &= wl <= _first(d[:, cols] < -MARGIN_OUT)
            if not ok.all():
                problems.append(f"node {i + 1} witnesses are not the first swap rows")
        if any(r[2] == "false" and (r[3] or r[4]) for r in block):
            problems.append(f"node {i + 1} non-competing row has witnesses")
    if at != len(body):
        problems.append("wrong row count")
    return problems


def _achieved(x: np.ndarray, i: int, lam: float, eps: float) -> float:
    """Node i's rank under lam * v_top + (1 - lam) * v_bot, where v_top and
    v_bot concentrate on i and on the first row attaining column i's minimum."""
    w = int(np.argmin(x[:, i]))
    top, bot = concentrated_values(x, [i, w], eps)[:, i]
    return lam * top + (1.0 - lam) * bot


def check_achieve(stdout: bytes, x: np.ndarray, node: int, target: str) -> list[str]:
    """The printed lambda and epsilon, replayed on the reference X, must
    reach the target.  Lambda has 6 printed decimals, which moves the value
    by at most half a millionth of the interval's width."""
    rows = _rows(stdout)
    if rows[:1] != [["node", "target", "achieved", "lambda", "epsilon"]] or len(rows) != 2:
        return ["bad header or row count"]
    label, tgt, achieved, lam, eps = rows[1]
    if label != str(node + 1) or tgt != target:
        return ["wrong node or target echoed"]
    if not 0.0 <= float(lam) <= 1.0 or not 0.0 < float(eps) < 1.0:
        return ["lambda or epsilon out of range"]
    replayed = _achieved(x, node, float(lam), float(eps))
    slack = 0.5e-6 * (x[node, node] - x[:, node].min()) + PRINT_TOL
    if abs(replayed - float(target)) > ACHIEVE_TOL + slack:
        return ["the printed lambda misses the target on the reference"]
    if abs(replayed - float(achieved)) > slack:
        return ["achieved value differs from the reference"]
    return []


def check_pagerank(stdout: bytes, pi: np.ndarray) -> list[str]:
    n = pi.shape[0]
    rows = _rows(stdout)
    if rows[:1] != [["node", "pagerank"]] or len(rows) != n + 1:
        return ["bad header or row count"]
    vals = np.array([float(r[1]) for r in rows[1:]])
    if abs(vals.sum() - 1.0) > n * 5e-7:
        return [f"sums to {vals.sum()!r}"]
    if np.abs(vals - pi).max() > PRINT_TOL:
        return ["values off the reference"]
    return []


def check_verify(stdout: bytes, x: np.ndarray, samples: int, seed: int) -> list[str]:
    n = x.shape[0]
    doc = json.loads(stdout)
    if doc.get("pass") is not True or doc.get("samples") != samples or doc.get("seed") != seed:
        return ["report does not pass"]
    if len(doc["nodes"]) != n:
        return ["wrong node count"]
    lo_ref, hi_ref = x.min(axis=0), np.diag(x)
    for label, rep in doc["nodes"].items():
        k = _label_index(label, n)
        if abs(rep["lo"] - lo_ref[k]) > PRINT_TOL or abs(rep["hi"] - hi_ref[k]) > PRINT_TOL:
            return [f"node {label} interval off the reference"]
        if rep["observed_min"] < rep["lo"] - 1e-6 or rep["observed_max"] > rep["hi"] + 1e-6:
            return [f"node {label} samples escape the interval"]
    return []


def check_sc_interval(stdout: bytes, x: np.ndarray) -> list[str]:
    """Each hull must be the min and max of node k's rank over the n
    concentrated vectors at the printed epsilon, computed here."""
    n = x.shape[0]
    rows = _rows(stdout)
    if rows[:1] != [["node", "epsilon", "lo", "hi"]] or len(rows) != n + 1:
        return ["bad header or row count"]
    hulls = {}
    for k, (node, eps, lo, hi) in enumerate(rows[1:]):
        if node != str(k + 1) or float(lo) > float(hi):
            return [f"row {k + 1} malformed"]
        if eps not in hulls:
            values = concentrated_values(x, np.arange(n), float(eps))
            hulls[eps] = values.min(axis=0), values.max(axis=0)
        lo_ref, hi_ref = hulls[eps]
        if abs(float(lo) - lo_ref[k]) > PRINT_TOL or abs(float(hi) - hi_ref[k]) > PRINT_TOL:
            return [f"node {node} hull off the reference"]
    return []


def check_certificates(doc: dict, x: np.ndarray) -> list[str]:
    """Recompute a library session's certificates from the reference X.

    Witness rows must really swap the pair, and each rank value a
    certificate reports must equal X^T v for the vector it names.  Achieves
    are replayed from their lambda and epsilon.
    """
    problems = []
    if not leaders(x, MARGIN_OUT) <= set(doc["leader_set"]) <= leaders(x, MARGIN_IN):
        problems.append("leader set differs from the reference")
    for i, j, k, l, eps, hi_i, hi_j, lo_i, lo_j in doc["witness_certs"]:
        d = x[:, i] - x[:, j]
        high, low = concentrated_values(x, [k, l], eps)
        got = np.array([hi_i, hi_j, lo_i, lo_j])
        if not (d[k] > MARGIN_IN and d[l] < -MARGIN_IN):
            problems.append(f"witness {i} {j}: rows {k}, {l} do not swap the pair")
        elif np.abs(got - [high[i], high[j], low[i], low[j]]).max() > VALUE_TOL:
            problems.append(f"witness {i} {j}: rank values differ from the reference")
    for leader, row, eps, top, runner_up in doc["leader_certs"]:
        ranked = concentrated_values(x, [row], eps)[0]
        rest = np.delete(ranked, leader).max()
        if x[row, leader] - np.delete(x[row], leader).max() <= MARGIN_IN:
            problems.append(f"leader {leader}: row {row} is not a leading row")
        elif abs(top - ranked[leader]) > VALUE_TOL or abs(runner_up - rest) > VALUE_TOL:
            problems.append(f"leader {leader}: rank values differ from the reference")
    for i, w, target, lam, eps, achieved in doc["achieve_certs"]:
        lo, hi = x[:, i].min(), x[i, i]
        if x[w, i] > lo + 2e-12 or abs(target - 0.5 * (lo + hi)) > VALUE_TOL:
            problems.append(f"achieve {i}: witness or target off the reference")
        elif abs(_achieved(x, i, lam, eps) - achieved) > VALUE_TOL \
                or abs(achieved - target) > ACHIEVE_TOL:
            problems.append(f"achieve {i}: achieved value differs from the reference")
    return problems[:20]
