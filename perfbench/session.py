"""Library sessions, run in a fresh interpreter or called in process.

    python perfbench/session.py setup GRAPH ALPHA
    python perfbench/session.py certify GRAPH ALPHA SEED

``setup`` imports the package, parses GRAPH and builds its RankContext
(``setup_s``), then builds X on fresh contexts for about half a second
(``x_build_s``, one time per build).  ``certify`` goes on to
run the certificate queries that only the library offers.  Both print one
JSON object; the package must be importable (``PYTHONPATH=src``).
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import rankreach as rr  # noqa: E402

WITNESS_PAIRS = 600
ACHIEVES = 300
ACHIEVE_TOL = 1e-6
# Set-up sessions rebuild X on fresh contexts until this much time is spent
# or this many builds are done.
REBUILD_BUDGET_S = 0.5
REBUILD_CAP = 20


def open_context(graph_path: str, alpha: float, t0: float):
    """Parse and build the context, then X; times are measured from ``t0``."""
    g = rr.parse_edge_list(Path(graph_path).read_text())
    ctx = rr.RankContext.from_graph(g, alpha=alpha)
    t1 = time.perf_counter()
    x = ctx.fundamental().x
    t2 = time.perf_counter()
    facts = {
        "setup_s": t1 - t0,
        "x_build_s": [t2 - t1],
        "n": g.n,
        "x_trace": float(np.trace(x)),
        "x_min": float(x.min()),
        "x_row_sum_err": float(np.abs(x.sum(axis=1) - 1.0).max()),
    }
    return g, ctx, facts


def rebuild_x(g, alpha: float) -> list[float]:
    """More first ``fundamental()`` calls, each on a fresh context, until
    ``REBUILD_BUDGET_S`` is spent: small graphs build X in milliseconds, so
    one sample per interpreter would mostly measure timer noise."""
    times: list[float] = []
    while len(times) < REBUILD_CAP and sum(times) < REBUILD_BUDGET_S:
        fresh = rr.RankContext.from_graph(g, alpha=alpha)
        t = time.perf_counter()
        fresh.fundamental()
        times.append(time.perf_counter() - t)
    return times


def certify(ctx, seed: int) -> dict:
    """Witness, leadership and achieve queries on a seeded selection.

    Each certificate is checked directly from its rank vectors: the pair
    swaps order between the two vectors, the leader is the strict maximum,
    and the achieved value is within tolerance of the target.  Those checks
    only repeat the package's own stopping tests, so each certificate's
    inputs and rank values also go into the report (``witness_certs``,
    ``leader_certs``, ``achieve_certs``), where ``reference.check_certificates``
    recomputes them from a package-independent X.
    """
    fm = ctx.fundamental()
    n = ctx.n
    rng = np.random.Generator(np.random.Philox(seed))
    group = rr.leadership_group(fm)
    verdicts = []
    for _ in range(50 * WITNESS_PAIRS):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        verdict = rr.effective_competitors(fm, i, j)
        if verdict.competes:
            verdicts.append(verdict)
            if len(verdicts) == WITNESS_PAIRS:
                break
    nodes = rng.choice(n, ACHIEVES, replace=False).tolist()
    # Factor before the clock starts: the timed queries are the warm ones.
    ctx.rank_weights(np.full(n, 1.0 / n))

    lines, problems = [], []
    records = {"witness_certs": [], "leader_certs": [], "achieve_certs": []}

    def attempt(label, query, ok, render, record):
        try:
            result = query()
        except rr.RankReachError as exc:
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        if not ok(result):
            problems.append(f"{label}: certificate check failed")
        lines.append(f"{label} {render(result)}")
        kind, row = record(result)
        records[kind].append(row)

    t = time.perf_counter()
    for v in verdicts:
        attempt(
            f"witness {v.i} {v.j}",
            lambda v=v: rr.witness_epsilon(ctx, v),
            lambda c, v=v: (c.rank_high.pi[v.i] > c.rank_high.pi[v.j]
                            and c.rank_low.pi[v.i] < c.rank_low.pi[v.j]),
            lambda c: repr(c.epsilon),
            lambda c, v=v: ("witness_certs", [
                v.i, v.j, v.witness_k, v.witness_l, c.epsilon,
                float(c.rank_high.pi[v.i]), float(c.rank_high.pi[v.j]),
                float(c.rank_low.pi[v.i]), float(c.rank_low.pi[v.j])]),
        )
    for leader in sorted(group.leaders):
        row = group.witness_rows[leader]
        attempt(
            f"leader {leader}",
            lambda k=leader, row=row: rr.leadership_certificate(ctx, k, row),
            lambda r, k=leader: bool((r[1].pi[k] > np.delete(r[1].pi, k)).all()),
            lambda r: repr(r[0]),
            lambda r, k=leader, row=row: ("leader_certs", [
                k, row, r[0], float(r[1].pi[k]), float(np.delete(r[1].pi, k).max())]),
        )
    for i in nodes:
        iv = ctx.interval(i)
        target = 0.5 * (iv.lo + iv.hi)
        attempt(
            f"achieve {i}",
            lambda i=i, target=target: rr.achieve_value(ctx, i, target, tol=ACHIEVE_TOL),
            lambda r, target=target: abs(r.achieved - target) <= ACHIEVE_TOL,
            lambda r: f"{r.lam!r} {r.achieved:.9f}",
            lambda r, i=i, iv=iv, target=target: ("achieve_certs", [
                i, iv.lo_witness, target, r.lam, r.epsilon, r.achieved]),
        )
    query_s = time.perf_counter() - t
    queries = len(verdicts) + len(group.leaders) + len(nodes)
    return {
        **records,
        "leader_set": sorted(group.leaders),
        "query_s": query_s,
        "queries": queries,
        "witness_pairs": len(verdicts),
        "leaders": len(group.leaders),
        "achieves": len(nodes),
        "problems": problems,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def main(argv: list[str]) -> int:
    mode, graph, alpha = argv[0], argv[1], float(argv[2])
    g, ctx, result = open_context(graph, alpha, T0)
    if mode == "setup":
        result["x_build_s"] += rebuild_x(g, alpha)
    elif mode == "certify":
        result.update(certify(ctx, int(argv[3])))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
