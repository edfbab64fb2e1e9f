#!/usr/bin/env python3
"""Sweep the concentrated-family hull toward the analytic interval.

For one node, prints the closed hull of rank values over the
epsilon-concentrated personalizations on a geometric epsilon grid, next
to the open interval it converges to.

Example:
    python scripts/interval_sweep.py graphs/g1.edges --node 2
"""

import argparse
from pathlib import Path

from rankreach import RankContext, competitivity_interval, parse_edge_list, parse_graph_json


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("graph")
    ap.add_argument("--node", required=True, help="node label")
    ap.add_argument("--alpha", type=float, default=0.85)
    ap.add_argument("--steps", type=int, default=7)
    args = ap.parse_args()

    text = Path(args.graph).read_text(encoding="utf-8-sig")
    g = parse_graph_json(text) if args.graph.endswith(".json") else parse_edge_list(text)
    ctx = RankContext.from_graph(g, alpha=args.alpha)
    i = g.index_of(args.node)
    iv = ctx.interval(i)

    print(f"node {args.node}: attainable open interval "
          f"({iv.lo:.8f}, {iv.hi:.8f}), witness row {g.labels[iv.lo_witness]}")
    print(f"{'epsilon':>9}  {'hull_lo':>10}  {'hull_hi':>10}  "
          f"{'gap_lo':>9}  {'gap_hi':>9}")
    eps = 0.5
    for _ in range(args.steps):
        sc = competitivity_interval(ctx, i, eps)
        print(f"{eps:>9.1e}  {sc.lo:>10.8f}  {sc.hi:>10.8f}  "
              f"{sc.lo - iv.lo:>9.2e}  {iv.hi - sc.hi:>9.2e}")
        eps /= 10.0


if __name__ == "__main__":
    main()
