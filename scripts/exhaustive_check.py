#!/usr/bin/env python3
"""Check every labelled digraph on 1 to 4 nodes against exact X.

Runs every graph on 1 to 3 nodes, self-loops included, and every
loop-free graph on 4 nodes, 4,626 graphs, at each dangling distribution
and alpha of ``tests/exhaustive.py`` and through its checks: X, each
column solved alone, lo and its witness, the competitor scan, the
leaders, and each node's hull and achieved value.  Prints every mismatch
and exits 1 if there is one.

Example:
    PYTHONPATH=src python scripts/exhaustive_check.py
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.exhaustive import labelled_graphs, mismatches  # noqa: E402


def main() -> int:
    graphs = itertools.chain(
        *(labelled_graphs(n, loops=True) for n in (1, 2, 3)),
        labelled_graphs(4, loops=False),
    )
    cases, found = mismatches(graphs)
    for line in found:
        print(line)
    print(f"{cases} cases, {len(found)} mismatches with exact X")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
