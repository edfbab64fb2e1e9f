"""The CLI contract as a sealed corpus: each case's exit code, stdout and
stderr from ``rankreach.cli.run``, in process, hashed with sha256.

    PYTHONPATH=src python tests/cli_corpus.py          # check, list mismatches
    PYTHONPATH=src python tests/cli_corpus.py --seal   # rewrite cli_corpus.json

The cases are every ``graphs/`` file at alpha 0.3, 0.85 and 0.99, in CSV
and JSON, through pagerank, xmatrix, intervals, competitors (all pairs and
one pair), leaders, sc-interval (all nodes and one node), achieve (one
target inside the first node's interval, one outside) and verify; a graph
named in ``U_FILES`` runs all of these once more with its ``--u`` file, a
dangling distribution with zeros, kept outside ``graphs/``.  Alpha
near 1 is left out: there X's error (about 1e-8 at 1 - 1e-9) can flip a
6-decimal figure between BLAS builds.  Reseal only for a deliberate output
change, and name it in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from rankreach import RankContext, parse_edge_list, parse_graph_json, pr_interval
from rankreach.cli import run

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"
ALPHAS = ("0.3", "0.85", "0.99")
OUTPUTS = ("csv", "json")
# Graphs also run with a partial-support dangling distribution, so that
# nodes outside its support can lose every in-link while dangling nodes
# stay: paths relative to the repo root.
U_FILES = {
    "two_isolated.json": "tests/two_isolated_partial_u.txt",
    "uniform40.edges": "tests/uniform40_partial_u.txt",
}


def cases() -> list[list[str]]:
    """Every case's argv, with the graph as a path relative to the repo root."""
    argvs = []
    for path in sorted((ROOT / "graphs").iterdir()):
        text = path.read_text(encoding="utf-8")
        g = parse_graph_json(text) if path.suffix == ".json" else parse_edge_list(text)
        first, second = g.labels[:2]
        variants = [([], None)]
        if path.name in U_FILES:
            u_file = U_FILES[path.name]
            u = np.loadtxt(ROOT / u_file)
            variants.append((["--u", u_file], u))
        for (u_flag, u), alpha in itertools.product(variants, ALPHAS):
            # a target inside node 0's interval, printed as the flag is read
            iv = pr_interval(RankContext.from_graph(g, alpha=float(alpha), u=u), 0)
            inside = f"{0.5 * (iv.lo + iv.hi):.6f}"
            for output in OUTPUTS:
                graph = ["graphs/" + path.name, *u_flag, "--alpha", alpha, "--output", output]
                for command in (
                    ["pagerank"],
                    ["xmatrix"],
                    ["intervals"],
                    ["competitors"],
                    ["competitors", "--pair", f"{first},{second}"],
                    ["leaders"],
                    ["sc-interval"],
                    ["sc-interval", "--node", second],
                    ["achieve", "--node", first, "--target", inside],
                    ["achieve", "--node", first, "--target", "1.5"],
                    ["verify", "--seed", "3", "--samples", "500"],
                ):
                    argvs.append([command[0], *graph, *command[1:]])
    return argvs


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    # the graph and any --u file are named relative to the repo root
    paths = [str(ROOT / arg) if k == 1 or argv[k - 1] == "--u" else arg
             for k, arg in enumerate(argv)]
    with redirect_stdout(out), redirect_stderr(err):
        code = run(paths)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))["cases"]


def mismatches() -> list[list[str]]:
    """The sealed cases whose run no longer hashes as sealed."""
    return [case["argv"] for case in load() if digest(case["argv"]) != case["sha256"]]


def seal() -> int:
    # one case a line, so a reseal's diff names the cases it moved
    lines = [json.dumps({"argv": argv, "sha256": digest(argv)}) for argv in cases()]
    CORPUS.write_text('{"cases": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")
    return len(lines)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--seal"]):
        print("usage: python tests/cli_corpus.py [--seal]", file=sys.stderr)
        return 1
    if argv:
        print(f"sealed {seal()} cases in {CORPUS.name}")
        return 0
    bad = mismatches()
    for case in bad:
        print(" ".join(case))
    print(f"{len(bad)} of {len(load())} cases differ from {CORPUS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
