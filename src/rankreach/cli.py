"""Command-line front end: reproducible graph analyses, CSV or JSON output.

Exit codes: 0 success, 1 parse/domain errors (including usage errors)
and a stdout closed before the output ends (a broken pipe, as in
``rankreach competitors g | head -1``), 2 numerical failures, which also
print a JSON diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from pathlib import Path

import numpy as np

from .competition import (
    competitivity_interval,
    competitor_scan,
    effective_competitors,
    leadership_group,
)
from .errors import DomainError, NumericalError, ParseError
from .graph import DirectedGraph, parse_edge_list, parse_graph_json
from .localization import FundamentalMatrix, RankContext, achieve_value
from .oracle import monte_carlo_interval
from .stochastic import StochasticConfig, load_config


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _model(args: argparse.Namespace) -> StochasticConfig:
    """The model of an invocation: its flags merged over ``--config``."""
    base = StochasticConfig()
    if args.config:
        base = load_config(_read_text(args.config))
    return StochasticConfig(
        alpha=args.alpha if args.alpha is not None else base.alpha,
        u_spec=_vector_spec(args.u, base.u_spec),
        v_spec=_vector_spec(args.v, base.v_spec),
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc.reason} at byte {exc.start}") from None


def _vector_spec(flag_value, fallback):
    if flag_value is None:
        return fallback
    if flag_value == "uniform":
        return "uniform"
    return _read_vector_file(flag_value)


def _read_vector_file(path: str) -> tuple[float, ...]:
    values = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected one float per line") from None
    if not values:
        raise ParseError(f"{path}: empty vector file")
    return tuple(values)


def _load_graph(path: str, fmt: str | None) -> DirectedGraph:
    """Parse the graph file, in the format given or else implied by its name."""
    text = _read_text(path)
    if fmt == "json" or (fmt is None and path.endswith(".json")):
        return parse_graph_json(text)
    return parse_edge_list(text)


def _csv_cell(kind: str, value) -> str:
    if value is None:
        return ""
    if kind == "f6":
        return f"{value:.6f}"
    if kind == "g6":
        return f"{value:.6g}"
    if kind == "bool":
        return "true" if value else "false"
    return str(value)


def _json_cell(kind: str, value):
    if value is None:
        return None
    if kind == "f6":
        return round(float(value), 6)
    if kind == "g6":
        return float(f"{value:.6g}")
    if kind == "bool":
        return bool(value)
    return value


def _emit(
    args: argparse.Namespace, spec: list[tuple[str, str]], rows: Iterable[Sequence]
) -> None:
    names = [name for name, _ in spec]
    # Label cells (str, or None for none) pass through both formats as they
    # are: csv writes None as an empty field.  Only the other kinds format.
    formatted = [(k, kind) for k, (_, kind) in enumerate(spec) if kind != "label"]
    cell = _json_cell if args.output == "json" else _csv_cell

    def cells(row: Sequence) -> list:
        out = list(row)
        for k, kind in formatted:
            out[k] = cell(kind, out[k])
        return out

    if args.output == "json":
        payload = [dict(zip(names, cells(row))) for row in rows]
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(map(cells, rows))


def _cmd_pagerank(model, g, ctx, args):
    pi = ctx.rank(model.personalization(g.n)).pi
    spec = [("node", "label"), ("pagerank", "f6")]
    _emit(args, spec, [[g.labels[i], float(pi[i])] for i in range(g.n)])


def _cmd_xmatrix(model, g, ctx, args):
    x = ctx.fundamental().x
    spec = [("node", "label")] + [(label, "f6") for label in g.labels]
    rows = [[g.labels[i], *map(float, x[i])] for i in range(g.n)]
    _emit(args, spec, rows)


def _cmd_intervals(model, g, ctx, args):
    spec = [("node", "label"), ("lo", "f6"), ("hi", "f6"), ("lo_witness", "label")]
    rows = [
        [g.labels[iv.node], iv.lo, iv.hi, g.labels[iv.lo_witness]]
        for iv in ctx.intervals()
    ]
    _emit(args, spec, rows)


def _parse_pair(g: DirectedGraph, text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise DomainError(f"--pair expects 'i,j', got {text!r}")
    return g.index_of(parts[0]), g.index_of(parts[1])


def _scan_rows(g: DirectedGraph, fm: FundamentalMatrix) -> Iterator[tuple]:
    """Rows of the full competitor scan, the pairs i < j in row-major order."""
    labels = np.array(g.labels, dtype=object)
    for i, competes, above, below in competitor_scan(fm):
        yield from zip(
            repeat(g.labels[i]),
            g.labels[i + 1:],
            competes.tolist(),
            np.where(competes, labels[above], None).tolist(),
            np.where(competes, labels[below], None).tolist(),
        )


def _cmd_competitors(model, g, ctx, args):
    spec = [
        ("i", "label"),
        ("j", "label"),
        ("competes", "bool"),
        ("witness_k", "label"),
        ("witness_l", "label"),
    ]
    if not args.pair:
        _emit(args, spec, _scan_rows(g, ctx.fundamental()))
        return
    # one pair reads two columns of X, which the context solves for alone
    i, j = _parse_pair(g, args.pair)
    verdict = effective_competitors(ctx, i, j)
    row = [
        g.labels[i],
        g.labels[j],
        verdict.competes,
        None if verdict.witness_k is None else g.labels[verdict.witness_k],
        None if verdict.witness_l is None else g.labels[verdict.witness_l],
    ]
    _emit(args, spec, [row])


def _cmd_leaders(model, g, ctx, args):
    group = leadership_group(ctx.fundamental())
    spec = [("leader", "label"), ("witness_row", "label")]
    rows = [
        [g.labels[i], g.labels[group.witness_rows[i]]]
        for i in sorted(group.leaders)
    ]
    _emit(args, spec, rows)


def _cmd_sc_interval(model, g, ctx, args):
    if args.node:
        nodes = [g.index_of(args.node)]
    else:
        nodes = list(range(g.n))
        ctx.fundamental()  # every column is read: build X once
    spec = [("node", "label"), ("epsilon", "g6"), ("lo", "f6"), ("hi", "f6")]
    rows = []
    for i in nodes:
        sc = competitivity_interval(ctx, i, args.epsilon)
        rows.append([g.labels[i], sc.epsilon, sc.lo, sc.hi])
    _emit(args, spec, rows)


def _cmd_achieve(model, g, ctx, args):
    i = g.index_of(args.node)
    try:
        result = achieve_value(ctx, i, args.target, args.tol)
    except DomainError as exc:
        raise DomainError(f"node {args.node!r}: {exc}") from None
    spec = [
        ("node", "label"),
        ("target", "f6"),
        ("achieved", "f6"),
        ("lambda", "f6"),
        ("epsilon", "g6"),
    ]
    _emit(args, spec, [[g.labels[i], args.target, result.achieved,
                       result.lam, result.epsilon]])


def _cmd_verify(model, g, ctx, args):
    if args.node:
        nodes = [g.index_of(args.node)]
    else:
        nodes = list(range(g.n))
        ctx.fundamental()  # every interval is read: build X once
    per_node = {}
    bad = []
    for rep in monte_carlo_interval(
        ctx, nodes, args.samples, args.seed, concentration=args.concentration
    ):
        per_node[g.labels[rep.node]] = {
            "samples": rep.samples,
            "observed_min": round(rep.observed_min, 6),
            "observed_max": round(rep.observed_max, 6),
            "lo": round(rep.lo, 6),
            "hi": round(rep.hi, 6),
            "violations": rep.violations,
        }
        if rep.violations:
            bad.append(g.labels[rep.node])
    report = {
        "pass": not bad,
        "alpha": round(model.alpha, 6),
        "samples": args.samples,
        "seed": args.seed,
        "concentration": float(f"{args.concentration:.6g}"),
        "nodes": per_node,
    }
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if bad:
        raise NumericalError(
            "sampled rank values escaped their analytic intervals",
            details={"violating_nodes": bad},
        )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rankreach",
        description="Attainable rank values, competitors, and leaders "
        "of a directed graph.",
    )
    common = _Parser(add_help=False)
    common.add_argument("graph", help="input graph file")
    common.add_argument("--alpha", type=_finite, default=None,
                        help="damping factor in (0, 1), default 0.85")
    common.add_argument("--u", default=None, metavar="PATH|uniform",
                        help="dangling distribution, one float per line")
    common.add_argument("--v", default=None, metavar="PATH|uniform",
                        help="personalization vector, one float per line")
    common.add_argument("--format", choices=["edgelist", "json"], default=None,
                        help="input format, inferred from extension by default")
    common.add_argument("--output", choices=["csv", "json"], default=None)
    common.add_argument("--config", default=None,
                        help='config JSON {"alpha", "u", "v"}; flags override')

    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True, metavar="SUBCOMMAND")

    sub.add_parser("pagerank", parents=[common],
                   help="rank vector for the given personalization"
                   ).set_defaults(handler=_cmd_pagerank)
    sub.add_parser("xmatrix", parents=[common],
                   help="fundamental matrix, one row per source node"
                   ).set_defaults(handler=_cmd_xmatrix)
    sub.add_parser("intervals", parents=[common],
                   help="attainable rank interval of every node"
                   ).set_defaults(handler=_cmd_intervals)

    competitors = sub.add_parser("competitors", parents=[common],
                                 help="effective-competitor verdicts")
    competitors.add_argument("--pair", default=None, metavar="I,J",
                             help="restrict to one labelled pair")
    competitors.set_defaults(handler=_cmd_competitors)

    sub.add_parser("leaders", parents=[common],
                   help="leadership group with witness rows"
                   ).set_defaults(handler=_cmd_leaders)

    sc = sub.add_parser("sc-interval", parents=[common],
                        help="rank hull over the concentrated family")
    sc.add_argument("--node", default=None, help="restrict to one label")
    sc.add_argument("--epsilon", type=_finite, default=0.01)
    sc.set_defaults(handler=_cmd_sc_interval)

    achieve = sub.add_parser("achieve", parents=[common],
                             help="realize a target rank value for a node")
    achieve.add_argument("--node", required=True)
    achieve.add_argument("--target", type=_finite, required=True)
    achieve.add_argument("--tol", type=_finite, default=1e-6)
    achieve.set_defaults(handler=_cmd_achieve)

    verify = sub.add_parser("verify", parents=[common],
                            help="Monte-Carlo containment report")
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--node", default=None, help="restrict to one label")
    verify.add_argument("--samples", type=_count, default=10000)
    verify.add_argument("--concentration", type=_finite, default=1.0)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        model = _model(args)
        g = _load_graph(args.graph, args.format)
        ctx = RankContext.from_graph(
            g, alpha=model.alpha, u=model.dangling_distribution(g.n)
        )
        args.handler(model, g, ctx, args)
    except NumericalError as exc:
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "details": exc.details,
        }
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, default=str) + "\n")
        return 2
    except (ParseError, DomainError) as exc:
        sys.stderr.write(f"rankreach: error: {exc}\n")
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader went away: point stdout at devnull, so that the
        # interpreter's final flush of the rest cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
