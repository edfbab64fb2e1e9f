"""Command-line front end: reproducible graph analyses, CSV or JSON output.

Exit codes: 0 success, 1 parse/domain errors (including usage errors)
and a stdout closed before the output ends (a broken pipe, as in
``rankreach competitors g | head -1``), 2 numerical failures, which also
print a JSON diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
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
from .stochastic import (
    DEFAULT_ALPHA,
    ROW_SUM_TOL,
    PersonalizationVector,
    _check_alpha,
    _frozen_vector,
)


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


def _model(args: argparse.Namespace) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """alpha, u and v of an invocation, its flags over ``--config``; u and v
    are frozen vectors, or None for uniform.  The config is checked whole
    before the flags' files are read, and all of it before the graph."""
    alpha, u, v = DEFAULT_ALPHA, None, None
    if args.config:
        alpha, u, v = _checked_model(*_read_config(args.config))
    return _checked_model(
        alpha if args.alpha is None else args.alpha,
        _vector_spec(args.u, u),
        # only pagerank takes --v
        _vector_spec(getattr(args, "v", None), v),
    )


def _read_config(path: str) -> tuple:
    """alpha, u and v of the config JSON ``{"alpha": float, "u": [...]|"uniform",
    "v": ...}``, each one of the types it may take, but not yet checked."""
    text = _read_text(path)
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
    specs = []
    for key in ("u", "v"):
        spec = doc.get(key, "uniform")
        if not (isinstance(spec, str) or isinstance(spec, list)
                and all(isinstance(x, float) for x in spec)):
            raise ParseError(f'config "{key}" must be "uniform" or a list of floats')
        specs.append(spec)
    alpha = doc.get("alpha", DEFAULT_ALPHA)
    if not isinstance(alpha, float):
        raise ParseError('config "alpha" must be a number')
    return alpha, *specs


def _checked_model(alpha, u, v) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """alpha, u and v, checked in that order."""
    _check_alpha(alpha)
    return alpha, _model_vector(u, "u"), _model_vector(v, "v")


def _model_vector(spec, name: str) -> np.ndarray | None:
    """A vector spec as a frozen vector: None or "uniform" is None, else
    the floats of a u (nonnegative) or a v (strictly positive)."""
    if spec is None or isinstance(spec, str):
        if spec not in (None, "uniform"):
            raise DomainError(f'{name} spec must be "uniform" or a vector')
        return None
    return _frozen_vector(spec, f"{name} vector", sum_tol=ROW_SUM_TOL, zeros=name == "u")


def _check_length(vector: np.ndarray | None, name: str, n: int) -> None:
    if vector is not None and vector.size != n:
        raise DomainError(f"{name} vector has length {vector.size}, graph has {n} nodes")


def _read_text(path: str) -> str:
    # UTF-8 whatever the locale; a leading byte-order mark is dropped
    try:
        return Path(path).read_text(encoding="utf-8-sig")
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


# Rows per block of the xmatrix table, which bounds the Python objects a
# block holds while it is written at EMIT_ROWS * n cells.
EMIT_ROWS = 16


def _csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-2])
    return fields


def _lookup(texts: list[str]):
    """A cell encoder: each index of a column picks its cell from texts."""
    table = np.array(texts, dtype=object)
    return lambda col: table[np.asarray(col, dtype=np.intp)].tolist()


def _each(fmt):
    """A cell encoder: each float of a column as fmt writes it."""
    return lambda col: list(map(fmt, np.asarray(col, dtype=float).tolist()))


def _emit(
    args: argparse.Namespace,
    spec: list[tuple[str, str]],
    labels: Sequence[str],
    blocks: Iterable[Sequence],
) -> None:
    """Write a table to stdout as CSV or JSON, each block as it is formatted.

    ``spec`` lists the table's columns as (name, kind), kind one of
    "label", "bool", or floats printed as "f6" or "g6".  A block holds the
    columns side by side, one sequence of cells per spec entry, all of one
    length.  A label column holds node indices into ``labels``, -1 for no
    node (an empty CSV field, a JSON null).  The first block is written
    before the next is read, so every check must run before the call: an
    error never follows partial output.  A JSON row is an object keyed by
    column name, so a table whose names repeat, as xmatrix's do when a
    node is labelled "node", is a :class:`DomainError` before any output.

    Both formats write a row by one ``%`` template of the row's cell
    texts.  The JSON texts are those ``json.dumps(rows, sort_keys=True)``
    prints: a float is the repr of the rounded value, and the template
    takes the columns in the order of their names.
    """
    names = [name for name, _ in spec]
    if args.output == "json":
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise DomainError(
                f"a node labelled {json.dumps(repeated[0])} repeats a column name, "
                "so JSON rows cannot hold the table; use --output csv"
            )
        columns = sorted(range(len(spec)), key=names.__getitem__)
        keys = [json.dumps(names[k]).replace("%", "%%") + ": %s" for k in columns]
        line = "{" + ", ".join(keys) + "}"
        head, join, tail = "[", ", ", "]\n"
        encode = {
            # the entry past the last label is what index -1 reads
            "label": _lookup([*map(json.dumps, labels), "null"]),
            "f6": _each(lambda x: repr(round(x, 6))),
            "g6": _each(lambda x: repr(float("%.6g" % x))),
        }
    else:
        columns = range(len(spec))
        line = ",".join(["%s"] * len(spec)) + "\n"
        head, join, tail = ",".join(_csv_fields(names)) + "\n", "", ""
        encode = {
            "label": _lookup([*_csv_fields(labels), ""]),
            "f6": _each("%.6f".__mod__),
            "g6": _each("%.6g".__mod__),
        }
    encode["bool"] = _lookup(["false", "true"])
    sys.stdout.write(head)
    sep = ""
    for block in blocks:
        parts = [encode[spec[k][1]](block[k]) for k in columns]
        text = join.join(map(line.__mod__, zip(*parts)))
        if text:
            sys.stdout.write(sep + text)
            sep = join
    sys.stdout.write(tail)


def _one_block(rows: list[Sequence]) -> list[list]:
    """The columns of a short table given row by row, as one block."""
    return [list(zip(*rows))] if rows else []


def _cmd_pagerank(v, g, ctx, args):
    _check_length(v, "v", g.n)
    pv = PersonalizationVector.uniform(g.n) if v is None else PersonalizationVector(v)
    pi = ctx.rank(pv).pi
    spec = [("node", "label"), ("pagerank", "f6")]
    _emit(args, spec, g.labels, [(range(g.n), pi)])


def _cmd_xmatrix(v, g, ctx, args):
    x = ctx.fundamental().x
    spec = [("node", "label")] + [(label, "f6") for label in g.labels]
    blocks = (
        (range(start, min(start + EMIT_ROWS, g.n)), *x[start:start + EMIT_ROWS].T)
        for start in range(0, g.n, EMIT_ROWS)
    )
    _emit(args, spec, g.labels, blocks)


def _cmd_intervals(v, g, ctx, args):
    spec = [("node", "label"), ("lo", "f6"), ("hi", "f6"), ("lo_witness", "label")]
    rows = [[iv.node, iv.lo, iv.hi, iv.lo_witness] for iv in ctx.intervals()]
    _emit(args, spec, g.labels, _one_block(rows))


def _parse_pair(g: DirectedGraph, text: str) -> tuple[int, int]:
    """Two labels split at the comma and stripped or, failing that, one CSV
    record of two fields naming labels exactly, as the output prints them."""
    try:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise DomainError(f"--pair expects 'i,j', got {text!r}")
        return g.index_of(parts[0]), g.index_of(parts[1])
    except DomainError:
        try:
            i, j = next(csv.reader([text]))
            return g.index_of(i), g.index_of(j)
        except (ValueError, csv.Error, DomainError):
            pass
        raise


def _scan_blocks(fm: FundamentalMatrix) -> Iterator[tuple]:
    """The full competitor scan as blocks of columns, one per row i of the
    upper triangle, for the pairs i < j in row-major order."""
    for i, competes, above, below in competitor_scan(fm):
        yield (
            np.full(competes.size, i),
            range(i + 1, fm.n),
            competes,
            np.where(competes, above, -1),
            np.where(competes, below, -1),
        )


def _cmd_competitors(v, g, ctx, args):
    spec = [
        ("i", "label"),
        ("j", "label"),
        ("competes", "bool"),
        ("witness_k", "label"),
        ("witness_l", "label"),
    ]
    if args.pair is None:
        _emit(args, spec, g.labels, _scan_blocks(ctx.fundamental()))
        return
    # one pair reads two columns of X, which the context solves for alone
    i, j = _parse_pair(g, args.pair)
    verdict = effective_competitors(ctx, i, j)
    row = [
        i,
        j,
        verdict.competes,
        -1 if verdict.witness_k is None else verdict.witness_k,
        -1 if verdict.witness_l is None else verdict.witness_l,
    ]
    _emit(args, spec, g.labels, _one_block([row]))


def _cmd_leaders(v, g, ctx, args):
    group = leadership_group(ctx.fundamental())
    spec = [("leader", "label"), ("witness_row", "label")]
    rows = [[i, group.witness_rows[i]] for i in sorted(group.leaders)]
    _emit(args, spec, g.labels, _one_block(rows))


def _selected_nodes(g: DirectedGraph, ctx: RankContext, node: str | None) -> list[int]:
    """The node ``--node`` names, an empty label included, else every node."""
    if node is not None:
        return [g.index_of(node)]
    ctx.fundamental()  # every column is read: build X once
    return list(range(g.n))


def _cmd_sc_interval(v, g, ctx, args):
    nodes = _selected_nodes(g, ctx, args.node)
    spec = [("node", "label"), ("epsilon", "g6"), ("lo", "f6"), ("hi", "f6")]
    rows = []
    for i in nodes:
        sc = competitivity_interval(ctx, i, args.epsilon)
        rows.append([i, sc.epsilon, sc.lo, sc.hi])
    _emit(args, spec, g.labels, _one_block(rows))


def _cmd_achieve(v, g, ctx, args):
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
    row = [i, args.target, result.achieved, result.lam, result.epsilon]
    _emit(args, spec, g.labels, _one_block([row]))


def _cmd_verify(v, g, ctx, args):
    nodes = _selected_nodes(g, ctx, args.node)
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
        "alpha": round(ctx.alpha, 6),
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
    common.add_argument("--format", choices=["edgelist", "json"], default=None,
                        help="input format, inferred from extension by default")
    common.add_argument("--output", choices=["csv", "json"], default=None)
    common.add_argument("--config", default=None,
                        help='config JSON {"alpha", "u", "v"}; flags override')

    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                required=True, metavar="SUBCOMMAND")

    pagerank = sub.add_parser("pagerank", parents=[common],
                              help="rank vector for the given personalization")
    pagerank.add_argument("--v", default=None, metavar="PATH|uniform",
                          help="personalization vector, one float per line")
    pagerank.set_defaults(handler=_cmd_pagerank)
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
        alpha, u, v = _model(args)
        g = _load_graph(args.graph, args.format)
        _check_length(u, "u", g.n)
        args.handler(v, g, RankContext.from_graph(g, alpha, u), args)
    except NumericalError as exc:
        # a NaN or inf figure is spelled out: JSON has no literal for it
        details = {
            key: value if not isinstance(value, float) or math.isfinite(value)
            else repr(value)
            for key, value in exc.details.items()
        }
        diagnostic = {
            "error": type(exc).__name__,
            "message": str(exc),
            "details": details,
        }
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True, default=str) + "\n")
        return 2
    except (ParseError, DomainError) as exc:
        sys.stderr.write(f"rankreach: error: {exc}\n")
        return 1
    except MemoryError as exc:
        # a request too large to hold, such as a huge --samples
        reason = str(exc) or "allocation failed"
        sys.stderr.write(f"rankreach: error: out of memory: {reason}\n")
        return 1
    return 0


def main() -> None:
    # The modules loaded so far live until exit, so no collection, the
    # interpreter's last one included, needs to walk them.  run() leaves
    # the heap alone: tests call it in process.
    gc.freeze()
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
