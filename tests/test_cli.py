import csv
import doctest
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach.cli
import rankreach.localization
import rankreach.oracle
import rankreach.stochastic
from rankreach import (
    PersonalizationVector,
    SampleReport,
    effective_competitors,
    leadership_group,
    parse_edge_list,
    parse_graph_json,
)
from rankreach.cli import EMIT_ROWS, run
from rankreach.errors import StructureError
from rankreach.localization import RankContext

from .conftest import GRAPH_DIR
from .helpers import random_graph, rng_for

G1 = str(GRAPH_DIR / "g1.edges")
G2 = str(GRAPH_DIR / "g2.edges")
ISOLATED = str(GRAPH_DIR / "isolated.json")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_intervals_csv(capsys):
    code, out, _ = invoke(capsys, "intervals", G1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,lo,hi,lo_witness"
    assert lines[1] == "1,0.298246,0.403509,2"
    assert lines[2] == "2,0.387196,0.492459,3"
    assert lines[3] == "3,0.177901,0.314558,1"


def readme_examples() -> list[tuple[list[str], list[str]]]:
    """Each ``$ rankreach ...`` line of README's sh blocks that shows output,
    as (argv without a trailing comment, the non-blank lines under it)."""
    readme = (GRAPH_DIR.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *shown = command.splitlines()
            argv = shlex.split(re.sub(r"\s#.*", "", line))
            shown = [out for out in shown if out.strip()]
            if argv[0] == "rankreach" and shown:
                examples.append((argv[1:], shown))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_shows_cli_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_cli_examples(argv, shown, capsys, monkeypatch):
    monkeypatch.chdir(GRAPH_DIR.parent)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines() == shown


def test_readme_library_example(monkeypatch):
    # README's python block runs line by line; a commented line's
    # expression must print what its comment shows, "..." matching any text.
    readme = (GRAPH_DIR.parent / "README.md").read_text()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)
    monkeypatch.chdir(GRAPH_DIR.parent)
    checker, namespace, shown_count = doctest.OutputChecker(), {}, 0
    for line in block.splitlines():
        source, _, shown = line.partition("  # ")
        if not shown:
            exec(line, namespace)
            continue
        got = repr(eval(source, namespace)) + "\n"
        assert checker.check_output(shown + "\n", got, doctest.ELLIPSIS), (source, got)
        shown_count += 1
    assert shown_count == 3


def test_leaders_csv(capsys):
    code, out, _ = invoke(capsys, "leaders", G2)
    assert code == 0
    assert out.splitlines() == [
        "leader,witness_row",
        "1,1",
        "4,3",
        "5,5",
    ]


def test_competitors_pair_rows(capsys):
    code, out, _ = invoke(capsys, "competitors", "--pair", "1,2", G1)
    assert code == 0
    assert out.splitlines()[1] == "1,2,false,,"
    code, out, _ = invoke(capsys, "competitors", "--pair", "1,3", G1)
    assert out.splitlines()[1] == "1,3,true,1,3"


def test_competitors_full_scan(capsys):
    code, out, _ = invoke(capsys, "competitors", G1)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert sum(",true," in row for row in rows) == 1


def test_pagerank_uniform(capsys):
    code, out, _ = invoke(capsys, "pagerank", G1)
    assert code == 0
    assert out.splitlines() == [
        "node,pagerank",
        "1,0.333333",
        "2,0.432749",
        "3,0.233918",
    ]


def test_pagerank_with_vector_file(capsys, tmp_path):
    vfile = tmp_path / "v.txt"
    vfile.write_text("0.2\n0.3\n0.5\n")
    code, out, _ = invoke(capsys, "pagerank", "--v", str(vfile), G1)
    assert code == 0
    assert out.splitlines() == [
        "node,pagerank",
        "1,0.319298",
        "2,0.425054",
        "3,0.255648",
    ]


def test_xmatrix_csv(capsys):
    code, out, _ = invoke(capsys, "xmatrix", G1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,1,2,3"
    assert lines[1] == "1,0.403509,0.418590,0.177901"


def test_sc_interval_csv(capsys):
    code, out, _ = invoke(
        capsys, "sc-interval", "--node", "2", "--epsilon", "0.01", G1
    )
    assert code == 0
    assert out.splitlines()[1] == "2,0.01,0.387879,0.491564"


def test_sc_interval_all_nodes(capsys):
    code, out, _ = invoke(capsys, "sc-interval", G1)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_achieve_success(capsys):
    code, out, _ = invoke(
        capsys, "achieve", "--node", "1", "--target", "0.35", G1
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "1"
    assert row[1] == "0.350000"
    assert row[2] == "0.350000"


def test_achieve_outside_interval_exits_1(capsys):
    code, _, err = invoke(
        capsys, "achieve", "--node", "1", "--target", "0.45", G1
    )
    assert code == 1
    assert "outside" in err
    assert "'1'" in err


def test_verify_report(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--seed", "7", "--samples", "500", G1
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["seed"] == 7
    assert set(report["nodes"]) == {"1", "2", "3"}
    for entry in report["nodes"].values():
        assert entry["violations"] == 0
        assert entry["lo"] < entry["observed_min"] <= entry["observed_max"] < entry["hi"]


def test_verify_solves_one_sample_batch(capsys, monkeypatch):
    shapes = []
    real = RankContext.rank_weights

    def counting(self, weights, *args, **kwargs):
        shapes.append(weights.shape)
        return real(self, weights, *args, **kwargs)

    monkeypatch.setattr(RankContext, "rank_weights", counting)
    code, _, _ = invoke(capsys, "verify", "--seed", "7", "--samples", "50", G1)
    assert code == 0
    assert shapes == [(3, 50)]


def test_verify_node_reports_its_entry_of_the_full_report(capsys):
    # one seeded batch serves every node, so a one-node run matches the full one
    _, full, _ = invoke(capsys, "verify", "--seed", "7", "--samples", "200", G1)
    code, out, _ = invoke(capsys, "verify", "--seed", "7", "--samples", "200",
                          "--node", "2", G1)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["nodes"] == {"2": json.loads(full)["nodes"]["2"]}


def test_empty_label_flags_name_the_empty_label(capsys, tmp_path):
    # An empty --node names the node labelled "", and an empty --pair is a
    # malformed pair; neither is the flag left out.
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": ["", "b", "c"],
                                "edges": [[0, 1], [1, 2], [2, 0], [0, 2]]}))
    code, out, _ = invoke(capsys, "sc-interval", "--node", "", str(path))
    _, full, _ = invoke(capsys, "sc-interval", str(path))
    assert code == 0
    assert out.splitlines() == full.splitlines()[:2]
    assert out.splitlines()[1].startswith(",0.01,")
    code, out, _ = invoke(capsys, "verify", "--node", "", "--seed", "1",
                          "--samples", "10", str(path))
    assert code == 0
    assert list(json.loads(out)["nodes"]) == [""]
    code, out, err = invoke(capsys, "competitors", "--pair", "", G1)
    assert (code, out) == (1, "")
    assert err == "rankreach: error: --pair expects 'i,j', got ''\n"


@pytest.mark.parametrize("command", ["pagerank", "intervals"])
def test_dangling_distribution_flag_and_config_agree(capsys, tmp_path, command):
    # isolated.json has two dangling nodes, b and c, so u moves every value
    u = [0.2, 0.3, 0.5]
    u_path, cfg = tmp_path / "u.txt", tmp_path / "run.json"
    u_path.write_text("".join(f"{value}\n" for value in u))
    cfg.write_text(json.dumps({"u": u}))
    _, by_flag, _ = invoke(capsys, command, "--u", str(u_path), ISOLATED)
    _, by_config, _ = invoke(capsys, command, "--config", str(cfg), ISOLATED)
    _, uniform, _ = invoke(capsys, command, ISOLATED)
    assert by_flag == by_config != uniform
    g = parse_graph_json(Path(ISOLATED).read_text())
    ctx = RankContext.from_graph(g, u=np.array(u))
    if command == "pagerank":
        pi = ctx.rank(PersonalizationVector.uniform(g.n)).pi
        expected = [f"{g.labels[i]},{pi[i]:.6f}" for i in range(g.n)]
    else:
        expected = [f"{g.labels[iv.node]},{iv.lo:.6f},{iv.hi:.6f},{g.labels[iv.lo_witness]}"
                    for iv in ctx.intervals()]
    assert by_flag.splitlines()[1:] == expected


def test_verify_violations_print_the_report_then_exit_2(capsys, monkeypatch):
    def escaping(ctx, nodes, samples, seed, concentration):
        # node i reports i samples outside its interval
        return [SampleReport(node=i, samples=samples, observed_min=0.1,
                             observed_max=0.9, violations=i, lo=0.2, hi=0.8)
                for i in nodes]

    monkeypatch.setattr(rankreach.cli, "monte_carlo_interval", escaping)
    code, out, err = invoke(capsys, "verify", "--seed", "7", "--samples", "5", G1)
    assert code == 2
    report = json.loads(out)
    assert report["pass"] is False
    assert [report["nodes"][label]["violations"] for label in "123"] == [0, 1, 2]
    assert json.loads(err) == {
        "error": "NumericalError",
        "message": "sampled rank values escaped their analytic intervals",
        "details": {"violating_nodes": ["2", "3"]},
    }


def test_verify_requires_seed(capsys):
    code, _, err = invoke(capsys, "verify", G1)
    assert code == 1
    assert "--seed" in err


def test_verify_rejects_negative_seed(capsys):
    code, _, err = invoke(capsys, "verify", "--seed", "-3", G1)
    assert code == 1
    assert "seed" in err


def test_runs_are_byte_identical(capsys):
    _, first, _ = invoke(capsys, "intervals", G1)
    _, second, _ = invoke(capsys, "intervals", G1)
    assert first == second
    _, v1, _ = invoke(capsys, "verify", "--seed", "3", "--samples", "200", G1)
    _, v2, _ = invoke(capsys, "verify", "--seed", "3", "--samples", "200", G1)
    assert v1 == v2


def test_json_output_mode(capsys):
    code, out, _ = invoke(capsys, "intervals", "--output", "json", G1)
    assert code == 0
    rows = json.loads(out)
    assert rows[1] == {
        "node": "2", "lo": 0.387196, "hi": 0.492459, "lo_witness": "3",
    }


def test_json_graph_input_inferred_from_extension(capsys):
    code, out, _ = invoke(capsys, "intervals", ISOLATED)
    assert code == 0
    assert out.splitlines()[1].startswith("a,")


def test_explicit_format_flag(capsys, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text('{"nodes": ["a", "b"], "edges": [[0, 1], [1, 0]]}')
    code, out, _ = invoke(capsys, "intervals", "--format", "json", str(path))
    assert code == 0
    assert out.splitlines()[1].startswith("a,")


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"alpha": 0.85, "v": [0.2, 0.3, 0.5]}')
    code, out, _ = invoke(capsys, "pagerank", "--config", str(cfg), G1)
    assert code == 0
    assert out.splitlines()[1] == "1,0.319298"
    # an explicit flag wins over the config value
    code, out2, _ = invoke(
        capsys, "pagerank", "--config", str(cfg), "--v", "uniform", G1
    )
    assert out2.splitlines()[1] == "1,0.333333"


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = invoke(capsys, "frobnicate", G1)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = invoke(capsys, "intervals", "--bogus", G1)
    assert code == 1
    assert "usage" in err


def test_help_exits_0(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "SUBCOMMAND" in out


def test_missing_file_exits_1(capsys):
    code, _, err = invoke(capsys, "intervals", "nope.edges")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2\n1 2 3\n")
    code, _, err = invoke(capsys, "intervals", str(path))
    assert code == 1
    assert "line 2" in err


def test_alpha_out_of_range_exits_1(capsys):
    code, _, err = invoke(capsys, "intervals", "--alpha", "1.5", G1)
    assert code == 1
    assert "alpha" in err


def test_bad_vector_file_exits_1(capsys, tmp_path):
    vfile = tmp_path / "v.txt"
    vfile.write_text("0.5\nnot-a-number\n")
    code, _, err = invoke(capsys, "pagerank", "--v", str(vfile), G1)
    assert code == 1
    assert "one float per line" in err


def test_vector_file_skips_comments_and_blank_lines(capsys, tmp_path):
    plain, annotated = tmp_path / "plain.txt", tmp_path / "annotated.txt"
    plain.write_text("0.2\n0.3\n0.5\n")
    annotated.write_text("# v for g1\n\n0.2\n   \n  # node 2\n0.3\n0.5\n\n")
    _, expected, _ = invoke(capsys, "pagerank", "--v", str(plain), G1)
    code, out, _ = invoke(capsys, "pagerank", "--v", str(annotated), G1)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "flag,text,message",
    [
        ("--v", "# no values\n\n", "{path}: empty vector file"),
        ("--v", "", "{path}: empty vector file"),
        ("--config", "[0.85]", "config must be a JSON object"),
        ("--config", '{"alpha": "0.5"}', 'config "alpha" must be a number'),
        ("--config", '{"u": "zipf"}', 'u spec must be "uniform" or a vector'),
        ("--config", '{"u": [0.5, 0.5]}', "u vector has length 2, graph has 3 nodes"),
    ],
)
def test_bad_vector_and_config_files_exit_1(capsys, tmp_path, flag, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = invoke(capsys, "pagerank", flag, str(path), G1)
    assert (code, out) == (1, "")
    assert err == f"rankreach: error: {message.format(path=path)}\n"


# The model inputs have one reader, the CLI: config documents and vector
# files are checked there, before the graph is read.
def _input(tmp_path, flag, text):
    path = tmp_path / "input"
    path.write_text(text)
    return [flag, str(path)]


def test_config_loading(capsys, tmp_path):
    config = _input(tmp_path, "--config", '{"alpha": 0.9, "u": "uniform", "v": [0.2, 0.3, 0.5]}')
    code, out, _ = invoke(capsys, "pagerank", *config, G1)
    g = parse_edge_list(Path(G1).read_text())
    v = PersonalizationVector(v=[0.2, 0.3, 0.5])
    pi = RankContext.from_graph(g, alpha=0.9).rank(v).pi
    assert code == 0
    assert out.splitlines()[1:] == [f"{g.labels[i]},{pi[i]:.6f}" for i in range(g.n)]
    _, out, _ = invoke(capsys, "verify", *config, "--seed", "1", "--samples", "10", G1)
    assert json.loads(out)["alpha"] == 0.9
    # an empty config is the default model
    empty = _input(tmp_path, "--config", "{}")
    assert invoke(capsys, "pagerank", *empty, ISOLATED) == invoke(capsys, "pagerank", ISOLATED)


def test_config_rejects_bad_documents(capsys, tmp_path):
    for doc, message in (
        ("{", "invalid config JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ('{"aplha": 0.9}', "unknown config keys: ['aplha']"),
        ('{"alpha": 1.2}', "alpha must lie in (0, 1), got 1.2"),
        ('{"v": [0.5, 0.6]}', "v vector must sum to 1, got 1.1"),
        ('{"v": [0.5, 0.5]}', "v vector has length 2, graph has 3 nodes"),
    ):
        result = invoke(capsys, "pagerank", *_input(tmp_path, "--config", doc), G1)
        assert result == (1, "", f"rankreach: error: {message}\n")


def test_config_u_may_hold_zeros_and_v_may_not(capsys, tmp_path):
    by_config = invoke(capsys, "intervals", *_input(tmp_path, "--config", '{"u": [0, 0.5, 0.5]}'),
                       ISOLATED)
    by_flag = invoke(capsys, "intervals", *_input(tmp_path, "--u", "0\n0.5\n0.5\n"), ISOLATED)
    assert by_config[0] == 0
    assert by_config == by_flag
    for doc, message in (
        ('{"u": [NaN, 0.5, 0.5]}', "u vector entries must be zero or positive"),
        ('{"u": [-0.5, 1.5, 0]}', "u vector entries must be zero or positive"),
        ('{"v": [0, 0.5, 0.5]}', "v vector entries must be strictly positive"),
    ):
        result = invoke(capsys, "pagerank", *_input(tmp_path, "--config", doc), ISOLATED)
        assert result == (1, "", f"rankreach: error: {message}\n")


def test_default_u_is_uniform(capsys, tmp_path):
    expected = invoke(capsys, "intervals", *_input(tmp_path, "--u", "0.3333333333333333\n" * 3),
                      ISOLATED)
    assert expected[0] == 0
    assert invoke(capsys, "intervals", ISOLATED) == expected
    assert invoke(capsys, "intervals", "--u", "uniform", ISOLATED) == expected


NOT_FLOATS = 'rankreach: error: config "u" must be "uniform" or a list of floats\n'


@pytest.mark.parametrize("entries", ["complex", "strings"])
def test_u_of_no_real_numbers_exits_1(capsys, tmp_path, entries):
    values = ["0.5+1j", "0.25", "0.25"] if entries == "complex" else ["a", "b", "c"]
    u_file = _input(tmp_path, "--u", "".join(f"{x}\n" for x in values))
    result = invoke(capsys, "pagerank", *u_file, ISOLATED)
    assert result == (1, "", f"rankreach: error: {u_file[1]}:1: expected one float per line\n")
    config = _input(tmp_path, "--config", json.dumps({"u": values}))
    assert invoke(capsys, "pagerank", *config, ISOLATED) == (1, "", NOT_FLOATS)


def test_ragged_u_exits_1(capsys, tmp_path):
    config = _input(tmp_path, "--config", '{"u": [[0.5], [0.25, 0.25]]}')
    assert invoke(capsys, "pagerank", *config, ISOLATED) == (1, "", NOT_FLOATS)


@pytest.mark.parametrize("pair", ["1", "1,2,3"])
def test_malformed_pair_exits_1(capsys, pair):
    code, out, err = invoke(capsys, "competitors", "--pair", pair, G1)
    assert (code, out) == (1, "")
    assert err == f"rankreach: error: --pair expects 'i,j', got {pair!r}\n"


def test_pair_strips_spaces_around_labels(capsys):
    code, out, _ = invoke(capsys, "competitors", "--pair", "1, 2", G1)
    assert code == 0
    assert out.splitlines()[1] == "1,2,false,,"
    code, out, err = invoke(capsys, "competitors", "--pair", "1,5", G1)
    assert (code, out, err) == (1, "", "rankreach: error: unknown node label '5'\n")


@pytest.mark.parametrize("pair,row", [('"a,b",c', 1), ("c, d", 3)])
def test_pair_names_labels_as_the_csv_output_prints_them(capsys, tmp_path, pair, row):
    # A label with a comma, or with a leading space, cannot be named by
    # splitting at the comma and stripping; the pair is then read as one
    # CSV record, and prints the full scan's row.
    graph = tmp_path / "labels.json"
    graph.write_text(json.dumps(
        {"nodes": ["a,b", "c", " d"], "edges": [[0, 1], [1, 2], [2, 0], [0, 2]]}
    ))
    _, scan, _ = invoke(capsys, "competitors", str(graph))
    code, out, err = invoke(capsys, "competitors", "--pair", pair, str(graph))
    assert (code, err) == (0, "")
    assert out.splitlines() == [scan.splitlines()[0], scan.splitlines()[row]]


@pytest.mark.parametrize(
    "flag,name,text",
    [
        (None, "g.edges", "1 2\n2 3\n3 1\n10 1\n"),
        (None, "g.json", '{"nodes": ["1", "2", "3"], "edges": [[0, 1], [1, 2], [2, 0]]}'),
        ("--config", "config.json", '{"alpha": 0.5}'),
        ("--v", "v.txt", "0.2\n0.3\n0.5\n"),
    ],
    ids=["edge-list", "json-graph", "config", "vector"],
)
def test_byte_order_mark_is_dropped(capsys, tmp_path, flag, name, text):
    # Files are read as UTF-8; a leading BOM neither adds to the first
    # label nor breaks a JSON parse.
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / bom.hex() / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(bom + text.encode())
        argv = [str(path)] if flag is None else [flag, str(path), G1]
        results.append(invoke(capsys, "pagerank", *argv))
    assert results[0][0] == 0
    assert results[1] == results[0]


# A comma, a double quote, a newline, a leading space, non-ASCII text, an
# empty label, and "node", which an xmatrix JSON row would hold twice as a key.
AWKWARD_LABELS = ["a,b", 'say "hi"', "two\nlines", " lead", "naïve ü", "", "ταυ", "node"]
AWKWARD_EDGES = [[0, 1], [1, 0], [1, 2], [2, 0], [2, 1], [3, 0], [3, 2], [4, 3],
                 [5, 4], [6, 5], [6, 7], [7, 6]]


def _reference_render(output, spec, rows):
    """A table as csv.writer and one whole-payload json.dumps write it;
    label cells are label strings or None."""
    names = [name for name, _ in spec]

    def cell(kind, value):
        if value is None or kind == "label":
            return value
        if output == "json":
            return {"f6": round(value, 6), "g6": float(f"{value:.6g}"), "bool": value}[kind]
        if kind == "bool":
            return "true" if value else "false"
        return f"{value:.6f}" if kind == "f6" else f"{value:.6g}"

    cells = [[cell(kind, value) for (_, kind), value in zip(spec, row)] for row in rows]
    if output == "json":
        return json.dumps([dict(zip(names, row)) for row in cells], sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(cells)
    return buf.getvalue()


def _awkward_tables(g):
    """The expected table of each whole-graph subcommand, from the library."""
    ctx = RankContext.from_graph(g)
    fm = ctx.fundamental()
    labels = g.labels
    pi = ctx.rank(PersonalizationVector.uniform(g.n)).pi
    verdicts = [effective_competitors(fm, i, j) for i, j in combinations(range(g.n), 2)]
    group = leadership_group(fm)

    def label(k):
        return None if k is None else labels[k]

    return {
        "pagerank": ([("node", "label"), ("pagerank", "f6")],
                     [[labels[i], float(pi[i])] for i in range(g.n)]),
        "xmatrix": ([("node", "label")] + [(name, "f6") for name in labels],
                    [[labels[i], *fm.x[i].tolist()] for i in range(g.n)]),
        "intervals": ([("node", "label"), ("lo", "f6"), ("hi", "f6"), ("lo_witness", "label")],
                      [[labels[iv.node], iv.lo, iv.hi, labels[iv.lo_witness]]
                       for iv in ctx.intervals()]),
        "competitors": ([("i", "label"), ("j", "label"), ("competes", "bool"),
                         ("witness_k", "label"), ("witness_l", "label")],
                        [[labels[v.i], labels[v.j], v.competes, label(v.witness_k),
                          label(v.witness_l)] for v in verdicts]),
        "leaders": ([("leader", "label"), ("witness_row", "label")],
                    [[labels[i], labels[group.witness_rows[i]]]
                     for i in sorted(group.leaders)]),
    }


@pytest.mark.parametrize("output", ["csv", "json"])
def test_streamed_output_matches_csv_writer_and_json_dumps(capsys, tmp_path, output):
    # the awkward labels, and 41 rows of X, which xmatrix writes in three
    # blocks, the last one short
    big = random_graph(rng_for(302), 41, density=0.05, dangling_frac=0.1)
    assert big.n > 2 * EMIT_ROWS
    path = tmp_path / "graph.json"
    for nodes, edges in ((AWKWARD_LABELS, AWKWARD_EDGES), (big.labels, sorted(big.edges))):
        path.write_text(json.dumps({"nodes": list(nodes), "edges": edges}))
        g = parse_graph_json(path.read_text())
        tables = _awkward_tables(g)
        # the scan holds competing and non-competing pairs
        competes = {row[2] for row in tables["competitors"][1]}
        assert competes == {True, False}
        for command, (spec, rows) in tables.items():
            code, out, err = invoke(capsys, command, "--output", output, str(path))
            if (command, output, nodes) == ("xmatrix", "json", AWKWARD_LABELS):
                # the node labelled "node" would overwrite every row's label
                assert (code, out) == (1, "")
                assert err == (
                    'rankreach: error: a node labelled "node" repeats a column name, '
                    "so JSON rows cannot hold the table; use --output csv\n"
                )
                continue
            assert code == 0, err
            assert out == _reference_render(output, spec, rows), command


def _traced_peak(argv) -> int:
    """Peak traced memory of one CLI run, its stdout discarded."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_streamed_output_peaks_near_intervals(tmp_path):
    # No output is held whole: writing every pair or all of X as JSON peaks
    # within 1.25x of intervals, which holds X and its factors alone.
    g = random_graph(rng_for(301), 300, density=0.03)
    path = tmp_path / "g300.edges"
    path.write_text("".join(f"{g.labels[s]} {g.labels[t]}\n" for s, t in sorted(g.edges)))
    base = _traced_peak(["intervals", str(path)])
    for command in ("competitors", "xmatrix"):
        peak = _traced_peak([command, "--output", "json", str(path)])
        assert peak <= 1.25 * base, (command, peak, base)


def test_pagerank_near_alpha_one_exits_0(capsys):
    # The solved vector's sum strays from 1 by 2e-8 here, within the bound
    # n (1 + alpha)/(1 - alpha) u that X's row sums use.
    code, out, err = invoke(capsys, "pagerank", "--alpha", "0.999999999", G2)
    assert code == 0, err
    assert out.startswith("node,pagerank\n")


@pytest.mark.parametrize("alpha", ["0.999999", "0.999999999"])
@pytest.mark.parametrize("command", ["intervals", "pagerank"])
def test_hub_heavy_input_near_alpha_one_exits_0(capsys, tmp_path, command, alpha):
    # A 300-node in-star (k -> 1): at alpha = 1 - 1e-6 the row sums of X
    # stray from 1 by 5.1e-10, past (1 + alpha)/(1 - alpha) u = 2.2e-10
    # but within n times that.
    path = tmp_path / "in_star.edges"
    path.write_text("".join(f"{k} 1\n" for k in range(2, 301)))
    code, out, err = invoke(capsys, command, "--alpha", alpha, str(path))
    assert code == 0, err
    assert out.count("\n") == 301


@pytest.mark.parametrize("command", ["intervals", "pagerank"])
def test_solved_sum_failure_is_numerical(capsys, monkeypatch, command):
    # X's row sums and a solved rank vector's sum fail the same way: a
    # numerical error, exit 2 with a JSON diagnostic.
    def unmeetable(alpha, n):
        return -1.0

    monkeypatch.setattr(rankreach.localization, "solve_sum_tol", unmeetable)
    monkeypatch.setattr(rankreach.stochastic, "solve_sum_tol", unmeetable)
    code, out, err = invoke(capsys, command, G1)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] in ("NumericalError", "StructureError")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # As `verify --samples 100000000000` meets it: numpy cannot allocate
    # the batch.  No real allocation is made here.
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.18 TiB for an array")

    monkeypatch.setattr(rankreach.oracle, "sample_personalization_batch", too_large)
    code, out, err = invoke(capsys, "verify", "--seed", "1", "--samples", "5", G1)
    assert code == 1
    assert out == ""
    assert err == "rankreach: error: out of memory: Unable to allocate 2.18 TiB for an array\n"


@pytest.mark.parametrize("samples", ["100000000000000000000", str(2**62)])
def test_unmakeable_sample_batch_is_one_error_line(capsys, samples):
    # numpy refuses these batch shapes outright, before allocating anything
    code, out, err = invoke(capsys, "verify", "--seed", "1", "--samples", samples, G1)
    assert (code, out) == (1, "")
    assert err == f"rankreach: error: sample count {samples} is too large for 3 nodes\n"


def test_error_messages_print_floats_at_twelve_digits(capsys):
    code, _, err = invoke(capsys, "achieve", "--node", "1", "--target", "0.99",
                          str(GRAPH_DIR / "two_cycle.edges"))
    assert code == 1
    assert err == (
        "rankreach: error: node '1': target 0.99 outside the attainable open "
        "interval (0.459459459459, 0.540540540541)\n"
    )


def test_single_node_graph_intervals_exit_1(capsys, tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("1 1\n")
    code, _, err = invoke(capsys, "intervals", str(path))
    assert code == 1
    assert "single-node" in err


def test_single_node_graph_competitors_print_only_the_header(capsys, tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("1 1\n")
    code, out, _ = invoke(capsys, "competitors", str(path))
    assert code == 0
    assert out == "i,j,competes,witness_k,witness_l\n"
    code, out, _ = invoke(capsys, "competitors", "--output", "json", str(path))
    assert code == 0
    assert out == "[]\n"


@pytest.mark.parametrize("name", sorted(path.name for path in GRAPH_DIR.iterdir()))
def test_golden_graphs_pass_structure_checks_near_alpha_one(capsys, name):
    # Row sums of X drift past the fixed 1e-10 here (up to 2e-8 on g2);
    # the row-sum check allows the condition bound times the roundoff.
    code, out, err = invoke(capsys, "intervals", "--alpha", "0.999999999",
                            str(GRAPH_DIR / name))
    assert code == 0, err
    assert out.startswith("node,lo,hi,lo_witness\n")


def test_numerical_failure_exits_2_with_json_diagnostic(capsys, monkeypatch):
    def broken(fm):
        raise StructureError("synthetic breakdown", details={"worst_margin": -1.0})

    monkeypatch.setattr(rankreach.localization, "verify_structure", broken)
    code, _, err = invoke(capsys, "intervals", G1)
    assert code == 2
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "StructureError"
    assert diagnostic["details"]["worst_margin"] == -1.0


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy's import alone used to
    # cost more than most of the CLI's computations.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, rankreach.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_stdout_pipe_exits_1_without_traceback(tmp_path):
    # As in `rankreach competitors star.edges | head -1`: about 370 KB of
    # CSV, far past what a pipe buffers, so the writer meets the closed
    # pipe.
    path = tmp_path / "star.edges"
    path.write_text("".join(f"0 {j}\n" for j in range(1, 200)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankreach.cli", "competitors", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"i,j,competes,witness_k,witness_l\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err


def test_module_entry_point_prints_what_run_prints(capsys):
    # main() differs from run() by gc.freeze() and the exit; the in-process
    # corpus never runs it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "rankreach.cli", "intervals", G1],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == invoke(capsys, "intervals", G1)[1]


def test_json_graph_with_non_list_edges_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": ["a", "b"], "edges": 5}')
    code, _, err = invoke(capsys, "intervals", str(path))
    assert code == 1
    assert err.startswith("rankreach: error:")
    assert "Traceback" not in err


def test_config_with_non_numeric_vector_exits_1(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"v": ["a"]}')
    code, _, err = invoke(capsys, "pagerank", "--config", str(cfg), G1)
    assert code == 1
    assert err.startswith("rankreach: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["intervals"], "--alpha", "nan"),
        (["sc-interval"], "--epsilon", "nan"),
        (["achieve", "--node", "1"], "--target", "inf"),
        (["achieve", "--node", "1", "--target", "0.35"], "--tol", "nan"),
        (["verify", "--seed", "1"], "--samples", "0"),
        (["verify", "--seed", "1"], "--concentration", "nan"),
    ],
)
def test_nonfinite_float_and_nonpositive_count_flags_exit_1(capsys, argv, flag, value):
    code, _, err = invoke(capsys, *argv, flag, value, G1)
    assert code == 1
    assert f"argument {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["achieve", "--node", "1", "--target", "0.35"],
        ["competitors", "--pair", "1,3"],
        ["intervals"],
        ["leaders"],
        ["xmatrix"],
        ["competitors"],
    ],
)
def test_solves_are_residual_checked(capsys, monkeypatch, argv):
    # Point queries solve single columns of X, whole-graph queries all of
    # X; either way a broken solve must fail as a numerical error.
    real = rankreach.localization._lu_solve

    def perturbed(*args, **kwargs):
        x = real(*args, **kwargs)
        x += 1e-6
        return x

    monkeypatch.setattr(rankreach.localization, "_lu_solve", perturbed)
    code, out, err = invoke(capsys, *argv, G1)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NumericalError"


@pytest.mark.parametrize(
    "argv",
    [
        ["achieve", "--node", "1", "--target", "0.35"],
        ["competitors", "--pair", "1,3"],
        ["intervals"],
        ["pagerank"],
        ["xmatrix"],
        ["verify", "--seed", "7", "--samples", "50"],
    ],
)
def test_nan_solves_fail_closed(capsys, monkeypatch, argv):
    # A NaN compares false with every bound: the checks must read that as
    # a failure, not a pass, and the diagnostic must stay JSON.
    real = rankreach.localization._lu_solve

    def nan_skewed(*args, **kwargs):
        x = real(*args, **kwargs)
        x.reshape(-1)[-1] = np.nan
        return x

    monkeypatch.setattr(rankreach.localization, "_lu_solve", nan_skewed)
    code, out, err = invoke(capsys, *argv, G1)
    assert code == 2
    assert out == ""

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    diagnostic = json.loads(err, parse_constant=no_constants)
    assert diagnostic["error"] in ("NumericalError", "StructureError")


def test_sample_batch_solve_is_residual_checked(capsys, monkeypatch):
    # Skew only the many-column rank solve, the Monte-Carlo batch: the
    # intervals it is checked against stay correct, the batch must not.
    real = rankreach.localization._lu_solve

    def skewed(lu, b, trans=0, **kwargs):
        batch = trans == 0 and b.ndim == 2 and b.shape[1] > 1
        x = real(lu, b, trans=trans, **kwargs)
        return x + 1e-6 if batch and not kwargs.get("lower_rhs") else x

    monkeypatch.setattr(rankreach.localization, "_lu_solve", skewed)
    code, out, err = invoke(capsys, "verify", "--seed", "7", "--samples", "50", G1)
    assert code == 2
    assert out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "NumericalError"
    assert "weight column" in diagnostic["details"]


# Documents and flag values for the error-contract property.  Each one is
# well formed three times in four, so runs get past parsing and reach the
# solvers; otherwise it takes one of the malformed forms a parser must
# refuse, including ones the JSON and text decoders choke on.  At most 8
# labels (n <= 8) and a handful of samples keep every run small.
_label = st.sampled_from(["1", "2", "3", "10", "a", "b", "c", "d"])
_unit = st.floats(1e-6, 1 - 1e-6).map(repr)
_bad_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "-1", "1e-300", "5e-324", "1e999", "0.9999999999999999", "abc", ""]),
)
_entry = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-1, 2), st.text(max_size=1)
)
_hostile = st.sampled_from([
    b"\xff\xfe 1\n",
    b"[" * 5000,
    b'{"nodes": ["a"], "edges": [[0, ' + b"1" * 5000 + b"]]}",
    b'{"alpha": 1' + b"0" * 400 + b"}",
    b"{nope",
])


def _mostly(good, bad):
    """``good`` three times in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


@st.composite
def _invocation(draw):
    """(argv, files): a subcommand with mutated flags, and the documents it reads."""
    cmd = draw(st.sampled_from([
        "pagerank", "xmatrix", "intervals", "competitors", "leaders",
        "sc-interval", "achieve", "verify",
    ]))
    edges = draw(st.lists(st.tuples(_label, _label), min_size=1, max_size=12))
    labels = sorted({x for e in edges for x in e})
    n = len(labels)
    lines = [f"{s} {t}" for s, t in edges]
    doc = {"nodes": labels, "edges": [[labels.index(s), labels.index(t)] for s, t in edges]}
    index = st.one_of(st.integers(-1, n), st.just(2**70), _entry)
    fmt = draw(st.sampled_from(["edgelist", "json"]))
    good_graph = st.just("\n".join(lines) if fmt == "edgelist" else json.dumps(doc))
    bad_graph = st.one_of(
        st.lists(st.sampled_from(["", "# c", "1 2 3", "lonely"]), min_size=1).map(
            lambda extra: "\n".join(lines + extra)
        ),
        st.fixed_dictionaries({}, optional={
            "nodes": st.one_of(
                st.lists(st.one_of(_label, st.just("\ud800")), max_size=8), st.integers()
            ),
            "edges": st.one_of(
                st.lists(st.one_of(st.lists(index, max_size=3), index), max_size=6),
                st.integers(),
            ),
        }).map(json.dumps),
    )
    name = "graph" + (".edges" if fmt == "edgelist" else ".json")
    files = {name: draw(_mostly(good_graph.map(str.encode), st.one_of(
        bad_graph.map(str.encode), _hostile)))}
    argv = [cmd, name]

    def maybe(flag, good, bad, required=False):
        if draw(st.booleans()) or (required and draw(st.integers(0, 9))):
            argv.extend([flag, draw(_mostly(good, bad))])

    uniform = "\n".join([repr(1.0 / n)] * n).encode()
    vector_file = st.one_of(
        st.lists(st.one_of(_bad_number, st.just("# c")), max_size=9).map(
            lambda vals: "\n".join(vals).encode()
        ),
        _hostile,
    )
    vector_spec = st.one_of(st.just("other"), st.lists(_entry, max_size=9))
    config = st.fixed_dictionaries({}, optional={
        "alpha": _mostly(st.floats(1e-6, 1 - 1e-6), st.one_of(
            _entry, st.booleans(), st.just(10**400))),
        "u": _mostly(st.just("uniform"), vector_spec),
        "v": _mostly(st.just([1.0 / n] * n), vector_spec),
    })
    bad_config = st.one_of(
        st.fixed_dictionaries({"bogus": st.just(1)}).map(json.dumps).map(str.encode),
        _hostile,
    )
    for flag, path, good, bad in [
        ("--config", "config.json", config.map(json.dumps).map(str.encode), bad_config),
        ("--u", "u.txt", st.just(uniform), vector_file),
        ("--v", "v.txt", st.just(uniform), vector_file),
    ]:
        if draw(st.booleans()):
            files[path] = draw(_mostly(good, bad))
            argv.extend([flag, path])
    # alpha this close to 1 breaks the solve and must end in exit 2
    maybe("--alpha", st.one_of(_unit, st.sampled_from(["0.99999999", "0.9999999999999999"])),
          _bad_number)
    maybe("--format", st.just(fmt), st.just("json" if fmt == "edgelist" else "edgelist"))
    maybe("--output", st.sampled_from(["csv", "json"]), st.just("xml"))
    node = st.sampled_from(labels)
    if cmd == "competitors":
        maybe("--pair", st.tuples(node, node).map(",".join), st.sampled_from(["zz,1", "1"]))
    if cmd in ("sc-interval", "verify"):
        maybe("--node", node, st.just("zz"))
    if cmd == "sc-interval":
        maybe("--epsilon", _unit, _bad_number)
    if cmd == "achieve":
        maybe("--node", node, st.just("zz"), required=True)
        maybe("--target", _unit, _bad_number, required=True)
        maybe("--tol", _unit, _bad_number)
    if cmd == "verify":
        maybe("--seed", st.integers(0, 2**64).map(str), st.sampled_from(["-1", "x"]),
              required=True)
        # 10**20 is a batch shape numpy refuses before allocating anything
        maybe("--samples", st.integers(1, 30).map(str),
              st.sampled_from(["0", "-1", "abc", "100000000000000000000"]))
        maybe("--concentration", _unit, _bad_number)
    return argv, files


def _is_diagnostic(err: str) -> bool:
    try:
        doc = json.loads(err)
    except ValueError:
        return False
    return isinstance(doc, dict) and {"error", "message", "details"} <= doc.keys()


@settings(max_examples=50, deadline=None)
@given(_invocation())
def test_error_contract_holds_for_mutated_inputs(invocation):
    # Every run ends in exit 0, 1 or 2 without a traceback, and stderr
    # carries the JSON diagnostic exactly when the exit code is 2.
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a) if a in files else a for a in argv]
        # stdout encodes strictly as UTF-8, like a terminal or a pipe
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        out.flush()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert _is_diagnostic(err.getvalue()) == (code == 2)
