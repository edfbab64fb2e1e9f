import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach.localization
from rankreach.cli import run
from rankreach.errors import StructureError
from rankreach.localization import RankContext

from .conftest import GRAPH_DIR

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
    real = scipy.linalg.lu_solve

    def perturbed(*args, **kwargs):
        return real(*args, **kwargs) + 1e-6

    monkeypatch.setattr(scipy.linalg, "lu_solve", perturbed)
    code, out, err = invoke(capsys, *argv, G1)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "NumericalError"


def test_sample_batch_solve_is_residual_checked(capsys, monkeypatch):
    # Skew only the many-column rank solve, the Monte-Carlo batch: the
    # intervals it is checked against stay correct, the batch must not.
    real = scipy.linalg.lu_solve

    def skewed(lu_piv, b, trans=0, **kwargs):
        x = real(lu_piv, b, trans=trans, **kwargs)
        if trans == 0 and b.ndim == 2 and b.shape[1] > 1:
            x = x + 1e-6
        return x

    monkeypatch.setattr(scipy.linalg, "lu_solve", skewed)
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
        maybe("--samples", st.integers(1, 30).map(str), st.sampled_from(["0", "-1", "abc"]))
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
