import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rankreach import (
    DirectedGraph,
    DomainError,
    ParseError,
    adjacency,
    parse_edge_list,
    parse_graph_json,
    row_stochastic,
)

from .golden import A1, A3


def test_parse_g1_matches_reference_adjacency(g1):
    assert g1.labels == ("1", "2", "3")
    assert len(g1.edges) == 5
    assert (adjacency(g1).toarray() == A1).all()


def test_parse_g3_matches_reference_adjacency(g3):
    assert (adjacency(g3).toarray() == A3).all()


def test_duplicate_edges_collapse():
    g = parse_edge_list("a b\na b")
    assert g.n == 2
    assert g.edges == frozenset({(0, 1)})


def test_numeric_labels_order_numerically():
    g = parse_edge_list("10 2\n2 10")
    assert g.labels == ("2", "10")


def test_mixed_labels_order_lexicographically():
    g = parse_edge_list("b a\n1 b")
    assert g.labels == ("1", "a", "b")


def test_comments_and_blank_lines_ignored():
    g = parse_edge_list("# header\n\n1 2\n  # indented comment\n2 1\n")
    assert g.n == 2
    assert len(g.edges) == 2


def test_comment_after_an_edge_is_a_parse_error():
    # a comment is a whole line whose first non-blank character is '#'
    with pytest.raises(ParseError, match=r"^line 2: expected 2 tokens 'src dst', got 4$"):
        parse_edge_list("1 2\n2 3 # note\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("1 2\n\n1 2 3")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("lonely")


def test_empty_document_rejected():
    with pytest.raises(ParseError, match="no nodes"):
        parse_edge_list("")
    with pytest.raises(ParseError, match="no nodes"):
        parse_edge_list("# nothing here\n\n")


def test_self_loop_counts_toward_out_degree():
    g = parse_edge_list("1 1")
    assert g.n == 1
    assert np.diff(adjacency(g).indptr).tolist() == [1]
    assert row_stochastic(g).dangling.tolist() == [False]


def test_dangling_single_sink():
    g = parse_edge_list("1 2")
    assert row_stochastic(g).dangling.tolist() == [False, True]


def test_reference_networks_have_no_dangling_nodes(g1, g3):
    assert not row_stochastic(g1).dangling.any()
    assert not row_stochastic(g3).dangling.any()


def test_json_isolated_node_is_dangling():
    g = parse_graph_json('{"nodes": ["a", "b", "c"], "edges": [[0, 1]]}')
    assert g.labels == ("a", "b", "c")
    assert row_stochastic(g).dangling.tolist() == [False, True, True]


def test_json_preserves_declared_node_order():
    g = parse_graph_json('{"nodes": ["z", "a"], "edges": [[0, 1]]}')
    assert g.labels == ("z", "a")


def test_json_rejects_malformed_documents():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_graph_json("{nope")
    with pytest.raises(ParseError, match="nodes"):
        parse_graph_json('{"edges": []}')
    with pytest.raises(ParseError, match="no nodes"):
        parse_graph_json('{"nodes": [], "edges": []}')
    with pytest.raises(ParseError, match='"nodes" must be a list'):
        parse_graph_json('{"nodes": "ab", "edges": []}')
    with pytest.raises(ParseError, match="edge 0"):
        parse_graph_json('{"nodes": ["a", "b"], "edges": [[0, "b"]]}')
    with pytest.raises(ParseError, match="edge 1"):
        parse_graph_json('{"nodes": ["a", "b"], "edges": [[0, 1], [0]]}')
    with pytest.raises(ParseError, match="out of range"):
        parse_graph_json('{"nodes": ["a"], "edges": [[0, 1]]}')
    with pytest.raises(ParseError, match="distinct"):
        parse_graph_json('{"nodes": ["a", "a"], "edges": []}')
    with pytest.raises(ParseError, match="Unicode"):
        parse_graph_json('{"nodes": ["\\ud800"], "edges": []}')


def test_json_roundtrip():
    g = parse_graph_json('{"nodes": ["a", "b", "c"], "edges": [[0, 1], [2, 2]]}')
    assert parse_graph_json(g.to_json()) == g


def test_to_edge_list_rejects_isolated_nodes():
    g = parse_graph_json('{"nodes": ["a", "b", "c"], "edges": [[0, 1]]}')
    with pytest.raises(DomainError, match="no edges"):
        g.to_edge_list()


def test_to_edge_list_rejects_labels_it_cannot_spell():
    # "#x y" would be read as a comment, dropping the edge #x -> y
    g = parse_graph_json('{"nodes": ["#x", "y"], "edges": [[0, 1], [1, 0]]}')
    with pytest.raises(DomainError, match="'#x'.*JSON form"):
        g.to_edge_list()
    # as a target only, '#' starts no comment
    g = parse_graph_json('{"nodes": ["#x", "y"], "edges": [[1, 0], [1, 1]]}')
    assert parse_edge_list(g.to_edge_list()).labels == ("#x", "y")
    for label in ("", "a b", "x y", "a\u2028b", "\ufeffa"):
        doc = json.dumps({"nodes": [label, "c"], "edges": [[0, 1], [1, 0]]})
        with pytest.raises(DomainError, match="JSON form"):
            parse_graph_json(doc).to_edge_list()


def _labelled_edges(g: DirectedGraph) -> set[tuple[str, str]]:
    return {(g.labels[s], g.labels[t]) for s, t in g.edges}


_json_labels = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    min_size=1, max_size=5, unique=True,
)


@given(_json_labels, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
def test_edge_list_of_a_json_graph_reparses_or_is_refused(labels, pairs):
    # Either the edge-list text reads back as the same labelled edges, or
    # the graph is refused with a pointer to the JSON form.  Labels are
    # compared as edges: the parser puts them in its canonical order.
    edges = [[s, t] for s, t in pairs if s < len(labels) and t < len(labels)]
    g = parse_graph_json(json.dumps({"nodes": labels, "edges": edges}))
    try:
        text = g.to_edge_list()
    except DomainError as exc:
        assert "JSON form" in str(exc)
        return
    # read back as the CLI reads a file: UTF-8, a leading byte-order mark dropped
    text = text.encode("utf-8").decode("utf-8-sig")
    assert _labelled_edges(parse_edge_list(text)) == _labelled_edges(g)


def test_index_of_unknown_label(g1):
    assert g1.index_of("2") == 1
    with pytest.raises(DomainError, match="unknown node label"):
        g1.index_of("7")


def test_directed_graph_validates_edge_range():
    with pytest.raises(ParseError, match="out of range"):
        DirectedGraph(labels=("a",), edges=frozenset({(0, 1)}))


def test_directed_graph_requires_integer_indices_and_string_labels():
    # adjacency would truncate 0.5 to node 0, and to_edge_list would raise
    # a bare TypeError or AttributeError
    for edge in ((0.5, 1), (0, 1.0), (True, 0), ("0", 1), (np.float64(0), 1)):
        with pytest.raises(ParseError, match="is not a pair of integer node indices"):
            DirectedGraph(labels=("a", "b"), edges=frozenset({(0, 0), edge}))
    for edges in ({(0, 1, 1)}, {(0,)}, {0}, None):
        with pytest.raises(ParseError, match=r"^edges must be \(source, target\) pairs"):
            DirectedGraph(labels=("a", "b"), edges=edges)
    for labels in ((0, 1), ("a", None), ("a", b"b")):
        with pytest.raises(ParseError, match="^node labels must be strings$"):
            DirectedGraph(labels=labels, edges=frozenset())
    with pytest.raises(ParseError, match=r"^edge \(\d+, 0\) out of range for 2 nodes$"):
        DirectedGraph(labels=("a", "b"), edges=frozenset({(10**30, 0)}))
    # NumPy integers are indices too, kept as Python ints
    g = DirectedGraph(labels=("a", "b"), edges=frozenset({(np.int64(0), np.int32(1)), (1, 0)}))
    assert g == DirectedGraph(labels=("a", "b"), edges=frozenset({(0, 1), (1, 0)}))
    assert {type(i) for e in g.edges for i in e} == {int}
    assert g.to_edge_list() == "a b\nb a\n" and parse_graph_json(g.to_json()) == g


_label = st.text(alphabet="abz0139", min_size=1, max_size=3)
_pairs = st.lists(st.tuples(_label, _label), min_size=1, max_size=30)


@given(_pairs)
def test_out_degrees_sum_to_edge_count(pairs):
    g = parse_edge_list("\n".join(f"{s} {t}" for s, t in pairs))
    assert int(np.diff(adjacency(g).indptr).sum()) == len(g.edges)
    assert set(g.labels) == {tok for pair in pairs for tok in pair}


@given(_pairs)
def test_dangling_iff_zero_adjacency_row(pairs):
    g = parse_edge_list("\n".join(f"{s} {t}" for s, t in pairs))
    d = row_stochastic(g).dangling
    assert np.array_equal(d, adjacency(g).toarray().sum(axis=1) == 0)


@given(_pairs)
def test_serialize_reparse_is_identity(pairs):
    g = parse_edge_list("\n".join(f"{s} {t}" for s, t in pairs))
    assert parse_edge_list(g.to_edge_list()) == g
