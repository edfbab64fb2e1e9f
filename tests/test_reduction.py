"""The reduced chain that RankContext factors: dangling nodes lumped into
one state, states without in-links peeled level by level.  Every solve
through it must agree with the same solve on the unreduced A_t, and X with
the explicit-inverse oracle."""

import importlib.util
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach.localization
from rankreach import (
    DirectedGraph,
    PersonalizationVector,
    RankContext,
    RowStochasticMatrix,
    explicit_inverse_check,
    parse_edge_list,
    parse_graph_json,
    row_stochastic,
)
from rankreach.localization import _lu_factor, _lu_solve, _peel_levels
from rankreach.stochastic import solve_sum_tol

from .helpers import random_graph, rng_for

ALPHAS = (0.3, 0.85, 0.99, 1.0 - 1e-9)
ROOT = Path(__file__).resolve().parent.parent


@st.composite
def reducible_graphs(draw, max_core: int, max_layer: int):
    """A graph and its dangling distribution u.  A core, a cycle with
    random chords, sits under up to three layers: a node of layer k has
    in-links from layer k - 1 alone and out-links into the core and
    deeper layers, so the layers peel off in order.  Then a fraction of
    the nodes, 0, 0.1 or all of them, loses its out-links; u is uniform or
    zero off the core, so that the layers peel while dangling nodes lump."""
    core = draw(st.integers(1, max_core))
    layers = draw(st.lists(st.integers(1, max_layer), max_size=3))
    dangling_frac = draw(st.sampled_from([0.0, 0.1, 1.0]))
    partial_u = draw(st.booleans())
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    n = core + sum(layers)
    edges = {(i, (i + 1) % core) for i in range(core)}
    edges |= {(int(s), int(t)) for s, t in rng.integers(0, core, (core, 2))}
    start, above = core, []
    for size in layers:
        layer = list(range(start, start + size))
        for node in layer:
            if above:
                edges.add((int(rng.choice(above)), node))
            edges.add((node, int(rng.integers(core))))
            for deeper in range(node + 1, n):
                if deeper >= start + size and rng.random() < 0.3:
                    edges.add((node, deeper))
        above, start = layer, start + size
    dangling = set(rng.permutation(n)[: round(dangling_frac * n)].tolist())
    edges = {(s, t) for s, t in edges if s not in dangling}
    g = DirectedGraph(labels=tuple(str(i) for i in range(n)), edges=frozenset(edges))
    u = None
    if partial_u:
        u = np.zeros(n)
        u[:core] = rng.random(core) + 0.1
        u /= u.sum()
    return g, u


def _unreduced(alpha, p_u):
    """The block LU of the full A_t = I - alpha P_u^T."""
    return _lu_factor(np.eye(p_u.n) - alpha * p_u.toarray().T)


def _agrees(p_u, nodes=None):
    """Rank vectors, fresh columns of X, the row-sum error, transposed
    solves of a batch that is uneven on the dangling nodes, and X itself
    against the same solves on the unreduced A_t, at every alpha."""
    n = p_u.n
    v = rng_for(n).random(n) + 0.1
    v /= v.sum()
    nodes = range(n) if nodes is None else nodes
    for alpha in ALPHAS:
        lu = _unreduced(alpha, p_u)
        tol = solve_sum_tol(alpha, n)
        ctx = RankContext(alpha, p_u)
        pi = ctx.rank(PersonalizationVector(v=v)).pi
        assert np.abs(pi - _lu_solve(lu, (1.0 - alpha) * v)).max() <= tol
        cols = _lu_solve(lu, (1.0 - alpha) * np.eye(n), trans=1)
        for i in nodes:
            col = RankContext(alpha, p_u).column(i)
            assert np.abs(col - cols[:, i]).max() <= tol, (alpha, i)
        sums = _lu_solve(lu, np.full(n, 1.0 - alpha), trans=1)
        row_sum_error = RankContext(alpha, p_u)._row_sums()
        assert abs(row_sum_error - np.abs(sums - 1.0).max()) <= tol
        # a lumped right-hand side takes P_u's product over the dangling rows
        b = (1.0 - alpha) * rng_for(n + 1).random((n, 3))
        solved = RankContext(alpha, p_u)._chain.solve(b, 1)
        assert np.abs(solved - _lu_solve(lu, b.copy(), trans=1)).max() <= tol
        assert np.abs(ctx.fundamental().x - cols).max() <= tol


@settings(max_examples=40, deadline=None)
@given(reducible_graphs(max_core=4, max_layer=2))
def test_reduced_x_agrees_with_the_explicit_inverse(case):
    g, u = case
    p_u = row_stochastic(g, u)
    for alpha in ALPHAS:
        explicit_inverse_check(alpha, p_u)


@settings(max_examples=25, deadline=None)
@given(reducible_graphs(max_core=30, max_layer=3))
def test_reduced_solves_agree_with_the_unreduced_system(case):
    g, u = case
    _agrees(row_stochastic(g, u))


@pytest.mark.parametrize("centre_only", [False, True])
def test_in_star_solves_agree_with_the_unreduced_system(centre_only):
    # Edges k -> 0: the centre is the one dangling node.  With u uniform
    # nothing reduces; with u on the centre alone every leaf peels and the
    # core is the centre.
    n = 300
    star = DirectedGraph(labels=tuple(map(str, range(n))),
                         edges=frozenset((k, 0) for k in range(1, n)))
    u = np.eye(n)[0] if centre_only else None
    p_u = row_stochastic(star, u)
    _agrees(p_u, nodes=[0, 1, n - 1])


def _layered_graph(seed: int, dangling_frac: float):
    """A core of 130 nodes, a cycle with random chords, under 200 nodes in
    ten layers of 20.  A layered node links only to earlier labels: to one
    node of the layer below and to up to three others, so every layered
    node peels, the highest labels first, on ten levels or more.  Then a
    fraction of the nodes loses its out-links, and u, when any dangles, is
    zero off the core, so that the layers still peel while the dangling
    nodes lump."""
    core, layer, rng = 130, 20, rng_for(seed)
    n = core + 10 * layer
    edges = {(i, (i + 1) % core) for i in range(core)}
    edges |= {(int(s), int(t)) for s, t in rng.integers(0, core, (2 * core, 2))}
    for node in range(core, n):
        below = core + ((node - core) // layer - 1) * layer
        edges.add((node, int(rng.integers(below, below + layer))))
        edges |= {(node, int(t)) for t in rng.integers(0, node, rng.integers(0, 4))}
    dangling = set(rng.permutation(n)[: round(dangling_frac * n)].tolist())
    edges = {(s, t) for s, t in edges if s not in dangling}
    g = DirectedGraph(labels=tuple(map(str, range(n))), edges=frozenset(edges))
    u = None
    if dangling:
        u = np.zeros(n)
        u[:core] = rng.random(core) + 0.1
        u /= u.sum()
    return g, u


@pytest.mark.parametrize("dangling_frac", [0.0, 0.05])
def test_deep_peels_agree_across_blocks(dangling_frac):
    # The core spans several 64-row LU blocks, and the peel levels run
    # through several residual blocks of X's columns.
    g, u = _layered_graph(22, dangling_frac)
    p_u = row_stochastic(g, u)
    chain = RankContext(0.85, p_u)._chain
    assert len(chain.levels) >= 8 and chain.core.size > 64
    # fresh columns of core and layered nodes alike, and every dangling one
    _agrees(p_u, nodes=sorted({*range(0, g.n, 11), *chain.dangling.tolist()}))


def _assert_delta_peels(p_u):
    chain = RankContext(0.85, p_u)._chain
    assert chain.dangling.size > 1 and chain.level_of[chain.dangling[0]] >= 0
    return chain


def test_delta_peels_when_every_dangling_node_is_isolated():
    # d and e dangle with no in-link and u is 0 on both, so delta has no
    # in-link, not even its own: it peels on level 0, with f.
    g = parse_graph_json((ROOT / "graphs" / "two_isolated.json").read_text())
    u = np.loadtxt(ROOT / "tests" / "two_isolated_partial_u.txt")
    p_u = row_stochastic(g, u)
    chain = _assert_delta_peels(p_u)
    assert chain.level_of.tolist() == [-1, -1, -1, 0, -2, 0]
    _agrees(p_u)
    for alpha in ALPHAS:
        explicit_inverse_check(alpha, p_u)


def test_delta_peels_across_blocks():
    # The layered graph with 20 isolated nodes added and u on its core
    # alone: delta peels while the layers run over several levels and
    # several blocks of X's columns.
    g, _ = _layered_graph(22, 0.0)
    n = g.n + 20
    g = DirectedGraph(labels=tuple(map(str, range(n))), edges=g.edges)
    u = np.zeros(n)
    u[:130] = rng_for(23).random(130) + 0.1
    u /= u.sum()
    p_u = row_stochastic(g, u)
    chain = _assert_delta_peels(p_u)
    assert len(chain.levels) == 13 and chain.core.size > 64
    _agrees(p_u, nodes=sorted({*range(0, n, 11), *chain.dangling.tolist()}))


@pytest.mark.parametrize("partial_u", [False, True])
def test_a_lone_dangling_node_is_delta(monkeypatch, partial_u):
    # d is the one dangling node, so delta is d itself and X's column of d
    # follows from its in-links, as with many dangling nodes.  With u 0 on
    # e and f, f and then e peel.  On this one-block core a kept node's
    # fresh column has X's bits; d's, lumped through P_u, is near them.
    g = parse_edge_list((ROOT / "graphs" / "one_dangling.edges").read_text())
    u = np.loadtxt(ROOT / "tests" / "one_dangling_partial_u.txt") if partial_u else None
    p_u = row_stochastic(g, u)
    chain = RankContext(0.85, p_u)._chain
    assert chain.dangling.size == 1
    assert [level.tolist() for level in chain.levels] == ([[5], [4]] if partial_u else [])
    _agrees(p_u)
    calls = []
    real = rankreach.localization._Reduction._dangling_rows

    def counting(self, w, b_dangling):
        calls.append(w.shape)
        return real(self, w, b_dangling)

    monkeypatch.setattr(rankreach.localization._Reduction, "_dangling_rows", counting)
    for alpha in ALPHAS:
        explicit_inverse_check(alpha, p_u)
        calls.clear()
        x = RankContext(alpha, p_u).fundamental().x
        assert calls == [(g.n, g.n)]
        for j in range(g.n):
            col = RankContext(alpha, p_u).column(j)
            if p_u.dangling[j]:
                assert np.abs(col - x[:, j]).max() <= 1e-13, (alpha, j)
            else:
                assert col.tobytes() == x[:, j].tobytes(), (alpha, j)


def _load_perfbench_gen():
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_one_factorization_of_the_reduced_size(monkeypatch):
    sizes = []
    real = rankreach.localization._lu_factor

    def counting(a):
        sizes.append(a.shape)
        return real(a)

    monkeypatch.setattr(rankreach.localization, "_lu_factor", counting)
    gen = _load_perfbench_gen()
    # the certify workload's graph: 173 of its 1000 nodes peel, none dangles
    pa = parse_edge_list(gen.edge_list_text(gen.preferential_edges(1000, 0)))
    # uniform, with 20 of its 200 nodes dangling: they lump into one state
    uniform = random_graph(rng_for(200), 200, density=0.05, dangling_frac=0.1)
    for g, alpha, size in ((pa, 0.99, 827), (uniform, 0.85, 200 - 20 + 1)):
        sizes.clear()
        ctx = RankContext.from_graph(g, alpha=alpha)
        ctx.interval(1)
        ctx.rank_weights(np.ones(g.n))
        ctx.fundamental()
        ctx.column(0)
        assert sizes == [(size, size)]
    # the uniform graph lumps and peels nothing: the lumped-away dangling
    # nodes sit in no level, so X takes no peel pass, and not in the core
    chain = ctx._chain
    assert chain.levels == []
    assert not np.isin(chain.dangling[1:], chain.core).any()


def test_a_kept_column_takes_no_product_with_p_u(monkeypatch):
    # A kept node's right-hand side is 0 on the dangling rows, so it is
    # lumped as it stands; only the residual check multiplies by P_u.
    calls = []
    real = RowStochasticMatrix.matvec

    def counting(self, x):
        calls.append(x.shape)
        return real(self, x)

    ctx = RankContext.from_graph(random_graph(rng_for(7), 120, dangling_frac=0.2))
    chain = ctx._chain
    assert chain.dangling.size > 1
    kept = int(np.flatnonzero(~ctx.p_u.dangling)[0])
    ctx._row_sums()  # the structure check's X 1, made once per context
    monkeypatch.setattr(RowStochasticMatrix, "matvec", counting)
    rhs = np.zeros((120, 1))
    rhs[kept] = 1.0 - ctx.alpha
    chain.solve(rhs, 1)
    assert calls == []
    ctx.column(kept)
    assert calls == [(120, 1)]


def test_a_dangling_column_is_one_solve(monkeypatch):
    # Node 0 dangles and every other node links to it: its fresh column
    # is one right-hand side through the LU, however many in-links it has.
    n = 12
    g = DirectedGraph(labels=tuple(map(str, range(n))), edges=frozenset(
        {(k, 0) for k in range(1, n)} | {(k, k % (n - 1) + 1) for k in range(1, n)}))
    ctx = RankContext.from_graph(g, alpha=0.85)
    assert ctx.p_u.dangling.tolist() == [True] + [False] * (n - 1)
    ctx._row_sums()
    widths = []
    real = rankreach.localization._lu_solve

    def counting(lu, b, *args, **kwargs):
        widths.append(b.reshape(lu.shape[0], -1).shape[1])
        return real(lu, b, *args, **kwargs)

    monkeypatch.setattr(rankreach.localization, "_lu_solve", counting)
    col = ctx.column(0)
    assert widths == [1]
    x = RankContext.from_graph(g, alpha=0.85).fundamental().x
    assert np.abs(col - x[:, 0]).max() <= 1e-13


@pytest.mark.parametrize("name", ["g1.edges", "g2.edges", "g3.edges", "two_cycle.edges"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_nothing_to_reduce_factors_a_t_bit_for_bit(name, alpha):
    # No dangling node and no state to peel: the core is every node, and X
    # has the bits of the unreduced solve A_t X^T = (1 - alpha) I.
    g = parse_edge_list((ROOT / "graphs" / name).read_text())
    p_u = row_stochastic(g)
    x = _lu_solve(_unreduced(alpha, p_u), (1.0 - alpha) * np.eye(g.n),
                  lower_rhs=range(1, g.n + 1)).T
    assert RankContext(alpha, p_u).fundamental().x.tobytes() == np.asfortranarray(x).tobytes()


def _kahn(m, links):
    """Each state's Kahn level, -1 for the states that never peel, by a
    queue: a state joins it, one level past the state that took its last
    in-link, once it has no in-link left."""
    in_links, out = [0] * m, [[] for _ in range(m)]
    for s, t in links:
        in_links[t] += 1
        out[s].append(t)
    level = [-1] * m
    queue = deque((k, 0) for k in range(m) if in_links[k] == 0)
    while queue:
        k, k_level = queue.popleft()
        level[k] = k_level
        for t in out[k]:
            in_links[t] -= 1
            if in_links[t] == 0:
                queue.append((t, k_level + 1))
    return level


def _levels_of(m, links):
    source, target = np.array(links, dtype=np.int64).reshape(-1, 2).T
    return _peel_levels(m, source, target).tolist()


@st.composite
def link_tables(draw):
    """m <= 40 states and links among them, self-loops and repeats
    included; sparse enough that chains of states peel."""
    m = draw(st.integers(1, 40))
    state = st.integers(0, m - 1)
    return m, draw(st.lists(st.tuples(state, state), max_size=2 * m))


@settings(max_examples=200, deadline=None)
@given(link_tables())
def test_peel_levels_match_a_queue_kahn(table):
    m, links = table
    assert _levels_of(m, links) == _kahn(m, links)


def test_peel_levels_of_a_path_ring_and_self_loop():
    # each state of a path peels on a level of its own
    path = [(k, k + 1) for k in range(2999)]
    assert _levels_of(3000, path) == list(range(3000))
    # nothing of a ring peels
    assert _levels_of(50, [(k, (k + 1) % 50) for k in range(50)]) == [-1] * 50
    # state 0's one in-link is its own self-loop: it stays, and so does
    # state 1, fed by it; state 2 has no in-link
    assert _levels_of(3, [(0, 0), (0, 1), (2, 1)]) == [-1, -1, 0]
