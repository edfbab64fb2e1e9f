import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankreach import (
    ConvergenceError,
    DomainError,
    ParseError,
    PersonalizationVector,
    RankContext,
    RowStochasticMatrix,
    StochasticConfig,
    google_matrix,
    load_config,
    pagerank_power,
    parse_edge_list,
    parse_graph_json,
    row_stochastic,
)

from .golden import UNIFORM_PI_G1, X1_EXACT
from .helpers import random_graph, rng_for


def _patched(g):
    return row_stochastic(g, np.full(g.n, 1.0 / g.n))


def _rank(p_u, v):
    return RankContext(0.85, p_u).rank(v)


def test_row_stochastic_g1_row(g1):
    p = row_stochastic(g1)
    assert p.toarray()[1].tolist() == [0.5, 0.0, 0.5]
    assert not p.dangling_patched


def test_row_stochastic_dangling_row_is_zero():
    p = row_stochastic(parse_edge_list("1 2"))
    assert p.toarray()[1].tolist() == [0.0, 0.0]


def test_row_stochastic_g3_split_row(g3):
    assert row_stochastic(g3).toarray()[3].tolist() == [0, 0, 0, 0, 0.5, 0.5]


def test_patch_replaces_dangling_row():
    g = parse_edge_list("1 2")
    p_u = row_stochastic(g, np.array([0.5, 0.5]))
    assert p_u.toarray()[1].tolist() == [0.5, 0.5]
    assert p_u.toarray()[0].tolist() == [0.0, 1.0]
    assert p_u.dangling_patched


def test_patch_without_dangling_nodes_is_identity(g1):
    p = row_stochastic(g1)
    p_u = _patched(g1)
    assert np.array_equal(p_u.toarray(), p.toarray())
    assert p_u.dangling_patched


def test_patch_single_dangling_node():
    g = parse_graph_json('{"nodes": ["1"], "edges": []}')
    p_u = row_stochastic(g, np.array([1.0]))
    assert p_u.toarray().tolist() == [[1.0]]


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(2, 25))
def test_patched_rows_sum_to_one(seed, n):
    g = random_graph(rng_for(seed), n, density=0.3, dangling_frac=0.4)
    p_u = _patched(g)
    assert np.abs(p_u.toarray().sum(axis=1) - 1.0).max() <= 1e-12


def test_row_stochastic_matrix_validation():
    with pytest.raises(DomainError, match="sums to"):
        RowStochasticMatrix(p=np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        RowStochasticMatrix(p=np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        RowStochasticMatrix(p=np.array([[np.nan, 0.5], [0.5, 0.5]]))
    # all-zero rows are fine; patching sends them to a distribution u
    assert RowStochasticMatrix(p=np.zeros((2, 2))).dangling.tolist() == [True, True]
    with pytest.raises(DomainError, match="sum to 1"):
        RowStochasticMatrix(p=np.zeros((2, 2)), u=np.array([0.5, 0.4]))
    with pytest.raises(DomainError, match="length n"):
        RowStochasticMatrix(p=np.zeros((2, 2)), u=np.array([1.0]))


def test_google_matrix_two_cycle(cycle2):
    gm = google_matrix(0.85, _patched(cycle2), PersonalizationVector.uniform(2))
    assert np.abs(gm.g - [[0.075, 0.925], [0.925, 0.075]]).max() <= 1e-15


def test_google_matrix_alpha_domain(g1):
    p_u = _patched(g1)
    v = PersonalizationVector.uniform(3)
    for alpha in (0.0, 1.0, 1.5, -0.2, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="alpha"):
            google_matrix(alpha, p_u, v)


def test_google_matrix_requires_patched(g1):
    with pytest.raises(DomainError, match="patched"):
        google_matrix(0.85, row_stochastic(g1), PersonalizationVector.uniform(3))


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(2, 15))
def test_google_matrix_rows_and_positivity(seed, n):
    rng = rng_for(seed)
    g = random_graph(rng, n, density=0.3, dangling_frac=0.3)
    w = rng.random(n) + 0.05
    v = PersonalizationVector(v=w / w.sum())
    gm = google_matrix(0.85, _patched(g), v)
    assert np.abs(gm.g.sum(axis=1) - 1.0).max() <= 1e-12
    assert gm.g.min() >= 0.15 * v.v.min() - 1e-15


def test_power_two_cycle_is_uniform(cycle2):
    pi = pagerank_power(google_matrix(0.85, _patched(cycle2),
                                      PersonalizationVector.uniform(2)))
    assert np.abs(pi.pi - 0.5).max() <= 1e-12


def test_power_g1_uniform_matches_frozen(g1):
    gm = google_matrix(0.85, _patched(g1), PersonalizationVector.uniform(3))
    pi = pagerank_power(gm)
    assert np.abs(pi.pi - UNIFORM_PI_G1).max() <= 1e-9


def test_power_nonconvergence_carries_residual(g1):
    gm = google_matrix(0.85, _patched(g1), PersonalizationVector.uniform(3))
    with pytest.raises(ConvergenceError) as err:
        pagerank_power(gm, tol=1e-12, max_iter=3)
    assert err.value.details["residual"] > 1e-12


def test_solve_two_cycle_is_uniform(cycle2):
    pi = _rank(_patched(cycle2), PersonalizationVector.uniform(2))
    assert np.abs(pi.pi - 0.5).max() <= 1e-14


def test_solve_concentrated_v_approaches_first_row_of_x(g1):
    v = np.full(3, 1e-6 / 2)
    v[0] = 1.0 - 1e-6
    pi = _rank(_patched(g1), PersonalizationVector(v=v))
    assert np.abs(pi.pi - X1_EXACT[0]).max() <= 1e-5


def test_solve_agrees_with_power_on_random_graphs():
    rng = rng_for(20260810)
    p_uniform = None
    for _ in range(20):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, density=0.2, dangling_frac=0.3)
        p_u = _patched(g)
        v = PersonalizationVector.uniform(n)
        direct = _rank(p_u, v)
        power = pagerank_power(google_matrix(0.85, p_u, v))
        assert np.abs(direct.pi - power.pi).max() <= 1e-9


def test_solve_satisfies_defining_identity():
    rng = rng_for(7)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, density=0.25, dangling_frac=0.3)
        p_u = _patched(g)
        w = rng.random(n) + 0.01
        v = PersonalizationVector(v=w / w.sum())
        pi = _rank(p_u, v).pi
        lhs = pi @ (np.eye(n) - 0.85 * p_u.toarray())
        assert np.abs(lhs - 0.15 * v.v).max() <= 1e-10


def test_solvers_cross_validate_on_g3(g3):
    p_u = _patched(g3)
    v = PersonalizationVector.uniform(6)
    direct = _rank(p_u, v)
    power = pagerank_power(google_matrix(0.85, p_u, v))
    assert np.abs(direct.pi - power.pi).max() <= 1e-10


def test_no_size_cliff_above_2000():
    # n = 2001 once fell off the direct solve into a per-column fixed-point
    # loop; every size now solves against the same LU.
    g = random_graph(rng_for(2001), 2001, density=0.004, dangling_frac=0.1)
    ctx = RankContext.from_graph(g)
    p_dense = ctx.p_u.toarray()
    explicit = 0.15 * np.linalg.inv(np.eye(g.n) - 0.85 * p_dense)
    assert np.abs(ctx.fundamental().x - explicit).max() <= 1e-12
    v = PersonalizationVector.uniform(g.n)
    direct = ctx.rank(v)
    power = pagerank_power(google_matrix(0.85, ctx.p_u, v))
    assert np.abs(direct.pi - power.pi).max() <= 1e-9


def test_rank_weights_accepts_basis_weights(g1):
    x_row = RankContext(0.85, _patched(g1)).rank_weights(np.eye(3)[0])
    assert np.abs(x_row - X1_EXACT[0]).max() <= 1e-9


def test_pagerank_is_positive_and_normalized():
    rng = rng_for(99)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, density=0.2, dangling_frac=0.5)
        pi = _rank(_patched(g), PersonalizationVector.uniform(n)).pi
        assert pi.min() > 0
        assert abs(pi.sum() - 1.0) <= 1e-10


def test_vector_validation():
    with pytest.raises(DomainError, match="positive"):
        PersonalizationVector(v=np.array([0.5, 0.5, 0.0]))
    with pytest.raises(DomainError, match="sum to 1"):
        PersonalizationVector(v=np.array([0.5, 0.6]))
    with pytest.raises(DomainError, match="positive"):
        RowStochasticMatrix(p=np.zeros((2, 2)), u=np.array([1.5, -0.5]))
    assert StochasticConfig().dangling_distribution(4).tolist() == [0.25] * 4


def test_config_loading():
    cfg = load_config('{"alpha": 0.9, "u": "uniform", "v": [0.2, 0.3, 0.5]}')
    assert cfg.alpha == 0.9
    assert cfg.u_spec == "uniform"
    assert cfg.personalization(3).v.tolist() == [0.2, 0.3, 0.5]
    assert load_config("{}") == StochasticConfig()


def test_config_rejects_bad_documents():
    with pytest.raises(ParseError, match="invalid config"):
        load_config("{")
    with pytest.raises(ParseError, match="unknown config keys"):
        load_config('{"aplha": 0.9}')
    with pytest.raises(DomainError, match="alpha"):
        load_config('{"alpha": 1.2}')
    with pytest.raises(DomainError, match="sum to 1"):
        load_config('{"v": [0.5, 0.6]}')
    with pytest.raises(DomainError, match="length"):
        load_config('{"v": [0.5, 0.5]}').personalization(3)
