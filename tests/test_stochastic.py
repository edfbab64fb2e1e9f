import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach.oracle
from rankreach import (
    ConvergenceError,
    DomainError,
    FundamentalMatrix,
    PageRankVector,
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
from rankreach.graph import CSRMatrix
from rankreach.stochastic import solve_sum_tol

from .golden import UNIFORM_PI_G1, X1_EXACT
from .helpers import random_graph, random_row_stochastic, rng_for


def _rank(p_u, v):
    return RankContext(0.85, p_u).rank(v)


def test_row_stochastic_g1_row(g1):
    assert row_stochastic(g1).p.toarray()[1].tolist() == [0.5, 0.0, 0.5]


def test_row_stochastic_dangling_row_is_zero():
    p = row_stochastic(parse_edge_list("1 2")).p
    assert p.toarray()[1].tolist() == [0.0, 0.0]


def test_row_stochastic_g3_split_row(g3):
    assert row_stochastic(g3).p.toarray()[3].tolist() == [0, 0, 0, 0, 0.5, 0.5]


def test_patch_replaces_dangling_row():
    g = parse_edge_list("1 2")
    p_u = row_stochastic(g, np.array([0.5, 0.5]))
    assert p_u.toarray()[1].tolist() == [0.5, 0.5]
    assert p_u.toarray()[0].tolist() == [0.0, 1.0]


def test_patch_without_dangling_nodes_is_identity(g1):
    p_u = row_stochastic(g1)
    assert np.array_equal(p_u.toarray(), p_u.p.toarray())


def test_patch_single_dangling_node():
    g = parse_graph_json('{"nodes": ["1"], "edges": []}')
    p_u = row_stochastic(g, np.array([1.0]))
    assert p_u.toarray().tolist() == [[1.0]]


def test_omitted_u_is_uniform():
    g = random_graph(rng_for(5), 9, density=0.3, dangling_frac=0.4)
    uniform = np.full(g.n, 1.0 / g.n)
    expected = row_stochastic(g, uniform).toarray()
    assert row_stochastic(g).dangling.any()
    for p_u in (
        row_stochastic(g),
        RowStochasticMatrix(p=row_stochastic(g).p),
        RankContext.from_graph(g).p_u,
    ):
        assert np.array_equal(p_u.u, uniform)
        assert np.array_equal(p_u.toarray(), expected)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.integers(2, 25))
def test_patched_rows_sum_to_one(seed, n):
    g = random_graph(rng_for(seed), n, density=0.3, dangling_frac=0.4)
    p_u = row_stochastic(g)
    assert np.abs(p_u.toarray().sum(axis=1) - 1.0).max() <= 1e-12


def test_csr_entries_are_canonical():
    csr = CSRMatrix.from_entries(
        3, [2, 0, 2, 0, 1], [1, 2, 1, 0, 1], [1.0, 2.0, 3.0, 0.0, -4.0]
    )
    # repeated positions sum, explicit zeros go, columns ascend in each row
    assert csr.indptr.tolist() == [0, 1, 2, 3]
    assert csr.indices.tolist() == [2, 1, 1]
    assert csr.data.tolist() == [2.0, -4.0, 4.0]
    assert csr.toarray().tolist() == [[0, 0, 2], [0, -4, 0], [0, 4, 0]]
    assert not csr.data.flags.writeable
    for rows, cols in (([3], [0]), ([0], [-1])):
        with pytest.raises(DomainError, match="out of range"):
            CSRMatrix.from_entries(3, rows, cols, [1.0])


@pytest.mark.parametrize("seed", range(6))
def test_sparse_products_match_dense(seed):
    # Graph rows (equal entries, self-loops, dangling rows) take the
    # products' unweighted steps, random dense rows the weighted ones.
    rng = rng_for(seed)
    n = int(rng.integers(1, 40))
    for p_u in (
        row_stochastic(random_graph(rng, n, density=0.3, dangling_frac=0.3)),
        random_row_stochastic(rng, n),
    ):
        dense = p_u.toarray()
        for x in (rng.random(n), rng.random((n, 5)), np.asfortranarray(rng.random((n, 5)))):
            assert np.abs(p_u.matvec(x) - dense @ x).max() <= 1e-14
            assert np.abs(p_u.rmatvec(x) - dense.T @ x).max() <= 1e-14
            assert p_u.matvec(x).shape == x.shape == p_u.rmatvec(x).shape


def test_row_stochastic_matrix_validation():
    # the sum prints at 12 digits, as a float, not as np.float64(0.9)
    with pytest.raises(DomainError) as err:
        RowStochasticMatrix(p=np.array([[0.5, 0.4], [0.5, 0.5]]))
    assert str(err.value) == "row 0 sums to 0.9, not stochastic"
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
    for shape in ((0, 0), (2, 3), (4,)):
        with pytest.raises(DomainError, match="square"):
            RowStochasticMatrix(p=np.zeros(shape))


def test_google_matrix_two_cycle(cycle2):
    g = google_matrix(0.85, row_stochastic(cycle2), PersonalizationVector.uniform(2))
    assert np.abs(g - [[0.075, 0.925], [0.925, 0.075]]).max() <= 1e-15


def test_google_matrix_alpha_domain(g1):
    p_u = row_stochastic(g1)
    v = PersonalizationVector.uniform(3)
    for alpha in (0.0, 1.0, 1.5, -0.2, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="alpha"):
            google_matrix(alpha, p_u, v)
    with pytest.raises(DomainError, match="length n"):
        google_matrix(0.85, p_u, PersonalizationVector.uniform(4))


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(2, 15))
def test_google_matrix_rows_and_positivity(seed, n):
    rng = rng_for(seed)
    g = random_graph(rng, n, density=0.3, dangling_frac=0.3)
    w = rng.random(n) + 0.05
    v = PersonalizationVector(v=w / w.sum())
    gm = google_matrix(0.85, row_stochastic(g), v)
    assert np.abs(gm.sum(axis=1) - 1.0).max() <= 1e-12
    assert gm.min() >= 0.15 * v.v.min() - 1e-15


def test_power_two_cycle_is_uniform(cycle2):
    pi = pagerank_power(0.85, row_stochastic(cycle2), PersonalizationVector.uniform(2))
    assert np.abs(pi.pi - 0.5).max() <= 1e-12


def test_power_g1_uniform_matches_frozen(g1):
    pi = pagerank_power(0.85, row_stochastic(g1), PersonalizationVector.uniform(3))
    assert np.abs(pi.pi - UNIFORM_PI_G1).max() <= 1e-9


def test_power_nonconvergence_carries_residual(g1, monkeypatch):
    monkeypatch.setattr(rankreach.oracle, "default_power_iterations", lambda alpha: 3)
    with pytest.raises(ConvergenceError) as err:
        pagerank_power(0.85, row_stochastic(g1), PersonalizationVector.uniform(3))
    assert err.value.details["residual"] > 1e-12


def test_solve_two_cycle_is_uniform(cycle2):
    pi = _rank(row_stochastic(cycle2), PersonalizationVector.uniform(2))
    assert np.abs(pi.pi - 0.5).max() <= 1e-14


def test_solve_concentrated_v_approaches_first_row_of_x(g1):
    v = np.full(3, 1e-6 / 2)
    v[0] = 1.0 - 1e-6
    pi = _rank(row_stochastic(g1), PersonalizationVector(v=v))
    assert np.abs(pi.pi - X1_EXACT[0]).max() <= 1e-5


def test_solve_agrees_with_power_on_random_graphs():
    rng = rng_for(20260810)
    p_uniform = None
    for _ in range(20):
        n = int(rng.integers(2, 31))
        g = random_graph(rng, n, density=0.2, dangling_frac=0.3)
        p_u = row_stochastic(g)
        v = PersonalizationVector.uniform(n)
        direct = _rank(p_u, v)
        power = pagerank_power(0.85, p_u, v)
        assert np.abs(direct.pi - power.pi).max() <= 1e-9


def test_solve_satisfies_defining_identity():
    rng = rng_for(7)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, density=0.25, dangling_frac=0.3)
        p_u = row_stochastic(g)
        w = rng.random(n) + 0.01
        v = PersonalizationVector(v=w / w.sum())
        pi = _rank(p_u, v).pi
        lhs = pi @ (np.eye(n) - 0.85 * p_u.toarray())
        assert np.abs(lhs - 0.15 * v.v).max() <= 1e-10


def test_solvers_cross_validate_on_g3(g3):
    p_u = row_stochastic(g3)
    v = PersonalizationVector.uniform(6)
    direct = _rank(p_u, v)
    power = pagerank_power(0.85, p_u, v)
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
    power = pagerank_power(0.85, ctx.p_u, v)
    assert np.abs(direct.pi - power.pi).max() <= 1e-9


def test_rank_weights_accepts_basis_weights(g1):
    x_row = RankContext(0.85, row_stochastic(g1)).rank_weights(np.eye(3)[0])
    assert np.abs(x_row - X1_EXACT[0]).max() <= 1e-9


def test_pagerank_is_positive_and_normalized():
    rng = rng_for(99)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, density=0.2, dangling_frac=0.5)
        pi = _rank(row_stochastic(g), PersonalizationVector.uniform(n)).pi
        assert pi.min() > 0
        assert abs(pi.sum() - 1.0) <= 1e-10


def test_vector_validation():
    with pytest.raises(DomainError, match="positive"):
        PersonalizationVector(v=np.array([0.5, 0.5, 0.0]))
    with pytest.raises(DomainError, match="sum to 1"):
        PersonalizationVector(v=np.array([0.5, 0.6]))
    with pytest.raises(DomainError, match="nonempty vector"):
        PersonalizationVector(v=np.full((2, 2), 0.25))
    with pytest.raises(DomainError, match="positive"):
        RowStochasticMatrix(p=np.zeros((2, 2)), u=np.array([1.5, -0.5]))
    assert StochasticConfig().dangling_distribution(4).tolist() == [0.25] * 4


# every entry point that takes a caller's array, by the name its error gives
ARRAY_ARGUMENTS = {
    "weights": lambda g1, a: RankContext.from_graph(g1).rank_weights(a),
    "personalization vector": lambda g1, a: PersonalizationVector(v=a),
    "rank vector": lambda g1, a: PageRankVector(pi=a, alpha=0.85),
    "dangling distribution": lambda g1, a: RankContext.from_graph(g1, u=a),
    "transition matrix": lambda g1, a: RowStochasticMatrix(p=np.diag(a)),
    "matrix": lambda g1, a: FundamentalMatrix(x=np.diag(a), alpha=0.85),
    "u vector": lambda g1, a: StochasticConfig(u_spec=tuple(a)),
}


@pytest.mark.parametrize("entries", ["complex", "strings"])
@pytest.mark.parametrize("name", list(ARRAY_ARGUMENTS))
def test_array_arguments_of_no_real_numbers_are_domain_errors(g1, name, entries):
    # numpy would drop the imaginary parts with a warning, or raise a bare
    # ValueError on the strings
    a = np.full(3, 1 / 3 + 1e-3j) if entries == "complex" else np.array(["a", "b", "c"])
    with pytest.raises(DomainError, match=f"^{name} must be an array of real numbers"):
        ARRAY_ARGUMENTS[name](g1, a)


def test_dangling_distribution_may_hold_zeros():
    # A dangling row of P_u links to the support of u alone; v stays
    # strictly positive, so every rank vector does too.
    p_u = RowStochasticMatrix(p=np.array([[0.0, 1.0], [0.0, 0.0]]), u=np.array([1.0, 0.0]))
    assert p_u.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert StochasticConfig(u_spec=(0.0, 1.0)).dangling_distribution(2).tolist() == [0.0, 1.0]
    for bad in ((np.nan, 1.0), (-0.5, 1.5)):
        with pytest.raises(DomainError, match="zero or positive"):
            RowStochasticMatrix(p=np.zeros((2, 2)), u=np.array(bad))
        with pytest.raises(DomainError, match="zero or positive"):
            StochasticConfig(u_spec=bad)
    with pytest.raises(DomainError, match="strictly positive"):
        StochasticConfig(v_spec=(0.0, 1.0))


def test_caller_arrays_are_copied():
    # a vector built from a caller's array holds a frozen copy of it
    for build, field in (
        (lambda a: PageRankVector(pi=a, alpha=0.85), "pi"),
        (lambda a: PersonalizationVector(v=a), "v"),
    ):
        a = np.array([0.25, 0.75])
        held = getattr(build(a), field)
        assert a.flags.writeable
        assert a.tolist() == [0.25, 0.75]
        assert not np.shares_memory(a, held)
        assert not held.flags.writeable
        a[0] = 0.5
        assert held.tolist() == [0.25, 0.75]


def test_rank_sum_tolerance_follows_the_solve_bound():
    # A solve at alpha carries up to n (1 + alpha)/(1 - alpha) u of error
    # in the sum; at alpha = 0.85 that is below the fixed 1e-10 floor.
    pi = np.array([0.5, 0.5 + 2e-8])
    assert PageRankVector(pi=pi, alpha=1 - 1e-9).pi.tolist() == pi.tolist()
    with pytest.raises(DomainError) as info:
        PageRankVector(pi=pi, alpha=0.85)
    assert str(info.value) == "rank vector must sum to 1, got 1.00000002"
    with pytest.raises(DomainError, match="alpha"):
        PageRankVector(pi=np.array([0.5, 0.5]), alpha=1.0)


def test_rank_sum_tolerance_grows_with_the_dimension():
    # At alpha = 1 - 1e-6, kappa u is 2.2e-10: a sum error of 5e-10 is
    # within what a 300-node solve carries, not what a 2-node one does.
    alpha = 1.0 - 1e-6
    assert solve_sum_tol(alpha, 300) == pytest.approx(300 * solve_sum_tol(alpha, 1))
    long = np.full(300, (1.0 + 5e-10) / 300)
    assert PageRankVector(pi=long, alpha=alpha).pi.size == 300
    with pytest.raises(DomainError, match="must sum to 1"):
        PageRankVector(pi=np.array([0.5, 0.5 + 5e-10]), alpha=alpha)
    assert solve_sum_tol(0.99, 3000) == solve_sum_tol(0.85, 2) == 1e-10


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
