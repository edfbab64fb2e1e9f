import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach
from rankreach import (
    DegenerateIntervalError,
    DomainError,
    FundamentalMatrix,
    NumericalError,
    PersonalizationVector,
    RankContext,
    RowStochasticMatrix,
    StructureError,
    achieve_value,
    basis_family,
    effective_competitors,
    parse_edge_list,
    parse_graph_json,
    pr_interval,
    row_stochastic,
    verify_structure,
    witness_epsilon,
)
from rankreach.localization import RESIDUAL_BLOCK

from .golden import (
    BASIS_LIMIT_G1,
    CYCLE2_DIAG,
    CYCLE2_OFF,
    INTERVALS_G1,
    INTERVALS_G2,
    INTERVALS_G3,
    LO_WITNESS_G1,
    LO_WITNESS_G3,
    X1_4DP,
    X1_EXACT,
    X2_4DP,
    X3_4DP,
)
from .helpers import random_context, random_graph, random_row_stochastic, rng_for


def test_fundamental_matrix_g1(ctx1):
    x = ctx1.fundamental().x
    assert np.abs(x - X1_4DP).max() <= 1e-4
    assert np.abs(x - X1_EXACT).max() <= 1e-9


def test_fundamental_matrix_g2_g3(ctx2, ctx3):
    assert np.abs(ctx2.fundamental().x - X2_4DP).max() <= 1e-4
    assert np.abs(ctx3.fundamental().x - X3_4DP).max() <= 1e-4


def test_fundamental_matrix_two_cycle_closed_form(ctx_cycle):
    expected = np.array([[CYCLE2_DIAG, CYCLE2_OFF], [CYCLE2_OFF, CYCLE2_DIAG]])
    assert np.abs(ctx_cycle.fundamental().x - expected).max() <= 1e-12


def test_rank_context_preconditions(g1):
    with pytest.raises(DomainError, match="patched"):
        RankContext(0.85, row_stochastic(g1))
    with pytest.raises(DomainError, match="alpha"):
        RankContext(1.0, row_stochastic(g1, np.full(3, 1.0 / 3.0)))


def test_structure_report_g1(ctx1):
    report = ctx1.structure()
    assert report.min_entry >= 0.0
    assert report.max_row_sum_error <= 1e-10
    # column 0 margin: diagonal minus the largest off-diagonal entry
    assert abs(report.column_margins[0] - 0.1053) <= 1e-4
    assert report.column_margins.min() > 0.0


def test_structure_passes_with_exact_zero_block(ctx3):
    x = ctx3.fundamental().x
    assert np.abs(x[3:, :3]).max() <= 1e-12
    report = ctx3.structure()
    assert report.min_entry >= -1e-12
    assert report.column_margins.min() > 0.0


def test_structure_holds_for_random_row_stochastic_matrices():
    rng = rng_for(20260811)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        alpha = float(rng.uniform(0.05, 0.95))
        fm = RankContext(alpha, random_row_stochastic(rng, n)).fundamental()
        report = verify_structure(fm)
        assert report.column_margins.min() > 0.0


@pytest.mark.parametrize("alpha", [1e-6, 1.0 - 1e-6])
def test_structure_holds_at_extreme_alpha(alpha, g1, g2, g3, cycle2):
    graphs = (g1, g2, g3, cycle2, random_graph(rng_for(55), 50))
    for g in graphs:
        fm = RankContext.from_graph(g, alpha=alpha).fundamental()
        report = verify_structure(fm)
        assert report.column_margins.min() > 0.0
        assert report.min_entry >= 0.0
        assert report.max_row_sum_error <= 1e-10


@pytest.mark.parametrize("alpha,breaks", [(0.85, True), (1.0 - 1e-9, False)])
def test_row_sum_tolerance_follows_the_condition_bound(g1, alpha, breaks):
    # A row-sum error of 1e-9 is a breakdown at alpha 0.85, where the
    # condition bound (1 + alpha)/(1 - alpha) times the unit roundoff is
    # about 1.4e-15, but lies within what a solve can carry at alpha
    # = 1 - 1e-9 (about 2.2e-7).
    x = RankContext.from_graph(g1, alpha=0.85).fundamental().x.copy()
    x[0, 1] += 1e-9
    tampered = FundamentalMatrix(x=x, alpha=alpha)
    if breaks:
        with pytest.raises(StructureError, match="row_sum_error"):
            verify_structure(tampered)
    else:
        report = verify_structure(tampered)
        assert report.max_row_sum_error == pytest.approx(1e-9, rel=1e-3)


def test_structure_detects_tampering():
    with pytest.raises(StructureError, match="margin"):
        verify_structure(FundamentalMatrix(
            x=np.array([[0.4, 0.6], [0.7, 0.3]]), alpha=0.85))
    with pytest.raises(StructureError, match="row_sum"):
        verify_structure(FundamentalMatrix(
            x=np.array([[0.6, 0.3], [0.2, 0.7]]), alpha=0.85))
    with pytest.raises(StructureError, match="min_entry"):
        verify_structure(FundamentalMatrix(
            x=np.array([[1.1, -0.1], [0.4, 0.6]]), alpha=0.85))

    # X is checked in column blocks; a failure past the first block must be
    # reported by its column in X, not in the block, and measured against
    # that column's own diagonal entry.  The mass moved keeps every row sum
    # at 1 and every entry nonnegative, and only column 100 loses its
    # dominance: 0.2 + 0.5/n on the diagonal against 0.25 + 0.5/n in row 5.
    n = 130
    x = np.full((n, n), 0.5 / n) + 0.5 * np.eye(n)
    x[100, 100] -= 0.3
    x[100, 0] += 0.3
    x[5, 5] -= 0.25
    x[5, 100] += 0.25
    with pytest.raises(StructureError) as failure:
        verify_structure(FundamentalMatrix(x=x, alpha=0.85))
    assert failure.value.details["worst_column"] == 100
    assert failure.value.details["worst_margin"] == pytest.approx(-0.05)
    assert set(failure.value.details) == {"worst_margin", "worst_column"}


@pytest.mark.parametrize(
    "ctx_name,expected",
    [("ctx1", INTERVALS_G1), ("ctx2", INTERVALS_G2), ("ctx3", INTERVALS_G3)],
)
def test_intervals_match_reference(ctx_name, expected, request):
    ctx = request.getfixturevalue(ctx_name)
    for node, (lo, hi) in expected.items():
        iv = ctx.interval(node)
        assert abs(iv.lo - lo) <= 1e-4
        assert abs(iv.hi - hi) <= 1e-4
        assert iv.lo < iv.hi


def test_reducible_network_has_exact_zero_infima(ctx3):
    for node in (0, 1, 2):
        assert ctx3.interval(node).lo <= 1e-12


def test_lo_witness_selection(ctx1, ctx3):
    for node, row in LO_WITNESS_G1.items():
        assert ctx1.interval(node).lo_witness == row
    # rows 3..5 tie at exactly zero; the smallest index wins
    for node, row in LO_WITNESS_G3.items():
        assert ctx3.interval(node).lo_witness == row


def test_interval_degenerate_and_bad_index(ctx1):
    single = RankContext.from_graph(parse_edge_list("1 1"))
    with pytest.raises(DegenerateIntervalError):
        single.interval(0)
    with pytest.raises(DomainError, match="out of range"):
        pr_interval(ctx1.fundamental(), 5)


def test_interval_sums_bracket_one(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        ivs = ctx.intervals()
        assert sum(iv.hi for iv in ivs) >= 1.0
        assert sum(iv.lo for iv in ivs) <= 1.0


def test_basis_family_construction():
    fam = basis_family(1, 0.1, 3)
    assert np.abs(fam.v - [0.05, 0.9, 0.05]).max() <= 1e-15
    assert basis_family(0, 0.5, 2).v.tolist() == [0.5, 0.5]


def test_basis_family_domain_errors():
    with pytest.raises(DomainError):
        basis_family(0, 0.1, 1)
    with pytest.raises(DomainError, match="epsilon"):
        basis_family(0, 0.0, 3)
    with pytest.raises(DomainError, match="epsilon"):
        basis_family(0, 1.0, 3)
    with pytest.raises(DomainError, match="out of range"):
        basis_family(3, 0.1, 3)


def test_concentrated_family_limit_is_matrix_row(ctx1):
    val = ctx1.rank_weights(basis_family(0, 1e-3, 3).v)[0]
    assert abs(val - BASIS_LIMIT_G1) <= 1e-9
    errors = []
    x = ctx1.fundamental().x
    for eps in (1e-2, 1e-3, 1e-4):
        pi = ctx1.rank(basis_family(0, eps, 3)).pi
        errors.append(np.abs(pi - x[0]).max())
        assert errors[-1] <= 2.0 * eps
    assert errors[0] > errors[1] > errors[2]


def test_concentrated_rank_vectors_match_solves():
    # Rows of X and its column sums give every concentrated rank vector,
    # read off X when it is held and solved for once when it is not.
    rng = rng_for(5151)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        base = random_context(rng, n, dangling_frac=0.3)
        held = RankContext(base.alpha, base.p_u)
        held.fundamental()
        fresh = RankContext(base.alpha, base.p_u)
        rows = rng.choice(n, size=min(n, 3), replace=False).tolist()
        epsilons = [0.5, 1e-3, (n - 1) / n, 0.999, 1e-9]
        for ctx in (held, fresh):
            yielded = list(ctx.concentrated(rows, epsilons))
            assert [eps for eps, _ in yielded] == epsilons
            for eps, ranked in yielded:
                assert ranked.shape == (n, len(rows))
                for c, k in enumerate(rows):
                    expected = ctx.rank(basis_family(k, eps, n)).pi
                    assert np.abs(ranked[:, c] - expected).max() <= 1e-12
        assert fresh._fundamental is None


def test_concentrated_rank_vectors_check_rows_and_epsilon(ctx1):
    for rows in ([3], [-1], [0, 5]):
        with pytest.raises(DomainError, match="out of range"):
            ctx1.concentrated(rows, [0.5])
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError, match="epsilon"):
            list(ctx1.concentrated([0], [eps]))


def test_rank_affine_in_mixture_weight(ctx2):
    v0 = basis_family(1, 1e-4, 5).v
    v1 = basis_family(3, 1e-4, 5).v

    def f(lam):
        return float(ctx2.rank_weights(lam * v1 + (1 - lam) * v0)[3])

    assert abs(f(0.5) - 0.5 * (f(0.0) + f(1.0))) <= 1e-12


def test_achieve_value_g1(ctx1):
    result = achieve_value(ctx1, 0, 0.35, tol=1e-6)
    assert abs(result.achieved - 0.35) <= 1e-6
    assert 0.0 <= result.lam <= 1.0
    assert result.epsilon == 1e-7
    # the returned personalization really produces the achieved value
    assert abs(ctx1.rank_weights(result.v.v)[0] - result.achieved) <= 1e-15


def test_achieve_value_rejects_outside_targets(ctx1):
    iv = ctx1.interval(0)
    for target in (0.45, iv.lo, iv.hi, iv.lo - 0.01, iv.hi + 0.01):
        with pytest.raises(DomainError, match="outside"):
            achieve_value(ctx1, 0, target)
    for tol in (0.0, np.nan, np.inf, 5e-324):
        with pytest.raises(DomainError, match="tol"):
            achieve_value(ctx1, 0, 0.35, tol=tol)


def test_achieve_value_hits_midpoints_on_random_graphs():
    rng = rng_for(31)
    for _ in range(10):
        ctx = random_context(rng, int(rng.integers(2, 12)))
        node = int(rng.integers(ctx.n))
        iv = ctx.interval(node)
        target = 0.5 * (iv.lo + iv.hi)
        result = achieve_value(ctx, node, target, tol=1e-6)
        assert abs(result.achieved - target) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_sampled_rank_values_stay_strictly_inside_intervals(ctx1, seed):
    rng = rng_for(seed)
    w = rng.random(3) + 1e-6
    v = PersonalizationVector(v=w / w.sum())
    pi = ctx1.rank(v).pi
    for iv in ctx1.intervals():
        assert iv.lo < pi[iv.node] < iv.hi


def test_fundamental_matrix_agrees_with_library_inverse():
    rng = rng_for(5150)
    for _ in range(10):
        ctx = random_context(rng, int(rng.integers(2, 11)))
        explicit = 0.15 * np.linalg.inv(np.eye(ctx.n) - 0.85 * ctx.p_u.toarray())
        assert np.abs(ctx.fundamental().x - explicit).max() <= 1e-12


def test_context_caches_fundamental(ctx1):
    assert ctx1.fundamental() is ctx1.fundamental()


def test_from_graph_builds_p_u_once(monkeypatch):
    # The edge set becomes an array once, and P_u is built and validated
    # once, dangling patch included.
    class CountingEdges(frozenset):
        iterations = 0

        def __iter__(self):
            CountingEdges.iterations += 1
            return super().__iter__()

    g = parse_edge_list("1 2\n2 3\n3 1\n1 3\n4 1")
    g = type(g)(labels=g.labels, edges=CountingEdges(g.edges))
    built = []
    real_post_init = RowStochasticMatrix.__post_init__

    def counting(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(RowStochasticMatrix, "__post_init__", counting)
    CountingEdges.iterations = 0
    ctx = RankContext.from_graph(g)
    assert CountingEdges.iterations == 1
    assert len(built) == 1
    assert ctx.p_u is built[0]
    assert ctx.p_u.dangling_patched


def test_context_from_json_graph_with_isolated_node():
    g = parse_graph_json('{"nodes": ["a", "b", "c"], "edges": [[0, 1]]}')
    ctx = RankContext.from_graph(g)
    assert ctx.structure().column_margins.min() > 0.0


def test_one_factorization_per_context(g1, monkeypatch):
    factorizations = []
    real_lu_factor = scipy.linalg.lu_factor

    def counting(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_lu_factor(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(scipy.linalg, "lu_factor", counting)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    ctx = RankContext.from_graph(g1)
    ctx.interval(1)  # a point query, before X exists
    ctx.fundamental()
    ctx.interval(0)
    ctx.rank_weights(np.full(3, 1.0 / 3.0))
    achieve_value(ctx, 0, 0.35)
    witness_epsilon(ctx, effective_competitors(ctx, 0, 2))
    assert factorizations == [(3, 3)]
    # the production solve path stays the one LU: no dense solver call and
    # a single factorization site anywhere in the package
    source = "".join(
        path.read_text() for path in Path(rankreach.__file__).parent.glob("*.py")
    )
    assert "linalg.solve" not in source
    assert source.count("lu_factor(") == 1


def test_oracles_stay_apart_from_production():
    # The cross-check routes are defined in oracle.py alone, and no
    # production module reaches them; stochastic.py builds P_u and never
    # imports the context that solves against it.
    package = Path(rankreach.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    oracles = {"GoogleMatrix", "google_matrix", "pagerank_power", "_gauss_jordan_inverse"}
    for module, tree in trees.items():
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert module == "oracle" or not defined & oracles, module
    assert oracles <= {node.name for node in trees["oracle"].body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for module in ("graph", "stochastic", "localization", "competition", "cli"):
        used = set()
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        assert not used & oracles, module
    for node in ast.walk(trees["stochastic"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            assert not any(name.split(".")[-1] == "localization" for name in names)


def test_point_queries_match_the_dense_x():
    rng = rng_for(4242)
    for _ in range(8):
        n = int(rng.integers(2, 40))
        base = random_context(rng, n)
        fm = RankContext(base.alpha, base.p_u).fundamental()
        for i in range(n):
            point = RankContext(base.alpha, base.p_u).interval(i)
            dense = pr_interval(fm, i)
            assert point.lo_witness == dense.lo_witness
            assert abs(point.lo - dense.lo) <= 1e-13
            assert abs(point.hi - dense.hi) <= 1e-13
        for i, j in [(0, n - 1), (n // 2, 0)]:
            if i != j:
                assert effective_competitors(base, i, j) == effective_competitors(fm, i, j)


def test_building_x_holds_one_n_squared_buffer():
    # The solve writes X into the buffer X is kept in, and the checks read
    # it in column blocks, so once the LU exists, building X peaks at X
    # itself plus block-sized temporaries: well below two n x n arrays.
    n = 600
    ctx = RankContext.from_graph(random_graph(rng_for(600), n, density=0.02))
    ctx.rank_weights(np.ones(n))  # factor first: only the build is measured
    tracemalloc.start()
    try:
        ctx.fundamental()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_point_query_checks_row_sums(ctx1, monkeypatch):
    # X 1 = 1 comes from one transposed solve per context; skewing just that
    # solve must surface as a structure violation on the point path.
    real = scipy.linalg.lu_solve

    def skewed(lu_piv, b, trans=0, **kwargs):
        x = real(lu_piv, b, trans=trans, **kwargs)
        if trans == 1 and np.ptp(b) == 0.0:
            x = x + 1e-6
        return x

    monkeypatch.setattr(scipy.linalg, "lu_solve", skewed)
    with pytest.raises(StructureError, match="row_sum_error"):
        RankContext(ctx1.alpha, ctx1.p_u).interval(0)


def test_every_column_of_a_rank_batch_is_residual_checked(ctx1, monkeypatch):
    # The batch is checked in blocks of columns; a column past the first
    # block must be caught, and reported by its own index.
    real = scipy.linalg.lu_solve
    bad = RESIDUAL_BLOCK + 6

    def skewed(lu_piv, b, trans=0, **kwargs):
        x = real(lu_piv, b, trans=trans, **kwargs)
        if trans == 0 and b.ndim == 2:
            x[:, bad] += 1e-6
        return x

    monkeypatch.setattr(scipy.linalg, "lu_solve", skewed)
    weights = np.ones((3, 2 * RESIDUAL_BLOCK))
    with pytest.raises(NumericalError) as failure:
        ctx1.rank_weights(weights)
    assert failure.value.details["weight column"] == bad
