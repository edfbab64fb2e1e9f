import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreach
from rankreach import (
    CompetitionVerdict,
    DegenerateIntervalError,
    DirectedGraph,
    DomainError,
    FundamentalMatrix,
    NumericalError,
    PersonalizationVector,
    RankContext,
    RowStochasticMatrix,
    StructureError,
    achieve_value,
    basis_family,
    competitivity_interval,
    effective_competitors,
    leadership_certificate,
    leadership_group,
    monte_carlo_interval,
    observe_rank_swaps,
    parse_edge_list,
    parse_graph_json,
    pr_interval,
    row_stochastic,
    verify_structure,
    witness_epsilon,
)
from rankreach.localization import (
    RESIDUAL_BLOCK,
    _block_width,
    _family_values,
    _lu_factor,
    _lu_solve,
    _lu_width,
)

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
    with pytest.raises(DomainError, match="alpha"):
        RankContext(1.0, row_stochastic(g1))


def test_structure_report_g1(ctx1):
    report = ctx1.fundamental().report
    assert report.min_entry >= 0.0
    assert report.max_row_sum_error <= 1e-10
    # column 0 margin: diagonal minus the largest off-diagonal entry
    assert abs(report.column_margins[0] - 0.1053) <= 1e-4
    assert report.column_margins.min() > 0.0


def test_structure_passes_with_exact_zero_block(ctx3):
    x = ctx3.fundamental().x
    assert np.abs(x[3:, :3]).max() <= 1e-12
    report = ctx3.fundamental().report
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
    # A row-sum error of 1e-9 is a breakdown at alpha 0.85, where n times
    # the condition bound (1 + alpha)/(1 - alpha) times the unit roundoff
    # is about 4e-15 at n = 3, but lies within what a solve can carry at
    # alpha = 1 - 1e-9 (about 6.7e-7).
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
    with pytest.raises(DomainError, match="square"):
        FundamentalMatrix(x=np.ones((2, 3)), alpha=0.85)
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


NON_INTEGER_INDEX_CALLS = {
    "witness_epsilon without witness rows": lambda ctx, fm: witness_epsilon(
        ctx, CompetitionVerdict(0, 2, True)
    ),
    "leadership_certificate float row": lambda ctx, fm: leadership_certificate(ctx, 1, 1.5),
    "leadership_certificate bool leader": lambda ctx, fm: leadership_certificate(ctx, True, 1),
    "competitivity_interval float node": lambda ctx, fm: competitivity_interval(ctx, 1.5, 0.1),
    "ctx.interval bool node": lambda ctx, fm: ctx.interval(True),
    "pr_interval bool node": lambda ctx, fm: pr_interval(fm, True),
    "effective_competitors float node": lambda ctx, fm: effective_competitors(fm, 0, 1.0),
    "effective_competitors bool node": lambda ctx, fm: effective_competitors(fm, True, 2),
    "achieve_value float node": lambda ctx, fm: achieve_value(ctx, 1.5, 0.35),
    "monte_carlo_interval float node": lambda ctx, fm: monte_carlo_interval(ctx, [0.5], 10, 1),
    "basis_family float node": lambda ctx, fm: basis_family(1.5, 0.1, 3),
    "ctx.column None node": lambda ctx, fm: ctx.column(None),
}


@pytest.mark.parametrize("call", NON_INTEGER_INDEX_CALLS.values(), ids=NON_INTEGER_INDEX_CALLS)
def test_node_indices_must_be_integers(call, g1, ctx1):
    # a fresh context holds no X, so point queries take their solve path
    with pytest.raises(DomainError):
        call(RankContext.from_graph(g1), ctx1.fundamental())


def test_numpy_integer_node_indices_pass(ctx1):
    assert ctx1.interval(np.int64(1)) == ctx1.interval(1)
    assert effective_competitors(ctx1, np.int32(0), np.int64(2)).competes


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
    # Rows of X and its column sums give every concentrated rank vector.  A
    # fresh context builds X for a certificate, so it certifies with the
    # same bits as a context that holds X.
    rng = rng_for(5151)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        base = random_context(rng, n, dangling_frac=0.3)
        held = RankContext(base.alpha, base.p_u)
        x = held.fundamental().x
        sums = held.fundamental().report.column_sums
        rows = rng.choice(n, size=min(n, 3), replace=False).tolist()
        for eps in (0.5, 1e-3, (n - 1) / n, 0.999, 1e-9):
            for k in rows:
                expected = held.rank(basis_family(k, eps, n)).pi
                values = _family_values(x[k], sums, eps, n)
                assert np.abs(values - expected).max() <= 1e-12
        fm = held.fundamental()
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][:4]
        for i, j in pairs:
            verdict = effective_competitors(fm, i, j)
            if verdict.competes:
                a = witness_epsilon(RankContext(base.alpha, base.p_u), verdict)
                b = witness_epsilon(held, verdict)
                assert a.epsilon == b.epsilon
                assert np.array_equal(a.rank_high.pi, b.rank_high.pi)
                assert np.array_equal(a.rank_low.pi, b.rank_low.pi)
        for leader, row in leadership_group(fm).witness_rows.items():
            fresh = RankContext(base.alpha, base.p_u)
            (eps_a, rank_a), (eps_b, rank_b) = (
                leadership_certificate(ctx, leader, row) for ctx in (fresh, held)
            )
            assert eps_a == eps_b
            assert np.array_equal(rank_a.pi, rank_b.pi)
            assert fresh._fundamental is not None


def test_concentrated_rank_vectors_check_rows_and_epsilon(ctx1):
    # Witness rows are checked before X is indexed, where a negative index
    # would wrap around; the family's epsilon domain is checked where a
    # caller names epsilon.
    for rows in ([3], [-1], [0, 5]):
        with pytest.raises(DomainError, match="out of range"):
            leadership_certificate(ctx1, 0, rows[-1])
        k, l = (rows * 2)[:2]
        verdict = CompetitionVerdict(i=0, j=2, competes=True, witness_k=k, witness_l=l)
        with pytest.raises(DomainError, match="out of range"):
            witness_epsilon(ctx1, verdict)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError, match="epsilon"):
            competitivity_interval(ctx1, 0, eps)


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


def test_achieve_value_on_a_fresh_context_solves_one_column(g2, monkeypatch):
    # The interval and both ends read column i of X: its transposed solve
    # and the one of X 1 that checks its row sums, and nothing more.
    iv = RankContext.from_graph(g2).interval(3)
    ctx = RankContext.from_graph(g2)
    solves = []
    real = rankreach.localization._lu_solve

    def counting(lu, b, trans=0, **kwargs):
        solves.append((trans, b.reshape(lu.shape[0], -1).shape[1]))
        return real(lu, b, trans=trans, **kwargs)

    monkeypatch.setattr(rankreach.localization, "_lu_solve", counting)
    result = achieve_value(ctx, 3, 0.5 * (iv.lo + iv.hi))
    assert abs(result.achieved - 0.5 * (iv.lo + iv.hi)) <= 1e-6
    assert solves == [(1, 1), (1, 1)]
    assert ctx._fundamental is None


def test_achieve_value_validates_one_personalization(ctx2, monkeypatch):
    # The mixture of the two concentrated vectors is written out entry by
    # entry, so only the vector returned is validated, and it has the bits
    # of the vector expression.
    iv = ctx2.interval(3)
    names = []
    real = rankreach.stochastic._frozen_vector

    def counting(raw, name, **kwargs):
        names.append(name)
        return real(raw, name, **kwargs)

    monkeypatch.setattr(rankreach.stochastic, "_frozen_vector", counting)
    result = achieve_value(ctx2, 3, 0.5 * (iv.lo + iv.hi))
    assert names == ["personalization vector"]
    top = basis_family(3, result.epsilon, ctx2.n).v
    bottom = basis_family(iv.lo_witness, result.epsilon, ctx2.n).v
    assert np.array_equal(result.v.v, result.lam * top + (1.0 - result.lam) * bottom)


def _interval_bits(iv) -> tuple:
    return iv.node, iv.lo.hex(), iv.hi.hex(), iv.lo_witness


def test_held_interval_reads_match_the_column_scan():
    # With X held, each column's minimum and first witness row are read off
    # X once; they are the bits that scanning the one column gives.  In the
    # in-star's columns several rows lie within FLOAT_RESOLUTION of the
    # minimum, and the first of them is not the argmin.
    star = DirectedGraph(
        labels=tuple(map(str, range(300))),
        edges=frozenset((k, 0) for k in range(1, 300)),
    )
    graphs = [star, random_graph(rng_for(808), 150, dangling_frac=0.2)]
    for g in graphs:
        for alpha in (0.85, 1.0 - 1e-6):
            held = RankContext.from_graph(g, alpha=alpha)
            fm = held.fundamental()
            scanned = [_interval_bits(pr_interval(fm, i)) for i in range(g.n)]
            assert [_interval_bits(iv) for iv in held.intervals()] == scanned
            assert [_interval_bits(held.interval(i)) for i in range(g.n)] == scanned
            # the report's other facts are X's own, read directly
            report = fm.report
            assert report.column_sums.tobytes() == fm.x.sum(axis=0).tobytes()
            # achieve_value reads s_i here, where a solved column sums itself
            for i in range(g.n):
                assert report.column_sums[i] == fm.x[:, i].sum(), i
            checked = verify_structure(fm)
            for field in dataclasses.fields(report):
                name = field.name
                assert np.array_equal(getattr(checked, name), getattr(report, name)), name
            if g is star:
                witnesses = [w for _, _, _, w in scanned]
                assert witnesses != fm.x.argmin(axis=0).tolist()


def test_point_interval_reads_its_column_facts_once(monkeypatch):
    # The structure check of the solved column and the interval read the
    # same facts, made once.
    g = random_graph(rng_for(909), 120, dangling_frac=0.2)
    col = RankContext.from_graph(g).column(5)
    expected = _interval_bits(RankContext.from_graph(g).interval(5))
    assert expected[1:3] == (col.min().hex(), col[5].hex())
    shapes = []
    real = rankreach.localization._column_facts

    def counting(cols, first):
        shapes.append(cols.shape)
        return real(cols, first)

    monkeypatch.setattr(rankreach.localization, "_column_facts", counting)
    assert _interval_bits(RankContext.from_graph(g).interval(5)) == expected
    assert shapes == [(g.n, 1)]


def test_x_owns_its_report(g1, monkeypatch):
    fm = RankContext.from_graph(g1).fundamental()
    assert verify_structure(fm) is fm.report
    # the context keeps the report that verify_structure checked
    checked = []
    real = rankreach.localization.verify_structure

    def recording(fm):
        checked.append(real(fm))
        return checked[-1]

    monkeypatch.setattr(rankreach.localization, "verify_structure", recording)
    ctx = RankContext.from_graph(g1)
    assert ctx.fundamental().report is checked[0]
    assert len(checked) == 1


def test_caller_x_reads_its_column_facts_once(monkeypatch):
    # Intervals on a caller's X read its report, one pass over column
    # blocks in all, not one column scan per call.
    g = random_graph(rng_for(1501), 150, dangling_frac=0.2)
    x = RankContext.from_graph(g).fundamental().x
    expected = [_interval_bits(pr_interval(FundamentalMatrix(x=x, alpha=0.85), i))
                for i in range(g.n)]
    shapes = []
    real = rankreach.localization._column_facts

    def counting(cols, first):
        shapes.append(cols.shape)
        return real(cols, first)

    monkeypatch.setattr(rankreach.localization, "_column_facts", counting)
    fm = FundamentalMatrix(x=x, alpha=0.85)
    assert [_interval_bits(pr_interval(fm, i)) for i in range(g.n)] == expected
    assert len(shapes) == -(-g.n // _block_width(g.n))


@pytest.mark.parametrize("n", [2, 7, 1000])
@pytest.mark.parametrize("epsilon", [0.5, 2.0**-20, 2.0**-40])
def test_family_values_have_the_bits_of_the_expression(n, epsilon):
    # the one-temporary evaluation rounds as the written expression does,
    # on scalars, on rows and on blocks of rows
    rng = rng_for(n)
    x = rng.random((2, n)) / n
    s = rng.random(n) + 0.5
    w = epsilon / (n - 1)
    for xs, ss in ((float(x[0, 1]), float(s[1])), (x[0], s), (x[0], float(s[0])), (x, s)):
        got = _family_values(xs, ss, epsilon, n)
        want = (1.0 - epsilon - w) * xs + w * ss
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert type(got) is type(want)


def _frozen_through_base(a: np.ndarray) -> bool:
    return not a.flags.writeable and (a.base is None or not a.base.flags.writeable)


def test_computed_vectors_are_frozen_through_their_base(ctx2):
    # a vector the package computes is adopted where it is made, so
    # neither it nor an array it views can be written
    fm = ctx2.fundamental()
    group = leadership_group(fm)
    leader = min(group.leaders)
    _, ranked = leadership_certificate(ctx2, leader, group.witness_rows[leader])
    iv = ctx2.interval(3)
    verdict = next(
        v for i in range(ctx2.n) for j in range(i + 1, ctx2.n)
        if (v := effective_competitors(fm, i, j)).competes
    )
    cert = witness_epsilon(ctx2, verdict)
    vectors = {
        "rank": ctx2.rank(PersonalizationVector.uniform(ctx2.n)).pi,
        "rank_high": cert.rank_high.pi,
        "rank_low": cert.rank_low.pi,
        "leadership": ranked.pi,
        "achieve": achieve_value(ctx2, 3, 0.5 * (iv.lo + iv.hi)).v.v,
        "basis": basis_family(1, 0.25, ctx2.n).v,
    }
    for name, vector in vectors.items():
        assert _frozen_through_base(vector), name


def _fixed_ends(f1, f0):
    """A stand-in for the family's values at achieve_value's two ends: the
    node ranks f1 under the personalization concentrated on it and f0 under
    the other one."""
    def family_values(x, s, epsilon, n):
        return np.array([f1, f0])
    return family_values


def test_achieve_value_reports_an_unreachable_target(ctx1, monkeypatch):
    # ends that miss the target on the same side: no mixture reaches it
    monkeypatch.setattr(rankreach.localization, "_family_values", _fixed_ends(0.3, 0.3))
    with pytest.raises(NumericalError) as failure:
        achieve_value(ctx1, 0, 0.35)
    assert str(failure.value) == (
        "target 0.35 unreachable at epsilon floor 1e-07; closest achieved 0.3"
    )
    assert failure.value.details == {"closest_achieved": 0.3, "epsilon": 1e-7}


def test_achieve_value_reports_a_stalled_bisection(ctx1, monkeypatch):
    # The target sits at lambda of about 5e-302, past the reach of 200
    # halvings, which stop at lambda = 2**-200.
    monkeypatch.setattr(rankreach.localization, "_family_values", _fixed_ends(1e300, 0.3))
    with pytest.raises(NumericalError, match="bisection stalled at .* for target 0.35 "
                       r"\(tol 1e-06\)") as failure:
        achieve_value(ctx1, 0, 0.35)
    assert failure.value.details["lambda"] == 0.5**200
    assert failure.value.details["closest_achieved"] > 1e200


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


def test_context_from_json_graph_with_isolated_node():
    g = parse_graph_json('{"nodes": ["a", "b", "c"], "edges": [[0, 1]]}')
    ctx = RankContext.from_graph(g)
    assert ctx.fundamental().report.column_margins.min() > 0.0


def test_one_factorization_per_context(g1, monkeypatch):
    factorizations = []
    real_lu_factor = rankreach.localization._lu_factor

    def counting(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_lu_factor(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(rankreach.localization, "_lu_factor", counting)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    ctx = RankContext.from_graph(g1)
    ctx.interval(1)  # a point query, before X exists
    ctx.fundamental()
    ctx.interval(0)
    ctx.rank_weights(np.full(3, 1.0 / 3.0))
    achieve_value(ctx, 0, 0.35)
    witness_epsilon(ctx, effective_competitors(ctx, 0, 2))
    assert factorizations == [(3, 3)]
    # the production solve path stays the one LU: no dense solver call,
    # no scipy, and a single factorization site anywhere in the package
    sources = [path.read_text() for path in Path(rankreach.__file__).parent.glob("*.py")]
    assert not any("linalg.solve" in source or "scipy" in source for source in sources)
    calls = [
        node for source in sources for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lu_factor"
    ]
    assert len(calls) == 1


def test_oracles_stay_apart_from_production():
    # The cross-check routes are defined in oracle.py alone, and no
    # production module reaches them; stochastic.py builds P_u and never
    # imports the context that solves against it.
    package = Path(rankreach.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    oracles = {"google_matrix", "pagerank_power", "_gauss_jordan_inverse"}
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
    real = rankreach.localization._lu_solve

    def skewed(lu, b, trans=0, **kwargs):
        ones = trans == 1 and np.ptp(b) == 0.0  # read before b is overwritten
        x = real(lu, b, trans=trans, **kwargs)
        return x + 1e-6 if ones else x

    monkeypatch.setattr(rankreach.localization, "_lu_solve", skewed)
    with pytest.raises(StructureError, match="row_sum_error"):
        RankContext(ctx1.alpha, ctx1.p_u).interval(0)


def test_every_column_of_a_rank_batch_is_residual_checked(ctx1, monkeypatch):
    # The batch is checked in blocks of columns; a column past the first
    # block must be caught, and reported by its own index.
    real = rankreach.localization._lu_solve
    bad = RESIDUAL_BLOCK + 6

    def skewed(lu, b, trans=0, **kwargs):
        x = real(lu, b, trans=trans, **kwargs)
        if trans == 0 and b.ndim == 2:
            x[:, bad] += 1e-6
        return x

    monkeypatch.setattr(rankreach.localization, "_lu_solve", skewed)
    weights = np.ones((3, 2 * RESIDUAL_BLOCK))
    with pytest.raises(NumericalError) as failure:
        ctx1.rank_weights(weights)
    assert failure.value.details["weight column"] == bad


# Sizes around the diagonal blocks of the block LU: n = 1 and 2, one short
# block (63), an exact multiple of the width (64, 1024), one row past a
# multiple (65, 1537), a short last block (131, 1025), and n in each width
# that _lu_width produces.
LU_SIZES = [1, 2, 63, 64, 65, 131, 1024, 1025, 1537]


def test_lu_sizes_meet_every_block_width():
    assert [_lu_width(n) for n in LU_SIZES] == [64] * 6 + [128, 192, 256]


@pytest.mark.parametrize("alpha", [0.1, 0.85, 1.0 - 1e-9])
@pytest.mark.parametrize("n", LU_SIZES)
def test_block_lu_solves_have_small_residuals(n, alpha):
    # A_t = I - alpha P_u^T of graphs with dangling rows and self-loops;
    # sparse at large n, so the dense checks stay quick.  The normwise
    # backward error of a stable solve is a modest multiple of n u.
    rng = rng_for(n * 1000 + int(alpha * 100))
    graph = random_graph(rng, n, density=min(0.3, 16 / n), dangling_frac=0.3)
    assert any(s == t for s, t in graph.edges) or n == 1
    p_u = row_stochastic(graph)
    a = np.eye(n) - alpha * p_u.toarray().T
    lu = _lu_factor(a.copy())
    for trans, system in ((0, a), (1, a.T)):
        for b in (rng.random(n), rng.random((n, 3))):
            x = _lu_solve(lu, b.copy(), trans=trans)
            assert x.shape == b.shape
            r = np.abs(system @ x - b).max()
            scale = np.abs(system).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
            assert r <= 4 * n * np.finfo(float).eps * scale
    # a multiple of I takes the forward loop that skips its zero blocks
    inverse = _lu_solve(lu, np.eye(n) * (1.0 - alpha), lower_rhs=range(1, n + 1))
    assert np.abs(inverse - _lu_solve(lu, np.eye(n) * (1.0 - alpha))).max() <= 1e-12


def test_singular_leaf_is_a_numerical_error():
    with pytest.raises(NumericalError, match="singular"):
        _lu_factor(np.zeros((3, 3)))


@pytest.mark.parametrize(
    "weights, match",
    [
        (np.array([np.nan, 1.0, 1.0]), "finite"),
        (np.array([[1.0, np.inf], [1.0, 1.0], [1.0, 1.0]]), "finite"),
        (np.ones((3, 2, 2)), "shape"),
        (np.ones(4), "shape"),
        (np.float64(1.0), "shape"),
        ([["a"], ["b"], ["c"]], "numbers"),
    ],
)
def test_rank_weights_rejects_bad_weights(ctx1, weights, match):
    with pytest.raises(DomainError, match=match):
        ctx1.rank_weights(weights)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda ctx: monte_carlo_interval(ctx, [0], None, 1), "None"),
        (lambda ctx: competitivity_interval(ctx, 0, None), "None"),
        (lambda ctx: achieve_value(ctx, 0, None), "None"),
        (lambda ctx: achieve_value(ctx, 0, 0.35, tol="1e-6"), "'1e-6'"),
        (lambda ctx: RankContext(None, ctx.p_u), "None"),
        (lambda ctx: RankContext(True, ctx.p_u), "True"),
        (lambda ctx: basis_family(0, 0.1, 3.0), "3.0"),
        (lambda ctx: observe_rank_swaps(ctx, 0, 1, 2.5, 1), "2.5"),
    ],
)
def test_scalar_arguments_are_type_checked(ctx1, call, named):
    with pytest.raises(DomainError) as failure:
        call(ctx1)
    assert named in str(failure.value)
