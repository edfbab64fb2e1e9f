import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import rankreach.cli
import rankreach.competition
import rankreach.localization
import rankreach.stochastic
from rankreach import (
    STRICT_MARGIN,
    CompetitionVerdict,
    DirectedGraph,
    DomainError,
    FundamentalMatrix,
    NumericalError,
    PersonalizationVector,
    RankContext,
    achieve_value,
    competitivity_graph,
    competitivity_interval,
    competitor_scan,
    effective_competitors,
    leadership_certificate,
    leadership_group,
    witness_epsilon,
)
from rankreach.competition import _HALVINGS
from rankreach.localization import _family_values

from .conftest import GRAPH_DIR, load_graph
from .golden import (
    COMPETING_G1,
    COMPETING_G2,
    COMPETING_G3,
    LEADERS_G1,
    LEADERS_G2,
    LEADERS_G3,
    SC_G1_NODE1,
    WITNESS_ROWS_G2,
    WITNESS_ROWS_G3,
)
from .helpers import preferential_graph, random_context, random_graph, rng_for


def test_g1_outer_pair_competes_with_witness_rows(ctx1):
    verdict = effective_competitors(ctx1.fundamental(), 0, 2)
    assert verdict.competes
    assert verdict.witness_k == 0
    assert verdict.witness_l == 2


def test_g1_dominated_pairs_do_not_compete(ctx1):
    x = ctx1.fundamental()
    for pair in ((0, 1), (1, 2)):
        verdict = effective_competitors(x, *pair)
        assert not verdict.competes
        assert verdict.witness_k is None and verdict.witness_l is None
    # column 1 dominates both other columns entrywise
    assert (x.x[:, 1] > x.x[:, 0]).all()
    assert (x.x[:, 1] > x.x[:, 2]).all()


def test_overlapping_intervals_are_not_sufficient_to_compete(ctx1):
    # intervals of nodes 0 and 1 overlap, yet the pair does not compete
    iv0, iv1 = ctx1.interval(0), ctx1.interval(1)
    assert iv0.hi > iv1.lo and iv1.hi > iv0.lo
    assert not effective_competitors(ctx1.fundamental(), 0, 1).competes


def test_same_node_rejected(ctx1):
    with pytest.raises(DomainError, match="distinct"):
        effective_competitors(ctx1.fundamental(), 1, 1)


def test_two_cycle_competes_by_symmetry(ctx_cycle):
    verdict = effective_competitors(ctx_cycle.fundamental(), 0, 1)
    assert verdict.competes
    assert (verdict.witness_k, verdict.witness_l) == (0, 1)


def test_competitivity_graph_reference_networks(ctx1, ctx2, ctx3, ctx_cycle):
    assert competitivity_graph(ctx1.fundamental()) == COMPETING_G1
    assert competitivity_graph(ctx2.fundamental()) == COMPETING_G2
    assert competitivity_graph(ctx3.fundamental()) == COMPETING_G3
    assert competitivity_graph(ctx_cycle.fundamental()) == {(0, 1)}


def test_g3_mirror_pair_competes(ctx3):
    verdict = effective_competitors(ctx3.fundamental(), 4, 5)
    assert verdict.competes
    assert (verdict.witness_k, verdict.witness_l) == (4, 5)


def test_leadership_groups(ctx1, ctx2, ctx3, ctx_cycle):
    assert leadership_group(ctx1.fundamental()).leaders == LEADERS_G1
    g2_group = leadership_group(ctx2.fundamental())
    assert g2_group.leaders == LEADERS_G2
    assert g2_group.witness_rows == WITNESS_ROWS_G2
    g3_group = leadership_group(ctx3.fundamental())
    assert g3_group.leaders == LEADERS_G3
    assert g3_group.witness_rows == WITNESS_ROWS_G3
    assert leadership_group(ctx_cycle.fundamental()).leaders == {0, 1}


def test_tied_rows_contribute_no_leader():
    fm = FundamentalMatrix(x=np.array([[0.5, 0.5], [0.5, 0.5]]), alpha=0.85)
    assert leadership_group(fm).leaders == frozenset()


def test_concentrated_hull_matches_frozen_grid(ctx1):
    for eps, (lo, hi) in SC_G1_NODE1.items():
        sc = competitivity_interval(ctx1, 1, eps)
        assert abs(sc.lo - lo) <= 1e-9
        assert abs(sc.hi - hi) <= 1e-9


def test_concentrated_hull_nests_and_stays_inside(ctx1):
    # shrinking epsilon widens the hull toward the open interval
    iv = ctx1.interval(1)
    previous = None
    for eps in (0.5, 0.1, 0.01):
        sc = competitivity_interval(ctx1, 1, eps)
        assert iv.lo < sc.lo <= sc.hi < iv.hi
        if previous is not None:
            assert sc.lo <= previous.lo and previous.hi <= sc.hi
        previous = sc


def test_concentrated_hull_converges_to_interval(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        for i in range(ctx.n):
            iv = ctx.interval(i)
            sc = competitivity_interval(ctx, i, 1e-7)
            assert abs(sc.lo - iv.lo) <= 1e-6
            assert abs(sc.hi - iv.hi) <= 1e-6


def test_concentrated_hull_epsilon_domain(ctx1):
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError, match="epsilon"):
            competitivity_interval(ctx1, 0, eps)


def _hull_by_solve(ctx, i, epsilon):
    """Hull of node i's rank over the concentrated family, by solving for
    all n concentrated vectors at once."""
    n = ctx.n
    family = np.full((n, n), epsilon / (n - 1))
    np.fill_diagonal(family, 1.0 - epsilon)
    vals = ctx.rank_weights(family)[i, :]
    return vals.min(), vals.max()


def test_concentrated_hull_matches_the_family_solve():
    # The hull reads one column of X; past epsilon = (n-1)/n the weight on
    # the column's own entries turns negative, which swaps its ends.
    rng = rng_for(3131)
    for _ in range(6):
        n = int(rng.integers(2, 20))
        ctx = random_context(rng, n, dangling_frac=0.3)
        epsilons = {1e-7, 0.01, 0.5, (n - 1) / n, 0.5 + 0.5 * (n - 1) / n, 0.999}
        for i in range(n):
            for eps in sorted(epsilons):
                sc = competitivity_interval(ctx, i, eps)
                lo, hi = _hull_by_solve(ctx, i, eps)
                assert abs(sc.lo - lo) <= 1e-13
                assert abs(sc.hi - hi) <= 1e-13


@pytest.mark.parametrize("alpha", [0.3, 0.85, 0.99, 1.0 - 1e-9])
def test_concentrated_hull_is_the_whole_column_hull(alpha):
    # The hull reads the column's minimum and diagonal entry, and has the
    # bits of the family evaluated over the whole column: the computed
    # value is monotone in x_ki for either sign of its slope.
    graphs = [
        random_graph(rng_for(4141), 40, dangling_frac=0.2),
        preferential_graph(rng_for(4242), 60),
    ]
    for g in graphs:
        n = g.n
        held = RankContext.from_graph(g, alpha=alpha)
        x = held.fundamental().x
        fresh = RankContext.from_graph(g, alpha=alpha)
        for i in range(0, n, 3):
            col = x[:, i]
            for eps in (0.01, 0.5, (n - 1) / n, 0.999):
                vals = _family_values(col, col.sum(), eps, n)
                want = (float(vals.min()).hex(), float(vals.max()).hex())
                for ctx in (held, fresh):
                    sc = competitivity_interval(ctx, i, eps)
                    assert (sc.lo.hex(), sc.hi.hex()) == want, (i, eps)


def test_concentrated_hull_on_a_held_x_reads_two_entries(g2, monkeypatch):
    ctx = RankContext.from_graph(g2)
    ctx.fundamental()
    shapes, solves = [], []
    real_values, real_solve = _family_values, rankreach.localization._lu_solve

    def counting_values(x, s, epsilon, n):
        shapes.append(np.shape(x))
        return real_values(x, s, epsilon, n)

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(rankreach.competition, "_family_values", counting_values)
    monkeypatch.setattr(rankreach.localization, "_lu_solve", counting_solve)
    competitivity_interval(ctx, 3, 0.01)
    assert shapes == [(2,)]
    assert solves == []


def test_concentrated_family_queries_make_no_solve_once_x_is_held(g2, monkeypatch):
    ctx = RankContext.from_graph(g2)
    fm = ctx.fundamental()
    i, j = min(competitivity_graph(fm))
    verdict = effective_competitors(fm, i, j)
    group = leadership_group(fm)
    leader = min(group.leaders)
    iv = ctx.interval(0)
    solves = []
    real = rankreach.localization._lu_solve

    def counting(*args, **kwargs):
        solves.append(kwargs.get("trans", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(rankreach.localization, "_lu_solve", counting)
    witness_epsilon(ctx, verdict)
    leadership_certificate(ctx, leader, group.witness_rows[leader])
    achieve_value(ctx, 0, 0.5 * (iv.lo + iv.hi))
    for node in range(ctx.n):
        competitivity_interval(ctx, node, 0.01)
    assert solves == []


def test_certificates_do_not_depend_on_whether_x_is_held():
    # A fresh context builds X for its certificates, so it finds the same
    # epsilon and bit-identical rank vectors as a context that holds X.
    for seed in range(2):
        g = preferential_graph(rng_for(seed), 120)
        held = RankContext.from_graph(g, alpha=0.99)
        fm = held.fundamental()
        verdicts = [
            effective_competitors(fm, i, j)
            for i, j in sorted(competitivity_graph(fm))[:5]
        ]
        group = leadership_group(fm)
        for verdict in verdicts:
            fresh = RankContext.from_graph(g, alpha=0.99)
            a, b = witness_epsilon(fresh, verdict), witness_epsilon(held, verdict)
            assert a.epsilon == b.epsilon
            assert np.array_equal(a.rank_high.pi, b.rank_high.pi)
            assert np.array_equal(a.rank_low.pi, b.rank_low.pi)
        for leader, row in sorted(group.witness_rows.items())[:5]:
            fresh = RankContext.from_graph(g, alpha=0.99)
            (eps_a, rank_a), (eps_b, rank_b) = (
                leadership_certificate(ctx, leader, row) for ctx in (fresh, held)
            )
            assert eps_a == eps_b
            assert np.array_equal(rank_a.pi, rank_b.pi)


def test_certificates_check_indices_before_reading_rows(ctx1):
    # Indexing X would wrap a negative index around to the last node.
    for leader, row in ((7, 0), (-1, 0), (0, 3), (0, -1)):
        with pytest.raises(DomainError, match="out of range"):
            leadership_certificate(ctx1, leader, row)
    for i, j, k, l in ((0, 2, 3, 0), (0, 2, 0, -1), (-1, 2, 0, 2), (0, 3, 0, 2)):
        verdict = CompetitionVerdict(i=i, j=j, competes=True, witness_k=k, witness_l=l)
        with pytest.raises(DomainError, match="out of range"):
            witness_epsilon(ctx1, verdict)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.49])
def test_small_alpha_makes_every_pair_compete_and_every_node_lead(alpha):
    # X = (1 - alpha) sum_k alpha^k P_u^k puts at least 1 - alpha on the
    # diagonal, and unit row sums leave at most alpha off it.  Below
    # alpha = 1/2 each diagonal entry beats the rest of its row and column
    # by 1 - 2 alpha, whatever the graph: every pair competes, and every
    # node is the strict maximum of its own row.
    rng = rng_for(int(alpha * 1000))
    for _ in range(6):
        n = int(rng.integers(2, 30))
        ctx = random_context(rng, n, density=float(rng.uniform(0.05, 0.6)), alpha=alpha)
        fm = ctx.fundamental()
        assert len(competitivity_graph(fm)) == n * (n - 1) // 2
        group = leadership_group(fm)
        assert group.witness_rows == {i: i for i in range(n)}
        assert fm.report.column_margins.min() >= 1.0 - 2.0 * alpha - 1e-12


def test_witness_certificate_g1(ctx1):
    verdict = effective_competitors(ctx1.fundamental(), 0, 2)
    cert = witness_epsilon(ctx1, verdict)
    assert cert.rank_high.pi[0] > cert.rank_high.pi[2]
    assert cert.rank_low.pi[0] < cert.rank_low.pi[2]
    assert 0.0 < cert.epsilon <= 0.5


def test_witness_certificate_two_cycle_needs_one_halving(ctx_cycle):
    # epsilon = 1/2 is the uniform vector, an exact tie, so 1/4 certifies
    verdict = effective_competitors(ctx_cycle.fundamental(), 0, 1)
    assert witness_epsilon(ctx_cycle, verdict).epsilon == 0.25


def test_witness_certificate_requires_competing_pair(ctx1):
    verdict = effective_competitors(ctx1.fundamental(), 0, 1)
    with pytest.raises(DomainError, match="competing"):
        witness_epsilon(ctx1, verdict)


def _holding(ctx: RankContext, x: np.ndarray) -> RankContext:
    """A stand-in for ctx that holds x as its X."""
    held = RankContext(ctx.alpha, ctx.p_u)
    held._fundamental = FundamentalMatrix(x=x, alpha=ctx.alpha)
    return held


def _tied(ctx: RankContext) -> RankContext:
    """A stand-in for ctx holding an X whose entries are all equal, so no
    epsilon orders any pair."""
    return _holding(ctx, np.full((ctx.n, ctx.n), 1.0 / ctx.n))


def test_witness_search_takes_a_tie_for_no_swap(ctx1):
    # Row 2 gives nodes 0 and 1 equal entries and they have equal column
    # sums, so they tie under v_2(epsilon) at every epsilon: no swap.
    x = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    for k, l in ((2, 1), (0, 2)):
        verdict = CompetitionVerdict(i=0, j=1, competes=True, witness_k=k, witness_l=l)
        with pytest.raises(NumericalError, match="no rank-swap"):
            witness_epsilon(_holding(ctx1, x), verdict)


def test_certificate_searches_report_the_floor(ctx2):
    verdict = effective_competitors(ctx2.fundamental(), 0, 2)
    with pytest.raises(NumericalError) as failure:
        witness_epsilon(_tied(ctx2), verdict)
    assert str(failure.value) == (
        "no rank-swap certificate for pair (0, 2) above epsilon floor 1e-12"
    )
    assert failure.value.details == {"i": 0, "j": 2, "floor": 1e-12}
    with pytest.raises(NumericalError) as failure:
        leadership_certificate(_tied(ctx2), 0, WITNESS_ROWS_G2[0])
    assert str(failure.value) == (
        "no leadership certificate for node 0 from row 0 above epsilon floor 1e-12"
    )
    assert failure.value.details == {"leader": 0, "witness_row": 0, "floor": 1e-12}


def _reference_witness(ctx: RankContext, verdict: CompetitionVerdict):
    """The search witness_epsilon makes, on whole family vectors: both rank
    vectors of the two witness rows at every halving."""
    x = ctx.fundamental().x
    rows = x[[verdict.witness_k, verdict.witness_l]].T
    sums = x.sum(axis=0)[:, None]
    for epsilon in _HALVINGS:
        ranked = _family_values(rows, sums, epsilon, ctx.n)
        high, low = ranked[:, 0], ranked[:, 1]
        if high[verdict.i] > high[verdict.j] and low[verdict.i] < low[verdict.j]:
            return epsilon, high, low
    return None


@pytest.mark.parametrize("alpha", [0.3, 0.85, 0.99, 1.0 - 1e-9])
def test_witness_search_on_four_entries_matches_whole_vectors(alpha):
    rng = rng_for(int(alpha * 1e4))
    graphs = [random_graph(rng, int(rng.integers(5, 60)), dangling_frac=0.2) for _ in range(3)]
    graphs += [preferential_graph(rng, int(rng.integers(20, 120))) for _ in range(3)]
    searched = 0
    for g in graphs:
        ctx = RankContext.from_graph(g, alpha=alpha)
        fm = ctx.fundamental()
        verdicts = []
        for i, j in list(combinations(range(g.n), 2))[:12]:
            # rows i and j favour their own nodes; the other way round the
            # search may reach the floor
            verdicts += [
                CompetitionVerdict(i=i, j=j, competes=True, witness_k=i, witness_l=j),
                CompetitionVerdict(i=i, j=j, competes=True, witness_k=j, witness_l=i),
            ]
        for i, j in sorted(competitivity_graph(fm))[:12]:
            found = effective_competitors(fm, i, j)
            verdicts += [found, CompetitionVerdict(
                i=j, j=i, competes=True, witness_k=found.witness_l, witness_l=found.witness_k
            )]
        for verdict in verdicts:
            expected = _reference_witness(ctx, verdict)
            if expected is None:
                with pytest.raises(NumericalError, match="no rank-swap"):
                    witness_epsilon(ctx, verdict)
                continue
            cert = witness_epsilon(ctx, verdict)
            assert cert.epsilon == expected[0]
            assert np.array_equal(cert.rank_high.pi, expected[1])
            assert np.array_equal(cert.rank_low.pi, expected[2])
            searched += 1
    assert searched > 0


def test_witness_search_forms_full_rank_vectors_once(ctx_cycle, monkeypatch):
    # The two-cycle ties at epsilon = 1/2 and certifies at 1/4: both steps
    # compare four entries, and only the accepted one forms whole vectors.
    verdict = effective_competitors(ctx_cycle.fundamental(), 0, 1)
    shapes = []
    real = rankreach.localization._family_values

    def counting(x, s, epsilon, n):
        shapes.append(np.shape(x))
        return real(x, s, epsilon, n)

    monkeypatch.setattr(rankreach.localization, "_family_values", counting)
    monkeypatch.setattr(rankreach.competition, "_family_values", counting)
    assert witness_epsilon(ctx_cycle, verdict).epsilon == 0.25
    assert [shape for shape in shapes if shape] == [(2,), (2,)]


def test_computed_rank_vectors_failing_their_sum_are_numerical(monkeypatch):
    # A vector the context computed, by a solve or read off X for a
    # certificate, that fails its sum check is a solver failure, not a bad
    # input: the sum bound is patched to fail every vector.
    ctx = RankContext.from_graph(load_graph("g2.edges"))
    verdict = effective_competitors(ctx.fundamental(), 0, 2)
    monkeypatch.setattr(rankreach.stochastic, "solve_sum_tol", lambda alpha, n: -1.0)
    for computed in (
        lambda: ctx.rank(PersonalizationVector.uniform(ctx.n)),
        lambda: witness_epsilon(ctx, verdict),
        lambda: leadership_certificate(ctx, 0, WITNESS_ROWS_G2[0]),
    ):
        with pytest.raises(NumericalError, match="solved rank vector must sum to 1") as failure:
            computed()
        assert failure.value.details["rank_sum_error"] < 1e-14


def test_leadership_certificates_reference_networks(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        group = leadership_group(ctx.fundamental())
        for leader in group.leaders:
            eps, ranked = leadership_certificate(
                ctx, leader, group.witness_rows[leader]
            )
            rest = np.delete(ranked.pi, leader)
            assert (ranked.pi[leader] > rest).all()
            assert 0.0 < eps <= 0.5


def test_witness_certificates_on_random_graphs():
    rng = rng_for(424242)
    for _ in range(15):
        ctx = random_context(rng, int(rng.integers(2, 13)))
        x = ctx.fundamental()
        for i, j in competitivity_graph(x):
            cert = witness_epsilon(ctx, effective_competitors(x, i, j))
            assert cert.rank_high.pi[i] > cert.rank_high.pi[j]
            assert cert.rank_low.pi[i] < cert.rank_low.pi[j]


def _pairwise_reference(fm):
    """Verdict and witness rows of every pair i < j, by the per-pair
    comparison that the scan replaced."""
    expected = {}
    for i in range(fm.n):
        for j in range(i + 1, fm.n):
            diff = fm.x[:, i] - fm.x[:, j]
            above = np.flatnonzero(diff > STRICT_MARGIN)
            below = np.flatnonzero(diff < -STRICT_MARGIN)
            if above.size and below.size:
                expected[(i, j)] = (True, int(above[0]), int(below[0]))
            else:
                expected[(i, j)] = (False, None, None)
    return expected


def _assert_scan_matches_pairs(fm):
    expected = _pairwise_reference(fm)
    seen = {}
    for i, competes, above, below in competitor_scan(fm):
        assert competes.shape == above.shape == below.shape == (fm.n - i - 1,)
        for offset, verdict in enumerate(competes.tolist()):
            j = i + 1 + offset
            if verdict:
                seen[(i, j)] = (True, int(above[offset]), int(below[offset]))
            else:
                seen[(i, j)] = (False, None, None)
    assert list(seen) == list(expected)  # the same pairs, row-major
    assert seen == expected
    for (i, j), ref in expected.items():
        v = effective_competitors(fm, i, j)
        assert (v.competes, v.witness_k, v.witness_l) == ref
    assert competitivity_graph(fm) == {p for p, v in expected.items() if v[0]}


def _margin_matrix():
    """X whose column differences against column 0 sit exactly at, just
    inside and just outside STRICT_MARGIN; the last two columns are random
    draws from the same values."""
    m, d = STRICT_MARGIN, 1e-12
    x = np.zeros((9, 9))
    x[1:3, 1] = m, -m                  # at the margin both ways: no
    x[1:3, 2] = m + d, -(m + d)        # past it both ways: competes
    x[1:3, 3] = m - d, -(m - d)        # inside it both ways: no
    x[1:3, 4] = m + d, -m              # past it one way only: no
    x[1:3, 5] = m, -(m + d)            # past it the other way only: no
    x[[0, 3], 6] = -(m + d), m + d     # competes, witnesses rows 0 and 3
    values = np.array([0.0, m, -m, m + d, -(m + d), m - d, -(m - d)])
    x[:, 7:] = rng_for(5).choice(values, size=(9, 2))
    return FundamentalMatrix(x=x, alpha=0.85)


def test_scan_matches_pairwise_verdicts(ctx1, ctx2, ctx3, ctx_cycle):
    for ctx in (ctx1, ctx2, ctx3, ctx_cycle):
        _assert_scan_matches_pairs(ctx.fundamental())
    _assert_scan_matches_pairs(random_context(rng_for(50), 50).fundamental())


def test_scan_resolves_differences_at_the_margin():
    fm = _margin_matrix()
    _assert_scan_matches_pairs(fm)
    _, competes, above, below = next(competitor_scan(fm))
    # pairs (0, j) for j = 1..6
    assert competes[:6].tolist() == [False, True, False, False, False, True]
    assert (above[1], below[1]) == (2, 1)
    assert (above[5], below[5]) == (0, 3)


def test_scan_spans_several_blocks():
    n = 2 * rankreach.competition.SCAN_BLOCK + 5
    ctx = RankContext.from_graph(random_graph(rng_for(77), n, density=0.05))
    _assert_scan_matches_pairs(ctx.fundamental())
    # columns more than 50 apart differ by more than the noise: no verdict
    noise = rng_for(78).random((n, n)) * 0.1
    fm = FundamentalMatrix(x=noise + 0.002 * np.arange(n), alpha=0.85)
    _assert_scan_matches_pairs(fm)
    assert 0 < len(competitivity_graph(fm)) < n * (n - 1) // 2


def test_scan_of_single_node_has_no_pairs():
    fm = FundamentalMatrix(x=np.ones((1, 1)), alpha=0.85)
    assert list(competitor_scan(fm)) == []
    assert competitivity_graph(fm) == set()


def _unfiltered_scan(fm):
    """The scan without the row-head pass: every pair compared over whole
    columns, written out as the kernel was before it."""
    x = fm.x
    for i in range(fm.n - 1):
        d = x[:, i][:, None] - x[:, i + 1:]
        above, below = d > STRICT_MARGIN, d < -STRICT_MARGIN
        yield i, above.any(0) & below.any(0), above.argmax(0), below.argmax(0)


def _assert_scan_is_unfiltered(fm):
    """competitor_scan yields the same arrays as the unfiltered scan, the
    witness rows of non-competing pairs included."""
    got, want = list(competitor_scan(fm)), list(_unfiltered_scan(fm))
    assert len(got) == len(want) == max(fm.n - 1, 0)
    for row_got, row_want in zip(got, want):
        assert row_got[0] == row_want[0]
        for a, b in zip(row_got[1:], row_want[1:]):
            np.testing.assert_array_equal(a, b)


def test_row_head_pass_matches_unfiltered_scan_on_golden_graphs(ctx1, ctx2, ctx3, ctx_cycle):
    # g1 has non-competing pairs, whose arrays must match as well
    assert len(competitivity_graph(ctx1.fundamental())) < 3
    for ctx in (ctx1, ctx2, ctx3, ctx_cycle):
        _assert_scan_is_unfiltered(ctx.fundamental())


def test_row_head_pass_matches_unfiltered_scan_where_witnesses_sit_deep():
    head = rankreach.competition.SCAN_HEAD
    for seed in (1, 2):
        fm = RankContext.from_graph(preferential_graph(rng_for(seed), 250)).fundamental()
        _assert_scan_is_unfiltered(fm)
        deep = sum(int((np.maximum(above, below)[competes] >= head).sum())
                   for _, competes, above, below in competitor_scan(fm))
        assert deep > 1000
    fm = random_context(rng_for(51), 3 * head, density=0.05).fundamental()
    _assert_scan_is_unfiltered(fm)


def test_row_head_pass_matches_unfiltered_scan_on_a_path_and_an_in_star():
    # most witnesses sit below the head, so most pairs take the second pass
    n = 400
    labels = tuple(str(k) for k in range(n))
    for edges in ({(k, k + 1) for k in range(n - 1)}, {(k, 0) for k in range(1, n)}):
        g = DirectedGraph(labels=labels, edges=frozenset(edges))
        fm = RankContext.from_graph(g).fundamental()
        _assert_scan_is_unfiltered(fm)


def test_row_head_pass_with_one_side_in_the_head():
    # pairs (0, j): the difference of columns 0 and j is -x[:, j]
    head = rankreach.competition.SCAN_HEAD
    n = head + 8
    x = np.zeros((n, n))
    x[3, 1], x[head + 2, 1] = -1.0, 1.0    # above in the head, below deep
    x[5, 2] = -1.0                         # above in the head, no below
    x[1, 3], x[head + 4, 3] = 1.0, -1.0    # below in the head, above deep
    x[head, 4], x[head + 1, 4] = 1.0, -1.0  # both deep
    x[2, 5], x[4, 5] = -1.0, 1.0           # both in the head
    x[:, 6:] = rng_for(52).choice([0.0, 1.0, -1.0], size=(n, n - 6))
    fm = FundamentalMatrix(x=x, alpha=0.85)
    _assert_scan_is_unfiltered(fm)
    _, competes, above, below = next(competitor_scan(fm))
    assert competes[:5].tolist() == [True, False, True, True, True]
    assert above[:5].tolist() == [3, 5, head + 4, head + 1, 2]
    assert below[:5].tolist() == [head + 2, 0, 1, head, 4]


def test_every_verdict_goes_through_one_kernel(ctx2, monkeypatch):
    calls = []
    real = rankreach.competition._verdicts

    def counting(col_i, cols):
        calls.append(cols.shape[1])
        return real(col_i, cols)

    monkeypatch.setattr(rankreach.competition, "_verdicts", counting)
    fm = ctx2.fundamental()
    effective_competitors(fm, 0, 1)
    assert calls == [1]
    list(competitor_scan(fm))
    assert calls[1:] == [4, 3, 2, 1]
    competitivity_graph(fm)
    assert calls[5:] == [4, 3, 2, 1]


def test_cli_full_scan_makes_no_pairwise_calls(capsys, monkeypatch):
    calls = []
    real = rankreach.competition.effective_competitors

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    for module in (rankreach.competition, rankreach.cli):
        monkeypatch.setattr(module, "effective_competitors", counting)
    assert rankreach.cli.run(["competitors", str(GRAPH_DIR / "g2.edges")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 10
    assert calls == []


def _leaders_by_row_sort(fm, margin=STRICT_MARGIN):
    """The per-row argsort that leadership_group replaced."""
    if fm.n == 1:
        return frozenset({0}), {0: 0}
    leaders, witness = set(), {}
    for row_idx in range(fm.n):
        row = fm.x[row_idx]
        order = np.argsort(row)
        top, second = int(order[-1]), int(order[-2])
        if row[top] - row[second] > margin:
            leaders.add(top)
            witness.setdefault(top, row_idx)
    return frozenset(leaders), witness


def test_leadership_group_matches_row_sort():
    rng = rng_for(9090)
    matrices = [random_context(rng, int(rng.integers(2, 40))).fundamental()
                for _ in range(10)]
    m, d = STRICT_MARGIN, 1e-12
    crafted = np.zeros((7, 7))
    crafted[0, [2, 5]] = 0.5            # exact tie at the top: no leader
    crafted[1, 3], crafted[1, 4] = m + d, 0.0     # zero row apart from 3
    crafted[2, 4] = m - d               # gap just inside the margin: no leader
    crafted[3, 4] = m                   # gap exactly at the margin: no leader
    crafted[4, 3] = 2 * m + d           # leader 3 again, later row
    crafted[5, [1, 6]] = m + d, 0.0
    crafted[5, 0] = -1.0
    crafted[6, [0, 1]] = 0.25, 0.25 - m - d
    matrices.append(FundamentalMatrix(x=crafted, alpha=0.85))
    matrices.append(FundamentalMatrix(x=np.ones((1, 1)), alpha=0.85))
    # Rows are masked SCAN_BLOCK (64) at a time: rows 63/64 and 127/128
    # straddle the edges of the blocks.  Every other row leads on its own
    # diagonal; at n = 130 the last row leads node 63 from the last block.
    wide = {}
    for n in (65, 130):
        x = 0.5 * rng.random((n, n)) + np.eye(n)
        odd = [r for r in (63, 64, 127, 128) if r < n]
        x[odd] = 0.0
        for r in odd[::2]:
            x[r, [r, 0]] = 0.5          # exact tie at the top: no leader
            x[r + 1, r + 1] = m         # gap exactly at the margin: no leader
        if n - 1 not in odd:
            x[n - 1, 63] = 2.0
        wide[n] = FundamentalMatrix(x=x, alpha=0.85)
        matrices.append(wide[n])
    for fm in matrices:
        group = leadership_group(fm)
        leaders, witness = _leaders_by_row_sort(fm)
        assert group.leaders == leaders
        assert group.witness_rows == witness
    group = leadership_group(matrices[-4])
    assert group.leaders == {0, 1, 3}
    assert group.witness_rows == {0: 6, 1: 5, 3: 1}
    for n, fm in wide.items():
        expected = {r: r for r in range(n) if r not in (63, 64, 127, 128)}
        if n == 130:
            expected[63] = expected.pop(129)
        assert leadership_group(fm).witness_rows == expected


def test_leadership_group_copies_no_n_squared_buffer():
    # Rows are masked in blocks of SCAN_BLOCK, so the leaders of a held X
    # peak at block-sized temporaries, not at a copy of X.
    n = 600
    fm = RankContext.from_graph(random_graph(rng_for(600), n, density=0.02)).fundamental()
    tracemalloc.start()
    try:
        leadership_group(fm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


def _exact_x(g, alpha: Fraction) -> list[list[Fraction]]:
    """X = (1 - alpha)(I - alpha P_u)^{-1} in rational arithmetic, by
    Gauss-Jordan elimination, with P_u built from the edges and a uniform
    dangling distribution."""
    n = g.n
    a = [[Fraction(int(r == c)) for c in range(2 * n)] for r in range(n)]
    for r in range(n):
        # a dangling row follows the uniform u
        targets = [t for s, t in g.edges if s == r] or range(n)
        for t in targets:
            a[r][t] -= alpha / len(targets)
        a[r][n + r] = 1 - alpha
    for c in range(n):
        # I - alpha P_u is strictly diagonally dominant: no pivoting needed
        a[c] = [entry / a[c][c] for entry in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                factor = a[r][c]
                a[r] = [x - factor * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


@pytest.mark.parametrize("alpha", [1 - 1e-8, 1 - 1e-9])
def test_no_fabricated_verdicts_near_alpha_one(alpha):
    # Near alpha = 1 the float error in X exceeds STRICT_MARGIN, which stays
    # constant all the same: every reported verdict must hold in exact X.
    rng = rng_for(4242)
    graphs = [load_graph(name) for name in
              ("g1.edges", "g2.edges", "g3.edges", "two_cycle.edges", "isolated.json")]
    graphs += [random_graph(rng, int(rng.integers(2, 8)), 0.35, 0.2) for _ in range(15)]
    checked = 0
    for g in graphs:
        x = _exact_x(g, Fraction(alpha))
        fm = RankContext.from_graph(g, alpha=alpha).fundamental()
        for i, competes, above, below in competitor_scan(fm):
            for offset in np.flatnonzero(competes).tolist():
                j, k, l = i + 1 + offset, int(above[offset]), int(below[offset])
                assert x[k][i] > x[k][j] and x[l][i] < x[l][j], (g, i, j)
                checked += 1
        group = leadership_group(fm)
        for leader, row in group.witness_rows.items():
            assert all(x[row][leader] > v for m, v in enumerate(x[row]) if m != leader)
            checked += 1
    assert checked >= 20
