from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import rankreach.cli
import rankreach.competition
from rankreach import (
    STRICT_MARGIN,
    CompetitionVerdict,
    DomainError,
    FundamentalMatrix,
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
from .helpers import random_context, random_graph, rng_for


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


def test_concentrated_family_queries_make_no_solve_once_x_is_held(g2, monkeypatch):
    ctx = RankContext.from_graph(g2)
    fm = ctx.fundamental()
    i, j = min(competitivity_graph(fm))
    verdict = effective_competitors(fm, i, j)
    group = leadership_group(fm)
    leader = min(group.leaders)
    iv = ctx.interval(0)
    solves = []
    real = scipy.linalg.lu_solve

    def counting(*args, **kwargs):
        solves.append(kwargs.get("trans", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_solve", counting)
    witness_epsilon(ctx, verdict)
    leadership_certificate(ctx, leader, group.witness_rows[leader])
    achieve_value(ctx, 0, 0.5 * (iv.lo + iv.hi))
    for node in range(ctx.n):
        competitivity_interval(ctx, node, 0.01)
    assert solves == []


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
        assert ctx.structure().column_margins.min() >= 1.0 - 2.0 * alpha - 1e-12


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
    for fm in matrices:
        group = leadership_group(fm)
        leaders, witness = _leaders_by_row_sort(fm)
        assert group.leaders == leaders
        assert group.witness_rows == witness
    group = leadership_group(matrices[-2])
    assert group.leaders == {0, 1, 3}
    assert group.witness_rows == {0: 6, 1: 5, 3: 1}


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
