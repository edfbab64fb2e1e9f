import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankreach import (
    DirectedGraph,
    DomainError,
    NumericalError,
    OracleMismatchError,
    RankContext,
    effective_competitors,
    explicit_inverse_check,
    leadership_group,
    monte_carlo_interval,
    observe_rank_swaps,
    sample_personalization_batch,
)
from rankreach.oracle import _gauss_jordan_inverse

from .golden import X1_EXACT
from .helpers import random_context, rng_for


def test_sampler_is_deterministic():
    a = sample_personalization_batch(7, 3, 1)[0]
    b = sample_personalization_batch(7, 3, 1)[0]
    assert np.array_equal(a, b)
    c = sample_personalization_batch(8, 3, 1)[0]
    assert not np.array_equal(a, c)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**63),
    n=st.integers(1, 20),
    concentration=st.sampled_from([0.01, 0.3, 1.0, 5.0]),
)
def test_samples_live_on_the_simplex(seed, n, concentration):
    v = sample_personalization_batch(seed, n, 1, concentration)[0]
    assert v.min() > 0.0
    assert abs(v.sum() - 1.0) <= 1e-12


def test_batches_are_prefix_stable():
    long = sample_personalization_batch(3, 4, 200)
    short = sample_personalization_batch(3, 4, 50)
    assert np.array_equal(long[:50], short)
    assert np.array_equal(sample_personalization_batch(3, 4, 1)[0], long[0])


def test_low_concentration_biases_to_vertices():
    vertex = sample_personalization_batch(11, 5, 500, concentration=0.01)
    assert (vertex.max(axis=1) > 0.999).mean() > 0.5
    near_uniform = sample_personalization_batch(11, 5, 500, concentration=1.0)
    assert near_uniform.max(axis=1).max() < 0.999


def test_sampler_domain_errors(ctx1):
    for concentration in (0.0, 5e-324):
        with pytest.raises(DomainError, match="concentration"):
            sample_personalization_batch(1, 3, 1, concentration)
    with pytest.raises(DomainError, match="node"):
        sample_personalization_batch(1, 0, 1)
    with pytest.raises(DomainError, match="seed"):
        sample_personalization_batch(-1, 3, 1)
    with pytest.raises(DomainError, match="concentration must be a number"):
        sample_personalization_batch(1, 3, 1, "1.0")
    with pytest.raises(DomainError, match="nonnegative"):
        sample_personalization_batch(1, 3, -1)
    # a shape numpy refuses outright, before allocating anything
    with pytest.raises(DomainError, match="too large"):
        sample_personalization_batch(1, 2, 10**20)
    with pytest.raises(DomainError, match="sample count"):
        monte_carlo_interval(ctx1, [0], 0, 1)
    one_node = RankContext.from_graph(DirectedGraph(labels=("a",), edges=frozenset()))
    with pytest.raises(DomainError, match="at least 2 nodes"):
        monte_carlo_interval(one_node, [0], 1, 1)
    for call in (
        lambda: sample_personalization_batch(1.5, 3, 2),
        lambda: sample_personalization_batch(1, 3, 2.5),
        lambda: sample_personalization_batch(True, 3, 2),
        lambda: monte_carlo_interval(ctx1, [0], 2.5, 1),
        lambda: observe_rank_swaps(ctx1, 0, 1, 4, 1.5),
    ):
        with pytest.raises(DomainError, match="integers"):
            call()


def test_monte_carlo_reports_the_first_violating_sample(g1, monkeypatch):
    # Node 1's interval narrowed to its lower half: the report must carry
    # the first sample above it, and that personalization must reproduce
    # the recorded value.
    ctx = RankContext.from_graph(g1)
    real = RankContext.interval

    def narrowed(self, i):
        iv = real(self, i)
        return dataclasses.replace(iv, hi=0.5 * (iv.lo + iv.hi)) if i == 1 else iv

    monkeypatch.setattr(RankContext, "interval", narrowed)
    kept, cut = monte_carlo_interval(ctx, [0, 1], 200, seed=3)
    assert kept.first_violation is None
    assert cut.violations > 0
    v, value = cut.first_violation
    batch = sample_personalization_batch(3, 3, 200)
    first = int(np.flatnonzero(ctx.rank_weights(batch.T)[1] > cut.hi + 1e-12)[0])
    assert v == tuple(batch[first].tolist())
    assert value > cut.hi
    assert abs(ctx.rank_weights(np.array(v))[1] - value) <= 1e-12


def test_monte_carlo_containment_g1(ctx1):
    [report] = monte_carlo_interval(ctx1, [1], 10_000, seed=17)
    assert report.violations == 0
    assert report.first_violation is None
    assert 0.3872 < report.observed_min
    assert report.observed_max < 0.4925
    assert report.samples == 10_000


def test_monte_carlo_containment_g3_hub(ctx3):
    [report] = monte_carlo_interval(ctx3, [3], 10_000, seed=23)
    assert report.violations == 0
    assert 0.3057 < report.observed_min
    assert report.observed_max < 0.5405


def test_monte_carlo_containment_two_cycle(ctx_cycle):
    [report] = monte_carlo_interval(ctx_cycle, [0], 5_000, seed=5)
    assert report.violations == 0
    assert 0.4594594595 < report.observed_min
    assert report.observed_max < 0.5405405406


def test_vertex_biased_sampling_approaches_supremum(ctx1):
    [report] = monte_carlo_interval(ctx1, [0], 10_000, seed=29, concentration=0.01)
    assert report.violations == 0
    assert abs(report.observed_max - X1_EXACT[0, 0]) <= 5e-3


def test_monte_carlo_reports_are_reproducible(ctx2):
    a = monte_carlo_interval(ctx2, [4], 2_000, seed=101)
    b = monte_carlo_interval(ctx2, [4], 2_000, seed=101)
    assert a == b
    # one batch serves every node: each report matches its single-node run
    together = monte_carlo_interval(ctx2, [0, 4], 2_000, seed=101)
    assert [r.node for r in together] == [0, 4]
    assert together[1] == a[0]


def test_rank_swaps_reference_pairs(ctx1, ctx_cycle):
    assert observe_rank_swaps(ctx1, 0, 2, 10_000, seed=3)
    assert not observe_rank_swaps(ctx1, 0, 1, 10_000, seed=3)
    assert observe_rank_swaps(ctx_cycle, 0, 1, 1_000, seed=3)
    with pytest.raises(DomainError, match="distinct"):
        observe_rank_swaps(ctx1, 1, 1, 10, seed=3)
    # a negative index would wrap round to the last node
    for j in (5, -1):
        with pytest.raises(DomainError, match="out of range"):
            observe_rank_swaps(ctx1, 0, j, 10, seed=3)
    with pytest.raises(DomainError, match="sample count"):
        observe_rank_swaps(ctx1, 0, 2, 0, seed=3)


def test_observed_swaps_imply_analytic_verdict():
    rng = rng_for(606060)
    for _ in range(10):
        ctx = random_context(rng, int(rng.integers(2, 13)))
        x = ctx.fundamental()
        for i in range(ctx.n):
            for j in range(i + 1, ctx.n):
                if observe_rank_swaps(ctx, i, j, 400, seed=9):
                    assert effective_competitors(x, i, j).competes


def test_no_rank_one_outside_leadership_group(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        leaders = leadership_group(ctx.fundamental()).leaders
        batch = sample_personalization_batch(77, ctx.n, 1_000, concentration=0.3)
        ranked = ctx.rank_weights(batch.T)
        assert set(np.argmax(ranked, axis=0).tolist()) <= set(leaders)


def test_sign_never_flips_for_non_competing_pairs(ctx1):
    # completeness corroboration for the dominated pair (0, 1)
    batch = sample_personalization_batch(123, 3, 1_000, concentration=0.3)
    ranked = ctx1.rank_weights(batch.T)
    assert (ranked[0, :] < ranked[1, :]).all()


def test_explicit_inverse_check_reference_networks(ctx1, ctx3):
    assert explicit_inverse_check(0.85, ctx1.p_u) <= 1e-12
    assert explicit_inverse_check(0.85, ctx3.p_u) <= 1e-12


def test_explicit_inverse_check_random_graphs():
    rng = rng_for(321)
    for _ in range(10):
        ctx = random_context(rng, int(rng.integers(2, 9)))
        assert explicit_inverse_check(0.85, ctx.p_u) <= 1e-10


def test_explicit_inverse_check_size_cap():
    rng = rng_for(11)
    ctx = random_context(rng, 12)
    with pytest.raises(DomainError, match="capped"):
        explicit_inverse_check(0.85, ctx.p_u)


def test_gauss_jordan_matches_library_inverse():
    rng = rng_for(88)
    m = np.eye(6) + 0.5 * rng.random((6, 6))
    assert np.abs(_gauss_jordan_inverse(m) - np.linalg.inv(m)).max() <= 1e-10
    with pytest.raises(NumericalError, match="singular"):
        _gauss_jordan_inverse(np.ones((3, 3)))


def _skew_fundamental(monkeypatch, skew):
    """Make every X that RankContext builds wrong by ``skew`` at (0, 0)."""
    real = RankContext.fundamental

    def skewed(ctx):
        fm = real(ctx)
        bad = fm.x.copy()
        bad[0, 0] += skew
        return type(fm)(x=bad, alpha=fm.alpha)

    monkeypatch.setattr(RankContext, "fundamental", skewed)


def test_mismatch_raises(ctx1, monkeypatch):
    _skew_fundamental(monkeypatch, 1e-6)
    with pytest.raises(OracleMismatchError) as err:
        explicit_inverse_check(0.85, ctx1.p_u)
    assert err.value.details["deviation"] >= 1e-7


def test_explicit_inverse_check_near_alpha_one(ctx1, monkeypatch):
    # Both routes err like n kappa u there, past INVERSE_DEVIATION_TOL, so
    # the oracle allows that much and no more.
    alpha = 1.0 - 1e-9
    assert explicit_inverse_check(alpha, ctx1.p_u) <= 1e-8
    _skew_fundamental(monkeypatch, 1e-4)
    with pytest.raises(OracleMismatchError) as err:
        explicit_inverse_check(alpha, ctx1.p_u)
    assert err.value.details["deviation"] >= 1e-5
