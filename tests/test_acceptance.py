"""End-to-end acceptance criteria.

Each test covers one criterion at its stated tolerance and prints a
PASS/FAIL line; run ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import contextlib
import time

import numpy as np
import pytest

from rankreach import (
    DomainError,
    PersonalizationVector,
    RankContext,
    achieve_value,
    competitivity_graph,
    effective_competitors,
    explicit_inverse_check,
    leadership_group,
    monte_carlo_interval,
    observe_rank_swaps,
    pagerank_power,
    verify_structure,
    witness_epsilon,
)

from .conftest import load_graph
from .golden import (
    COMPETING_G1,
    INTERVALS_G1,
    INTERVALS_G2,
    INTERVALS_G3,
    LEADERS_G2,
    LEADERS_G3,
    X1_4DP,
    X2_4DP,
    X3_4DP,
)
from .helpers import random_context, random_row_stochastic, rng_for

FIXTURES = (
    ("g1.edges", X1_4DP, INTERVALS_G1),
    ("g2.edges", X2_4DP, INTERVALS_G2),
    ("g3.edges", X3_4DP, INTERVALS_G3),
)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{name}]: FAIL")
        raise
    print(f"criterion {num:02d} [{name}]: PASS")


def _fresh_context(name):
    return RankContext.from_graph(load_graph(name))


def test_criterion_01_matrix_reproduction():
    with criterion(1, "fundamental matrix reproduction"):
        start = time.perf_counter()
        for name, expected, _ in FIXTURES:
            ctx = _fresh_context(name)
            fm = RankContext(ctx.alpha, ctx.p_u).fundamental()
            assert np.abs(fm.x - expected).max() <= 1e-4
        assert time.perf_counter() - start < 1.0


def test_criterion_02_interval_reproduction():
    with criterion(2, "interval reproduction"):
        checked = 0
        for name, _, expected in FIXTURES:
            ctx = _fresh_context(name)
            for node, (lo, hi) in expected.items():
                iv = ctx.interval(node)
                assert abs(iv.lo - lo) <= 1e-4
                assert abs(iv.hi - hi) <= 1e-4
                if lo == 0.0:
                    assert iv.lo <= 1e-12
                checked += 1
        assert checked == 14


def test_criterion_03_competitor_verdicts():
    with criterion(3, "competitor verdicts"):
        x = _fresh_context("g1.edges").fundamental()
        assert effective_competitors(x, 0, 2).competes
        assert not effective_competitors(x, 0, 1).competes
        assert not effective_competitors(x, 1, 2).competes


def test_criterion_04_leadership_groups():
    with criterion(4, "leadership groups"):
        assert leadership_group(
            _fresh_context("g2.edges").fundamental()).leaders == LEADERS_G2
        assert leadership_group(
            _fresh_context("g3.edges").fundamental()).leaders == LEADERS_G3


def test_criterion_05_solver_equivalence():
    with criterion(5, "power and direct solver equivalence"):
        start = time.perf_counter()
        contexts = [_fresh_context(name) for name, _, _ in FIXTURES]
        rng = rng_for(20260805)
        contexts += [
            random_context(rng, int(rng.integers(2, 51)),
                           density=0.2, dangling_frac=0.3)
            for _ in range(100)
        ]
        for ctx in contexts:
            v = PersonalizationVector.uniform(ctx.n)
            direct = ctx.rank(v)
            power = pagerank_power(ctx.alpha, ctx.p_u, v)
            assert np.abs(direct.pi - power.pi).max() <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_06_structure_suite():
    with criterion(6, "structure suite on random stochastic matrices"):
        rng = rng_for(20260806)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            fm = RankContext(0.85, random_row_stochastic(rng, n)).fundamental()
            report = verify_structure(fm)
            assert report.column_margins.min() > 0.0
        for name, _, _ in FIXTURES:
            report = _fresh_context(name).fundamental().report
            assert report.column_margins.min() > 0.0


def test_criterion_07_monte_carlo_containment():
    with criterion(7, "Monte-Carlo containment and endpoint approach"):
        start = time.perf_counter()
        for name, _, _ in FIXTURES:
            ctx = _fresh_context(name)
            for node in range(ctx.n):
                [plain] = monte_carlo_interval(ctx, [node], 10_000, seed=1000 + node)
                assert plain.violations == 0
                [biased] = monte_carlo_interval(
                    ctx, [node], 100_000, seed=2000 + node, concentration=0.01
                )
                assert biased.violations == 0
                assert abs(biased.observed_max - biased.hi) <= 1e-2
                assert abs(biased.observed_min - biased.lo) <= 1e-2
        assert time.perf_counter() - start < 60.0


def test_criterion_08_constructive_achievability():
    with criterion(8, "constructive achievability"):
        for name, _, _ in FIXTURES:
            ctx = _fresh_context(name)
            for node in range(ctx.n):
                iv = ctx.interval(node)
                for k in range(1, 6):
                    target = iv.lo + k * (iv.hi - iv.lo) / 6.0
                    result = achieve_value(ctx, node, target, tol=1e-6)
                    assert abs(result.achieved - target) <= 1e-6
                for target in (iv.lo, iv.hi, iv.lo - 0.05, iv.hi + 0.05):
                    with pytest.raises(DomainError):
                        achieve_value(ctx, node, target, tol=1e-6)


def test_criterion_09_oracle_equivalence():
    with criterion(9, "explicit-inverse oracle equivalence"):
        for name, _, _ in FIXTURES:
            ctx = _fresh_context(name)
            assert explicit_inverse_check(ctx.alpha, ctx.p_u) <= 1e-10
        rng = rng_for(20260809)
        for _ in range(50):
            ctx = random_context(rng, int(rng.integers(2, 9)),
                                 density=0.3, dangling_frac=0.3)
            assert explicit_inverse_check(ctx.alpha, ctx.p_u) <= 1e-10


def test_criterion_10_witness_certificates():
    with criterion(10, "witness certificates and swap soundness"):
        rng = rng_for(20260810)
        contexts = [_fresh_context(name) for name, _, _ in FIXTURES]
        contexts += [
            random_context(rng, int(rng.integers(2, 16)),
                           density=0.25, dangling_frac=0.3)
            for _ in range(50)
        ]
        for graph_idx, ctx in enumerate(contexts):
            x = ctx.fundamental()
            competing = competitivity_graph(x)
            for i, j in competing:
                cert = witness_epsilon(ctx, effective_competitors(x, i, j))
                assert cert.rank_high.pi[i] > cert.rank_high.pi[j]
                assert cert.rank_low.pi[i] < cert.rank_low.pi[j]
            for i in range(ctx.n):
                for j in range(i + 1, ctx.n):
                    if (i, j) not in competing:
                        assert not observe_rank_swaps(
                            ctx, i, j, 1_000, seed=graph_idx
                        )
        # sanity anchor: the reference network's one competing pair
        assert competitivity_graph(contexts[0].fundamental()) == COMPETING_G1
