"""Checks on the benchmark's own parts: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("make", [gen.uniform_edges, gen.preferential_edges])
def test_same_seed_gives_same_bytes(make):
    first = gen.edge_list_text(make(200, 7))
    assert first == gen.edge_list_text(make(200, 7))
    assert first != gen.edge_list_text(make(200, 8))


@pytest.mark.parametrize("make", [gen.uniform_edges, gen.preferential_edges])
def test_every_node_is_on_some_line(make):
    edges = make(300, 3)
    assert {v for e in edges for v in e} == set(range(300))
    assert all(s != t for s, t in edges)


def test_uniform_graph_has_the_requested_shape():
    edges = gen.uniform_edges(1000, 1)
    out_deg = np.bincount([s for s, _ in edges], minlength=1000)
    assert (out_deg == 0).sum() == 100
    assert 7.5 < len(edges) / 1000 < 8.5


def _intervals_csv(x: np.ndarray) -> bytes:
    lines = ["node,lo,hi,lo_witness"]
    for k in range(x.shape[0]):
        lines.append(f"{k + 1},{x[:, k].min():.6f},{x[k, k]:.6f},{int(x[:, k].argmin()) + 1}")
    return ("\n".join(lines) + "\n").encode()


def test_interval_check_accepts_the_reference_and_rejects_a_change():
    edges = gen.uniform_edges(40, 2)
    x = ref.fundamental(40, edges, 0.85)
    good = _intervals_csv(x)
    assert ref.check_intervals(good, x) == []
    bad = good.replace(f"{x[3, 3]:.6f}".encode(), f"{x[3, 3] + 1e-5:.6f}".encode(), 1)
    assert bad != good and ref.check_intervals(bad, x)


def test_competitor_check_rejects_a_flipped_verdict():
    edges = gen.uniform_edges(30, 4)
    x = ref.fundamental(30, edges, 0.85)
    rows = ["i,j,competes,witness_k,witness_l"]
    for i in range(30):
        for j in range(i + 1, 30):
            d = x[:, i] - x[:, j]
            above, below = np.flatnonzero(d > 1e-9), np.flatnonzero(d < -1e-9)
            if above.size and below.size:
                rows.append(f"{i + 1},{j + 1},true,{above[0] + 1},{below[0] + 1}")
            else:
                rows.append(f"{i + 1},{j + 1},false,,")
    assert ref.check_competitors(("\n".join(rows) + "\n").encode(), x) == []
    k = next(k for k, row in enumerate(rows) if ",true," in row)
    rows[k] = ",".join(rows[k].split(",")[:2]) + ",false,,"
    assert ref.check_competitors(("\n".join(rows) + "\n").encode(), x)


def test_summary_reports_a_tail_percentile_only_with_ten_samples_beyond_it():
    assert set(run.summary([1.0] * 19)) == {"median", "count"}
    tail = run.summary([float(v) for v in range(100)])
    assert tail["count"] == 100 and tail["p90"] == 89.0


def test_sc_interval_check_compares_hulls_with_the_reference():
    edges = gen.uniform_edges(40, 5)
    x = ref.fundamental(40, edges, 0.85)
    values = ref.concentrated_values(x, np.arange(40), 0.01)
    lines = ["node,epsilon,lo,hi"] + [
        f"{k + 1},0.01,{values[:, k].min():.6f},{values[:, k].max():.6f}" for k in range(40)]
    good = ("\n".join(lines) + "\n").encode()
    assert ref.check_sc_interval(good, x) == []
    # The unconcentrated interval contains every hull, so it must not pass.
    lines[1] = f"1,0.01,{x[:, 0].min():.6f},{x[0, 0]:.6f}"
    assert ref.check_sc_interval(("\n".join(lines) + "\n").encode(), x)


def test_achieve_check_replays_lambda_on_the_reference():
    edges = gen.uniform_edges(40, 6)
    x = ref.fundamental(40, edges, 0.85)
    i, eps = 7, 1e-7
    w = int(np.argmin(x[:, i]))
    top, bot = ref.concentrated_values(x, [i, w], eps)[:, i]
    target = f"{(x[:, i].min() + x[i, i]) / 2:.6f}"
    lam = (float(target) - bot) / (top - bot)

    def stdout(lam_text):
        return f"node,target,achieved,lambda,epsilon\n8,{target},{target},{lam_text},{eps:g}\n"

    assert ref.check_achieve(stdout(f"{lam:.6f}").encode(), x, i, target) == []
    assert ref.check_achieve(stdout(f"{lam + 0.01:.6f}").encode(), x, i, target)


def test_certificate_check_rejects_values_off_the_reference():
    edges = gen.preferential_edges(60, 2)
    x = ref.fundamental(60, edges, 0.99)
    i, j, eps = 0, 1, 0.25
    d = x[:, i] - x[:, j]
    k, l = int(np.argmax(d)), int(np.argmin(d))
    high, low = ref.concentrated_values(x, [k, l], eps)
    leader = int(np.argmax(x[k]))
    ranked = ref.concentrated_values(x, [k], eps)[0]
    lo, hi = x[:, i].min(), x[i, i]
    top, bot = ref.concentrated_values(x, [i, int(np.argmin(x[:, i]))], eps)[:, i]
    lam = (0.5 * (lo + hi) - bot) / (top - bot)
    doc = {
        "leader_set": sorted(ref.leaders(x, ref.MARGIN_IN)),
        "witness_certs": [[i, j, k, l, eps, high[i], high[j], low[i], low[j]]],
        "leader_certs": [[leader, k, eps, ranked[leader], np.delete(ranked, leader).max()]],
        "achieve_certs": [[i, int(np.argmin(x[:, i])), 0.5 * (lo + hi), lam, eps,
                           0.5 * (lo + hi)]],
    }
    assert ref.check_certificates(doc, x) == []
    for kind, col in (("witness_certs", 5), ("leader_certs", 3), ("achieve_certs", 5)):
        bad = {**doc, kind: [list(doc[kind][0])]}
        bad[kind][0][col] *= 1 + 1e-6
        assert ref.check_certificates(bad, x), kind
