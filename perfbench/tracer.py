"""Traced in-process pass: spans around the package's public functions.

    python perfbench/tracer.py OPS_JSON SPANS_CSV

OPS_JSON lists the pass's operations, each ``{"label", "argv"}`` for a CLI
call made through ``rankreach.cli.run`` or ``{"label", "certify": [graph,
alpha, seed]}`` for a library session.  The pass runs untraced, traced and
untraced again in this interpreter.  The traced pass replaces each wrapped
function at every module attribute that holds it, so calls between the
package's own modules are caught too.  Spans stay in memory and go to
SPANS_CSV at the end; one JSON object with both passes' walls and stdout
digests and the per-layer figures goes to stdout.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

import rankreach
import rankreach.cli
import session

# Public functions per layer, as "attribute" or "Class.method" of the module.
WRAPPED = {
    "graph": ["parse_edge_list", "parse_graph_json", "adjacency", "dangling_indicator"],
    "stochastic": ["row_stochastic", "patch_dangling", "solve_rank_system", "pagerank_solve"],
    "localization": ["fundamental_matrix", "verify_structure", "pr_interval",
                     "achieve_value", "RankContext.rank_weights"],
    "competition": ["effective_competitors", "competitivity_graph", "leadership_group",
                    "competitivity_interval", "witness_epsilon", "leadership_certificate"],
    "oracle": ["monte_carlo_interval", "sample_personalization_batch"],
    "cli": ["run"],
}
# numpy/scipy entry points the package calls, as (module, attribute).
KERNEL = {"linalg_solve": (np.linalg, "solve"),
          "lu_factor": (scipy.linalg, "lu_factor"),
          "lu_solve": (scipy.linalg, "lu_solve")}


def _rhs(b) -> int:
    return 1 if np.ndim(b) == 1 else np.shape(b)[1]


# What each span records beyond its timing, from (args, kwargs, result).
INFO = {
    "stochastic.solve_rank_system": lambda a, kw, r: _rhs(a[2]),
    "localization.RankContext.rank_weights": lambda a, kw, r: _rhs(a[1]),
    "competition.effective_competitors": lambda a, kw, r: int(r.competes),
    "competition.leadership_group": lambda a, kw, r: len(r.leaders),
    "oracle.sample_personalization_batch":
        lambda a, kw, r: (repr((a, sorted(kw.items()))), r.shape[0]),
    "kernel.linalg_solve": lambda a, kw, r: (a[0].shape[0], _rhs(a[1])),
    "kernel.lu_factor": lambda a, kw, r: (np.shape(a[0])[0], 0),
    "kernel.lu_solve": lambda a, kw, r: (a[0][0].shape[0], _rhs(a[1])),
}


def _info(info, args, kwargs, result):
    """A span's extra figure; None when the call's shape is not the expected one."""
    if info is None or result is None:
        return None
    try:
        return info(args, kwargs, result)
    except (IndexError, AttributeError, TypeError):
        return None


class Tracer:
    """Spans (id, parent, op, name, start_ns, end_ns, info) kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = ""
        self.restore: list = []

    def span(self, name: str, fn):
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[sid] = (sid, parent, self.op, name, start, end,
                                   _info(info, args, kwargs, result))

        return wrapper

    def install(self):
        """Wrap every listed function that exists; a missing one is skipped,
        so the tracer keeps working while the package is refactored."""
        modules = [m for k, m in sys.modules.items()
                   if k == "rankreach" or k.startswith("rankreach.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"rankreach.{layer}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                orig = getattr(owner, attr, None)
                if orig is None:
                    continue
                wrapped = self.span(f"{layer}.{qual}", orig)
                if owner_name:
                    self._swap(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._swap(mod, key, wrapped)
        for name, (owner, attr) in KERNEL.items():
            self._swap(owner, attr, self.span(f"kernel.{name}", getattr(owner, attr)))

    def _swap(self, owner, attr, value):
        self.restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self.restore):
            setattr(owner, attr, orig)
        self.restore.clear()

    def write(self, path: str):
        with open(path, "w") as f:
            f.write("id,parent,op,name,start_ns,end_ns\n")
            for sid, parent, op, name, start, end, _ in self.spans:
                f.write(f"{sid},{parent},{op},{name},{start},{end}\n")


def run_op(op: dict) -> tuple[float, str, int]:
    """Run one operation in process; returns (wall, stdout sha256, stdout bytes)."""
    t = time.perf_counter()
    if "certify" in op:
        graph, alpha, seed = op["certify"]
        _, ctx, _ = session.open_context(graph, alpha, t)
        result = session.certify(ctx, seed)
        wall = time.perf_counter() - t
        if result["problems"]:
            raise RuntimeError("; ".join(result["problems"][:3]))
        return wall, result["digest"], 0
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", newline="\n", write_through=True)
    saved, sys.stdout = sys.stdout, text
    try:
        code = rankreach.cli.run(list(op["argv"]))
    finally:
        sys.stdout = saved
        text.flush()
    wall = time.perf_counter() - t
    out = buf.getvalue()
    text.detach()
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return wall, hashlib.sha256(out).hexdigest(), len(out)


def layer_metrics(spans: list, stdout_bytes: int) -> dict:
    """Per-layer figures from the spans of one traced pass."""
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(int)
    for s in spans:
        by_name[s[3]].append(s)
        if s[1] >= 0:
            children[s[1]] += s[5] - s[4]

    def under(s, names) -> bool:
        p = s[1]
        while p >= 0:
            if by_id[p][3] in names:
                return True
            p = by_id[p][1]
        return False

    def pick(*names) -> list:
        return [s for name in names for s in by_name[name]]

    def incl(*names) -> float:
        """Time in the named spans, not counting one nested in another."""
        return sum(s[5] - s[4] for s in pick(*names) if not under(s, names)) / 1e9

    def info_sum(spans_) -> int:
        return sum(s[6] or 0 for s in spans_)

    rw = pick("localization.RankContext.rank_weights")
    certs = ("competition.witness_epsilon", "competition.leadership_certificate")
    cert_solves = sum(1 for s in rw if under(s, certs))
    mc_solved = info_sum(s for s in rw if under(s, ("oracle.monte_carlo_interval",)))
    batches = {s[6] for s in pick("oracle.sample_personalization_batch") if s[6]}
    distinct = sum(count for _, count in batches)
    pairs = pick("competition.effective_competitors")
    factors = [s[6] for s in pick("kernel.linalg_solve", "kernel.lu_factor") if s[6]]
    solves = [s[6] for s in pick("kernel.linalg_solve", "kernel.lu_solve") if s[6]]
    flops = sum(2 * n ** 3 / 3 for n, _ in factors) + sum(2 * n * n * k for n, k in solves)

    self_s = defaultdict(float)
    for s in spans:
        self_s[s[3].split(".")[0]] += (s[5] - s[4] - children[s[0]]) / 1e9

    m = {
        "graph.parse_s": incl("graph.parse_edge_list", "graph.parse_graph_json"),
        "graph.adjacency_s": incl("graph.adjacency"),
        "graph.adjacency_calls": len(pick("graph.adjacency")),
        "stochastic.build_s": incl("stochastic.row_stochastic", "stochastic.patch_dangling"),
        "stochastic.solve_s": incl("stochastic.solve_rank_system", "stochastic.pagerank_solve"),
        "stochastic.solve_rhs": info_sum(pick("stochastic.solve_rank_system")),
        "localization.x_s": incl("localization.fundamental_matrix"),
        "localization.structure_s": incl("localization.verify_structure"),
        "localization.interval_s": incl("localization.pr_interval"),
        "localization.rank_weights_s": incl("localization.RankContext.rank_weights"),
        "localization.rank_weights_calls": len(rw),
        "localization.rank_weights_rhs": info_sum(rw),
        "localization.achieve_s": incl("localization.achieve_value"),
        "localization.achieve_solves":
            sum(1 for s in rw if under(s, ("localization.achieve_value",))),
        "competition.pairs_s": incl("competition.effective_competitors",
                                    "competition.competitivity_graph"),
        "competition.pairs_calls": len(pairs),
        "competition.competing_frac": info_sum(pairs) / max(len(pairs), 1),
        "competition.leaders_s": incl("competition.leadership_group"),
        "competition.leaders_count":
            max((s[6] or 0 for s in pick("competition.leadership_group")), default=0),
        "competition.witness_s": incl("competition.witness_epsilon"),
        "competition.leader_cert_s": incl("competition.leadership_certificate"),
        "competition.cert_solves": cert_solves,
        "competition.cert_useful_frac": len(pick(*certs)) / max(cert_solves, 1),
        "competition.sc_interval_s": incl("competition.competitivity_interval"),
        "oracle.monte_carlo_s": incl("oracle.monte_carlo_interval"),
        "oracle.monte_carlo_calls": len(pick("oracle.monte_carlo_interval")),
        "oracle.sampling_s": incl("oracle.sample_personalization_batch"),
        "oracle.samples_solved": mc_solved,
        "oracle.sample_reuse_frac": distinct / mc_solved if mc_solved else 0.0,
        "cli.run_s": incl("cli.run"),
        "cli.stdout_bytes": stdout_bytes,
        "kernel.factorizations": len(factors),
        "kernel.factor_s": incl("kernel.linalg_solve", "kernel.lu_factor"),
        "kernel.triangular_solves": sum(k for _, k in solves),
        "kernel.lu_solve_s": incl("kernel.lu_solve"),
        "kernel.flops_est": flops,
    }
    for layer in ("graph", "stochastic", "localization", "competition", "oracle", "cli",
                  "kernel"):
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def run_pass(ops: list, tracer: Tracer | None = None) -> tuple[list, int]:
    """Run every operation once; a failure is recorded, not raised."""
    results, stdout_bytes = [], 0
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = f"{k}:{op['label']}"
        entry = {"label": op["label"]}
        try:
            entry["wall_s"], entry["sha256"], size = run_op(op)
            stdout_bytes += size
        except Exception as exc:  # noqa: BLE001 - the harness counts it as a failed op
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
    return results, stdout_bytes


def main(ops_path: str, spans_path: str) -> int:
    ops = json.loads(open(ops_path).read())
    # Untraced passes on both sides of the traced one, so warm-up and drift
    # do not land on the tracing overhead.
    report = {"untraced": run_pass(ops)[0]}
    tracer = Tracer()
    tracer.install()
    try:
        report["traced"], stdout_bytes = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    report["untraced_again"] = run_pass(ops)[0]
    tracer.write(spans_path)
    report["spans"] = len(tracer.spans)
    report["layers"] = layer_metrics(tracer.spans, stdout_bytes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
