#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the rankreach pipeline.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 15 --trace 0

Run it from the repository root.  It generates the workload's graphs from
``--seed``, then runs the real CLI (``python -m rankreach.cli`` with
``PYTHONPATH=src``) and library sessions in fresh interpreters, one call
at a time (a closed loop with one client).  Every output is checked; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before it
and ``.bench_out/`` hold the details: per-operation medians, the graph
facts, the environment and, for traced runs, the spans.

``--seal`` runs one pass of every workload at the default seed and writes
the stdout digests the checks compare against to ``digests.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401 - loads scipy's BLAS for blas_record

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
LAYER_MAP = HERE / "layers.json"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import reference as ref  # noqa: E402

DEFAULT_SEED = 0
WORKLOADS = ("scan", "build", "sample", "certify")
SETUP_SESSIONS = 3
VERIFY_SAMPLES = 2000
# A hang or a size cliff becomes a failed operation, and the run still
# ends well inside the three minutes a run may take.
OP_DEADLINE_S = 45.0
RUN_DEADLINE_S = 150.0


class Deadline:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)


def spawn(cmd: list[str], stdout_path: Path, deadline: Deadline, env_path: str,
          limit: float = OP_DEADLINE_S) -> dict:
    """Run one child to completion, killing it after ``limit`` seconds or at
    the run deadline; wall time, exit code and peak RSS."""
    timeout = min(limit, deadline.left())
    if timeout <= 0:
        return {"wall_s": 0.0, "rss_mb": 0.0, "error": "run deadline passed"}
    env = dict(os.environ, PYTHONPATH=env_path)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    # wait4 reaped the child; tell Popen so it never waits on the pid again.
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    rec = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}
    if expired.is_set():
        rec["error"] = f"killed at the {timeout:.0f} s deadline"
    elif code != 0:
        rec["error"] = f"exit code {code}: {stdout_path.with_suffix('.err').read_text()[-300:]}"
    return rec


def summary(values: list[float]) -> dict:
    """Median, count, and the highest percentile with ten samples beyond it."""
    s = sorted(values)
    out = {"median": statistics.median(s), "count": len(s)}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(s) * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = s[math.ceil(p / 100 * len(s)) - 1]
            break
    return out


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s"):
        return "s"
    if layer_metric.endswith("_frac"):
        return "ratio"
    return "flop" if layer_metric.endswith("flops_est") else "count"


def blas_record() -> dict:
    """BLAS vendor and thread count of the numpy and scipy builds."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"name": info.get("name"), "version": info.get("version")}
    site = Path(np.__file__).resolve().parent.parent
    for owner, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas*", "scipy_openblas_get_num_threads"),
    ):
        for lib in glob.glob(str(site / pattern)):
            try:
                rec[f"{owner}_threads"] = getattr(ctypes.CDLL(lib), symbol)()
            except (OSError, AttributeError):
                pass
    return rec


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "rankreach").rglob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "clients": 1,
    }


class Workload:
    """Generated graphs, reference values and the operations of one pass."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.alpha = 0.99 if name == "certify" else 0.85
        n = {"scan": 600, "build": 2000, "sample": 300, "certify": 1000}[name]
        if name == "certify":
            edges = gen.preferential_edges(n, seed)
        else:
            edges = gen.uniform_edges(n, seed)
        self.graph = self._write("main", edges)
        self.x = ref.fundamental(n, edges, self.alpha)
        rng = np.random.Generator(np.random.Philox(seed))
        self.facts = {"main": ref.graph_facts(n, edges, self.x, rng)}
        if name == "build":
            big = gen.uniform_edges(3000, seed, salt=2)
            self.big = self._write("big", big)
            self.pi = ref.pagerank(3000, big, self.alpha)
            self.facts["big"] = {"n": 3000, "edges": len(big),
                                 "dangling": 3000 - len({s for s, _ in big})}
            wide = np.flatnonzero(np.diag(self.x) - self.x.min(axis=0) > 1e-3)
            self.achieve_node = str(int(rng.choice(wide)) + 1)
            self.pair = tuple(sorted(rng.choice(n, 2, replace=False).tolist()))

    def _write(self, tag: str, edges) -> str:
        path = self.work / f"{tag}.edges"
        path.write_text(gen.edge_list_text(edges))
        return str(path.relative_to(ROOT))

    def ops(self) -> list[dict]:
        """One pass: label, then argv (or a function of the pass's earlier
        outputs) and check(stdout, argv) for a CLI call, or session args."""
        g, x = self.graph, self.x
        if self.name == "scan":
            return [
                {"label": "intervals", "argv": ["intervals", g],
                 "check": lambda out, argv: ref.check_intervals(out, x)},
                {"label": "leaders", "argv": ["leaders", g],
                 "check": lambda out, argv: ref.check_leaders(out, x)},
                {"label": "competitors", "argv": ["competitors", g],
                 "check": lambda out, argv: ref.check_competitors(out, x)},
            ]
        if self.name == "build":
            node, (i, j) = self.achieve_node, self.pair

            def achieve_argv(outputs):
                target = ref.midpoint_target(outputs["intervals"], node)
                return ["achieve", "--node", node, "--target", target, g]

            return [
                {"label": "intervals", "argv": ["intervals", g],
                 "check": lambda out, argv: ref.check_intervals(out, x)},
                {"label": "leaders", "argv": ["leaders", g],
                 "check": lambda out, argv: ref.check_leaders(out, x)},
                {"label": "achieve", "argv": achieve_argv,
                 "check": lambda out, argv: ref.check_achieve(out, x, int(node) - 1, argv[4])},
                {"label": "pair", "argv": ["competitors", "--pair", f"{i + 1},{j + 1}", g],
                 "check": lambda out, argv: ref.check_competitors(out, x, pair=(i, j))},
                {"label": "pagerank", "argv": ["pagerank", self.big],
                 "check": lambda out, argv: ref.check_pagerank(out, self.pi)},
            ]
        if self.name == "sample":
            seed = str(self.seed)
            return [
                {"label": "verify",
                 "argv": ["verify", "--seed", seed, "--samples", str(VERIFY_SAMPLES), g],
                 "check": lambda out, argv: ref.check_verify(out, x, VERIFY_SAMPLES, self.seed)},
                {"label": "sc_interval", "argv": ["sc-interval", g],
                 "check": lambda out, argv: ref.check_sc_interval(out, x)},
            ]
        return [{"label": "certify", "session": ["certify", g, str(self.alpha), str(self.seed)]}]

    def check_session(self, doc: dict) -> list[str]:
        """Package-independent checks on the X a library session built."""
        n = self.x.shape[0]
        if doc["n"] != n:
            return [f"session built n={doc['n']}, expected {n}"]
        if abs(doc["x_trace"] - np.trace(self.x)) > 1e-9 * n or doc["x_min"] < -1e-12 \
                or doc["x_row_sum_err"] > 1e-10:
            return ["session X off the reference"]
        return []


class Runner:
    """Runs operations as children, checks them, and tallies failures."""

    def __init__(self, wl: Workload, sealed: dict | None):
        self.wl = wl
        self.sealed = sealed
        self.deadline = Deadline()
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_mb = 0.0
        self.setups: list[dict] = []
        self.seq = 0

    def fail(self, label: str, *whys: str):
        """Count one failed operation; keep its first reasons for the report."""
        if whys:
            self.failed += 1
            self.problems.extend(f"{label}: {why}" for why in whys[:3])
            del self.problems[20:]

    def child(self, label: str, cmd: list[str],
              limit: float = OP_DEADLINE_S) -> tuple[dict, bytes]:
        self.seq += 1
        path = self.wl.work / f"{self.seq:04d}-{label}.out"
        rec = spawn(cmd, path, self.deadline, str(SRC), limit)
        self.rss_mb = max(self.rss_mb, rec["rss_mb"])
        out = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        path.with_suffix(".err").unlink(missing_ok=True)
        return rec, out

    def session(self, args: list[str], label: str) -> dict | None:
        """A library session in a fresh interpreter; its X is checked here."""
        rec, out = self.child(label, [sys.executable, str(HERE / "session.py"), *args])
        self.attempted += 1
        if "error" in rec:
            self.fail(label, rec["error"])
            return None
        try:
            doc = json.loads(out)
            doc["wall_s"] = rec["wall_s"]
            self.fail(label, *self.wl.check_session(doc))
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(label, f"unreadable session report: {exc!r}")
            return None
        return doc

    def setup_sessions(self):
        for _ in range(SETUP_SESSIONS):
            doc = self.session(["setup", self.wl.graph, str(self.wl.alpha)], "setup")
            if doc:
                self.setups.append(doc)

    def digest_problems(self, label: str, digest: str, check) -> list[str]:
        """Same bytes on every repetition; full checks on the first one."""
        if label in self.first:
            return [] if digest == self.first[label] else ["output differs between repetitions"]
        self.first[label] = digest
        try:
            problems = list(check())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unparseable output: {exc}"]
        if self.sealed is not None:
            if self.sealed.get(self.wl.name, {}).get(label) != digest:
                problems.append("stdout digest differs from the sealed default-seed digest")
        return problems

    def run_pass(self) -> list[dict]:
        """Run the workload's operations once, in order; one record per op."""
        records = []
        outputs = {}
        for op in self.wl.ops():
            label = op["label"]
            if "session" in op:
                doc = self.session(op["session"], label)
                if doc is None:
                    continue
                self.attempted += doc["queries"]
                for why in doc["problems"]:
                    self.fail(label, why)
                self.fail(label, *self.digest_problems(
                    label, doc["digest"], lambda: ref.check_certificates(doc, self.wl.x)))
                records.append({"label": label, "wall_s": doc["wall_s"], "sha256": doc["digest"],
                                "session": op["session"], "queries": doc["queries"],
                                "query_s": doc["query_s"]})
                continue
            self.attempted += 1
            try:
                argv = op["argv"](outputs) if callable(op["argv"]) else op["argv"]
            except (KeyError, ValueError, IndexError) as exc:
                self.fail(label, f"cannot form arguments: {exc}")
                continue
            rec, out = self.child(label, [sys.executable, "-m", "rankreach.cli", *argv])
            if "error" in rec:
                self.fail(label, rec["error"])
                continue
            outputs[label] = out
            digest = hashlib.sha256(out).hexdigest()
            self.fail(label, *self.digest_problems(label, digest, lambda: op["check"](out, argv)))
            records.append({"label": label, "wall_s": rec["wall_s"], "sha256": digest,
                            "argv": argv})
        return records


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: setup sessions, then passes until ``seconds`` have gone."""
    runner.setup_sessions()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if runner.deadline.left() < OP_DEADLINE_S:
            break
        passes.append(runner.run_pass())
    per_op: dict[str, list[float]] = {}
    for records in passes:
        for r in records:
            per_op.setdefault(r["label"], []).append(r["wall_s"])
    complete = [p for p in passes if len(p) == len(runner.wl.ops())]
    walls = [sum(r["wall_s"] for r in p) for p in complete] or [math.nan]
    records = [r for p in passes for r in p]
    if runner.wl.name == "certify":
        done, busy = sum(r["queries"] for r in records), sum(r["query_s"] for r in records)
    else:
        done, busy = len(records), sum(r["wall_s"] for r in records)
    setup = [s["setup_s"] for s in runner.setups] or [math.nan]
    x_build = [t for s in runner.setups for t in s["x_build_s"]] or [math.nan]
    metrics = {
        "setup_s": statistics.median(setup),
        "x_build_s": statistics.median(x_build),
        "wall_s": statistics.median(walls),
        "ops_per_s": done / busy if busy else math.nan,
        "peak_rss_mb": runner.rss_mb,
    }
    details = {
        "passes": len(passes),
        "pass_walls_s": walls,
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "x_build_s": summary(x_build),
        "per_op_s": {f"{k}_s": summary(v) for k, v in per_op.items()},
    }
    if runner.wl.name == "certify" and busy:
        details["certs_per_s"] = f"{done / busy:.6g} 1/s ({done} queries in {busy:.6g} s)"
    return {"metrics": metrics, "details": details}


def trace(runner: Runner, spans_path: Path) -> dict:
    """Traced run: one pass of children, then the same pass in process,
    untraced and traced, in one interpreter (see tracer.py)."""
    records = runner.run_pass()
    if len(records) != len(runner.wl.ops()):
        return {"metrics": {}, "details": {"error": "the untraced pass failed"}}
    ops = []
    for r in records:
        if "session" in r:
            _, graph, alpha, seed = r["session"]
            ops.append({"label": r["label"], "certify": [graph, float(alpha), int(seed)]})
        else:
            ops.append({"label": r["label"], "argv": r["argv"]})
    ops_path = runner.wl.work / "ops.json"
    ops_path.write_text(json.dumps(ops))
    cmd = [sys.executable, str(HERE / "tracer.py"), str(ops_path), str(spans_path)]
    # The tracer makes three in-process passes, so one call's deadline is
    # too short for it; the run's own deadline still bounds it.
    rec, out = runner.child("trace", cmd, limit=RUN_DEADLINE_S)
    runner.attempted += 1
    if "error" in rec:
        runner.fail("trace", rec["error"])
        return {"metrics": {}, "details": {"error": rec["error"]}}
    try:
        report = json.loads(out)
    except ValueError as exc:
        runner.fail("trace", f"unreadable tracer report: {exc}")
        return {"metrics": {}, "details": {"error": str(exc)}}
    want = {r["label"]: r["sha256"] for r in records}
    for kind in ("untraced", "untraced_again", "traced"):
        for r in report[kind]:
            runner.attempted += 1
            if "error" in r:
                runner.fail(f"{kind} {r['label']}", r["error"])
            elif r["sha256"] != want[r["label"]]:
                runner.fail(f"{kind} {r['label']}", "in-process stdout differs from the child's")

    def total(kind):
        return sum(r.get("wall_s", 0.0) for r in report[kind])

    in_process = (total("untraced") + total("untraced_again")) / 2
    layers = dict(report["layers"])
    layers["process.spawn_s"] = sum(r["wall_s"] for r in records) - in_process
    details = {
        "spans": report["spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_in_process_wall_s": in_process,
        "traced_wall_s": total("traced"),
        "trace_overhead_s": total("traced") - in_process,
        "child_wall_s": sum(r["wall_s"] for r in records),
    }
    return {"metrics": layers, "details": details}


def seal():
    """Write the default-seed stdout digests of one pass of every workload."""
    sealed = {}
    for name in WORKLOADS:
        work = OUT / f"seal-{name}"
        work.mkdir(parents=True, exist_ok=True)
        runner = Runner(Workload(name, DEFAULT_SEED, work), sealed=None)
        records = runner.run_pass()
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        sealed[name] = {r["label"]: r["sha256"] for r in records}
        print(f"{name}: {sealed[name]}")
    DIGESTS.write_text(json.dumps(sealed, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seal", action="store_true",
                    help="write digests.json from the default seed and exit")
    args = ap.parse_args(argv)
    if not (SRC / "rankreach" / "__init__.py").is_file():
        print(f"rankreach sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seal:
        return seal()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sealed = json.loads(DIGESTS.read_text()) if args.seed == DEFAULT_SEED else None

    env = environment()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    wl = Workload(args.workload, args.seed, work)
    runner = Runner(wl, sealed)
    if args.trace:
        result = trace(runner, work / "spans.csv")
    else:
        result = measure(runner, args.seconds)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {json.dumps(env)}")
    for tag, facts in wl.facts.items():
        print(f"graph {tag}: {json.dumps(facts)}")
    details = dict(result["details"])
    for name, s in details.pop("per_op_s", {}).items():
        tail = "".join(f", {k} {v:.6g} s" for k, v in s.items() if k.startswith("p"))
        print(f"call {name} = {s['median']:.6g} s (median of {s['count']}{tail})")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")
    if args.trace:
        layer_map = json.loads(LAYER_MAP.read_text())
        for name, value in sorted(result["metrics"].items()):
            role = layer_map.get(name, {})
            print(f"layer {name} = {value:.6g} {unit_of(name)}  moves {role.get('moves', '-')} "
                  f"on {role.get('on', '-')}; flat on {role.get('flat_on', '-')}")
    else:
        for m in wanted:
            print(f"metric {m['name']} = {result['metrics'][m['name']]:.6g} {m['unit']}")
    print(f"fail_frac = {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    for problem in runner.problems:
        print(f"problem: {problem}")

    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"], math.nan)
        metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
    finite = all(v["value"] is not None for v in metrics.values())
    line = {"correct": runner.failed == 0 and finite,
            "attempted": max(runner.attempted, 1), "failed": runner.failed,
            "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**line, "environment": env, "graphs": wl.facts, "details": result["details"],
         "all_metrics": result["metrics"], "problems": runner.problems}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
