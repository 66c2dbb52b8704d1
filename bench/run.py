"""heapquery benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: bounded-probe, heap-analytics, ingest-export (see bench/README.md).
One client in one thread sends each op after the previous one returned (a
closed loop) until ``--seconds`` have passed.  Every answer is checked; a
wrong answer aborts the run with exit code 1 and no result line.  An op that
raises counts as failed and the run goes on.

With ``--trace 0`` the result line holds the end-to-end metrics, measured
with tracing off.  With ``--trace 1`` every op runs twice, once traced and
once not, in alternating order; the result holds the per-layer metrics taken
from the traced runs and the tracing overhead (traced minus untraced time of
the same op).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller report, and the
spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up runs several times and reports its median; the last one is kept.
SETUP_REPEATS = 5
# A tail percentile needs this many samples beyond it.
TAIL_SAMPLES = 10
# See SpeedScale.
REFERENCE_KERNEL_MS = 2.2
CALIBRATION_INTERVAL_S = 0.05
CALIBRATION_BURST = 3
# A set-up is one long call with no bursts inside it; longer bursts on
# either side of it keep its scale factor as steady as an op's.
SETUP_CALIBRATION_BURST = 15

# Per-layer times: metric name -> span name.  Each is the median self time
# of one call (see per_layer for which calls count).
LAYER_TIMES = {
    f"{span}_ms": span
    for span in (
        "api.query",
        "subgraph.extract",
        "subgraph.validate",
        "query_engine.execute",
        "cypher_frontend.expand",
        "cypher_frontend.parse",
        "cypher_frontend.validate",
        "snapshot_io.load",
        "snapshot_io.save",
        "snapshot_io.graph_to_snapshot",
        "snapshot_io.export_csv",
        "snapshot_io.import_csv",
        "heap_model.run",
        "cli.query",
        "cli.export",
    )
}
GRAPH_PRODUCERS = ("subgraph.extract", "heap_model.run", "snapshot_io.import_csv")


class WrongAnswer(Exception):
    pass


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def input_digest(inputs: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def failure_name(exc: Exception) -> str:
    cause = exc.__cause__
    return f"{type(exc).__name__}({type(cause).__name__})" if cause is not None else type(exc).__name__


class SpeedScale:
    """Scales wall times measured in this run to the reference speed.

    On a virtual machine that shares its host, CPU speed can drift for tens
    of seconds at a time (by up to 1.7x on a 2-vCPU Intel Xeon VM), more
    than any bound the benchmark could fix.  So a fixed pure-Python loop
    that calls no heapquery code is timed in bursts between ops, at most
    every CALIBRATION_INTERVAL_S.  A time is multiplied by
    REFERENCE_KERNEL_MS over the median loop time of the bursts just before
    and just after it.  REFERENCE_KERNEL_MS is the loop's time on a quiet
    host (Intel Xeon, Python 3.11.7), so scaled times read as times on a
    quiet host.
    """

    def __init__(self):
        self.times: list[float] = []  # end of each burst
        self.bursts: list[list[float]] = []  # loop times of each burst, ms

    @staticmethod
    def kernel():
        table = {}
        for i in range(20000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        return table

    def calibrate(self, force: bool = False, runs: int = CALIBRATION_BURST) -> None:
        if not force and self.times and time.perf_counter() - self.times[-1] < CALIBRATION_INTERVAL_S:
            return
        burst = []
        for _ in range(runs):
            started = time.perf_counter()
            self.kernel()
            burst.append((time.perf_counter() - started) * 1000.0)
        self.times.append(time.perf_counter())
        self.bursts.append(burst)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for an interval; needs a burst before and one after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        return REFERENCE_KERNEL_MS / statistics.median(self.bursts[before] + self.bursts[after])

    def speed(self) -> float:
        """Host speed relative to the reference, over the whole run."""
        return REFERENCE_KERNEL_MS / median([ms for burst in self.bursts for ms in burst])


class Runner:
    def __init__(self, workload, tracer, trace: bool):
        self.workload = workload
        self.tracer = tracer
        self.trace = trace
        self.scale = SpeedScale()
        self.attempted = 0
        self.failures: Counter = Counter()
        # (start, end, end after the check, kind) of each untraced op that succeeded
        self.succeeded: list[tuple[float, float, float, str]] = []
        self.failed_spans: list[tuple[float, float]] = []  # (start, end) of ops that raised
        self.pairs: list[tuple[float, float]] = []  # (traced, untraced) raw ms of one op
        self.traced_ops: list[int] = []
        self.ops_run = 0
        self.reused = 0

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """Run set-up ``repeats`` times; (start, end) of each."""
        spans = []
        for _ in range(repeats):
            # Every set-up starts from the same state: the previous one's
            # objects freed and collected outside the timed region.
            self.workload.reset()
            gc.collect()
            self.scale.calibrate(force=True, runs=SETUP_CALIBRATION_BURST)
            started = time.perf_counter()
            self.workload.setup()
            spans.append((started, time.perf_counter()))
        self.scale.calibrate(force=True, runs=SETUP_CALIBRATION_BURST)
        return spans

    def timed(self, index: int, op, traced: bool) -> float | None:
        """Run one op; its raw latency in ms, or None if it raised."""
        self.scale.calibrate()
        self.tracer.enabled = traced
        self.tracer.op = index
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = self.tracer.call("op", self.workload.run_op, op)
        except Exception as exc:  # an engine error fails this op, not the run
            self.failed_spans.append((started, time.perf_counter()))
            name = failure_name(exc)
            if name not in self.failures:
                print(f"op {index} ({op['kind']}) failed: {name}: {exc}", file=sys.stderr)
            self.failures[name] += 1
            return None
        finally:
            self.tracer.enabled = False
        ended = time.perf_counter()
        if traced:
            self.tracer.enabled = True
            for snapshot in self.workload.probe_snapshots():
                self.tracer.call("subgraph.validate", snapshot.validate)
            self.tracer.enabled = False
        problem = self.workload.check(op, result)
        if problem is not None:
            raise WrongAnswer(f"op {index} ({op['kind']}): {problem}")
        if not self.trace:
            self.succeeded.append((started, ended, time.perf_counter(), op["kind"]))
        return (ended - started) * 1000.0

    def loop(self, seconds: float) -> float:
        """Closed loop over the ops until ``seconds`` have passed; the elapsed time.

        The loop stops only at the end of a cycle of the op mix, so every run
        attempts each op kind in the same share, and the share of ops that
        fail does not depend on where in a cycle the time ran out.
        """
        ops = self.workload.ops
        cycle = self.workload.round
        assert len(ops) % cycle == 0, (len(ops), cycle)
        seen_roots = set()
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        while index % cycle or time.perf_counter() < deadline or index == 0:
            op = ops[index % len(ops)]
            root = op.get("root")
            if root in seen_roots:
                self.reused += 1
            seen_roots.add(root)
            if self.trace:
                first = index % 2 == 0
                a = self.timed(index, op, traced=first)
                b = self.timed(index, op, traced=not first)
                self.traced_ops.append(index)
                if a is not None and b is not None:
                    self.pairs.append((a, b) if first else (b, a))
            else:
                self.timed(index, op, traced=False)
            index += 1
        self.ops_run = index
        elapsed = time.perf_counter() - started
        self.scale.calibrate(force=True)
        return elapsed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def end_to_end(runner: Runner, setup_spans: list[tuple[float, float]], elapsed: float, report: dict) -> dict:
    if not runner.succeeded:
        raise RuntimeError(f"no op succeeded: {dict(runner.failures)}")
    factor = runner.scale.factor
    raw = [(end - start) * 1000.0 for start, end, _, _ in runner.succeeded]
    scaled = [ms * factor(start, end) for ms, (start, end, _, _) in zip(raw, runner.succeeded)]
    busy = sum((done - start) * factor(start, done) for start, _, done, _ in runner.succeeded)
    busy += sum((end - start) * factor(start, end) for start, end in runner.failed_spans)
    raw_setup = [end - start for start, end in setup_spans]
    scaled_setup = [(end - start) * factor(start, end) for start, end in setup_spans]
    by_kind = defaultdict(list)
    for ms, (_, _, _, kind) in zip(scaled, runner.succeeded):
        by_kind[kind].append(ms)
    tail_ms, tail_pct = tail(scaled)
    report.update(
        op_samples=len(scaled),
        op_tail_percentile=round(tail_pct, 2),
        failed_ratio=runner.failed / runner.attempted,
        setup_samples_s=scaled_setup,
        op_p50_ms_by_kind={kind: median(v) for kind, v in sorted(by_kind.items())},
        speed=runner.scale.speed(),
        raw={
            "setup_s": median(raw_setup),
            "op_p50_ms": median(raw),
            "op_tail_ms": tail(raw)[0],
            "ops_per_s": len(raw) / elapsed,
        },
    )
    return {
        "setup_s": (median(scaled_setup), "s"),
        "op_p50_ms": (median(scaled), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (len(scaled) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner, report: dict) -> dict:
    tracer = runner.tracer
    spans = tracer.spans
    own = tracer.self_ms()
    in_op = [tracer.root_of(i).name == "op" for i in range(len(spans))]
    all_calls: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        all_calls[span.name].append(i)
    # Calls made inside ops where a layer has them; otherwise its set-up or
    # probe calls (such as extraction that fills a cache in set-up).
    by_name = defaultdict(list, {
        name: [i for i in indices if in_op[i]] or indices for name, indices in all_calls.items()})
    op_ms = sum(span.ms for span in spans if span.name == "op" and span.parent is None)

    def counts(name, key, ok_only=False):
        return [spans[i].counts[key] for i in by_name[name] if key in spans[i].counts and not (ok_only and spans[i].error)]

    extracts = [i for i in by_name["subgraph.extract"] if spans[i].counts.get("nodes")]
    loads = [i for i in by_name["snapshot_io.load"] if spans[i].error is None]
    commands = {index: runner.workload.ops[index % len(runner.workload.ops)].get("commands") for index in runner.traced_ops}
    runs = [i for i in by_name["heap_model.run"] if commands.get(spans[i].op)]
    graph_spans = [i for name in GRAPH_PRODUCERS for i in by_name[name] if spans[i].counts]
    overhead = median([t - u for t, u in runner.pairs])
    untraced = median([u for _, u in runner.pairs])

    metrics = {metric: (median([own[i] for i in by_name[span]]), "ms") for metric, span in LAYER_TIMES.items()}
    metrics.update({
        "subgraph.nodes_out": (median(counts("subgraph.extract", "nodes")), "count"),
        "subgraph.rels_out": (median(counts("subgraph.extract", "rels")), "count"),
        "subgraph.us_per_node_out": (median([own[i] * 1000.0 / spans[i].counts["nodes"] for i in extracts]), "us"),
        "subgraph.extract_share_pct": (
            100.0 * sum(own[i] for i in by_name["subgraph.extract"] if in_op[i]) / op_ms if op_ms else 0.0, "%"),
        "query_engine.rows_out": (median(counts("query_engine.execute", "rows", ok_only=True)), "count"),
        "query_engine.failed": (sum(1 for i in by_name["query_engine.execute"] if spans[i].error), "count"),
        "cypher_frontend.queries_per_op": (
            sum(1 for i in by_name["cypher_frontend.parse"] if in_op[i]) / max(len(runner.traced_ops), 1), "count"),
        "snapshot_io.json_mb": (median([spans[i].counts["bytes"] / 1e6 for i in loads]), "MB"),
        "snapshot_io.load_mb_per_s": (
            median([spans[i].counts["bytes"] / 1e6 / (spans[i].ms / 1000.0) for i in loads]), "MB/s"),
        "snapshot_io.csv_mb": (median([b / 1e6 for b in counts("snapshot_io.export_csv", "bytes")]), "MB"),
        "heap_model.commands": (median([commands[spans[i].op] for i in runs]), "count"),
        "heap_model.us_per_command": (median([own[i] * 1000.0 / commands[spans[i].op] for i in runs]), "us"),
        "property_graph.nodes": (median([spans[i].counts["nodes"] for i in graph_spans]), "count"),
        "property_graph.rels": (median([spans[i].counts["rels"] for i in graph_spans]), "count"),
        "trace.overhead_ms": (overhead, "ms"),
        "trace.overhead_pct": (100.0 * overhead / untraced if untraced else 0.0, "%"),
    })

    layers = {}
    for name, indices in sorted(all_calls.items()):
        op_self = sum(own[i] for i in indices if in_op[i])
        layers[name] = {
            "calls": len(indices),
            "self_ms_median": median([own[i] for i in indices]),
            "self_ms_total": sum(own[i] for i in indices),
            "share_of_op_time_pct": 100.0 * op_self / op_ms if op_ms else 0.0,
        }
    report.update(layers=layers, traced_ops=len(runner.traced_ops), overhead_pairs=len(runner.pairs))
    return metrics


def run(args, inputs: Path, workdir: Path, run_id: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tracing import Tracer
    from workloads import WORKLOADS

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs_sha256": input_digest(inputs), "env": environment(),
              "loop": "closed, 1 client, 1 thread"}
    tracer = Tracer()
    if args.trace:
        report["call_sites_missing"] = tracer.install()
        tracer.enabled = True
    workload = WORKLOADS[args.workload](inputs, workdir, tracer)

    runner = Runner(workload, tracer, bool(args.trace))
    tracer.op = "setup"
    setup_s = runner.setup(SETUP_REPEATS)
    tracer.enabled = False
    gc.collect()

    try:
        elapsed = runner.loop(args.seconds)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.uninstall()
    report.update(attempted=runner.attempted, failed=dict(runner.failures), elapsed_s=elapsed,
                  root_reuse_share=runner.reused / runner.ops_run)

    if args.trace:
        metrics = per_layer(runner, report)
        (OUT / f"spans-{run_id}.json").write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    else:
        metrics = end_to_end(runner, setup_s, elapsed, report)
    report["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    (OUT / f"report-{run_id}.json").write_text(json.dumps(report, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {report['loop']}")
    print(f"inputs sha256 {report['inputs_sha256']}")
    print("env " + "  ".join(f"{k} {v}" for k, v in report["env"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    if args.trace:
        print(f"{'span':34s} {'calls':>7s} {'self ms p50':>12s} {'self ms sum':>12s} {'% of op':>8s}")
        for name, row in report["layers"].items():
            print(f"{name:34s} {row['calls']:7d} {row['self_ms_median']:12.3f} "
                  f"{row['self_ms_total']:12.1f} {row['share_of_op_time_pct']:8.2f}")
        if report["call_sites_missing"]:
            print(f"warning: call sites not found, their spans are missing: {report['call_sites_missing']}")
    else:
        print(f"op_tail_ms is p{report['op_tail_percentile']} of {report['op_samples']} samples")
        print(f"times above are scaled to a quiet host; host speed was {report['speed']:.3f} of that; raw: "
              + "  ".join(f"{name} {value:.4f}" for name, value in report["raw"].items()))
        print(f"{'failed_ratio':34s} {report['failed_ratio']:14.4f} ratio  "
              f"({runner.failed} of {runner.attempted} ops raised) {report['failed'] or ''}")
    if workload.ops[0].get("root") is not None:
        print(f"root_reuse_share {report['root_reuse_share']:.3f}")
    result = {
        "correct": True,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heapquery benchmark")
    parser.add_argument("--workload", required=True, choices=["bounded-probe", "heap-analytics", "ingest-export"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"inputs-{run_id}-{os.getpid()}"
    workdir = OUT / f"work-{run_id}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "generate.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True, timeout=300,
        )
        return run(args, inputs, workdir, run_id)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
