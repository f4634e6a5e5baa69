"""Benchmark runner: time one workload end to end, or trace it layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload conv_cold --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
wrapper installed.  ``--trace 1`` alternates untraced and traced phases and
reports the per-layer metrics; the spans are kept in memory and written to
``.perfbench/traces/<workload>.jsonl.gz`` when the run ends.  Each run prints
its environment, every metric with its unit, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The run exits non-zero, printing no result, when the program's sources are
not beside the benchmark.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

# BLAS threads are pinned before numpy is first imported, so that timings do
# not depend on how many cores a BLAS pool happens to grab.
import os  # noqa: E402

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: set-ups per run; the reported ``setup_s`` is the median
SETUPS = {"conv_cold": 5, "vae_cold": 5, "serve_warm": 3}
#: cold workloads: (artifact, scale) regenerated by each report
COLD = {"conv_cold": ("table4", "micro"), "vae_cold": ("table7", "small")}
#: least served requests in an untraced ``serve_warm`` run: ten beyond the 99th percentile
MIN_REQUESTS = 1000
#: stated tolerance: the traced layers' self times should cover this share of the traced wall time
MIN_COVERAGE = 0.9


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line: workload, seed, run length and whether to trace."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (a revision for checkouts without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str:
    """The checked-out commit read from ``.git``, or ``"none"`` outside a git work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(args: argparse.Namespace) -> dict[str, Any]:
    """What the numbers depend on besides the code: machine, toolchain, pins, seed."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_pins": THREAD_PINS,
        "git_rev": git_revision(ROOT),
        "src_sha256": source_digest(ROOT / "src"),
        "machine": platform.machine(),
    }


def make_workload(name: str, seed: int, workdir: Path, expected: dict[str, Any]) -> Any:
    """The workload object for ``name``."""
    from workloads import ColdReport, ServeWarm

    digests = expected["digests"]
    if name in COLD:
        artifact, scale = COLD[name]
        key = f"{artifact}@{scale}"
        return ColdReport(name, artifact, scale, seed, workdir, digests.get(key), expected["seed_pool"])
    return ServeWarm(seed, workdir, digests)


def end_to_end(sink: Any, setup_s: float) -> dict[str, float]:
    """The end-to-end metric values of one untraced run."""
    from spans import percentile, tail_percentile

    requests = sink.op_s
    # Below 20 requests (the cold workloads finish 4-6 reports a run) no percentile
    # above the median has ten samples beyond it; the median stands in.
    tail = max(tail_percentile(len(requests)) or 0.0, 50.0)
    return {
        "setup_s": setup_s,
        "report_s": sink.mean_s(),
        "cells_per_s": sink.cells / sink.wall_s,
        "cpu_s": statistics.fmean(sink.cpu_s),
        "request_p50_ms": 1000.0 * sink.windowed_median_s(),
        "request_p99_ms": 1000.0 * percentile(requests, tail),
        "success_rate": 1.0 - len(sink.failures) / max(sink.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_trace(tracer: Any, path: Path) -> None:
    """Write every span as one JSON line (times in ms from the first span), plus the counters."""
    spans = tracer.spans()
    origin = min((span.start for span in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        for span in spans:
            row = {
                "id": span.sid,
                "name": span.name,
                "start_ms": round(1000.0 * (span.start - origin), 4),
                "end_ms": round(1000.0 * (span.end - origin), 4),
                "parent": span.parent,
                "thread": span.thread,
                "ctx": span.ctx,
            }
            out.write(json.dumps(row) + "\n")
        out.write(json.dumps({"counters": tracer.counters}) + "\n")


def print_cost_table(metrics: dict[str, float]) -> None:
    """Measured time beside the computed cost of the conv2d and linear layers."""
    print("computed cost beside measured time (per report or request):")
    print(f"  {'layer':<8} {'measured ms':>12} {'computed GFLOP':>15} {'computed MB':>12} {'GFLOP/s':>9} {'FLOP/byte':>10}")
    for layer in ("conv2d", "linear"):
        gflop, mbytes = metrics[f"nn.{layer}_gflop"], metrics[f"nn.{layer}_mbytes"]
        intensity = 1e3 * gflop / mbytes if mbytes else 0.0
        print(
            f"  {layer:<8} {metrics[f'nn.{layer}_ms']:>12.3f} {gflop:>15.5f} {mbytes:>12.3f} "
            f"{metrics[f'nn.{layer}_gflops_per_s']:>9.3f} {intensity:>10.2f}"
        )


def traced_values(tracer: Any, totals: dict[str, Any], traced: Any, untraced: Any) -> tuple[dict[str, float], float]:
    """The per-layer metric values of one traced run, and its coverage ratio."""
    import layers

    ops = len(traced.op_s)
    covered = layers.coverage(tracer.spans())
    overhead = 0.0
    if traced.op_s and untraced.op_s:
        overhead = traced.mean_s() / untraced.mean_s()
    first_event = 1000.0 * statistics.median(traced.first_event_s) if traced.first_event_s else 0.0
    extra = {
        "serve.first_event_ms": first_event,
        "reporting.report_bytes": traced.report_bytes / max(ops, 1),
        "trace.overhead_ratio": overhead,
        "trace.coverage_ratio": covered,
    }
    return layers.layer_metrics(tracer, totals, ops, extra), covered


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its result line; 2 when the benchmark cannot run here."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_totals, valid_metric_name
    from workloads import Measurement, measure_traced

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    invalid = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] if not valid_metric_name(m["name"])]
    if invalid:
        print(f"perfbench: invalid metric names in BENCHMARK.json: {invalid}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy  # noqa: F401 - imported here so its load time is part of setup
    import repro.cli.serve  # noqa: F401
    import repro.reporting  # noqa: F401
    import layers

    import_s = time.perf_counter() - STARTED
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, args.seed, workdir, expected)
    values: dict[str, float] = {}
    try:
        samples = []
        for _ in range(SETUPS[args.workload]):
            start = time.perf_counter()
            workload.setup()
            samples.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(samples)
        if args.trace == 0:
            sink = Measurement()
            workload.run(args.seconds, sink, min_requests=MIN_REQUESTS)
            # an output mismatch found after the timed region counts as a failed operation
            sink.failures += workload.verify()
            if sink.op_s:
                values = end_to_end(sink, setup_s)
            attempted, failures = sink.attempted, sink.failures
            wanted = spec["end_to_end"]
        else:
            tracer = Tracer()
            traced, untraced = measure_traced(workload, args.seconds, tracer)
            failures = traced.failures + untraced.failures + workload.verify()
            attempted = traced.attempted + untraced.attempted
            totals = layer_totals(tracer.spans())
            if traced.op_s:
                values, covered = traced_values(tracer, totals, traced, untraced)
            write_trace(tracer, ROOT / ".perfbench" / "traces" / f"{args.workload}.jsonl.gz")
            wanted = spec["per_layer"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": environment(args)}, sort_keys=True))
    if args.trace == 1 and values:
        if covered < MIN_COVERAGE:
            print(f"WARNING traced layers account for {covered:.3f} of the traced wall time (< {MIN_COVERAGE})")
        for name, calls, total_ms, self_ms in layers.self_time_table(totals, len(traced.op_s)):
            print(f"  span {name:<32} calls/op {calls:>10.1f}  ms/op {total_ms:>10.3f}  self ms/op {self_ms:>10.3f}")
        print_cost_table(values)
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            print(f"{entry['name']:<36} {values[entry['name']]:>14.6g} {entry['unit']}")
        else:
            failures.append(f"metric {entry['name']} was not measured")
    for failure in failures:
        print(f"FAILED {failure}")
    result = {"correct": not failures, "attempted": max(attempted, 1), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
