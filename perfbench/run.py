"""End-to-end training-input benchmark for the PCR stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_cold --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root.
``--trace 0`` measures with tracing off and prints every end-to-end metric;
``--trace 1`` runs the workload twice with the same seed -- tracing off,
then on -- prints a per-layer attribution table built from the traced
run's spans (self time = span time minus nested spans), the tracing
overhead (the gap between the two runs), writes the Chrome trace under
``.perfbench/traces/``, and prints every per-layer metric.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``failed`` counts exceptions, typed errors and output-check mismatches;
the exit code is 1 when any occurred, 2 when the checkout has no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="dataset sizes; 'tiny' is for the self-test only",
    )
    return parser.parse_args(argv)


def _per_layer(bench, workload: str, seed: int, seconds: float):
    """Untraced run, then traced run; per-layer metrics come from the latter."""
    from attribution import SpanLog, SpanTotals, format_table, self_times

    untraced = bench.run(workload, seed, seconds, setups=1)
    log = SpanLog()
    log.tracer.clear()
    log.tracer.set_enabled(True)
    bench.span_log = log
    try:
        traced = bench.run(workload, seed, seconds, setups=1)
    finally:
        log.tracer.set_enabled(False)
        bench.span_log = None
    log.drain()
    events = log.events
    timed = self_times(events, traced.windows)
    everything = self_times(events)
    wall = sum(end - start for start, end in traced.windows)

    def span(name: str) -> SpanTotals:
        return timed.get(name, SpanTotals())

    fetch, batch = span("loader.fetch"), span("bench.get_record_batch")
    rate = traced.rate_metric
    overhead = 100.0 * (untraced.end_to_end[rate] / traced.end_to_end[rate] - 1.0)
    traced.layers.update(
        {
            "codecs.decode.s": span("loader.decode").self_s + span("decode.batch").self_s,
            "serving.client.fetch_s": fetch.total_s + batch.total_s,
            "serving.client.fetch_calls": fetch.calls + batch.calls,
            "serving.cluster.batch_s": batch.total_s,
            "pipeline.loader.collate_s": span("loader.collate").total_s,
            "training.loop.step_s": span("bench.train_step").total_s,
            "trace.overhead_pct": overhead,
        }
    )
    print(format_table(f"[{workload}] timed part, seed {seed}", timed, wall))
    setup_only = {
        name: entry for name, entry in everything.items()
        if name in ("bench.convert", "bench.server_start")
    }
    print(format_table(f"[{workload}] set-up (all set-ups of the traced run)", setup_only,
                       sum(entry.total_s for entry in setup_only.values())))
    if workload.startswith("train"):
        accounted = sum(span(n).total_s for n in ("loader.wait", "loader.collate", "bench.train_step"))
        print(
            f"  loader wait + collate + train step = {accounted:.3f} s of {wall:.3f} s epoch wall "
            f"({100.0 * accounted / wall:.1f}%); digest check {span('bench.check').total_s:.3f} s"
        )
    print(
        f"  tracing overhead: {rate} untraced {untraced.end_to_end[rate]:.4g}, "
        f"traced {traced.end_to_end[rate]:.4g} ({overhead:+.1f}%)"
    )
    traces = OUT_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = log.export_chrome(traces / f"trace-{workload}-seed{seed}.json")
    print(f"  chrome trace: {path.relative_to(ROOT)}")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.errors = untraced.errors + traced.errors
    return traced


def stop_helper_processes(timeout: float = 10.0) -> None:
    """Wait for every child process, then stop multiprocessing's resource tracker.

    ``multiprocessing`` starts the tracker on first use of a spawn context or
    of shared memory.  Left alone, it outlives this process for a moment
    after exit while it cleans up.  Closing its pipe and reaping it here
    means no process the benchmark started is left when the command returns.
    """
    gc.collect()  # finalizers that unlink shared memory still talk to the tracker
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)  # end of file on its pipe: it cleans up and exits
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)  # it ignores SIGINT and SIGTERM
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return _main(args)
    finally:
        stop_helper_processes()


def _main(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"perfbench: {src}/repro or {SPEC_PATH.name} missing; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from harness import Bench
    from sysinfo import StealMeter, environment

    steal = StealMeter()

    bench = Bench(OUT_DIR / "work", size=args.size)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    if args.trace:
        result = _per_layer(bench, args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
        values = result.layers
    else:
        result = bench.run(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
        values = result.end_to_end
    print("environment " + json.dumps({**environment(), "cpu_steal_pct": steal.percent()},
                                      sort_keys=True))
    print("inputs " + json.dumps(result.inputs, sort_keys=True))
    print("regime " + json.dumps(result.regime, sort_keys=True))
    print(f"fetch latency samples: {result.latency_samples}")
    print(f"fetch p90 = {result.layers['serving.client.fetch_p90_ms']:.6g} ms, "
          f"p99 = {result.layers['serving.client.fetch_p99_ms']:.6g} ms")
    metrics = {}
    for entry in declared:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} = {value:.6g} {entry['unit']}")
    for error in result.errors[:20]:
        print(f"error: {error}")
    if len(result.errors) > 20:
        print(f"error: ... {len(result.errors) - 20} more")
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print(f"error_rate = {error_rate:.6g} ({result.failed} failed of {result.attempted} attempted)")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = result.failed == 0 and not result.errors and result.attempted > 0 and finite
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
