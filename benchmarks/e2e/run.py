#!/usr/bin/env python3
"""The repository's end-to-end benchmark: four workloads, one per-layer ledger.

    python3 benchmarks/e2e/run.py --seed N [--workloads a,b] [--trace 0|1]
                                  [--seconds S] [--smoke] [--out DIR]

Generates its own inputs from the seed, runs each selected workload in a
fresh child interpreter (so memos and resident runs never leak between
workloads), checks every answer against a reference, and prints every metric
by name with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
With one workload (``--workload NAME``, how the benchmark driver calls it)
metric names are bare; with several they are prefixed ``<workload>.``.

See README.md beside this file for what each metric means and who it is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: How long one run measures when ``--seconds`` is not given (the
#: ``run_seconds`` of BENCHMARK.json).
DEFAULT_SECONDS = 15.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_MIN_OPS = 20


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[], metavar="NAME",
                        help="run this workload (repeatable)")
    parser.add_argument("--workloads", default="", metavar="A,B",
                        help="comma-separated workloads (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per workload (default {DEFAULT_SECONDS:g}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced run, print per-layer metrics; 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny inputs, ~{SMOKE_MIN_OPS} ops per workload (checks the plumbing)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="where metrics, traces and temp warehouses go "
                             "(default: .bench_e2e/ at the repository root)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else DEFAULT_SECONDS
    args.out = str(Path(args.out).resolve()) if args.out else str(ROOT / ".bench_e2e")
    return args


# -- the parent: one fresh interpreter per workload ---------------------------


def child_env() -> dict[str, str]:
    """The children's environment: no ``REPRO_*`` override survives, so the
    library runs on its defaults; a fixed hash seed keeps set and group
    orders (and with them stored bytes and answer ids) repeatable."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, args: argparse.Namespace, env: dict[str, str]) -> tuple[int, dict | None]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", args.out,
    ]
    if args.smoke:
        command.append("--smoke")
    result = None
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        for line in child.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        return child.wait(), result
    finally:
        if child.poll() is None:
            # Ask first: the child's own clean-up stops the server it started.
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    # Turn SIGTERM into an exception so ``finally`` blocks stop what we started.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no library to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from e2ebench import WORKLOADS

    names = args.workload + [name for name in args.workloads.split(",") if name]
    names = names or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; pick from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(names[0], args)

    env = child_env()
    results = {}
    for name in names:
        code, result = run_child(name, args, env)
        if result is None:
            print(f"run.py: workload {name} produced no result (exit {code})", file=sys.stderr)
            return code or 1
        results[name] = result
    if len(names) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# -- the child: one workload --------------------------------------------------


def git_sha() -> str:
    """HEAD's commit, read from this checkout's ``.git`` (``git rev-parse``
    would climb into whatever repository encloses an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[len("ref: "):]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def stamp(args: argparse.Namespace) -> dict:
    from repro import PebbleSession

    config = PebbleSession().config
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        # Observed, not assumed: a flipped default shows in the history.
        "engine": {
            "layout": config.layout,
            "scheduler": config.scheduler,
            "num_partitions": config.num_partitions,
        },
    }


def histogram(milliseconds: list[float]) -> str:
    """A log2-bucket latency histogram, one line per occupied bucket."""
    buckets: dict[int, int] = {}
    for value in milliseconds:
        exponent = math.floor(math.log2(value)) if value > 0 else -10
        buckets[exponent] = buckets.get(exponent, 0) + 1
    widest = max(buckets.values())
    lines = []
    for exponent in sorted(buckets):
        bar = "#" * max(1, round(40 * buckets[exponent] / widest))
        lines.append(f"    {2.0 ** exponent:>9.3f} .. {2.0 ** (exponent + 1):>9.3f} ms  {buckets[exponent]:>6}  {bar}")
    return "\n".join(lines)


def child_main(name: str, args: argparse.Namespace) -> int:
    from e2ebench import END_TO_END, PER_LAYER
    from e2ebench.base import BenchmarkError
    from e2ebench.capture_record import CaptureRecord
    from e2ebench.cold_query import ColdQuery
    from e2ebench.harness import (
        Recorder,
        measure,
        median,
        peak_rss_mb,
        percentile,
        ratio,
        timed_setups,
    )
    from e2ebench.serve_mixed import ServeMixed
    from e2ebench.stream_ingest import StreamIngest

    classes = {cls.name: cls for cls in (CaptureRecord, ColdQuery, ServeMixed, StreamIngest)}
    out = Path(args.out)
    scratch = out / f"tmp-{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = classes[name](args.seed, args.smoke, scratch)
    recorder = Recorder(name) if args.trace else None
    min_ops = SMOKE_MIN_OPS if args.smoke else workload.min_ops
    if recorder is not None:
        # The traced run is for attribution, not for tails: a third suffices.
        min_ops = -(-min_ops // 3)
    layer: dict[str, float] = {}
    artefact: dict = {"workload": name, "stamp": stamp(args)}
    try:
        setups = timed_setups(workload, 1 if args.trace or args.smoke else SETUP_REPEATS)
        print(f"== {name}  seed {args.seed}  trace {args.trace}" + ("  (smoke)" if args.smoke else ""))
        print(f"  stamp: {json.dumps(artefact['stamp'], sort_keys=True)}")
        print(f"  sizes: {workload.describe()}")
        cycles = measure(workload, args.seconds, min_ops, recorder)
        # Since the start of the timed section; read while the server lives.
        peak_rss = peak_rss_mb() + workload.child_peak_rss_mb()
        if recorder is not None:
            layer.update(workload.inputs.layer_metrics())
            layer.update(workload.probes())
            layer.update(workload.layer_metrics(cycles, recorder))
    except BenchmarkError as exc:
        print(f"run.py: {name}: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(cycle.ops) for cycle in cycles)
    failed = sum(cycle.failed for cycle in cycles)
    untraced = [cycle for cycle in cycles if not cycle.traced]
    traced = [cycle for cycle in cycles if cycle.traced]
    samples = [op.seconds * 1e3 for cycle in untraced for op in cycle.ops]
    # Each op of the fixed list is timed as the median of its repeats, so a
    # burst of host interference moves neither the median nor the tail.
    by_slot: dict[int, list[float]] = {}
    for cycle in untraced:
        for op in cycle.ops:
            by_slot.setdefault(op.slot, []).append(op.seconds * 1e3)
    latencies = [median(repeats) for repeats in by_slot.values()]
    wall = median(cycle.wall for cycle in untraced)
    if recorder is None:
        values = {
            "setup_s": median(setups),
            "wall_s": wall,
            "op_p50_ms": median(latencies),
            "op_p95_ms": percentile(latencies, 0.95),
            "peak_rss_mb": peak_rss,
            "stored_bytes_per_input_byte": ratio(workload.stored_bytes, workload.input_bytes),
        }
        units = {metric: unit for metric, (unit, _, _) in END_TO_END.items()}
    else:
        op_spans = [span for span in recorder.spans if span.layer == "bench"]
        traced_op_seconds = sum(span.seconds for span in op_spans)
        layer["bench.trace_overhead_ratio"] = ratio(median(c.wall for c in traced), wall)
        layer["bench.unattributed_share"] = ratio(
            sum(span.self_seconds for span in op_spans), traced_op_seconds
        )
        # A layer the workload never calls into reports 0.
        values = {metric: float(layer.get(metric, 0.0)) for metric in PER_LAYER}
        units = {metric: unit for metric, (unit, _) in PER_LAYER.items()}
        in_ops: dict[str, float] = {}
        for span in recorder.spans:
            if span.op is not None and span.layer != "bench":
                in_ops[span.layer] = in_ops.get(span.layer, 0.0) + span.self_seconds
        artefact["layer_self_seconds_in_ops"] = in_ops
        artefact["traced_op_seconds"] = traced_op_seconds
        (out / f"trace-{name}.json").write_text(json.dumps(recorder.chrome_trace()))

    cycle_ops = len(cycles[0].ops)
    print(f"  ran {len(cycles)} cycles of {cycle_ops} ops ({len(traced)} traced): "
          f"{attempted} ops attempted, {failed} failed; {len(samples)} untraced latency samples "
          f"over {len(latencies)} op slots")
    print(f"  throughput {ratio(cycle_ops, wall):.2f} ops/s (untraced cycle wall, median)"
          f"; set-up samples {[round(sample, 3) for sample in setups]}")
    print(f"  all samples, unsmoothed: p50 {median(samples):.3f} ms, p95 "
          f"{percentile(samples, 0.95):.3f} ms, p99 {percentile(samples, 0.99):.3f} ms")
    print("  untraced op latency histogram (all samples):")
    print(histogram(samples))
    for metric, value in values.items():
        print(f"  {metric:<40} {value:>16.6g} {units[metric]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
        },
    }
    artefact.update(result)
    (out / f"metrics-{name}-trace{args.trace}.json").write_text(json.dumps(artefact, indent=1))
    print("RESULT " + json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
