#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself within its own bounds?

Runs the suite as two interleaved sets on the same commit (A, B, A, B, ...;
run *i* of either set uses seed ``--seed + i``) and prints, per workload and
end-to-end metric, both medians with their quartiles, the relative gap
between the medians, and each set's spread (inter-quartile distance over the
median).  Exits non-zero when a gap exceeds the metric's bound, or when a
spread does (``setup_s`` excepted: it has the widest bound and few samples).
A metric that fails here cannot resolve a regression of its bound's size;
the fix is the workload's mix or op count, not a wider bound.

    python3 benchmarks/e2e/aa_check.py --runs 3          # the quick form
    python3 benchmarks/e2e/aa_check.py --runs 10         # what the driver does
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import END_TO_END, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, args: argparse.Namespace) -> dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"aa_check: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` with spread = (q3 - q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per set (>= 3)")
    parser.add_argument("--seed", type=int, default=1, help="seed of each set's first run")
    parser.add_argument("--seconds", type=float, default=None, help="passed to run.py")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--smoke", action="store_true", help="passed to run.py")
    parser.add_argument("--dump", default=None, metavar="FILE",
                        help="also write every run's values as JSON (set, workload, metric -> list)")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    workloads = [name for name in args.workloads.split(",") if name]

    samples: dict[tuple[str, str, str], list[float]] = {}
    for index in range(args.runs):
        for side in "AB":
            for workload in workloads:
                metrics = run_once(workload, args.seed + index, args)
                for metric, value in metrics.items():
                    samples.setdefault((side, workload, metric), []).append(value)
            print(f"  set {side} run {index + 1}/{args.runs} done", file=sys.stderr)

    if args.dump:
        Path(args.dump).write_text(
            json.dumps({"/".join(key): values for key, values in samples.items()}, indent=1)
        )

    header = (
        f"{'workload':<15} {'metric':<28} {'A median (q1 .. q3)':<38} "
        f"{'B median (q1 .. q3)':<38} {'gap':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    print(f"A/A check: {args.runs} runs per set, seeds {args.seed}..{args.seed + args.runs - 1}, "
          "sets interleaved on one commit")
    print(header)
    print("-" * len(header))
    bad = 0
    for workload in workloads:
        for metric, (_, better, bound) in END_TO_END.items():
            a = summary(samples[("A", workload, metric)])
            b = summary(samples[("B", workload, metric)])
            gap = (b[0] - a[0]) / a[0]
            worse = gap if better == "lower" else -gap
            verdicts = []
            if abs(worse) > bound:
                verdicts.append("GAP")
            if metric != "setup_s" and max(a[3], b[3]) > bound:
                verdicts.append("SPREAD")
            bad += bool(verdicts)
            print(
                f"{workload:<15} {metric:<28} "
                f"{a[0]:>11.5g} ({a[1]:>10.5g} .. {a[2]:>10.5g})  "
                f"{b[0]:>11.5g} ({b[1]:>10.5g} .. {b[2]:>10.5g})  "
                f"{gap:>+7.2%} {a[3]:>9.2%} {b[3]:>9.2%} {bound:>6.0%}  "
                + ("+".join(verdicts) or "ok")
            )
    print(f"{bad} of {len(workloads) * len(END_TO_END)} workload x metric pairs outside their bound")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
