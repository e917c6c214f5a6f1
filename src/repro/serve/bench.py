"""``repro bench serve``: a closed-loop load generator for the query service.

*Closed loop* means each of ``concurrency`` workers issues its next request
only after the previous one answered -- the classic service benchmark shape,
so measured latency includes queueing behind the server's admission layer
rather than open-loop coordinated omission.

The report separates **cold** requests (the server computed the backtrace;
``server.cached == false``) from **warm** ones (pattern-cache hits), which
turns the cache's value into a single comparable number: with one
(run, pattern, method) key, exactly one request is cold and the warm p50
should sit well under the cold latency -- the serve-smoke CI job asserts
exactly that on every push.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Any

from repro.engine.scheduler import RetryPolicy
from repro.client import connect

__all__ = ["ServeBenchReport", "run_load", "write_report", "percentile"]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 < fraction <= 1.0)."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class ServeBenchReport:
    """One load-generation run, reduced to the numbers that matter."""

    url: str
    run: str | None
    pattern: str
    method: str
    requests: int
    concurrency: int
    completed: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    throughput_rps: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    cold_count: int = 0
    cold_mean_ms: float = 0.0
    warm_count: int = 0
    warm_p50_ms: float = 0.0
    warm_p95_ms: float = 0.0
    error_kinds: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "run": self.run,
            "pattern": self.pattern,
            "method": self.method,
            "requests": self.requests,
            "concurrency": self.concurrency,
            "completed": self.completed,
            "errors": self.errors,
            "error_kinds": dict(self.error_kinds),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {"p50": self.p50_ms, "p95": self.p95_ms, "p99": self.p99_ms},
            "cold": {"count": self.cold_count, "mean_ms": self.cold_mean_ms},
            "warm": {
                "count": self.warm_count,
                "p50_ms": self.warm_p50_ms,
                "p95_ms": self.warm_p95_ms,
            },
        }

    def render(self) -> str:
        lines = [
            f"serve bench -- {self.url} method={self.method}",
            f"pattern: {self.pattern}" + (f"  run: {self.run}" if self.run else ""),
            f"requests: {self.completed}/{self.requests} ok, {self.errors} errors, "
            f"{self.concurrency} concurrent workers",
            f"wall: {self.wall_seconds:.3f}s  throughput: {self.throughput_rps:.1f} req/s",
            f"latency: p50 {self.p50_ms:.2f} ms  p95 {self.p95_ms:.2f} ms  "
            f"p99 {self.p99_ms:.2f} ms",
            f"cold (computed): {self.cold_count} requests, mean {self.cold_mean_ms:.2f} ms",
            f"warm (cache hit): {self.warm_count} requests, p50 {self.warm_p50_ms:.2f} ms, "
            f"p95 {self.warm_p95_ms:.2f} ms",
        ]
        if self.cold_count and self.warm_count and self.warm_p50_ms:
            lines.append(
                f"warm speedup over cold: x{self.cold_mean_ms / self.warm_p50_ms:.1f}"
            )
        return "\n".join(lines)


def run_load(
    url: str,
    pattern: str,
    run: str | None = None,
    method: str = "lazy",
    requests: int = 100,
    concurrency: int = 4,
    policy: RetryPolicy | None = None,
    timeout: float = 30.0,
) -> ServeBenchReport:
    """Drive *requests* queries through *concurrency* closed-loop workers."""
    report = ServeBenchReport(url, run, pattern, method, requests, concurrency)
    client = connect(url, policy=policy, timeout=timeout)
    lock = threading.Lock()
    remaining = requests
    samples: list[tuple[float, bool]] = []

    def worker() -> None:
        nonlocal remaining
        while True:
            with lock:
                if remaining <= 0:
                    return
                remaining -= 1
            started = time.perf_counter()
            try:
                response = client.backtrace(pattern, run=run, method=method)
            except Exception as exc:  # noqa: BLE001 -- counted, not fatal
                with lock:
                    report.errors += 1
                    kind = type(exc).__name__
                    report.error_kinds[kind] = report.error_kinds.get(kind, 0) + 1
                continue
            elapsed = time.perf_counter() - started
            cached = bool(response.get("server", {}).get("cached"))
            with lock:
                samples.append((elapsed, cached))

    threads = [
        threading.Thread(target=worker, name=f"repro-bench-serve-{index}")
        for index in range(max(1, concurrency))
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_seconds = time.perf_counter() - wall_start

    latencies = sorted(seconds for seconds, _ in samples)
    cold = sorted(seconds for seconds, cached in samples if not cached)
    warm = sorted(seconds for seconds, cached in samples if cached)
    report.completed = len(samples)
    if report.wall_seconds > 0:
        report.throughput_rps = report.completed / report.wall_seconds
    report.p50_ms = percentile(latencies, 0.50) * 1000
    report.p95_ms = percentile(latencies, 0.95) * 1000
    report.p99_ms = percentile(latencies, 0.99) * 1000
    report.cold_count = len(cold)
    report.cold_mean_ms = (sum(cold) / len(cold) * 1000) if cold else 0.0
    report.warm_count = len(warm)
    report.warm_p50_ms = percentile(warm, 0.50) * 1000
    report.warm_p95_ms = percentile(warm, 0.95) * 1000
    return report


def write_report(
    report: ServeBenchReport, json_path: str | FsPath
) -> tuple[FsPath, FsPath]:
    """Write the JSON report plus a text rendering next to it."""
    json_path = FsPath(json_path)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2)
        handle.write("\n")
    text_path = json_path.with_suffix(".txt")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(report.render() + "\n")
    return json_path, text_path
