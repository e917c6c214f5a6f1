"""Text rendering of the reproduced tables and figures.

Every figure of the paper's evaluation has a renderer that prints the same
rows/series the paper reports (scenario, scale, runtime bars, overhead
percentages, provenance sizes, eager/lazy query times), so a benchmark run
produces a directly comparable textual artefact.
"""

from __future__ import annotations

from typing import Sequence

from paperbench.harness import (
    AblationMeasurement,
    CaptureMeasurement,
    OperatorMeasurement,
    QueryMeasurement,
    SizeMeasurement,
    TitianMeasurement,
)

__all__ = [
    "format_table",
    "render_capture_overhead",
    "render_optimizer_ablation",
    "render_provenance_sizes",
    "render_query_times",
    "render_titian_comparison",
    "render_operator_overhead",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align *rows* under *headers* (simple fixed-width text table)."""
    table = [list(headers)] + [list(row) for row in rows]
    widths = [max(len(row[column]) for row in table) for column in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt_bytes(count: int) -> str:
    if count >= 1_000_000:
        return f"{count / 1_000_000:.2f}MB"
    if count >= 1_000:
        return f"{count / 1_000:.1f}kB"
    return f"{count}B"


def render_capture_overhead(measurements: list[CaptureMeasurement], title: str) -> str:
    """Figs. 6/7: one row per scenario x scale with the overhead percentage."""
    rows = [
        (
            measurement.scenario,
            f"{measurement.scale:g}x",
            f"{measurement.plain_seconds * 1000:.1f}",
            f"{measurement.capture_seconds * 1000:.1f}",
            f"{measurement.overhead_pct:+.0f}%",
            str(measurement.result_rows),
        )
        for measurement in measurements
    ]
    table = format_table(
        ("scenario", "scale", "plain ms", "capture ms", "overhead", "rows"), rows
    )
    return f"{title}\n{table}"


def render_provenance_sizes(measurements: list[SizeMeasurement], title: str) -> str:
    """Fig. 8: lineage vs. additional structural bytes per scenario."""
    rows = [
        (
            measurement.scenario,
            _fmt_bytes(measurement.lineage_bytes),
            _fmt_bytes(measurement.structural_bytes),
            _fmt_bytes(measurement.total_bytes),
            str(measurement.records),
        )
        for measurement in measurements
    ]
    table = format_table(
        ("scenario", "lineage", "+structural", "total", "records"), rows
    )
    return f"{title}\n{table}"


def render_query_times(measurements: list[QueryMeasurement], title: str) -> str:
    """Fig. 9: eager vs. lazy query runtime and the eager speed-up factor.

    When the measurements carry warehouse numbers, two more columns report
    the cold on-disk query latency and its segment-cache hit rate.
    """
    with_warehouse = any(m.warehouse_seconds is not None for m in measurements)
    rows = []
    for measurement in measurements:
        row = [
            measurement.scenario,
            f"{measurement.eager_seconds * 1000:.1f}",
            f"{measurement.lazy_seconds * 1000:.1f}",
            f"x{measurement.speedup:.1f}",
            str(measurement.source_count),
        ]
        if with_warehouse:
            if measurement.warehouse_seconds is None:
                row += ["-", "-"]
            else:
                hit_rate = measurement.cache_hit_rate or 0.0
                row += [
                    f"{measurement.warehouse_seconds * 1000:.1f}",
                    f"{hit_rate:.2f}",
                ]
        rows.append(tuple(row))
    headers = ["scenario", "eager ms", "lazy ms", "speedup", "inputs"]
    if with_warehouse:
        headers += ["warehouse ms", "cache hit"]
    table = format_table(tuple(headers), rows)
    return f"{title}\n{table}"


def render_titian_comparison(measurement: TitianMeasurement) -> str:
    """Sec. 7.3.4: overhead of the lineage-only vs. structural capture."""
    rows = [
        ("plain", f"{measurement.plain_seconds * 1000:.1f}", "-"),
        (
            "Titian (lineage-only)",
            f"{measurement.titian_seconds * 1000:.1f}",
            f"{measurement.titian_overhead_pct:+.2f}%",
        ),
        (
            "Pebble (structural)",
            f"{measurement.pebble_seconds * 1000:.1f}",
            f"{measurement.pebble_overhead_pct:+.2f}%",
        ),
    ]
    table = format_table(("system", "runtime ms", "overhead"), rows)
    return f"Sec. 7.3.4 -- flat-workload comparison with Titian\n{table}"


def render_optimizer_ablation(measurements: list[AblationMeasurement]) -> str:
    """Optimizer ablation ladder: capture-on runtime per rewrite configuration."""
    baselines = {
        (measurement.scenario, measurement.scale): measurement.seconds
        for measurement in measurements
        if measurement.config_name == "no-opt"
    }
    rows = []
    for measurement in measurements:
        baseline = baselines.get((measurement.scenario, measurement.scale))
        if measurement.config_name == "no-opt" or not baseline:
            delta = "-"
        else:
            delta = f"{(measurement.seconds - baseline) / baseline * 100:+.1f}%"
        rows.append(
            (
                measurement.scenario,
                f"{measurement.scale:g}x",
                measurement.config_name,
                f"{measurement.seconds * 1000:.1f}",
                f"{measurement.stdev * 1000:.1f}",
                ",".join(measurement.rules_fired) or "-",
                delta,
            )
        )
    table = format_table(
        ("scenario", "scale", "config", "capture ms", "stdev ms", "rules fired", "vs no-opt"),
        rows,
    )
    return f"Optimizer ablation -- capture-on runtime per rewrite configuration\n{table}"


def render_operator_overhead(measurements: list[OperatorMeasurement]) -> str:
    """Sec. 7.3.1: per-operator capture overhead (no graph in the paper)."""
    rows = [
        (
            measurement.operator,
            f"{measurement.plain_seconds * 1000:.1f}",
            f"{measurement.capture_seconds * 1000:.1f}",
            f"{measurement.overhead_pct:+.0f}%",
        )
        for measurement in measurements
    ]
    table = format_table(("operator", "plain ms", "capture ms", "overhead"), rows)
    return f"Sec. 7.3.1 -- per-operator capture overhead\n{table}"

