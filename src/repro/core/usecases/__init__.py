"""Use-cases enabled by structural provenance (paper Sec. 7.3.5)."""

from repro.core.usecases.usage import HeatmapRow, UsageAnalysis

__all__ = ["HeatmapRow", "UsageAnalysis"]
