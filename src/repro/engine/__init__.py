"""Spark-like dataflow engine substrate (paper Sec. 4.2).

The engine is layered: a logical plan (``plan.py``) is rewritten by the
optimizer (``optimizer.py``), compiled into a physical plan of fused stages
(``physical.py``), and executed serially by ``executor.py``, which
captures provenance when asked (``capture=True``), with everything
configured by one :class:`~repro.engine.config.EngineConfig`.
"""

from repro.engine.config import EngineConfig
from repro.engine.dataset import Dataset, GroupedDataset
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.optimizer import OptimizationReport, plan_physical
from repro.engine.physical import PhysicalPlan
from repro.engine.expressions import (
    AggregateExpr,
    Expression,
    avg,
    coalesce,
    col,
    collect_list,
    collect_set,
    count,
    lit,
    max_,
    min_,
    struct_,
    sum_,
)
from repro.engine.session import Session
from repro.engine.storage import InMemorySource, JsonlSource, Source

__all__ = [
    "Dataset",
    "GroupedDataset",
    "EngineConfig",
    "ExecutionResult",
    "Executor",
    "OptimizationReport",
    "PhysicalPlan",
    "plan_physical",
    "AggregateExpr",
    "Expression",
    "avg",
    "coalesce",
    "col",
    "collect_list",
    "collect_set",
    "count",
    "lit",
    "max_",
    "min_",
    "struct_",
    "sum_",
    "Session",
    "InMemorySource",
    "JsonlSource",
    "Source",
]
