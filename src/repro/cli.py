"""Command-line interface: run scenarios, queries, and evaluation sweeps.

Usage (also via ``python -m repro``)::

    python -m repro example                    # the paper's running example
    python -m repro scenario T3 --scale 1      # run a scenario + its query
    python -m repro explain T1                 # logical plan, rewrites, stages
    python -m repro bench fig8                 # regenerate one figure
    python -m repro bench ablation --scale .2  # optimizer rewrite ladder
    python -m repro heatmap --scale 0.5        # the Fig. 10 use-case
    python -m repro list                       # available scenarios

    python -m repro warehouse record example --root /tmp/wh
    python -m repro warehouse ls --root /tmp/wh
    python -m repro warehouse inspect run-0001-example --root /tmp/wh
    python -m repro warehouse query run-0001-example 'root{...}' --root /tmp/wh
    python -m repro stats run-0001-example --root /tmp/wh

    python -m repro serve --root /tmp/wh --port 9410   # the query service
    python -m repro serve --root /tmp/wh --fleet 4     # N workers + a router
    python -m repro stats --remote http://127.0.0.1:9410

    python -m repro shard init --root /tmp/wh --count 4
    python -m repro shard ls --root /tmp/wh
    python -m repro shard rebalance --root /tmp/wh

    python -m repro index build --root /tmp/wh         # backfill audit index
    python -m repro trace-forward --root /tmp/wh --pattern 'root{//id_str="lp"}'
    python -m repro audit sar u1 u2 --root /tmp/wh     # subject-access request
    python -m repro audit erasure u1 --root /tmp/wh    # erasure receipt

Most execution commands accept ``--trace PATH`` to write a Chrome
trace-event JSON of the run (loadable in Perfetto / ``chrome://tracing``).
``repro bench`` regenerates the paper's figures; the system's own
end-to-end benchmark is ``python3 benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, Sequence

from repro.core.usecases.usage import UsageAnalysis
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.session import Session
from repro.obs.tracer import Tracer, tracing
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    DBLP_SCENARIOS,
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    SCENARIOS,
    TWITTER_SCENARIOS,
    build_running_example,
    load_workload,
    scenario,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pebble reproduction: structural provenance for nested data",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the evaluation scenarios")

    example = commands.add_parser("example", help="run the paper's running example")
    example.add_argument("--pattern", default=RUNNING_EXAMPLE_PATTERN,
                         help="tree pattern to backtrace (default: Fig. 4)")
    example.add_argument("--trace", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON of the run")

    run = commands.add_parser("scenario", help="run one scenario and its structural query")
    run.add_argument("name", choices=sorted(SCENARIOS))
    run.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    run.add_argument("--partitions", type=int, default=None,
                     help="partition count (default: engine default)")
    run.add_argument("--pattern", default=None, help="override the scenario's query")
    run.add_argument("--no-query", action="store_true", help="execute only, skip the query")
    run.add_argument("--no-optimize", action="store_true",
                     help="disable plan rewriting (seed operator-at-a-time execution)")
    run.add_argument("--metrics-json", default=None, metavar="PATH",
                     help="write per-operator/per-stage execution metrics as JSON")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON of the run")

    explain = commands.add_parser(
        "explain", help="show logical plan, applied rewrites, and physical stages"
    )
    explain.add_argument("name", choices=sorted(SCENARIOS) + ["example"])
    explain.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    explain.add_argument("--partitions", type=int, default=None,
                         help="partition count (default: engine default)")
    explain.add_argument("--capture", action="store_true",
                         help="compile for provenance capture (disables store-unsafe rewrites)")
    explain.add_argument("--no-optimize", action="store_true",
                         help="disable plan rewriting (show the unoptimized stages)")

    bench = commands.add_parser("bench", help="regenerate one evaluation artefact")
    bench.add_argument(
        "figure",
        choices=["fig6", "fig7", "fig8", "fig9", "titian", "operators", "ablation"],
    )
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write the raw measurements as JSON")
    bench.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON of the benchmark runs")

    heatmap = commands.add_parser("heatmap", help="Fig. 10 usage heatmap over D1-D5")
    heatmap.add_argument("--scale", type=float, default=0.5)
    heatmap.add_argument("--items", type=int, default=25)

    warehouse = commands.add_parser(
        "warehouse", help="record, list, inspect, and query stored provenance runs"
    )
    wh_commands = warehouse.add_subparsers(dest="warehouse_command", required=True)

    wh_record = wh_commands.add_parser(
        "record", help="execute with capture and record the run durably"
    )
    wh_record.add_argument("name", choices=sorted(SCENARIOS) + ["example"])
    wh_record.add_argument("--root", required=True, help="warehouse root directory")
    wh_record.add_argument("--scale", type=float, default=1.0)
    wh_record.add_argument("--partitions", type=int, default=None,
                           help="partition count (default: engine default)")
    wh_record.add_argument("--run-name", default=None, help="catalog name (default: scenario)")
    wh_record.add_argument("--no-index", action="store_true",
                           help="skip building the forward/audit index at record time "
                           "(backfill later with `repro index build`)")
    wh_record.add_argument("--trace", default=None, metavar="PATH",
                           help="write a Chrome trace-event JSON of the run + record")

    wh_ls = wh_commands.add_parser("ls", help="list the catalogued runs")
    wh_ls.add_argument("--root", required=True, help="warehouse root directory")

    wh_inspect = wh_commands.add_parser(
        "inspect", help="per-operator summary of one run (index only, no decode)"
    )
    wh_inspect.add_argument("run", help="run id or name (names resolve to newest)")
    wh_inspect.add_argument("--root", required=True, help="warehouse root directory")
    wh_inspect.add_argument("--probe", default=None, metavar="PATTERN",
                            help="also backtrace PATTERN and report its segment-cache "
                                 "accounting (how much of the run the query touches)")

    wh_query = wh_commands.add_parser(
        "query", help="lazily backtrace a tree pattern over a stored run"
    )
    wh_query.add_argument("run", help="run id or name (names resolve to newest)")
    wh_query.add_argument("pattern", help="tree pattern, e.g. 'root{//id_str=\"lp\"}'")
    wh_query.add_argument("--root", required=True, help="warehouse root directory")
    wh_query.add_argument("--cache-size", type=int, default=64)
    wh_query.add_argument("--analyze", action="store_true",
                          help="print an explain-analyze breakdown: per-phase "
                               "wall time, segments touched, cache hits")
    wh_query.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Chrome trace-event JSON of the query")

    wh_retain = wh_commands.add_parser(
        "retain",
        help="expire epochs older than a TTL from streaming runs "
             "(writes verified retention receipts)",
    )
    wh_retain.add_argument("--root", required=True, help="warehouse root directory")
    wh_retain.add_argument("--ttl", type=float, required=True, metavar="SECONDS",
                           help="expire epochs appended more than SECONDS ago")
    wh_retain.add_argument("--run", default=None,
                           help="restrict the sweep to one run id or name "
                                "(default: every epoch-layout run)")

    index = commands.add_parser(
        "index", help="manage the persisted per-run forward/audit indexes"
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)
    index_build = index_commands.add_parser(
        "build", help="build (or rebuild) the index of a stored run"
    )
    index_build.add_argument("run", nargs="?", default=None,
                             help="run id or name (default: newest run)")
    index_build.add_argument("--root", required=True, help="warehouse root directory")
    index_build.add_argument("--force", action="store_true",
                             help="rebuild even if an index already exists")
    index_info = index_commands.add_parser(
        "info", help="show whether a run is indexed and the index sections"
    )
    index_info.add_argument("run", nargs="?", default=None,
                            help="run id or name (default: newest run)")
    index_info.add_argument("--root", required=True, help="warehouse root directory")

    forward = commands.add_parser(
        "trace-forward",
        help="forward provenance: which outputs derive from matching inputs",
    )
    forward.add_argument("run", nargs="?", default=None,
                         help="run id or name (default: newest run)")
    forward.add_argument("--pattern", required=True,
                         help="tree pattern over the source items, "
                         "e.g. 'root{//id_str=\"lp\"}'")
    forward.add_argument("--root", required=True, help="warehouse root directory")
    forward.add_argument("--method", choices=["lazy", "eager"], default="lazy")
    forward.add_argument("--no-index", action="store_true",
                         help="ignore any persisted index (full scan)")
    forward.add_argument("--json", action="store_true", dest="as_json",
                         help="emit the JSON answer instead of the text rendering")
    forward.add_argument("--analyze", action="store_true",
                         help="print an explain-analyze breakdown: per-phase "
                              "wall time, index probes vs scan, rows visited")
    forward.add_argument("--trace", default=None, metavar="PATH",
                         help="write a Chrome trace-event JSON of the trace")

    audit = commands.add_parser(
        "audit", help="GDPR workflows: subject-access requests, erasure checks"
    )
    audit_commands = audit.add_subparsers(dest="audit_command", required=True)

    def _audit_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("subjects", nargs="*",
                         help="subject identifiers (or use --subjects-file)")
        sub.add_argument("--subjects-file", default=None, metavar="PATH",
                         help="file with one subject identifier per line")
        sub.add_argument("--root", required=True, help="warehouse root directory")
        sub.add_argument("--run", action="append", default=None, dest="runs",
                         help="restrict to this run id or name (repeatable; "
                         "default: every catalogued run)")
        sub.add_argument("--template", default=None,
                         help="pattern template with a {subject} placeholder "
                         "(default: any string leaf equals the subject)")
        sub.add_argument("--method", choices=["lazy", "eager"], default="lazy")
        sub.add_argument("--no-index", action="store_true",
                         help="ignore persisted indexes (full scan)")
        sub.add_argument("--report", default=None, metavar="PATH",
                         help="also write the JSON report here")

    audit_sar = audit_commands.add_parser(
        "sar", help="bulk subject-access request over stored runs"
    )
    _audit_common(audit_sar)
    audit_sar.add_argument("--page", type=int, default=1)
    audit_sar.add_argument("--page-size", type=int, default=100)
    audit_sar.add_argument("--include-items", action="store_true",
                           help="embed the derived output items in the report")

    audit_erasure = audit_commands.add_parser(
        "erasure",
        help="verify nothing derives from the subjects any more "
        "(exit 0 clean, 1 residuals found)",
    )
    _audit_common(audit_erasure)

    stats = commands.add_parser(
        "stats", help="print the metrics registry describing a stored run"
    )
    stats.add_argument("run", nargs="?", default=None,
                       help="run id or name (default: newest run)")
    stats.add_argument("--root", default=None, help="warehouse root directory")
    stats.add_argument("--remote", default=None, metavar="URL",
                       help="fetch the registry from a running `repro serve` "
                            "instead of opening a warehouse locally")
    stats.add_argument("--pattern", default=None,
                       help="also run this backtrace and fold its cache metrics in "
                            "(local --root only)")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="emit JSON instead of Prometheus text exposition")
    stats.add_argument("--slow", action="store_true",
                       help="print the slow-query ring instead of the registry "
                            "(this process's, or the server's with --remote)")

    serve = commands.add_parser(
        "serve", help="serve provenance queries over a warehouse via HTTP"
    )
    serve.add_argument("--root", required=True, help="warehouse root directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9410,
                       help="listening port (0: ephemeral)")
    serve.add_argument("--workers", type=int, default=4,
                       help="query worker threads")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admission queue depth beyond the workers (full -> 429)")
    serve.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline in seconds (0: unbounded; over -> 504)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="pattern-result cache capacity (entries)")
    serve.add_argument("--segment-cache-size", type=int, default=None,
                       help="per-resident-run operator segment cache size")
    serve.add_argument("--retention-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="sweep streaming runs in the background, expiring "
                            "epochs older than SECONDS (default: no sweeping)")
    serve.add_argument("--retention-sweep-interval", type=float, default=60.0,
                       metavar="SECONDS",
                       help="how often the background retention sweep runs")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON on shutdown")
    serve.add_argument("--fleet", type=int, default=None, metavar="N",
                       help="serve through an N-worker fleet behind a router "
                            "(the listening port becomes the router's)")
    serve.add_argument("--fleet-mode", choices=["thread", "process"],
                       default="thread",
                       help="how --fleet hosts its workers (default: thread)")

    shard = commands.add_parser(
        "shard", help="manage the warehouse's storage shards"
    )
    shard_commands = shard.add_subparsers(dest="shard_command", required=True)
    shard_ls = shard_commands.add_parser(
        "ls", help="per-shard run counts, sizes, and epochs"
    )
    shard_ls.add_argument("--root", required=True, help="warehouse root directory")
    shard_init = shard_commands.add_parser(
        "init", help="initialise (or grow) the shard layout"
    )
    shard_init.add_argument("--root", required=True, help="warehouse root directory")
    shard_init.add_argument("--count", type=int, required=True,
                            help="number of shards (grow-only)")
    shard_rebalance = shard_commands.add_parser(
        "rebalance",
        help="move runs to their ring-assigned shards (optionally growing first)",
    )
    shard_rebalance.add_argument("--root", required=True,
                                 help="warehouse root directory")
    shard_rebalance.add_argument("--count", type=int, default=None,
                                 help="grow to this many shards before rebalancing")

    return parser


def _cmd_list() -> int:
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        print(f"{name} ({spec.kind}): {spec.description}")
        print(f"    query: {spec.pattern}")
    return 0


def _cmd_example(pattern: str) -> int:
    session = Session(num_partitions=2)
    pipeline = build_running_example(session, list(RUNNING_EXAMPLE_TWEETS))
    execution = pipeline.execute(capture=True)
    print("Result (Tab. 2):")
    for item in execution.items():
        print(" ", item)
    provenance = query_provenance(execution, pattern)
    print(f"\nProvenance of {pattern}:")
    print(provenance.render())
    return 0


def _engine_config(no_optimize: bool) -> EngineConfig:
    """The environment-derived config with the CLI's explicit overrides."""
    config = EngineConfig.from_env()
    if no_optimize:
        config = config.replace(optimize=False)
    return config


@contextlib.contextmanager
def _trace_to(path: str | None) -> Iterator[None]:
    """Run the body under a live tracer; write a Chrome trace on exit.

    With no *path* this is a no-op and the process-wide null tracer stays
    active, so untraced commands pay nothing.
    """
    if not path:
        yield
        return
    tracer = Tracer()
    try:
        with tracing(tracer):
            yield
    finally:
        # Written even when the command fails: a trace of a failed run is
        # exactly the postmortem artifact tracing exists for.
        tracer.write_chrome_trace(path)
        print(f"wrote trace {path} ({len(tracer.spans())} spans)")


def _write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def _build_pipeline(name: str, session: Session, scale: float):
    """Return ``(dataset, description)`` for a scenario name or ``example``."""
    if name == "example":
        dataset = build_running_example(session, list(RUNNING_EXAMPLE_TWEETS))
        return dataset, "the paper's running example (Sec. 2)"
    spec = scenario(name)
    dataset = spec.build(session, load_workload(spec.kind, scale))
    return dataset, spec.description


def _cmd_scenario(args: argparse.Namespace) -> int:
    spec = scenario(args.name)
    data = load_workload(spec.kind, args.scale)
    session = Session(
        num_partitions=args.partitions,
        config=_engine_config(args.no_optimize),
    )
    execution = spec.build(session, data).execute(capture=True)
    print(f"{args.name}: {spec.description}")
    print(f"result rows: {len(execution)}")
    print(f"provenance:  {execution.store.size_report()}")
    if args.metrics_json:
        _write_json(args.metrics_json, execution.metrics.to_json())
    if args.no_query:
        return 0
    query = args.pattern or spec.pattern
    provenance = query_provenance(execution, query)
    print(f"\nquery: {query}")
    print(f"matched result items: {len(provenance.matched_output_ids)}")
    for source in provenance.sources:
        print(f"  {source.name}: {len(source)} input items in provenance")
    print()
    print(provenance.render())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session = Session(
        num_partitions=args.partitions,
        config=_engine_config(args.no_optimize),
    )
    dataset, description = _build_pipeline(args.name, session, args.scale)
    physical = Executor(capture=args.capture, config=session.config).compile(dataset.plan)
    config = session.config
    print(f"{args.name}: {description}")
    print(
        f"capture: {'on' if args.capture else 'off'}  "
        f"optimize: {'on' if config.optimize else 'off'}  "
        f"partitions: {config.num_partitions}"
    )
    print("\nlogical plan:")
    print(dataset.explain())
    print("\nrewrites:")
    print(physical.report.describe())
    print("\nphysical plan:")
    print(physical.describe())
    return 0


def _measurement_dict(measurement: object) -> dict:
    """Flatten one bench measurement (all of which use ``__slots__``) to JSON."""
    return {
        slot: getattr(measurement, slot)
        for slot in type(measurement).__slots__
    }


def _cmd_bench(figure: str, scale: float, repeats: int, metrics_json: str | None) -> int:
    from repro.bench.harness import (
        measure_capture_overhead,
        measure_operator_overhead,
        measure_optimizer_ablation,
        measure_provenance_size,
        measure_query_times,
        measure_titian_comparison,
    )
    from repro.bench.reporting import (
        render_capture_overhead,
        render_operator_overhead,
        render_optimizer_ablation,
        render_provenance_sizes,
        render_query_times,
        render_titian_comparison,
    )

    measurements: list = []
    if figure == "fig6":
        measurements = measure_capture_overhead(
            TWITTER_SCENARIOS, scales=(scale,), repeats=repeats
        )
        print(render_capture_overhead(measurements, "Fig. 6 -- Twitter capture overhead"))
    elif figure == "fig7":
        measurements = measure_capture_overhead(
            DBLP_SCENARIOS, scales=(scale,), repeats=repeats
        )
        print(render_capture_overhead(measurements, "Fig. 7 -- DBLP capture overhead"))
    elif figure == "fig8":
        twitter = measure_provenance_size(TWITTER_SCENARIOS, scale=scale)
        dblp = measure_provenance_size(DBLP_SCENARIOS, scale=scale)
        measurements = twitter + dblp
        print(render_provenance_sizes(twitter, "Fig. 8(a) -- Twitter provenance size"))
        print(render_provenance_sizes(dblp, "Fig. 8(b) -- DBLP provenance size"))
    elif figure == "fig9":
        twitter = measure_query_times(TWITTER_SCENARIOS, scale=scale, repeats=repeats)
        dblp = measure_query_times(DBLP_SCENARIOS, scale=scale, repeats=repeats)
        measurements = twitter + dblp
        print(render_query_times(twitter, "Fig. 9(a) -- Twitter query runtime"))
        print(render_query_times(dblp, "Fig. 9(b) -- DBLP query runtime"))
    elif figure == "titian":
        measurement = measure_titian_comparison(scale=scale, repeats=max(repeats, 9))
        measurements = [measurement]
        print(render_titian_comparison(measurement))
    elif figure == "operators":
        measurements = measure_operator_overhead(scale=scale, repeats=repeats)
        print(render_operator_overhead(measurements))
    elif figure == "ablation":
        measurements = measure_optimizer_ablation(
            TWITTER_SCENARIOS, scale=scale, repeats=repeats
        )
        print(render_optimizer_ablation(measurements))
    if metrics_json:
        payload = {
            "figure": figure,
            "scale": scale,
            "measurements": [_measurement_dict(entry) for entry in measurements],
        }
        _write_json(metrics_json, payload)
    return 0


def _cmd_heatmap(scale: float, items: int) -> int:
    usage = UsageAnalysis()
    for name in DBLP_SCENARIOS:
        spec = scenario(name)
        data = load_workload(spec.kind, scale)
        execution = spec.build(Session(num_partitions=4), data).execute(capture=True)
        usage.add(query_provenance(execution, spec.pattern))
    attributes = ["key", "title", "authors", "year", "crossref", "pages"]
    source = "inproceedings.json"
    print(usage.render_heatmap(source, range(1, items + 1), attributes))
    print()
    print(usage.partitioning_advice(source, attributes))
    return 0


def _cmd_warehouse(args: argparse.Namespace) -> int:
    from repro.warehouse import Warehouse

    warehouse = Warehouse.open(args.root)

    if args.warehouse_command == "record":
        session = Session(num_partitions=args.partitions)
        if args.name == "example":
            pipeline = build_running_example(session, list(RUNNING_EXAMPLE_TWEETS))
        else:
            spec = scenario(args.name)
            pipeline = spec.build(session, load_workload(spec.kind, args.scale))
        with _trace_to(args.trace):
            execution = pipeline.execute(capture=True)
            record = warehouse.record(
                execution,
                name=args.run_name or args.name,
                index=not args.no_index,
            )
        print(f"recorded {record.run_id} ({record.name})")
        print(f"  operators: {record.operator_count}")
        print(f"  rows:      {record.row_count}")
        print(f"  bytes:     {record.total_bytes}")
        print(f"  indexed:   {'yes' if record.indexed else 'no'}")
        return 0

    if args.warehouse_command == "ls":
        runs = warehouse.runs()
        if not runs:
            print(f"warehouse {warehouse.root}: no runs")
            return 0
        print(f"warehouse {warehouse.root}: {len(runs)} run(s)")
        header = f"{'run id':<24} {'name':<16} {'created':<20} {'ops':>4} {'rows':>6} {'bytes':>10}"
        print(header)
        print("-" * len(header))
        for record in runs:
            print(
                f"{record.run_id:<24} {record.name:<16} {record.created_iso():<20} "
                f"{record.operator_count:>4} {record.row_count:>6} {record.total_bytes:>10}"
            )
        return 0

    if args.warehouse_command == "inspect":
        summary = warehouse.inspect(args.run)
        print(f"{summary['run_id']} ({summary['name']}), created {summary['created']}")
        print(f"sink oid {summary['sink_oid']}, {summary['rows']} rows, "
              f"{summary['total_bytes']} bytes on disk")
        if "epochs" in summary:
            visible = sum(not entry["expired"] for entry in summary["epochs"])
            print(f"{'live' if summary['live'] else 'sealed'}, segment epoch "
                  f"{summary['segment_epoch']}, {visible}/{len(summary['epochs'])} "
                  f"epochs visible, watermark {summary['watermark']}")
        header = f"{'oid':>4} {'type':<12} {'kind':<12} {'records':>8} {'bytes':>9}  label"
        print(header)
        print("-" * len(header))
        for op in summary["operators"]:
            label = op["label"]
            if op["source_name"]:
                label = f"{label} [{op['source_name']}]"
            print(
                f"{op['oid']:>4} {op['op_type']:<12} {op['kind']:<12} "
                f"{op['records']:>8} {op['segment_bytes']:>9}  {label}"
            )
        if args.probe:
            _, cache = warehouse.backtrace(summary["run_id"], args.probe)
            print()
            print(f"probe: {args.probe}")
            print(f"segment cache: {json.dumps(cache.to_json())}")
        return 0

    if args.warehouse_command == "query":
        breakdown = None
        if args.analyze:
            from repro.obs.breakdown import QueryBreakdown

            breakdown = QueryBreakdown()
        with _trace_to(args.trace):
            provenance, metrics = warehouse.backtrace(
                args.run,
                args.pattern,
                cache_size=args.cache_size,
                breakdown=breakdown,
            )
        print(f"query: {args.pattern}")
        print(f"matched result items: {len(provenance.matched_output_ids)}")
        for source in provenance.sources:
            print(f"  {source.name}: {len(source)} input items in provenance")
        print()
        print(provenance.render())
        print()
        total = warehouse.inspect(args.run)["operators"]
        print(
            f"segments decoded: {metrics.misses}/{len(total)} "
            f"(cache hit rate {metrics.hit_rate:.2f}, {metrics.bytes_read} bytes read)"
        )
        print(f"segment cache: {json.dumps(metrics.to_json())}")
        if breakdown is not None:
            from repro.obs.breakdown import render_breakdown

            print()
            print(render_breakdown(breakdown.to_json()))
            counters = breakdown.counters
            print(f"  rows visited:  {counters['rows_visited']}")
            print(f"  rows decoded:  {counters['rows_decoded']}")
            print(f"  items decoded: {counters['items_decoded']}")
        return 0

    if args.warehouse_command == "retain":
        report = warehouse.retain(args.ttl, run_id=args.run)
        if not report["receipts"]:
            print(f"retention: no epochs older than {args.ttl:g}s")
            return 0
        print(f"retention: {len(report['receipts'])} run(s) swept "
              f"(ttl {args.ttl:g}s)")
        for receipt in report["receipts"]:
            epochs = [entry["epoch"] for entry in receipt["expired_epochs"]]
            verified = receipt["verified"]
            status = (
                "verified"
                if verified["sink_ids_absent"] and verified["source_ids_absent"]
                else "FAILED VERIFICATION"
            )
            print(f"  {receipt['run_id']}: expired epoch(s) "
                  f"{', '.join(str(epoch) for epoch in epochs)} -- {status}, "
                  f"receipt sha256:{receipt['digest'][:12]}")
        return 0

    raise AssertionError(
        f"unhandled warehouse command {args.warehouse_command!r}"
    )  # pragma: no cover


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.warehouse import Warehouse

    warehouse = Warehouse.open(args.root)
    record = warehouse.resolve(args.run)

    if args.index_command == "build":
        from repro.errors import LiveRunError

        try:
            entry = warehouse.build_index(record.run_id, force=args.force)
        except LiveRunError as exc:
            # A live run indexes itself per epoch; a batch backfill would
            # race the ingest. Explain instead of dumping a traceback.
            print(f"index build: {exc}", file=sys.stderr)
            return 1
        print(f"indexed {record.run_id}: "
              f"{entry['inputs']} input ids, {entry['terms']} terms, "
              f"{entry['items']} item ranges, {entry['paths']} paths "
              f"({entry['segment_bytes']} bytes)")
        return 0

    if args.index_command == "info":
        index = warehouse.load_index(record.run_id)
        if index is None:
            print(f"{record.run_id}: not indexed "
                  f"(forward/audit queries fall back to a full scan)")
            return 0
        print(f"{record.run_id}: {json.dumps(index.summary())}")
        return 0

    raise AssertionError(
        f"unhandled index command {args.index_command!r}"
    )  # pragma: no cover


def _cmd_trace_forward(args: argparse.Namespace) -> int:
    from repro.warehouse import Warehouse

    breakdown = None
    if args.analyze:
        from repro.obs.breakdown import QueryBreakdown

        breakdown = QueryBreakdown()
    warehouse = Warehouse.open(args.root)
    with _trace_to(args.trace):
        result = warehouse.forward(
            args.run,
            args.pattern,
            method=args.method,
            use_index=not args.no_index,
            breakdown=breakdown,
        )
    if args.as_json:
        payload = result.to_json()
        if breakdown is not None:
            payload["analyze"] = breakdown.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.render())
        stats = result.stats
        print(f"\nindex: {'used' if stats['index_used'] else 'absent (full scan)'}  "
              f"operators decoded: {stats['operators_decoded']}  "
              f"skipped: {stats['operators_skipped']}  "
              f"candidates tested: {stats['candidates_tested']}  "
              f"confirmed: {stats['candidates_confirmed']}")
        if breakdown is not None:
            from repro.obs.breakdown import render_breakdown

            print()
            print(render_breakdown(breakdown.to_json()))
    return 0


def _audit_subjects(args: argparse.Namespace) -> list[str]:
    subjects = list(args.subjects)
    if args.subjects_file:
        with open(args.subjects_file, "r", encoding="utf-8") as handle:
            subjects.extend(
                line.strip() for line in handle if line.strip()
            )
    if not subjects:
        raise SystemExit("audit: no subjects given (arguments or --subjects-file)")
    return subjects


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import (
        DEFAULT_SUBJECT_TEMPLATE,
        subject_access_request,
        verify_erasure,
    )
    from repro.warehouse import Warehouse

    warehouse = Warehouse.open(args.root)
    subjects = _audit_subjects(args)
    template = args.template or DEFAULT_SUBJECT_TEMPLATE

    if args.audit_command == "sar":
        report = subject_access_request(
            warehouse,
            subjects,
            runs=args.runs,
            template=template,
            method=args.method,
            page=args.page,
            page_size=args.page_size,
            use_index=not args.no_index,
            include_items=args.include_items,
        )
        print(f"subject-access request: page {report['page']}/{report['pages']}, "
              f"{report['total_subjects']} subject(s)")
        for entry in report["subjects"]:
            print(f"  {entry['subject']}: {entry['total_outputs']} derived output(s) "
                  f"across {entry['run_count']} run(s)")
            for run in entry["runs"]:
                print(f"    {run['run_id']}: {run['matched_inputs']} input item(s) "
                      f"-> {run['output_count']} output(s)")
        if args.report:
            _write_json(args.report, report)
        return 0

    if args.audit_command == "erasure":
        report = verify_erasure(
            warehouse,
            subjects,
            runs=args.runs,
            template=template,
            method=args.method,
            use_index=not args.no_index,
        )
        verdict = "CLEAN" if report["clean"] else "RESIDUALS FOUND"
        print(f"erasure verification: {verdict} "
              f"({report['subject_count']} subject(s), "
              f"{len(report['runs_checked'])} run(s))")
        for finding in report["subjects"]:
            if finding["clean"]:
                print(f"  {finding['subject']}: clean")
            else:
                for residual in finding["residuals"]:
                    print(f"  {finding['subject']}: {residual['matched_inputs']} "
                          f"input item(s) still feed {len(residual['output_ids'])} "
                          f"output(s) in {residual['run_id']}")
        print(f"digest: sha256:{report['digest']}")
        if args.report:
            _write_json(args.report, report)
        return 0 if report["clean"] else 1

    raise AssertionError(
        f"unhandled audit command {args.audit_command!r}"
    )  # pragma: no cover


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.remote and args.root:
        print("stats: use either --root or --remote, not both", file=sys.stderr)
        return 2
    from repro.obs.slowlog import slow_log_payload

    if args.remote:
        from urllib.parse import quote

        from repro.client import connect, scrape

        if args.pattern:
            print("stats: --pattern needs a local --root", file=sys.stderr)
            return 2
        client = connect(args.remote)
        if args.slow:
            print(json.dumps(client.debug_slow(), indent=2))
        elif args.as_json:
            print(json.dumps(client.stats(run=args.run), indent=2))
        else:
            # The text form is a scrape page, not a /v1 answer.
            page = args.remote.rstrip("/") + "/stats?format=prometheus"
            if args.run:
                page += f"&run={quote(args.run)}"
            print(scrape(page), end="")
        return 0
    if not args.root:
        if args.slow:
            # No warehouse involved: report whatever this process captured.
            print(json.dumps(slow_log_payload(), indent=2))
            return 0
        print("stats: one of --root or --remote is required", file=sys.stderr)
        return 2
    from repro.warehouse import Warehouse

    registry = Warehouse.open(args.root).stats(args.run, pattern=args.pattern)
    if args.slow:
        # The --pattern query (if any) just ran in-process, so over-budget
        # work shows up here exactly like it would on a server's /debug/slow.
        print(json.dumps(slow_log_payload(), indent=2))
        return 0
    if args.as_json:
        print(json.dumps(registry.to_json(), indent=2))
    else:
        print(registry.render_prometheus(), end="")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.warehouse import Warehouse

    warehouse = Warehouse.open(args.root)

    if args.shard_command == "ls":
        summary = warehouse.shard_summary()
        if not warehouse.sharded:
            print(f"warehouse {warehouse.root}: unsharded (flat layout)")
        header = f"{'shard':<12} {'runs':>4} {'rows':>8} {'bytes':>12} {'epoch':>5}"
        print(header)
        print("-" * len(header))
        for entry in summary:
            name = entry["shard"] or "(legacy)"
            print(f"{name:<12} {entry['runs']:>4} {entry['rows']:>8} "
                  f"{entry['bytes']:>12} {entry['epoch']:>5}")
        return 0

    if args.shard_command == "init":
        names = warehouse.init_shards(args.count)
        print(f"warehouse {warehouse.root}: {len(names)} shard(s)")
        for name in names:
            print(f"  {name}")
        return 0

    if args.shard_command == "rebalance":
        outcome = warehouse.rebalance(count=args.count)
        print(f"warehouse {warehouse.root}: {len(outcome['shards'])} shard(s), "
              f"{len(outcome['moved'])} run(s) moved, {outcome['unmoved']} in place")
        for move in outcome["moved"]:
            source = move["from"] or "(legacy)"
            print(f"  {move['run_id']}: {source} -> {move['to']}")
        return 0

    raise AssertionError(
        f"unhandled shard command {args.shard_command!r}"
    )  # pragma: no cover


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    from repro.serve.fleet import Fleet
    from repro.serve.router import RouterService, RouterServer

    with Fleet(args.root, size=args.fleet, mode=args.fleet_mode) as fleet:
        router = RouterService(fleet.workers())
        server = RouterServer(router, host=args.host, port=args.port)
        print(f"routing warehouse {args.root} at {server.url}")
        print(f"  fleet: {args.fleet} {args.fleet_mode} worker(s)")
        for name, url in fleet.workers():
            print(f"    {name}: {url}")
        print("  endpoints: /v1/healthz /v1/fleet /v1/runs /v1/stats "
              "/metrics POST /v1/query /v1/forward /v1/audit/sar "
              "/v1/audit/erasure")
        sys.stdout.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            print("\nshutting down fleet")
            sys.stdout.flush()
            server.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.fleet:
        return _cmd_serve_fleet(args)
    from repro.serve import ProvenanceServer, QueryService, ServeConfig
    from repro.warehouse.reader import DEFAULT_CACHE_SIZE

    config = ServeConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        cache_size=args.cache_size,
        segment_cache_size=(
            args.segment_cache_size
            if args.segment_cache_size is not None
            else DEFAULT_CACHE_SIZE
        ),
        retention_ttl=args.retention_ttl,
        retention_sweep_interval=args.retention_sweep_interval,
    )
    from repro.obs.profile import profile_enabled

    profiler = None
    if profile_enabled():
        from repro.obs.profile import SamplingProfiler

        # One profiler for the server's lifetime: the sampler sees the
        # worker threads, so server-side query work is attributed too.
        profiler = SamplingProfiler(stage="serve").start()
    with _trace_to(args.trace):
        service = QueryService.open(config)
        server = ProvenanceServer(service)
        print(f"serving warehouse {service.warehouse.root} at {server.url}")
        print(f"  workers: {config.workers}  queue limit: {config.queue_limit}  "
              f"deadline: {config.deadline or 'none'}s")
        if config.retention_ttl:
            print(f"  retention: ttl {config.retention_ttl:g}s, sweep every "
                  f"{config.retention_sweep_interval:g}s")
        print("  endpoints: /v1/healthz /v1/runs /v1/runs/<id> /v1/stats "
              "/v1/debug/slow /metrics POST /v1/query /v1/forward "
              "/v1/audit/sar /v1/audit/erasure")
        if profiler is not None:
            print("  profiler: sampling (REPRO_PROFILE=on)")
        # Supervisors read the banner through a pipe; don't sit in the buffer.
        sys.stdout.flush()
        server.install_signal_handlers()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass  # direct ^C before the handler was armed: same clean path
        finally:
            if server.signalled is not None:
                print("\nshutting down (signal), draining queries")
            else:
                print("\nshutting down")
            sys.stdout.flush()
            server.close()
            if profiler is not None:
                from repro.obs.profile import profile_out_path

                profiler.stop()
                out = profile_out_path() or "serve_profile.folded"
                lines = profiler.write_folded(out)
                print(f"wrote {out} ({lines} stacks, "
                      f"{profiler.sample_count} samples)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "example":
        with _trace_to(args.trace):
            return _cmd_example(args.pattern)
    if args.command == "scenario":
        with _trace_to(args.trace):
            return _cmd_scenario(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "bench":
        with _trace_to(args.trace):
            return _cmd_bench(args.figure, args.scale, args.repeats, args.metrics_json)
    if args.command == "heatmap":
        return _cmd_heatmap(args.scale, args.items)
    if args.command == "warehouse":
        return _cmd_warehouse(args)
    if args.command == "index":
        return _cmd_index(args)
    if args.command == "trace-forward":
        return _cmd_trace_forward(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "shard":
        return _cmd_shard(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
