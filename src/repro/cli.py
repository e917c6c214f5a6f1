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
    python -m repro stats --remote http://127.0.0.1:9410

    python -m repro index build --root /tmp/wh         # backfill audit index
    python -m repro trace-forward --root /tmp/wh --pattern 'root{//id_str="lp"}'
    python -m repro audit sar u1 u2 --root /tmp/wh     # subject-access request
    python -m repro audit erasure u1 --root /tmp/wh    # erasure receipt

The parser is built from one table, :data:`COMMANDS`: a row per command
path gives its handler, its help text and the arguments it takes, by key
into :data:`ARGUMENTS`, where each argument is declared once.  :func:`main`
does what the commands share: ``--trace PATH`` writes a Chrome trace-event
JSON of the command (loadable in Perfetto / ``chrome://tracing``),
``--analyze`` prints an explain-analyze breakdown after the answer, and a
library error prints ``repro: <message>`` on stderr.  The ``--root`` of
every command except ``warehouse record`` and ``serve`` must name an
existing warehouse.

Exit status: 0 on success, 1 when ``audit erasure`` finds residuals, 2 on
a usage or library error.  ``repro bench`` regenerates the paper's
figures; the system's own end-to-end benchmark is
``python3 benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Callable, Iterator, Sequence

from repro.core.usecases.usage import UsageAnalysis
from repro.engine.executor import Executor
from repro.engine.session import Session
from repro.errors import AuditError, ReproError
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


def _existing_root(path: str) -> str:
    """The ``--root`` of a read command: a missing directory is a typo, not
    an empty warehouse (``Warehouse.open`` would create it)."""
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"no warehouse directory at {path}")
    return path


#: Every argument of every command, declared once: key -> (names, options).
#: Keys sharing a flag name differ in meaning: ``root`` must exist while
#: ``new-root`` is created; ``no-index`` ignores an index while
#: ``skip-index`` does not build one; ``source-pattern`` matches source
#: items where ``pattern`` matches result rows; ``retain-run`` names one run
#: where ``runs`` repeats.
ARGUMENTS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    # positionals
    "scenario": (("name",), {"choices": sorted(SCENARIOS)}),
    "pipeline": (("name",), {"choices": [*sorted(SCENARIOS), "example"]}),
    "figure": (("figure",), {
        "choices": ["fig6", "fig7", "fig8", "fig9", "titian", "operators", "ablation"],
    }),
    "run": (("run",), {"help": "run id or name (names resolve to newest)"}),
    "newest-run": (("run",), {
        "nargs": "?", "default": None, "help": "run id or name (default: newest run)",
    }),
    "query": (("pattern",), {"help": "tree pattern, e.g. 'root{//id_str=\"lp\"}'"}),
    "subjects": (("subjects",), {
        "nargs": "*", "help": "subject identifiers (or use --subjects-file)",
    }),
    # the warehouse, the workload, what to ask
    "root": (("--root",), {
        "required": True, "type": _existing_root,
        "help": "warehouse root directory (must exist)",
    }),
    "new-root": (("--root",), {
        "required": True, "help": "warehouse root directory (created if missing)",
    }),
    "scale": (("--scale",), {"type": float, "default": 1.0, "help": "workload scale factor"}),
    "pattern": (("--pattern",), {
        "default": None, "help": "tree pattern to backtrace (default: the scenario's query)",
    }),
    "source-pattern": (("--pattern",), {
        "required": True,
        "help": "tree pattern over the source items, e.g. 'root{//id_str=\"lp\"}'",
    }),
    "no-index": (("--no-index",), {
        "action": "store_true", "help": "ignore persisted indexes (full scan)",
    }),
    "skip-index": (("--no-index",), {
        "action": "store_true",
        "help": "skip building the forward/audit index at record time "
                "(backfill later with `repro index build`)",
    }),
    # output and observation
    "trace": (("--trace",), {
        "default": None, "metavar": "PATH",
        "help": "write a Chrome trace-event JSON of the command",
    }),
    "analyze": (("--analyze",), {
        "action": "store_true",
        "help": "print an explain-analyze breakdown: per-phase wall time, "
                "segments and index probes, rows and items decoded",
    }),
    "json": (("--json",), {
        "action": "store_true", "dest": "as_json",
        "help": "emit JSON instead of the text rendering",
    }),
    "metrics-json": (("--metrics-json",), {
        "default": None, "metavar": "PATH", "help": "write the measurements as JSON",
    }),
    # one command each
    "no-query": (("--no-query",), {
        "action": "store_true", "help": "execute only, skip the query",
    }),
    "capture": (("--capture",), {
        "action": "store_true",
        "help": "compile for provenance capture (disables store-unsafe rewrites)",
    }),
    "repeats": (("--repeats",), {"type": int, "default": 3}),
    "items": (("--items",), {"type": int, "default": 25}),
    "probe": (("--probe",), {
        "default": None, "metavar": "PATTERN",
        "help": "also backtrace PATTERN and report its segment-cache accounting "
                "(how much of the run the query touches)",
    }),
    "ttl": (("--ttl",), {
        "type": float, "required": True, "metavar": "SECONDS",
        "help": "expire epochs appended more than SECONDS ago",
    }),
    "retain-run": (("--run",), {
        "default": None,
        "help": "restrict the sweep to one run id or name (default: every epoch-layout run)",
    }),
    "force": (("--force",), {
        "action": "store_true", "help": "rebuild even if an index already exists",
    }),
    "subjects-file": (("--subjects-file",), {
        "default": None, "metavar": "PATH", "help": "file with one subject identifier per line",
    }),
    "runs": (("--run",), {
        "action": "append", "default": None, "dest": "runs",
        "help": "restrict to this run id or name (repeatable; default: every catalogued run)",
    }),
    "template": (("--template",), {
        "default": None,
        "help": "pattern template with a {subject} placeholder "
                "(default: any string leaf equals the subject)",
    }),
    "report": (("--report",), {
        "default": None, "metavar": "PATH", "help": "also write the JSON report here",
    }),
    "page": (("--page",), {"type": int, "default": 1}),
    "page-size": (("--page-size",), {"type": int, "default": 100}),
    "include-items": (("--include-items",), {
        "action": "store_true", "help": "embed the derived output items in the report",
    }),
    "remote": (("--remote",), {
        "default": None, "metavar": "URL",
        "help": "fetch the registry from a running `repro serve` "
                "instead of opening a warehouse locally",
    }),
    "slow": (("--slow",), {
        "action": "store_true",
        "help": "print the slow-query ring instead of the registry",
    }),
    "host": (("--host",), {"default": "127.0.0.1"}),
    "port": (("--port",), {
        "type": int, "default": 9410, "help": "listening port (0: ephemeral)",
    }),
    "workers": (("--workers",), {"type": int, "default": 4, "help": "query worker threads"}),
    "queue-limit": (("--queue-limit",), {
        "type": int, "default": 16,
        "help": "admission queue depth beyond the workers (full -> 429)",
    }),
    "deadline": (("--deadline",), {
        "type": float, "default": 30.0,
        "help": "per-request deadline in seconds (0: unbounded; over -> 504)",
    }),
    "cache-size": (("--cache-size",), {
        "type": int, "default": 128, "help": "pattern-result cache capacity (entries)",
    }),
    "retention-ttl": (("--retention-ttl",), {
        "type": float, "default": None, "metavar": "SECONDS",
        "help": "sweep streaming runs in the background, expiring epochs older "
                "than SECONDS (default: no sweeping)",
    }),
    "retention-sweep-interval": (("--retention-sweep-interval",), {
        "type": float, "default": 60.0, "metavar": "SECONDS",
        "help": "how often the background retention sweep runs",
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """Walk :data:`COMMANDS` into one argparse tree; each leaf parser's
    ``handler`` default is what :func:`main` calls."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pebble reproduction: structural provenance for nested data",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.set_defaults(trace=None, analyze=False, as_json=False)
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (handler, help_text, arguments) in COMMANDS.items():
        sub = groups[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            groups[path] = sub.add_subparsers(dest="subcommand", required=True)
            continue
        sub.set_defaults(handler=handler)
        for entry in arguments:
            # A row may override a declaration's options for its command only
            # (heatmap's smaller default scale, stats' optional --root).
            key, overrides = (entry, {}) if isinstance(entry, str) else entry
            names, options = ARGUMENTS[key]
            sub.add_argument(*names, **{**options, **overrides})
    return parser


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


def _warehouse(args: argparse.Namespace):
    from repro.warehouse import Warehouse

    return Warehouse.open(args.root)


def _build_pipeline(name: str, session: Session, scale: float):
    """Return ``(dataset, description)`` for a scenario name or ``example``."""
    if name == "example":
        dataset = build_running_example(session, list(RUNNING_EXAMPLE_TWEETS))
        return dataset, "the paper's running example (Sec. 2)"
    spec = scenario(name)
    dataset = spec.build(session, load_workload(spec.kind, scale))
    return dataset, spec.description


def _print_provenance(query: str, provenance) -> None:
    print(f"query: {query}")
    print(f"matched result items: {len(provenance.matched_output_ids)}")
    for source in provenance.sources:
        print(f"  {source.name}: {len(source)} input items in provenance")
    print()
    print(provenance.render())


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        print(f"{name} ({spec.kind}): {spec.description}")
        print(f"    query: {spec.pattern}")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    session = Session()
    pipeline = build_running_example(session, list(RUNNING_EXAMPLE_TWEETS))
    execution = pipeline.execute(capture=True)
    print("Result (Tab. 2):")
    for item in execution.items():
        print(" ", item)
    provenance = query_provenance(execution, args.pattern)
    print(f"\nProvenance of {args.pattern}:")
    print(provenance.render())
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    spec = scenario(args.name)
    execution = spec.build(Session(), load_workload(spec.kind, args.scale)).execute(
        capture=True
    )
    print(f"{args.name}: {spec.description}")
    print(f"result rows: {len(execution)}")
    print(f"provenance:  {execution.store.size_report()}")
    if args.metrics_json:
        _write_json(args.metrics_json, execution.metrics.to_json())
    if args.no_query:
        return 0
    query = args.pattern or spec.pattern
    print()
    _print_provenance(query, query_provenance(execution, query))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    session = Session()
    dataset, description = _build_pipeline(args.name, session, args.scale)
    config = session.config
    physical = Executor(capture=args.capture, config=config).compile(dataset.plan)
    print(f"{args.name}: {description}")
    print(
        f"capture: {'on' if args.capture else 'off'}  "
        f"optimize: {'on' if config.optimize else 'off'}"
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


def _cmd_bench(args: argparse.Namespace) -> int:
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

    figure, scale, repeats = args.figure, args.scale, args.repeats
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
    if args.metrics_json:
        payload = {
            "figure": figure,
            "scale": scale,
            "measurements": [_measurement_dict(entry) for entry in measurements],
        }
        _write_json(args.metrics_json, payload)
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    usage = UsageAnalysis()
    for name in DBLP_SCENARIOS:
        spec = scenario(name)
        data = load_workload(spec.kind, args.scale)
        execution = spec.build(Session(), data).execute(capture=True)
        usage.add(query_provenance(execution, spec.pattern))
    attributes = ["key", "title", "authors", "year", "crossref", "pages"]
    source = "inproceedings.json"
    print(usage.render_heatmap(source, range(1, args.items + 1), attributes))
    print()
    print(usage.partitioning_advice(source, attributes))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    pipeline, _ = _build_pipeline(args.name, Session(), args.scale)
    record = warehouse.record(
        pipeline.execute(capture=True), name=args.name, index=not args.no_index
    )
    print(f"recorded {record.run_id} ({record.name})")
    print(f"  operators: {record.operator_count}")
    print(f"  rows:      {record.row_count}")
    print(f"  bytes:     {record.total_bytes}")
    print(f"  indexed:   {'yes' if record.indexed else 'no'}")
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
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


def _cmd_inspect(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    summary = warehouse.inspect(args.run)
    print(f"{summary['run_id']} ({summary['name']}), created {summary['created']}")
    print(f"sink oid {summary['sink_oid']}, {summary['rows']} rows, "
          f"{summary['total_bytes']} bytes on disk")
    print("bytes: " + ", ".join(f"{size} {kind}" for kind, size in summary["bytes"].items()))
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


def _cmd_query(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    provenance, metrics = warehouse.backtrace(
        args.run, args.pattern, breakdown=args.breakdown
    )
    _print_provenance(args.pattern, provenance)
    print()
    total = warehouse.inspect(args.run)["operators"]
    print(
        f"segments decoded: {metrics.misses}/{len(total)} "
        f"(cache hit rate {metrics.hit_rate:.2f}, {metrics.bytes_read} bytes read)"
    )
    print(f"segment cache: {json.dumps(metrics.to_json())}")
    return 0


def _cmd_retain(args: argparse.Namespace) -> int:
    report = _warehouse(args).retain(args.ttl, run_id=args.run)
    if not report["receipts"]:
        print(f"retention: no epochs older than {args.ttl:g}s")
        return 0
    print(f"retention: {len(report['receipts'])} run(s) swept (ttl {args.ttl:g}s)")
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


def _cmd_index_build(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    record = warehouse.resolve(args.run)
    entry = warehouse.build_index(record.run_id, force=args.force)
    print(f"indexed {record.run_id}: "
          f"{entry['inputs']} input ids, {entry['terms']} terms, "
          f"{entry['items']} items, {entry['paths']} paths "
          f"({entry['segment_bytes']} bytes)")
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    warehouse = _warehouse(args)
    record = warehouse.resolve(args.run)
    index = warehouse.load_index(record.run_id)
    if index is None:
        print(f"{record.run_id}: not indexed "
              f"(forward/audit queries fall back to a full scan)")
        return 0
    print(f"{record.run_id}: {json.dumps(index.summary())}")
    return 0


def _cmd_trace_forward(args: argparse.Namespace) -> int:
    result = _warehouse(args).forward(
        args.run,
        args.pattern,
        use_index=not args.no_index,
        breakdown=args.breakdown,
    )
    if args.as_json:
        payload = result.to_json()
        if args.breakdown is not None:
            payload["analyze"] = args.breakdown.to_json()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(result.render())
    stats = result.stats
    print(f"\nindex: {'used' if stats['index_used'] else 'absent (full scan)'}  "
          f"operators decoded: {stats['operators_decoded']}  "
          f"skipped: {stats['operators_skipped']}  "
          f"candidates tested: {stats['candidates_tested']}  "
          f"confirmed: {stats['candidates_confirmed']}")
    return 0


def _audit_request(args: argparse.Namespace) -> dict[str, Any]:
    """The keyword arguments both audit commands pass to the library."""
    from repro.audit import DEFAULT_SUBJECT_TEMPLATE

    subjects = list(args.subjects)
    if args.subjects_file:
        with open(args.subjects_file, "r", encoding="utf-8") as handle:
            subjects.extend(line.strip() for line in handle if line.strip())
    if not subjects:
        raise AuditError("no subjects given (arguments or --subjects-file)")
    return {
        "warehouse": _warehouse(args),
        "subjects": subjects,
        "runs": args.runs,
        "template": args.template or DEFAULT_SUBJECT_TEMPLATE,
        "use_index": not args.no_index,
    }


def _cmd_audit_sar(args: argparse.Namespace) -> int:
    from repro.audit import subject_access_request

    report = subject_access_request(
        **_audit_request(args),
        page=args.page,
        page_size=args.page_size,
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


def _cmd_audit_erasure(args: argparse.Namespace) -> int:
    from repro.audit import verify_erasure

    report = verify_erasure(**_audit_request(args))
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


def _cmd_stats(args: argparse.Namespace) -> int:
    if (args.root is None) == (args.remote is None):
        print("stats: give exactly one of --root or --remote", file=sys.stderr)
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
    registry = _warehouse(args).stats(args.run, pattern=args.pattern)
    if args.slow:
        # The --pattern query (if any) just ran in-process, so over-budget
        # work shows up here exactly like it would on a server's /debug/slow.
        print(json.dumps(slow_log_payload(), indent=2))
    elif args.as_json:
        print(json.dumps(registry.to_json(), indent=2))
    else:
        print(registry.render_prometheus(), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ProvenanceServer, QueryService, ServeConfig

    config = ServeConfig(
        root=args.root,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        cache_size=args.cache_size,
        retention_ttl=args.retention_ttl,
        retention_sweep_interval=args.retention_sweep_interval,
    )
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
    return 0


_AUDIT = ("subjects", "subjects-file", "root", "runs", "template", "no-index", "report")

#: The CLI: command path -> (handler, help, argument keys into ARGUMENTS).
#: A ``None`` handler is a group whose rows follow it; an argument entry may
#: be ``(key, overrides)`` to change that declaration for one command.
COMMANDS: dict[tuple[str, ...], tuple[Callable[[argparse.Namespace], int] | None, str, tuple]] = {
    ("list",): (_cmd_list, "list the evaluation scenarios", ()),
    ("example",): (_cmd_example, "run the paper's running example", (
        ("pattern", {"default": RUNNING_EXAMPLE_PATTERN,
                     "help": "tree pattern to backtrace (default: Fig. 4)"}),
        "trace",
    )),
    ("scenario",): (_cmd_scenario, "run one scenario and its structural query", (
        "scenario", "scale", "pattern", "no-query", "metrics-json", "trace",
    )),
    ("explain",): (
        _cmd_explain, "show logical plan, applied rewrites, and physical stages",
        ("pipeline", "scale", "capture"),
    ),
    ("bench",): (_cmd_bench, "regenerate one evaluation artefact", (
        "figure", "scale", "repeats", "metrics-json", "trace",
    )),
    ("heatmap",): (_cmd_heatmap, "Fig. 10 usage heatmap over D1-D5", (
        ("scale", {"default": 0.5}), "items",
    )),
    ("warehouse",): (None, "record, list, inspect, and query stored provenance runs", ()),
    ("warehouse", "record"): (
        _cmd_record, "execute with capture and record the run durably",
        ("pipeline", "new-root", "scale", "skip-index", "trace"),
    ),
    ("warehouse", "ls"): (_cmd_ls, "list the catalogued runs", ("root",)),
    ("warehouse", "inspect"): (
        _cmd_inspect, "per-operator summary of one run (index only, no decode)",
        ("run", "root", "probe"),
    ),
    ("warehouse", "query"): (
        _cmd_query, "lazily backtrace a tree pattern over a stored run",
        ("run", "query", "root", "analyze", "trace"),
    ),
    ("warehouse", "retain"): (
        _cmd_retain,
        "expire epochs older than a TTL from streaming runs "
        "(writes verified retention receipts)",
        ("root", "ttl", "retain-run"),
    ),
    ("index",): (None, "manage the persisted per-run forward/audit indexes", ()),
    ("index", "build"): (
        _cmd_index_build, "build (or rebuild) the index of a stored run",
        ("newest-run", "root", "force"),
    ),
    ("index", "info"): (
        _cmd_index_info, "show whether a run is indexed and the index sections",
        ("newest-run", "root"),
    ),
    ("trace-forward",): (
        _cmd_trace_forward, "forward provenance: which outputs derive from matching inputs",
        ("newest-run", "source-pattern", "root", "no-index", "json", "analyze", "trace"),
    ),
    ("audit",): (None, "GDPR workflows: subject-access requests, erasure checks", ()),
    ("audit", "sar"): (
        _cmd_audit_sar, "bulk subject-access request over stored runs",
        (*_AUDIT, "page", "page-size", "include-items"),
    ),
    ("audit", "erasure"): (
        _cmd_audit_erasure,
        "verify nothing derives from the subjects any more (exit 0 clean, 1 residuals found)",
        _AUDIT,
    ),
    ("stats",): (_cmd_stats, "print the metrics registry describing a stored run", (
        "newest-run",
        ("root", {"required": False, "help": "warehouse root directory (or --remote)"}),
        "remote",
        ("pattern", {"help": "also run this backtrace and fold its cache metrics in "
                             "(local --root only)"}),
        "json",
        "slow",
    )),
    ("serve",): (_cmd_serve, "serve provenance queries over a warehouse via HTTP", (
        "new-root", "host", "port", "workers", "queue-limit", "deadline", "cache-size",
        "retention-ttl", "retention-sweep-interval",
        ("trace", {"help": "write a Chrome trace-event JSON on shutdown"}),
    )),
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    args.breakdown = None
    if args.analyze:
        from repro.obs.breakdown import QueryBreakdown

        args.breakdown = QueryBreakdown()
    try:
        with _trace_to(args.trace):
            code = args.handler(args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.breakdown is not None and not args.as_json:
        from repro.obs.breakdown import render_breakdown

        counters = args.breakdown.counters
        print()
        print(render_breakdown(args.breakdown.to_json()))
        for key in ("rows_visited", "rows_decoded", "items_decoded"):
            if key in counters:
                print(f"  {key.replace('_', ' ') + ':':<15}{counters[key]}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
