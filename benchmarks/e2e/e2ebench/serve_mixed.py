"""serve_mixed: many audit requests at ``repro serve`` while new runs land.

Set-up records T1, T3, D1 and D4 into one warehouse and starts ``python -m
repro serve --workers 2`` as a subprocess.  Two closed-loop client threads,
each with its own ``repro.connect(url)``, replay a seeded schedule; one
cycle is a block of requests that opens with a **write beside the reads**
(``Warehouse.record`` of a small D1 run into the served root: catalog epoch
bump, selective invalidation) followed by

* ~55% ``backtrace`` from a pool of 8 (run, pattern) pairs -- cache hits,
* ~15% ``backtrace`` with a constant no other request of the cycle uses --
  computed on the resident store,
* ~18% ``sar([subject])`` and ~12% ``forward`` over subjects distinct within
  the cycle, seven in eight of which are known to the run.

``op_p50_ms`` sits in the warm mode.  Audit requests are 30% of the mix and
their cost goes by run (T3 > T1 >> D1, D4); the T3 ones over known subjects
alone are ~6.5% of the cycle, so ``op_p95_ms`` sits inside that cluster, not
on the knee between two (at 25% audit requests it sat exactly on the T3/T1
boundary and moved 18% from seed to seed).
"""

from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from time import perf_counter
from typing import Any

import repro
from repro import PebbleSession, Warehouse
from repro.workloads import scenario

from e2ebench.base import BenchmarkError, Workload, require
from e2ebench.harness import (
    NULL_RECORDER,
    Cycle,
    OpRecord,
    Recorder,
    backtrace_digest,
    backtrace_json_digest,
    disk_usage,
    forward_digest,
    median,
    peak_rss_mb,
    percentile,
    ratio,
)
from e2ebench.inputs import Inputs

SERVED = ("T1", "T3", "D1", "D4")
CLIENTS = 2
SERVER_WORKERS = 2

#: A second cached pattern per served run (the first is the scenario's own).
EXTRA_HOT_PATTERN = {
    "T1": 'root{/m_user{/id_str="u1"}}',
    "T3": 'root{/user{/id_str="u1"}}',
    "D1": 'root{/p_key="conf/pebble/2015"}',
    "D4": 'root{/p_key="conf/pebble/2015"}',
}

#: The default subject selector of ``repro.audit`` (any string leaf).
SUBJECT_PATTERN = 'root{{//*="{subject}"}}'

#: The layer that answers each request kind inside the server.
QUERY_LAYER = {"hot": "core", "distinct": "core", "sar": "audit", "forward": "audit"}

#: ``GET /metrics`` gauges whose deltas over the timed section are reported.
SCRAPED = {
    "serve.rejected": "repro_serve_pool_rejected",
    "serve.deadline_exceeded": "repro_serve_pool_timeouts",
    "serve.invalidations": "repro_serve_pattern_cache_invalidations",
}


class Request:
    __slots__ = ("kind", "run_id", "arg", "digest")

    def __init__(self, kind: str, run_id: str = "", arg: str = "", digest: str = ""):
        self.kind = kind
        self.run_id = run_id
        #: The pattern (hot, distinct) or the subject (sar, forward).
        self.arg = arg
        #: Digest of the library's answer, computed in set-up.
        self.digest = digest


class ServeMixed(Workload):
    name = "serve_mixed"

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        super().__init__(seed, smoke, scratch)
        self.scale = 0.03 if smoke else 0.25
        self.cycle_ops = 20 if smoke else 500
        self.distinct_pool_size = 8 if smoke else 300
        self.subjects_per_run = 4 if smoke else 24
        self.min_ops = self.cycle_ops
        self.root = scratch
        self.hot: list[Request] = []
        self.distinct: list[Request] = []
        #: run name -> sar/forward requests over that run's subject pool
        self.subjects: dict[str, list[Request]] = {}
        self.kinds: list[str] = []
        self.write_execution: Any = None
        self.writes = 0
        self.server: subprocess.Popen | None = None
        self.url = ""
        self.clients: list[Any] = []
        self.startup_seconds = 0.0
        self.first_request_seconds: list[float] = []
        self.scrape_base: dict[str, float] = {}

    def describe(self) -> str:
        return (
            f"scale {self.scale}: {self.inputs.total_items} input items, "
            f"{self.inputs.total_bytes} B; {len(SERVED)} served runs, {self.stored_bytes} B "
            f"on disk; {CLIENTS} closed-loop clients, {SERVER_WORKERS} server workers; "
            f"cycle = {self.cycle_ops} requests ({self._mix()})"
        )

    def _mix(self) -> str:
        return ", ".join(
            f"{self.kinds.count(kind)} {kind}"
            for kind in ("record", "hot", "distinct", "sar", "forward")
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.inputs = Inputs().add_twitter(self.scale, self.seed).add_dblp(self.scale, self.seed)
        self.root = self.fresh_dir("served")
        warehouse = Warehouse.open(self.root)
        self.hot, self.subjects, self.writes = [], {}, 0
        distinct_by_run = []
        for name in SERVED:
            spec = scenario(name)
            pebble = PebbleSession()
            captured = pebble.run(spec.build(pebble.session, self.inputs.data_for(name)))
            run_id = warehouse.record(captured.execution, name=name).run_id
            for pattern in (spec.pattern, EXTRA_HOT_PATTERN[name]):
                self.hot.append(self._backtrace_request("hot", captured, run_id, pattern))
            patterns = _distinct_patterns(name, captured.items())
            rng.shuffle(patterns)
            quota = -(-self.distinct_pool_size // len(SERVED))
            distinct_by_run.append(
                [
                    self._backtrace_request("distinct", captured, run_id, pattern)
                    for pattern in patterns[:quota]
                ]
            )
            self.subjects[name] = self._subject_requests(warehouse, name, run_id, rng)
        self.distinct = [
            request
            for group in itertools.zip_longest(*distinct_by_run)
            for request in group
            if request is not None
        ]
        self.stored_bytes = disk_usage(self.root)[0]
        self.input_bytes = sum(self.inputs.bytes_for(name) for name in SERVED)
        self.kinds = self._kinds(rng)
        require(
            len(self.distinct) >= self.kinds.count("distinct"),
            f"only {len(self.distinct)} distinct-constant patterns under seed {self.seed}",
        )
        # One small captured run, recorded again for every write.
        small = Inputs().add_dblp(0.02, self.seed)
        pebble = PebbleSession()
        self.write_execution = pebble.run(
            scenario("D1").build(pebble.session, small.data_for("D1"))
        ).execution
        self._start_server()
        self.clients = [repro.connect(self.url) for _ in range(CLIENTS)]
        self._warm_up()
        self.scrape_base = self._scrape()

    def _backtrace_request(self, kind: str, captured, run_id: str, pattern: str) -> Request:
        result = captured.backtrace(pattern)
        require(
            result.matched_output_ids,
            f"pattern {pattern} matches nothing under seed {self.seed}",
        )
        return Request(kind, run_id, pattern, backtrace_digest(result))

    def _subject_requests(
        self, warehouse: Warehouse, name: str, run_id: str, rng: random.Random
    ) -> list[Request]:
        """The run's subject pool with the library's answer for each."""
        ghosts = max(1, self.subjects_per_run // 8)
        # Group by group, shuffled within: every user id before any alias of
        # a user, record ids (one matching item each, far cheaper) last -- so
        # every seed's subjects cover the same share of the run's inputs.
        subjects = []
        for group in _subject_candidates(scenario(name).kind, self.inputs):
            rng.shuffle(group)
            subjects += [subject for subject in group if subject not in subjects]
        del subjects[self.subjects_per_run - ghosts :]
        subjects += [f"ghost-{self.seed}-{index}" for index in range(ghosts)]
        rng.shuffle(subjects)
        report = repro.subject_access_request(
            warehouse, subjects, runs=[run_id], page_size=len(subjects)
        )
        answers = {entry["subject"]: entry["runs"] for entry in report["subjects"]}
        matched = sum(1 for subject in subjects if answers[subject])
        require(
            2 * matched >= len(subjects),
            f"only {matched}/{len(subjects)} subjects of {name} match under seed {self.seed}",
        )
        return [Request("sar", run_id, subject, _sar_digest(answers[subject])) for subject in subjects]

    def _kinds(self, rng: random.Random) -> list[str]:
        """The cycle's request kinds in replay order; the write goes first."""
        reads = self.cycle_ops - 1
        distinct = round(reads * 0.15)
        sar = round(reads * 0.18)
        forward = round(reads * 0.12)
        kinds = (
            ["distinct"] * distinct
            + ["sar"] * sar
            + ["forward"] * forward
            + ["hot"] * (reads - distinct - sar - forward)
        )
        rng.shuffle(kinds)
        per_run = -(-max(sar, forward) // len(SERVED))
        require(
            per_run <= self.subjects_per_run,
            "subject pool too small for subjects to stay distinct within a cycle",
        )
        return ["record"] + kinds

    def _start_server(self) -> None:
        start = perf_counter()
        # The server inherits the runner's environment (``src`` on the path,
        # no ``REPRO_*``) and stderr, so its failures show where ours do.
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(self.root), "--port", "0",
                "--workers", str(SERVER_WORKERS),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.server.stdout.readline()
        found = re.search(r"http://\S+", banner)
        if not found:
            raise BenchmarkError(f"repro serve did not announce a URL: {banner!r}")
        self.url = found.group(0)
        deadline = perf_counter() + 30
        while True:
            try:
                with urllib.request.urlopen(self.url + "/v1/healthz", timeout=2) as response:
                    response.read()
                break
            except (urllib.error.URLError, OSError):
                if perf_counter() > deadline or self.server.poll() is not None:
                    raise BenchmarkError("repro serve never answered /v1/healthz") from None
                time.sleep(0.01)
        self.startup_seconds = perf_counter() - start

    def _warm_up(self) -> None:
        """First request per run (loads its resident store), then every
        cached pattern and one audit request per run, all checked."""
        warm = Cycle(-1, NULL_RECORDER)
        client = self.clients[0]
        for request in self.hot[::2]:
            self._issue(warm, client, request)
        self.first_request_seconds = [op.seconds for op in warm.ops]
        for request in self.hot[1::2]:
            self._issue(warm, client, request)
        for requests in self.subjects.values():
            self._issue(warm, self.clients[-1], requests[0])
            self._issue(warm, self.clients[-1], _as_forward(requests[0]))
        self.verify(warm)
        require(not warm.failed, "served answers differ from the library's")

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.communicate()
            self.server = None
        super().teardown()

    # -- the cycle -------------------------------------------------------------

    def _schedule(self, index: int) -> list[Request]:
        counts = dict.fromkeys(("hot", "distinct", "sar", "forward"), 0)
        first_distinct = index * self.kinds.count("distinct")
        schedule = []
        for kind in self.kinds:
            if kind == "record":
                schedule.append(Request("record"))
                continue
            position = counts[kind]
            counts[kind] += 1
            if kind == "hot":
                schedule.append(self.hot[position % len(self.hot)])
            elif kind == "distinct":
                schedule.append(self.distinct[(first_distinct + position) % len(self.distinct)])
            else:
                pool = self.subjects[SERVED[position % len(SERVED)]]
                if kind == "sar":
                    schedule.append(pool[position // len(SERVED)])
                else:
                    schedule.append(_as_forward(pool[-1 - position // len(SERVED)]))
        return schedule

    def cycle(self, cycle: Cycle) -> None:
        schedule = self._schedule(cycle.index)
        positions = itertools.count()
        crashes: list[BaseException] = []

        def replay(client: Any) -> None:
            try:
                while True:
                    position = next(positions)
                    if position >= len(schedule):
                        return
                    self._issue(cycle, client, schedule[position], position)
            except BaseException as exc:  # noqa: BLE001 -- re-raised on the main thread
                crashes.append(exc)

        threads = [
            threading.Thread(target=replay, args=(client,), name=f"client-{index}")
            for index, client in enumerate(self.clients)
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cycle.wall = perf_counter() - start
        if crashes:
            raise crashes[0]

    def _issue(
        self, cycle: Cycle, client: Any, request: Request, slot: int | None = None
    ) -> None:
        rec = cycle.rec
        kind = request.kind
        with cycle.op(kind, slot) as op:
            op.info["request"] = request
            if kind == "record":
                with rec.span("Warehouse.record", "warehouse"):
                    Warehouse.open(self.root).record(self.write_execution, name="beside")
                self.writes += 1
                return
            with rec.span(f"client.{kind}", "client") as span:
                if kind == "sar":
                    payload = client.sar([request.arg], run=request.run_id)
                elif kind == "forward":
                    payload = client.forward(
                        SUBJECT_PATTERN.format(subject=request.arg), run=request.run_id
                    )
                else:
                    payload = client.backtrace(request.arg, run=request.run_id)
            op.info["payload"] = payload
            if span is not None:
                _attach_server_spans(rec, span, kind, payload)

    def verify(self, cycle: Cycle) -> None:
        for op in cycle.ops:
            if op.error or op.kind == "record":
                continue
            payload = op.info.pop("payload")
            request = op.info["request"]
            if op.kind == "sar":
                digest = _sar_digest(payload["report"]["subjects"][0]["runs"])
            elif op.kind == "forward":
                digest = forward_digest(payload["result"]["sources"], payload["result"]["output_ids"])
            else:
                digest = backtrace_json_digest(payload["result"])
            if digest != request.digest:
                cycle.fail(f"{op.kind} {request.arg!r} on {request.run_id}: answer differs from the library's")
            op.info["cached"] = payload["server"]["cached"]
            op.info["server_s"] = payload["server"]["seconds"]
            op.info["query_s"] = payload["query_seconds"]
        if len(self.clients[0].runs()) != len(SERVED) + self.writes:
            cycle.fail("the server does not list every run recorded beside the reads")

    # -- layer numbers ---------------------------------------------------------

    def _scrape(self) -> dict[str, float]:
        with urllib.request.urlopen(self.url + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
        values = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name in SCRAPED.values():
                values[name] = float(value)
        return values

    def child_peak_rss_mb(self) -> float:
        assert self.server is not None
        return peak_rss_mb(self.server.pid)

    def layer_metrics(self, cycles: list[Cycle], recorder: Recorder) -> dict[str, float]:
        ops = [op for cycle in cycles if cycle.traced for op in cycle.ops if not op.error]
        reads = [op for op in ops if op.kind != "record"]
        warm = [op for op in reads if op.info["cached"]]
        computed = [op for op in reads if not op.info["cached"]]

        def ms(selected: list[OpRecord], value=lambda op: op.seconds, q: float | None = None) -> float:
            samples = [value(op) for op in selected]
            return (median(samples) if q is None else percentile(samples, q)) * 1e3

        def of(kind: str) -> list[OpRecord]:
            return [op for op in ops if op.kind == kind]

        scraped = self._scrape()
        metrics = {
            metric: scraped.get(gauge, 0.0) - self.scrape_base.get(gauge, 0.0)
            for metric, gauge in SCRAPED.items()
        }
        metrics.update(
            {
                "client.roundtrip_warm_ms": ms(warm),
                "client.roundtrip_computed_ms": ms(computed),
                "serve.server_warm_ms": ms(warm, lambda op: op.info["server_s"]),
                "serve.server_computed_ms": ms(computed, lambda op: op.info["server_s"]),
                "serve.query_ms": ms(computed, lambda op: op.info["query_s"]),
                "serve.envelope_ms": ms(reads, lambda op: op.seconds - op.info["server_s"]),
                "serve.cache_hit_ratio": ratio(len(warm), len(reads)),
                "serve.post_invalidation_ms": ms([op for op in of("hot") if not op.info["cached"]]),
                "serve.first_request_ms": median(self.first_request_seconds) * 1e3,
                "serve.startup_s": self.startup_seconds,
                "serve.peak_rss_mb": self.child_peak_rss_mb(),
                "audit.sar_p50_ms": ms(of("sar")),
                "audit.sar_p95_ms": ms(of("sar"), q=0.95),
                "audit.forward_p50_ms": ms(of("forward")),
                "audit.forward_p95_ms": ms(of("forward"), q=0.95),
                "warehouse.record_beside_reads_ms": ms(of("record")),
            }
        )
        return metrics


def _as_forward(request: Request) -> Request:
    """The forward request over the same subject (same trace, same digest)."""
    return Request("forward", request.run_id, request.arg, request.digest)


def _sar_digest(runs: list[dict[str, Any]]) -> str:
    """Digest of one subject's single-run SAR entry (absent when no match)."""
    if not runs:
        return forward_digest([], [])
    return forward_digest(runs[0]["sources"], runs[0]["output_ids"])


def _attach_server_spans(rec: Recorder, span, kind: str, payload: dict[str, Any]) -> None:
    """Lay the envelope's server time, and inside it the query time, into the
    client call's span; what remains as the client span's self time is the
    envelope (HTTP, JSON, client code)."""
    server_s = min(payload["server"]["seconds"], span.seconds)
    server = rec.attach(span, "serve", "serve", span.start + (span.seconds - server_s) / 2, server_s)
    if not payload["server"]["cached"]:
        query_s = min(payload["query_seconds"], server_s)
        rec.attach(server, "query", QUERY_LAYER[kind], server.start + (server_s - query_s) / 2, query_s)


def _usable(constant: Any) -> bool:
    """String constants that need no escaping inside a pattern literal."""
    return isinstance(constant, str) and constant and '"' not in constant and "\\" not in constant


def _distinct_patterns(name: str, items: list) -> list[str]:
    """Patterns over constants taken from the run's own result items, so
    each is guaranteed a match whatever the seed generated."""
    constants: list[str] = []
    if name in ("T1", "T3"):
        template = 'root{{/tweets{{/text="{}"}}}}'
        for item in items:
            constants.extend(tweet["text"] for tweet in item["tweets"])
    elif name == "D1":
        template = 'root{{/title="{}"}}'
        constants.extend(item["title"] for item in items)
    else:
        template = 'root{{/papers{{/title="{}"}}}}'
        for item in items:
            constants.extend(paper["title"] for paper in item["papers"])
    unique = sorted({constant for constant in constants if _usable(constant)})
    return [template.format(constant) for constant in unique]


def _subject_candidates(kind: str, inputs: Inputs) -> list[list[str]]:
    """Identifiers an auditor would ask about, in groups of falling
    preference: persons' ids, their aliases, then record ids."""
    if kind == "twitter":
        users = [tweet["user"] for tweet in inputs.raw["tweets"]]
        groups = [[user[key] for user in users] for key in ("id_str", "screen_name", "name")]
        groups.append([tweet["id_str"] for tweet in inputs.raw["tweets"]])
    else:
        groups = [
            [person["name"] for person in inputs.raw["persons"]],
            [paper["key"] for paper in inputs.raw["inproceedings"]],
        ]
    return [sorted({subject for subject in group if _usable(subject)}) for group in groups]
