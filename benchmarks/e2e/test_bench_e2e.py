"""Smoke test of the end-to-end benchmark (about ten seconds).

Not collected by the tier-1 suite (``testpaths = ["tests"]``); run it with

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q

It drives ``run.py --smoke`` the way a user would and checks the contract:
every workload reports every declared metric, finite and correctly named;
nothing fails; the traced run's layer times add up to its op time; the
catalogue, ``BENCHMARK.json`` and the runner agree on the names; and the
runner stays off the API surface later issues delete.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from e2ebench import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Surface ROADMAP items 2 and 4 delete; the runner must not lean on it.
FORBIDDEN = (
    "repro.Session",
    "ServeClient",
    "serve.client",
    "serve/client",
    "REPRO_LAYOUT",
    "repro.bench",
    "pebble.persistence",
    "load_workload",
    "load_execution",
)


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    done = run("--smoke", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    done = run("--smoke", "--seed", "2", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), out


def test_every_workload_reports_every_end_to_end_metric(untraced):
    result, _ = untraced
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 20 * len(WORKLOADS)
    expected = {f"{workload}.{metric}" for workload in WORKLOADS for metric in END_TO_END}
    assert set(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
        assert entry["unit"] == END_TO_END[name.split(".", 1)[1]][0]


def test_traced_run_reports_every_per_layer_metric(traced):
    result, _ = traced
    assert result["correct"] and result["failed"] == 0
    expected = {f"{workload}.{metric}" for workload in WORKLOADS for metric in PER_LAYER}
    assert set(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] >= 0, name


def test_layer_self_times_add_up_to_traced_op_wall(traced):
    _, out = traced
    for workload in WORKLOADS:
        artefact = json.loads((out / f"metrics-{workload}-trace1.json").read_text())
        layers = sum(artefact["layer_self_seconds_in_ops"].values())
        assert layers == pytest.approx(artefact["traced_op_seconds"], rel=0.05), workload
        assert artefact["metrics"]["bench.unattributed_share"]["value"] <= 0.05
        events = json.loads((out / f"trace-{workload}.json").read_text())["traceEvents"]
        assert events and all(event["args"]["workload"] == workload for event in events)


def test_single_workload_prints_bare_metric_names(tmp_path):
    done = run("--smoke", "--workload", "cold_query", "--seed", "3", "--seconds", "0",
               "--trace", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)


def test_benchmark_json_lists_exactly_the_emitted_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [entry["name"] for entry in declared["workloads"]] == list(WORKLOADS)
    assert {entry["name"]: entry["why"] for entry in declared["workloads"]} == WORKLOADS
    assert {
        entry["name"]: (entry["unit"], entry["better"], entry["bound"])
        for entry in declared["end_to_end"]
    } == END_TO_END
    assert {
        entry["name"]: (entry["unit"], entry["better"]) for entry in declared["per_layer"]
    } == PER_LAYER
    names = [*WORKLOADS, *END_TO_END, *PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())
    assert "setup_s" in END_TO_END and all(bound <= 0.25 for _, _, bound in END_TO_END.values())
    assert declared["command"][-1] == "benchmarks/e2e/run.py" and declared["paths"] == ["benchmarks/e2e"]


def test_runner_stays_off_the_surface_later_issues_delete():
    sources = [path for path in HERE.rglob("*.py") if path != Path(__file__).resolve()]
    assert len(sources) >= 8
    for path in sources:
        text = path.read_text()
        for needle in FORBIDDEN:
            assert needle not in text, f"{path.name} mentions {needle}"
        # Only the versioned HTTP surface (and the unversioned scrape page).
        for route in re.findall(r'"(/[a-z][a-z/]*)"', text):
            assert route.startswith("/v1/") or route == "/metrics", f"{path.name} calls {route}"


def test_exits_non_zero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
