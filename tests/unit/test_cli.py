"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestImports:
    def test_production_imports_load_no_benchmark_code(self):
        """``repro serve`` and every other command start without loading the
        figure harness or any load generator; ``repro bench`` imports its own."""
        script = (
            "import sys, repro, repro.cli, repro.serve.service\n"
            "print(sorted(name for name in sys.modules if 'bench' in name))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert result.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "T9"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "fig8", "--scale", "0.5"])
        assert args.figure == "fig8"
        assert args.scale == 0.5

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

    def test_bench_fig8(self, capsys, tmp_path):
        metrics = tmp_path / "fig8.json"
        assert main(
            ["bench", "fig8", "--scale", "0.1", "--metrics-json", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "Fig. 8(a)" in out and "Fig. 8(b)" in out
        assert metrics.exists()

    def test_bench_fig8_no_history(self, capsys, tmp_path, monkeypatch):
        """Without ``--metrics-json`` both tables print and nothing is written."""
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "fig8", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8(a)" in out and "Fig. 8(b)" in out
        assert list(tmp_path.iterdir()) == []

    def test_heatmap(self, capsys):
        assert main(["heatmap", "--scale", "0.1", "--items", "5"]) == 0
        out = capsys.readouterr().out
        assert "id" in out.splitlines()[0]
        assert "advice:" in out

    def test_index_info_on_an_uncompacted_stream_run(self, capsys, tmp_path):
        """Every epoch carries an ``index.seg`` that queries probe; ``index
        info`` used to look for a top-level entry and print "not indexed"."""
        import json

        from repro.stream import StreamSession

        root = tmp_path / "wh"
        assert main(["warehouse", "record", "example", "--root", str(root)]) == 0
        stream = StreamSession(warehouse=root, name="feed", num_partitions=2)
        stream.open(stream.dataset())
        stream.ingest([{"id": 1, "user": "u1"}])
        stream.ingest([{"id": 2, "user": "u2"}])
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
