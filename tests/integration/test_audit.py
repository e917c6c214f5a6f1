"""The GDPR audit subsystem end to end: CLI, warehouse, scenario.

Record a run through the public CLI, backfill its index, then drive the
full audit surface -- ``trace-forward``, ``audit sar``, ``audit erasure``
-- and pin the cross-cutting guarantees: indexed answers
byte-equal scans, SAR pages partition the subjects, erasure digests
reproduce, and the registered G1 scenario actually exercises the
forward-trace workload it documents.
"""

from __future__ import annotations

import json

import pytest

from repro.audit import subject_access_request, trace_forward, verify_erasure
from repro.cli import main
from repro.warehouse import Warehouse
from repro.workloads.scenarios import scenario


@pytest.fixture
def recorded_root(tmp_path, capsys):
    """The running example recorded via the CLI, without an index."""
    root = str(tmp_path / "wh")
    assert main(["warehouse", "record", "example", "--root", root, "--no-index"]) == 0
    capsys.readouterr()
    return root


class TestIndexCli:
    def test_build_then_info(self, recorded_root, capsys):
        assert main(["index", "info", "--root", recorded_root]) == 0
        assert "not indexed" in capsys.readouterr().out
        assert main(["index", "build", "--root", recorded_root]) == 0
        built = capsys.readouterr().out
        assert "input ids" in built
        assert main(["index", "info", "--root", recorded_root]) == 0
        line = capsys.readouterr().out.strip()
        summary = json.loads(line.split(": ", 1)[1])
        assert summary["inputs"] > 0 and summary["terms"] > 0

    def test_index_segment_lands_next_to_the_run(self, recorded_root):
        from repro.warehouse.index import INDEX_SEGMENT

        warehouse = Warehouse.open(recorded_root)
        record = warehouse.resolve()
        assert not (warehouse.run_dir(record.run_id) / INDEX_SEGMENT).exists()
        assert main(["index", "build", "--root", recorded_root]) == 0
        assert (warehouse.run_dir(record.run_id) / INDEX_SEGMENT).exists()
        assert Warehouse.open(recorded_root).resolve().indexed


class TestTraceForwardCli:
    def test_json_answer_matches_library(self, recorded_root, capsys):
        assert main(["index", "build", "--root", recorded_root]) == 0
        capsys.readouterr()
        code = main(
            [
                "trace-forward",
                "--pattern",
                'root{//id_str="lp"}',
                "--root",
                recorded_root,
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        direct = trace_forward(Warehouse.open(recorded_root), 'root{//id_str="lp"}')
        assert payload == direct.to_json()
        assert payload["output_count"] > 0

    def test_no_index_flag_scans_identically(self, recorded_root, capsys):
        assert main(["index", "build", "--root", recorded_root]) == 0
        capsys.readouterr()
        pattern = 'root{//id_str="lp"}'
        base = ["trace-forward", "--pattern", pattern, "--root", recorded_root, "--json"]
        assert main(base) == 0
        indexed = json.loads(capsys.readouterr().out)
        assert main(base + ["--no-index"]) == 0
        scanned = json.loads(capsys.readouterr().out)
        assert indexed == scanned


class TestAuditCli:
    def test_sar_report_and_pagination(self, recorded_root, tmp_path, capsys):
        report_path = tmp_path / "sar.json"
        code = main(
            [
                "audit",
                "sar",
                "lp",
                "Lisa Paul",
                "nobody-xyz",
                "--root",
                recorded_root,
                "--page-size",
                "2",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "page 1/2" in out
        report = json.loads(report_path.read_text())
        assert report["pages"] == 2 and report["total_subjects"] == 3
        library = subject_access_request(
            Warehouse.open(recorded_root), ["lp", "Lisa Paul", "nobody-xyz"],
            page_size=2,
        )
        assert report == library

    def test_subjects_file_feeds_the_request(self, recorded_root, tmp_path, capsys):
        subjects = tmp_path / "subjects.txt"
        subjects.write_text("lp\n\nnobody-xyz\n")
        code = main(
            ["audit", "sar", "--subjects-file", str(subjects), "--root", recorded_root]
        )
        assert code == 0
        assert "lp" in capsys.readouterr().out

    def test_erasure_verdicts_and_exit_codes(self, recorded_root, capsys):
        dirty = main(["audit", "erasure", "lp", "--root", recorded_root])
        assert dirty == 1
        out = capsys.readouterr().out
        assert "RESIDUALS FOUND" in out and "digest: sha256:" in out
        clean = main(["audit", "erasure", "nobody-xyz", "--root", recorded_root])
        assert clean == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_erasure_digest_reproduces(self, recorded_root):
        warehouse = Warehouse.open(recorded_root)
        first = verify_erasure(warehouse, ["lp", "nobody-xyz"])
        second = verify_erasure(Warehouse.open(recorded_root), ["lp", "nobody-xyz"])
        assert first["digest"] == second["digest"]


class TestGdprScenario:
    def test_g1_forward_workload(self, tmp_path):
        spec = scenario("G1")
        execution = spec.instantiate(0.2, num_partitions=2).execute(capture=True)
        warehouse = Warehouse.open(tmp_path / "wh")
        warehouse.record(execution, name="gdpr")
        result = trace_forward(warehouse, spec.pattern)
        assert result.matched_input_count > 0
        assert result.output_ids, "G1's subject must reach at least one output"
