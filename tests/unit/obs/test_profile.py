"""Unit tests for the stdlib sampling profiler."""

import io
import threading

import pytest

from repro.errors import ExecutionError
from repro.obs.profile import (
    PROFILE_ENV,
    PROFILE_OUT_ENV,
    SamplingProfiler,
    profile_enabled,
    profile_out_path,
)
from repro.obs.tracer import Tracer


class TestEnvKnobs:
    @pytest.mark.parametrize("raw", ["on", "1", "true", "YES"])
    def test_truthy_values_enable(self, monkeypatch, raw):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profile_enabled() is True

    @pytest.mark.parametrize("raw", ["", "off", "0"])
    def test_everything_else_disables(self, monkeypatch, raw):
        """Empty text and the off spellings."""
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profile_enabled() is False

    @pytest.mark.parametrize("raw", ["definitely", "enabled"])
    def test_unrecognised_text_raises(self, monkeypatch, raw):
        """Parsed by the engine's one switch parser: a typo is an error."""
        monkeypatch.setenv(PROFILE_ENV, raw)
        with pytest.raises(ExecutionError, match=f"{PROFILE_ENV}='{raw}'"):
            profile_enabled()

    def test_out_path(self, monkeypatch):
        monkeypatch.delenv(PROFILE_OUT_ENV, raising=False)
        assert profile_out_path() is None
        monkeypatch.setenv(PROFILE_OUT_ENV, "/tmp/p.folded")
        assert profile_out_path() == "/tmp/p.folded"


class TestSampling:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)

    def test_synchronous_sample_sees_this_thread(self):
        profiler = SamplingProfiler(stage="s0")
        assert profiler.sample() >= 1
        lines = profiler.folded_lines()
        assert lines and all(line.startswith("s0;") for line in lines)
        # Every folded line ends with its sample count.
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_stop_always_yields_a_sample(self):
        # A run far shorter than the sampling interval: the final sample at
        # stop() must still capture something.
        profiler = SamplingProfiler(interval=60.0).start()
        profiler.stop()
        assert profiler.sample_count >= 1

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval=60.0).start()
        profiler.stop()
        count = profiler.sample_count
        profiler.stop()
        # The second stop takes one more voluntary sample but must not fail.
        assert profiler.sample_count >= count

    def test_mark_stage_attributes_samples(self):
        profiler = SamplingProfiler(stage="alpha")
        profiler.sample()
        profiler.mark_stage("beta")
        profiler.sample()
        totals = profiler.stage_totals()
        assert totals["alpha"] >= 1 and totals["beta"] >= 1

    def test_worker_threads_are_sampled(self):
        release = threading.Event()
        started = threading.Event()

        def worker():
            started.set()
            release.wait(5)

        thread = threading.Thread(target=worker, name="busy", daemon=True)
        thread.start()
        try:
            assert started.wait(5)
            profiler = SamplingProfiler(stage="s")
            profiler.sample()
        finally:
            release.set()
            thread.join()
        stacks = [stack for (_, stack) in profiler._counts]
        assert any(
            any("worker" in frame for frame in stack) for stack in stacks
        )


class TestExport:
    def test_write_folded_file_and_handle(self, tmp_path):
        profiler = SamplingProfiler(stage="s")
        profiler.sample()
        out = tmp_path / "p.folded"
        lines = profiler.write_folded(str(out))
        assert lines >= 1
        assert out.read_text().count("\n") == lines
        buffer = io.StringIO()
        assert profiler.write_folded(buffer) == lines
        assert buffer.getvalue() == out.read_text()

    def test_merge_into_tracer_emits_instants(self):
        profiler = SamplingProfiler(stage="stage-0 read")
        profiler.sample()
        tracer = Tracer()
        profiler.merge_into_tracer(tracer)
        marks = [s for s in tracer._instants if s.name.startswith("profile ")]
        assert len(marks) == 1
        assert marks[0].name == "profile stage-0 read"
        assert marks[0].args["samples"] >= 1
        assert marks[0].args["hz"] == 200
