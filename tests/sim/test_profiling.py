"""Profiling plumbing: env-flag parsing and the activity predicate."""

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import MemorySink
from repro.sim.profiling import profiler_enabled, profiling_active


class TestProfilerEnabled:
    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE",
                                       " 1 ", "anything"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert profiler_enabled()

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "False",
                                       "FALSE", "NO", " 0 ", "  false  ",
                                       "\t0\n"])
    def test_falsy_values_case_and_whitespace_insensitive(
            self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert not profiler_enabled()

    def test_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiler_enabled()


class TestProfilingActive:
    def test_env_flag_activates(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_active()

    def test_profile_session_activates(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiling_active()
        with telemetry.session(MemorySink(), profile=True):
            assert profiling_active()
        assert not profiling_active()

    def test_plain_session_does_not(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with telemetry.session(MemorySink()):
            assert not profiling_active()
