"""Observability through the bench runner: capture plumbing, caching of
metric summaries, and the fig9 trace-vs-counter cross-check."""

import json
import types

import pytest

from repro.bench.gups_common import run_gups_case
from repro.bench.report import Table, save_observations
from repro.bench.runner import Case, ResultCache, RunStats, run_cases, run_experiment
from repro.bench.scenario import Scenario
from repro.obs.replay import Trace, load_bench_export
from repro.obs.stream import iter_segment_events
from repro.sim.units import GB
from repro.workloads.gups import GupsConfig


def tiny_scenario() -> Scenario:
    return Scenario(scale=2048.0, duration=2.0, warmup=0.5)


def _gups(scenario, system, ws_gb):
    gups = GupsConfig(working_set=scenario.size(ws_gb * GB), threads=4)
    return run_gups_case(scenario, system, gups)["gups"]


def _cases(scenario):
    return [
        Case(f"{ws}GB/{system}", _gups, {"system": system, "ws_gb": ws})
        for ws in (320,)
        for system in ("hemem", "nimble")
    ]


def _assemble(scenario, results):
    table = Table("tiny", ["case", "gups"])
    for key in sorted(results):
        table.row(key, f"{results[key]:.6f}")
    return table


TINY = types.SimpleNamespace(cases=_cases, assemble=_assemble)


def migrated_from_counters(counters) -> float:
    return sum(v for k, v in counters.items() if k.endswith(".pages_migrated"))


class TestRunnerObservations:
    def test_trace_and_metrics_collected_per_case(self):
        scenario = tiny_scenario()
        observations = {}
        run_cases("tiny", _cases(scenario), scenario, trace=True,
                  observations=observations)
        assert set(observations) == {"320GB/hemem", "320GB/nimble"}
        for obs in observations.values():
            assert obs["trace"] is not None and obs["metrics"] is not None
            assert len(obs["trace"]) == len(obs["metrics"]) == 1

    def test_trace_counts_match_counters(self):
        scenario = tiny_scenario()
        observations = {}
        run_cases("tiny", _cases(scenario), scenario, trace=True,
                  observations=observations)
        checked = 0
        for obs in observations.values():
            for events, metrics in zip(obs["trace"], obs["metrics"]):
                counts = Trace.from_dicts(events).counts_by_kind()
                migrated = migrated_from_counters(metrics["counters"])
                assert counts.get("migration_done", 0) == migrated
                checked += 1
        assert checked == 2

    def test_metrics_cached_and_replayed(self, tmp_path):
        scenario = tiny_scenario()
        cache = ResultCache(tmp_path)
        first, stats1 = {}, RunStats()
        run_cases("tiny", _cases(scenario), scenario, cache=cache,
                  observations=first, stats=stats1)
        assert stats1.cache_misses == 2
        replayed, stats2 = {}, RunStats()
        run_cases("tiny", _cases(scenario), scenario, cache=cache,
                  observations=replayed, stats=stats2)
        assert stats2.cache_hits == 2
        for key, obs in replayed.items():
            assert obs["trace"] is None  # traces are never cached
            assert obs["metrics"] == first[key]["metrics"]

    def test_trace_request_bypasses_cache(self, tmp_path):
        scenario = tiny_scenario()
        cache = ResultCache(tmp_path)
        run_cases("tiny", _cases(scenario), scenario, cache=cache)
        stats = RunStats()
        observations = {}
        run_cases("tiny", _cases(scenario), scenario, cache=cache,
                  trace=True, observations=observations, stats=stats)
        assert stats.cache_hits == 0
        assert all(o["trace"] is not None for o in observations.values())

    def test_pre_metrics_cache_entry_is_a_miss(self, tmp_path):
        from repro.bench.runner import case_digest, code_digest

        scenario = tiny_scenario()
        cache = ResultCache(tmp_path)
        case = _cases(scenario)[0]
        digest = case_digest("tiny", case, scenario, code_digest())
        cache.store(digest, {"gups": 1.0})  # entry without metrics
        stats = RunStats()
        run_cases("tiny", [case], scenario, cache=cache, stats=stats)
        assert stats.cache_misses == 1
        assert "metrics" in cache.load_entry(digest)

    def test_results_identical_with_and_without_trace(self, tmp_path):
        scenario = tiny_scenario()
        plain = run_experiment(TINY, "tiny", scenario, jobs=1, cache=None,
                               metrics=False)
        traced = run_experiment(TINY, "tiny", scenario, jobs=1, cache=None,
                                trace=True)
        assert traced.render() == plain.render()

    def test_export_round_trip(self, tmp_path):
        scenario = tiny_scenario()
        observations = {}
        run_cases("tiny", _cases(scenario), scenario, trace=True,
                  observations=observations)
        path = tmp_path / "traces.json"
        save_observations(path, {"tiny": observations}, "trace")
        loaded = load_bench_export(path)
        for (_, case_key, index), trace in loaded.items():
            original = observations[case_key]["trace"][index]
            assert trace.to_dicts() == original

    def test_metrics_csv_export(self, tmp_path):
        scenario = tiny_scenario()
        observations = {}
        run_cases("tiny", _cases(scenario), scenario, observations=observations)
        path = tmp_path / "metrics.csv"
        save_observations(path, {"tiny": observations}, "metrics")
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,case,machine,record,name,time,value"
        assert any(",series,obs.dram_bytes," in line for line in lines)
        assert any(",counter," in line for line in lines)


@pytest.mark.slow
class TestFig9TraceCrossCheck:
    """Acceptance check: fig9 with tracing — migration events in the trace
    must match the engine's migration counters exactly, per case."""

    def test_fig9_trace_counts_match_counters(self, fig9_colo_instrumented):
        # the instrumented CLI run keeps each machine's trace segments
        # under <perfetto-out>.segments/<experiment>/<case>/m<index>
        segments = fig9_colo_instrumented / "diagnose.perfetto.json.segments"
        with open(fig9_colo_instrumented / "metrics.json") as fh:
            cases = json.load(fh)["experiments"]["fig9"]
        assert cases
        migrations_seen = 0
        for case_key, machines in cases.items():
            for index, metrics in enumerate(machines):
                done = sum(
                    1 for event in iter_segment_events(
                        str(segments / "fig9" / case_key / f"m{index}"))
                    if event["kind"] == "migration_done"
                )
                assert done == migrated_from_counters(metrics["counters"])
                migrations_seen += done
        assert migrations_seen > 0
