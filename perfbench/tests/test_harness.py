"""Correctness checks of a run, the trace guard, and BENCHMARK.json."""

import json

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS, Workload

FIG12 = Workload("fig12_only", "test", (("fig12", None),))


@pytest.fixture(scope="module")
def fig12_digests():
    from repro.bench.runner import run_cases
    from repro.bench.scenario import PRESETS

    scenario = PRESETS["fast"]()
    return {
        f"{experiment}/{case.key}": harness.result_digest(
            run_cases(experiment, [case], scenario, jobs=1, cache=None,
                      metrics=False)[case.key]
        )
        for experiment, case in FIG12.cases(scenario)
    }


def test_matching_digests_and_golden_pass(fig12_digests):
    outcome = harness.run_workload(FIG12, 42, 0, False, {"42": fig12_digests})
    assert outcome.verified
    assert (outcome.attempted, outcome.failed) == (5, 0)


def test_corrupted_expected_digest_fails_one_case(fig12_digests):
    expected = dict(fig12_digests)
    first = next(iter(expected))
    expected[first] = "0" * 64
    outcome = harness.run_workload(FIG12, 42, 0, False, {"42": expected})
    assert (outcome.attempted, outcome.failed) == (5, 1)
    assert not harness.report(outcome, trace=False)["correct"]


def test_golden_mismatch_fails_the_experiments_cases(tmp_path):
    (tmp_path / "fig12.csv").write_text("not,the,table\n")
    outcome = harness.run_workload(FIG12, 42, 0, False, {},
                                   golden_dir=tmp_path)
    assert not outcome.verified
    assert outcome.failed == 5


def test_traced_run_refuses_under_the_tick_profiler(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PROFILE", "1")
    assert harness.main(["--workload", "gups_sweep", "--trace", "1"]) == 2
    assert "refusing to trace" in capsys.readouterr().err


def test_benchmark_json_matches_the_harness():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        harness.END_TO_END
    )
    empty = harness.Outcome(
        cases=1,
        untraced={"c": [harness.Sample(1.0, 0.1, 0.5, 10)]},
        traced={"c": [harness.Sample(1.0, 0.1, 0.5, 10, harness.spans
                                     .layer_totals(harness.spans.SpanTree()))]},
    )
    reported = harness.report(empty, trace=True)["metrics"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: metric["unit"] for name, metric in reported.items()
    }
