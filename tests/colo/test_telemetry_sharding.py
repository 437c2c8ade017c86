"""Telemetry shard-equivalence: merged shard series == unsharded series.

The telemetry plane's acceptance property extends the bit-identical
tenant-summary law of :mod:`repro.colo.sharding` to the *live* series: a
sharded fleet's per-shard channels, collector-merged (sum for the
machine-global extensive quantities, label union for per-tenant keys),
must reproduce the unsharded machine's series key for key and point for
point.  Holds because publishes land on the aligned window grid and the
``colo_sharded`` experiment keeps shards independent (floor policy,
tenant-named RNG substreams, uncongested machine).
"""

from repro.bench.experiments import colo_sharded
from repro.bench.runner import run_experiment
from repro.bench.scenario import Scenario
from tests.colo.series import series_differences
from repro.obs.telemetry import Collector, snapshot_schema_errors

SCENARIO = Scenario(scale=512.0, duration=1.5, warmup=0.5)


def _collect(tmp_path, tag, shards):
    root = str(tmp_path / tag)
    run_experiment(
        colo_sharded, "colo_sharded", SCENARIO,
        jobs=1, cache=None, metrics=True, shards=shards,
        telemetry_dir=f"{root}/colo_sharded",
    )
    doc = Collector(root).collect()
    assert snapshot_schema_errors(doc) == []
    return doc


def test_merged_shard_series_match_unsharded(tmp_path):
    unsharded = _collect(tmp_path, "unsharded", shards=1)
    sharded = _collect(tmp_path, "sharded", shards=2)

    exp_un = unsharded["experiments"]["colo_sharded"]
    exp_sh = sharded["experiments"]["colo_sharded"]
    assert len(exp_un["channels"]) == 1
    assert len(exp_sh["channels"]) == 2
    # shard channels are sum-merged: keys stay bare, no case label
    assert all(c["labels"].get("merge") == "sum"
               for c in exp_sh["channels"])

    series_un, series_sh = exp_un["series"], exp_sh["series"]
    # real coverage: machine-global and per-tenant series both present
    assert "dram_bytes" in series_un
    assert any("tenant=" in key for key in series_un)
    assert len(series_un) > 100

    assert series_differences(series_un, series_sh) == []
