"""The ``copy_abort`` smoke plan on a real simulator trace: migrations that
exhaust their retries roll back, ``Trace.migrations()`` records each abort
with its retries, and the Perfetto export closes one slice per abort."""

from repro.bench.fault_smoke import SMOKE_PLANS, run_smoke_case
from repro.core.migrate import Migrator
from repro.obs.perfetto import export_traces, validate_chrome_trace
from repro.obs.replay import Trace


def test_copy_abort_plan_aborts_and_replays():
    report, violations = run_smoke_case(
        "copy_abort", SMOKE_PLANS["copy_abort"], trace=True
    )
    assert violations == []
    trace = Trace.from_dicts(report["trace"])
    aborted = [r for r in trace.migrations() if r.aborted is not None]
    assert len(aborted) == report["aborted"] >= 1
    for record in aborted:
        assert record.done is None
        assert record.aborted.attempts == Migrator.MAX_RETRIES
        assert len(record.retries) == Migrator.MAX_RETRIES

    doc = export_traces({"copy_abort": trace})
    assert validate_chrome_trace(doc) == []
    abort_ends = [
        e for e in doc["traceEvents"]
        if e["ph"] == "e" and e["args"].get("aborted") is True
    ]
    assert len(abort_ends) == len(aborted)
