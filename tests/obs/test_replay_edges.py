"""obs.replay edge cases: empty traces, abort/retry interleaving with the
FIFO pairing contract (which start a retry belongs to), and save/load
round trips of every event kind."""

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    event_from_dict,
    event_to_dict,
)
from repro.obs.replay import Trace

from tests.obs.test_events import SAMPLES

PAGE_BYTES = 2 << 20


class TestEmptyTrace:
    def test_derived_views_are_empty(self):
        trace = Trace([])
        assert len(trace) == 0
        assert trace.migrations() == []
        assert trace.migration_latencies() == []
        assert trace.migration_rate() == []
        assert trace.tier_byte_deltas() == {}
        assert trace.counts_by_kind() == {}
        assert trace.time_span() == (0.0, 0.0)

    def test_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "empty.json"
        Trace([]).save(path)
        loaded = Trace.load(path)
        assert loaded.events == []


class TestAbortRetryInterleaving:
    def _lifecycle(self):
        return [
            MigrationStart(1.0, "heap", 5, "NVM", "DRAM", PAGE_BYTES,
                           "promote-hot"),
            MigrationRetried(1.2, "heap", 5, 1, 0.01),
            MigrationRetried(1.4, "heap", 5, 2, 0.02),
            MigrationDone(1.5, "heap", 5, "NVM", "DRAM", PAGE_BYTES, 0.5),
            MigrationStart(2.0, "heap", 5, "DRAM", "NVM", PAGE_BYTES,
                           "demote-watermark"),
            MigrationRetried(2.2, "heap", 5, 1, 0.01),
            MigrationAborted(2.5, "heap", 5, "DRAM", "NVM", 5),
        ]

    def test_aborted_migration_stays_unpaired(self):
        events = self._lifecycle()
        records = Trace(events).migrations()
        assert len(records) == 2
        first, second = records
        assert first.completed and first.done.t == 1.5
        assert first.start.reason == "promote-hot"
        assert first.retries == (events[1], events[2])
        # the aborted lifecycle keeps its start, retries and abort
        assert not second.completed and second.latency is None
        assert second.aborted is not None and second.aborted.t == 2.5
        assert second.start.reason == "demote-watermark"
        assert second.retries == (events[5],)

    def test_retries_do_not_disturb_fifo_pairing(self):
        # Two in-flight starts for the same page: completions must pair in
        # submission order even with retries interleaved between them.
        events = [
            MigrationStart(1.0, "heap", 7, "NVM", "DRAM", PAGE_BYTES, "a"),
            MigrationStart(1.1, "heap", 7, "DRAM", "NVM", PAGE_BYTES, "b"),
            MigrationRetried(1.2, "heap", 7, 1, 0.01),
            MigrationDone(1.3, "heap", 7, "NVM", "DRAM", PAGE_BYTES, 0.3),
            MigrationDone(1.6, "heap", 7, "DRAM", "NVM", PAGE_BYTES, 0.5),
        ]
        records = Trace(events).migrations()
        assert [r.start.reason for r in records] == ["a", "b"]
        assert [r.done.t for r in records] == [1.3, 1.6]

    def test_done_without_start_is_rejected(self):
        trace = Trace([
            MigrationDone(1.0, "heap", 3, "NVM", "DRAM", PAGE_BYTES, 0.1),
        ])
        with pytest.raises(ValueError, match="without a matching start"):
            trace.migrations()

    def test_abort_then_new_start_pairs_with_later_done(self):
        events = [
            MigrationStart(1.0, "heap", 2, "NVM", "DRAM", PAGE_BYTES, "x"),
            MigrationAborted(1.5, "heap", 2, "NVM", "DRAM", 5),
            MigrationStart(2.0, "heap", 2, "NVM", "DRAM", PAGE_BYTES, "y"),
            MigrationDone(2.4, "heap", 2, "NVM", "DRAM", PAGE_BYTES, 0.4),
        ]
        records = Trace(events).migrations()
        # The abort closes start "x", so the done pairs with start "y".
        assert len(records) == 2
        aborted, retried = records
        assert aborted.start.reason == "x"
        assert not aborted.completed and aborted.aborted == events[1]
        assert retried.start.reason == "y"
        assert retried.completed and retried.aborted is None
        assert retried.latency == pytest.approx(0.4)

    def test_retry_attaches_to_the_oldest_pending_start(self):
        events = [
            MigrationStart(1.0, "heap", 7, "NVM", "DRAM", PAGE_BYTES, "a"),
            MigrationStart(1.1, "heap", 7, "DRAM", "NVM", PAGE_BYTES, "b"),
            MigrationRetried(1.2, "heap", 7, 1, 0.01),
            MigrationDone(1.3, "heap", 7, "NVM", "DRAM", PAGE_BYTES, 0.3),
            MigrationRetried(1.4, "heap", 7, 1, 0.02),
            MigrationDone(1.6, "heap", 7, "DRAM", "NVM", PAGE_BYTES, 0.5),
        ]
        first, second = Trace(events).migrations()
        # while "a" is pending it is the oldest start; after its done the
        # next retry belongs to "b"
        assert first.retries == (events[2],)
        assert second.retries == (events[4],)

    def test_orphan_retry_is_ignored(self):
        # A watchdog requeue of an untagged copy names no page.
        events = [
            MigrationStart(1.0, "heap", 3, "NVM", "DRAM", PAGE_BYTES, "x"),
            MigrationRetried(1.1, "?", -1, 1, 0.0),
            MigrationRetried(1.2, "heap", 4, 1, 0.0),  # no start on page 4
            MigrationDone(1.3, "heap", 3, "NVM", "DRAM", PAGE_BYTES, 0.3),
        ]
        [record] = Trace(events).migrations()
        assert record.completed and record.retries == ()

    def test_clean_migration_has_no_retries(self):
        clean = Trace([
            MigrationStart(1.0, "heap", 1, "NVM", "DRAM", PAGE_BYTES, "x"),
            MigrationDone(1.1, "heap", 1, "NVM", "DRAM", PAGE_BYTES, 0.1),
        ]).migrations()
        assert clean[0].retries == ()

    def test_abort_without_start_is_rejected(self):
        trace = Trace([MigrationAborted(1.0, "heap", 3, "NVM", "DRAM", 5)])
        with pytest.raises(ValueError, match="without a matching start"):
            trace.migrations()


class TestFullRoundTrip:
    def test_samples_cover_every_kind(self):
        assert {type(e) for e in SAMPLES} == set(EVENT_KINDS)

    def test_every_kind_survives_save_load(self, tmp_path):
        path = tmp_path / "all_kinds.json"
        Trace(list(SAMPLES)).save(path)
        loaded = Trace.load(path)
        assert loaded.events == list(SAMPLES)
        assert {type(e) for e in loaded.events} == set(EVENT_KINDS)

    def test_old_trace_without_reason_fields_loads(self):
        data = event_to_dict(
            MigrationStart(0.5, "heap", 3, "NVM", "DRAM", PAGE_BYTES, "why")
        )
        del data["reason"]
        clone = event_from_dict(data)
        assert clone.reason == ""
        assert clone.region == "heap"

    def test_missing_required_field_is_an_error(self):
        data = event_to_dict(SAMPLES[0])
        del data["region"]
        with pytest.raises(TypeError):
            event_from_dict(data)
