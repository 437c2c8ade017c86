"""Span profiling: tree accounting, wrapper install/uninstall, both entry
points (``profile=True`` telemetry sessions and ``REPRO_PROFILE``)."""

import hashlib
import importlib
import json

import pytest

from repro.bench.registry import get_module
from repro.bench.runner import _execute_case
from repro.bench.scenario import PRESETS
from repro.obs import spans, telemetry
from repro.obs.telemetry import MemorySink
from repro.sim.engine import Engine


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def _resolve(target):
    """``module:Class.method`` -> ``(owner, attr)``."""
    module, _, qualname = target.partition(":")
    owner_name, _, attr = qualname.rpartition(".")
    owner = importlib.import_module(module)
    return (getattr(owner, owner_name) if owner_name else owner), attr


def _digest(result) -> str:
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


class TestSpanTree:
    def test_self_time_is_total_minus_children_with_merged_nesting(self):
        # a [0, 10] holds a merged same-name a, which holds b [2, 5]
        tree = spans.SpanTree(clock=FakeClock([0.0, 2.0, 5.0, 10.0]))
        tree.enter("a")
        tree.enter("a")  # merged: no clock read, no new node
        tree.enter("b")
        tree.exit()  # b
        tree.exit()  # inner a
        tree.exit()  # outer a
        assert tree.nodes == {"a": [1, 10.0, 3.0], "a;b": [1, 3.0, 0.0]}
        assert tree.by_name() == {"a": [1, 7.0], "b": [1, 3.0]}

    def test_same_name_below_another_span_is_its_own_node(self):
        # a [0, 10] > b [1, 8] > a [2, 4]: the inner a is not adjacent
        tree = spans.SpanTree(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 8.0, 10.0]))
        tree.enter("a")
        tree.enter("b")
        tree.enter("a")
        tree.exit()
        tree.exit()
        tree.exit()
        assert set(tree.nodes) == {"a", "a;b", "a;b;a"}
        assert tree.by_name() == {"a": [2, 3.0 + 2.0], "b": [1, 5.0]}


class TestInstall:
    def test_uninstall_restores_every_target(self):
        targets = [_resolve(target) for _, target in spans.SPANS]
        before = {(id(owner), attr): vars(owner)[attr]
                  for owner, attr in targets}
        undo = spans.install(spans.SpanTree())
        try:
            for owner, attr in targets:  # the table's own classes
                assert vars(owner)[attr].__wrapped__ is before[
                    (id(owner), attr)]
            for owner, attr, original in undo:  # and subclass overrides
                assert vars(owner)[attr].__wrapped__ is original
                assert vars(owner)[attr].__name__ == original.__name__
        finally:
            spans.uninstall(undo)
        for owner, attr, original in undo:
            assert vars(owner)[attr] is original
        for owner, attr in targets:
            assert vars(owner)[attr] is before[(id(owner), attr)]
        # no method was wrapped twice
        assert len({(id(o), a) for o, a, _ in undo}) == len(undo)

    def test_nested_profile_wraps_nothing_twice(self):
        original = vars(Engine)["step"]
        with spans.Profile() as outer:
            wrapped = vars(Engine)["step"]
            assert wrapped.__wrapped__ is original
            with spans.Profile() as inner:
                assert inner.tree is outer.tree
                assert vars(Engine)["step"] is wrapped
            # the inner scope leaves the wrappers to the outer one
            assert vars(Engine)["step"] is wrapped
            assert spans._active is outer
        assert vars(Engine)["step"] is original
        assert spans._active is None
        assert inner.wall_s <= outer.wall_s

    def test_a_raising_method_leaves_the_tree_consistent(self):
        tree = spans.SpanTree()

        class Boom:
            def run(self):
                raise ValueError("boom")

        run = spans._wrap(vars(Boom)["run"], "boom", tree)
        with pytest.raises(ValueError):
            run(Boom())
        assert tree.nodes["boom"][0] == 1
        assert tree._stack == []


class TestEntryPoints:
    FIG12_SPANS = (
        "sim.engine.tick", "mem.machine.resolve",
        "core.tracking.record_samples", "core.tracking.cool",
        "core.tracking.classify",
    )

    def test_fig12_results_identical_inside_a_profile_session(self):
        scenario = PRESETS["fast"]()
        for case in get_module("fig12").cases(scenario):
            plain = case.fn(scenario, **case.kwargs)
            sink = MemorySink()
            with telemetry.session(sink, profile=True):
                profiled = case.fn(scenario, **case.kwargs)
            assert _digest(profiled) == _digest(plain), case.key
            [row] = [r for r in sink.rows if r["kind"] == "profile"]
            aggregate, _ = spans.summarize([row])
            for name in self.FIG12_SPANS:
                assert aggregate["self_s"][name] > 0, (case.key, name)
                assert aggregate["calls"][name] > 0, (case.key, name)
            assert 0 < row["trace.overhead_frac"] < 10
        assert spans._active is None

    def test_repro_profile_reports_each_case_on_stderr(self, monkeypatch,
                                                       capsys):
        scenario = PRESETS["fast"]()
        [case] = get_module("fig12").cases(scenario)[:1]
        plain, _ = _execute_case(case.fn, scenario, case.kwargs)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled, payloads = _execute_case(case.fn, scenario, case.kwargs)
        assert payloads is None
        assert _digest(profiled) == _digest(plain)
        err = capsys.readouterr().err
        [header] = [line for line in err.splitlines()
                    if not line.startswith("[profile]   ")]
        assert "fig12_cooling._case" in header and "ticks" in header
        assert "span overhead" in header
        assert "[profile]   sim.engine.tick " in err
        assert "[profile]   (outside spans) " in err
        assert spans._active is None

    def test_repro_profile_and_profile_session_share_one_tree(
            self, monkeypatch, capsys, tmp_path):
        scenario = PRESETS["fast"]()
        [case] = get_module("fig12").cases(scenario)[:1]
        monkeypatch.setenv("REPRO_PROFILE", "1")
        channel = tmp_path / "case.jsonl"
        _execute_case(case.fn, scenario, case.kwargs,
                      telemetry_path=str(channel), profile=True)
        rows = [json.loads(line) for line in channel.read_text().splitlines()]
        [row] = [r for r in rows if r["kind"] == "profile"]
        ticks = row["spans"]["sim.engine.tick"][0]
        assert f"{ticks} ticks" in capsys.readouterr().err
        assert spans._active is None
