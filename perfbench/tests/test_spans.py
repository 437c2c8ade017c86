"""Span tree accounting and the class-level wrappers."""

from perfbench import spans
from perfbench.harness import EngineProbe, execute, result_digest


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_total_minus_children_with_merged_nesting():
    # a [0, 10] holds a merged same-name a [1, 6] holding b [2, 5]
    tree = spans.SpanTree(clock=FakeClock([0.0, 2.0, 5.0, 10.0]))
    assert tree.enter("a")
    assert not tree.enter("a")  # merged: no clock read, no new node
    assert tree.enter("b")
    tree.exit()  # b
    tree.exit()  # inner a
    tree.exit()  # outer a
    assert tree.nodes == {("a",): [1, 10.0, 3.0], ("a", "b"): [1, 3.0, 0.0]}
    assert tree.self_seconds() == {"a": 7.0, "b": 3.0}
    assert tree.calls() == {"a": 1, "b": 1}


def test_same_name_below_another_span_is_its_own_node():
    # a [0, 10] > b [1, 8] > a [2, 4]: the inner a is not adjacent
    tree = spans.SpanTree(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 8.0, 10.0]))
    tree.enter("a")
    tree.enter("b")
    tree.enter("a")
    tree.exit()
    tree.exit()
    tree.exit()
    assert tree.self_seconds() == {"a": 3.0 + 2.0, "b": 5.0}
    assert sum(tree.self_seconds().values()) == 10.0
    assert tree.calls() == {"a": 2, "b": 1}


def test_counter_counts_only_the_outermost_merged_call():
    tree = spans.SpanTree()

    class Base:
        def run_pass(self, now):
            return (1, 0)

    class Sub(Base):
        def run_pass(self, now):
            return super().run_pass(now)

    for owner in (Base, Sub):
        owner.run_pass = spans._wrap(vars(owner)["run_pass"],
                                     "core.placement.run_pass", tree,
                                     spans._count_pass)
    assert Sub().run_pass(0.0) == (1, 0)
    assert tree.counters == {"core.placement.passes": 1,
                             "core.placement.useful_passes": 1}
    assert tree.calls() == {"core.placement.run_pass": 1}


def test_wrappers_leave_fig12_results_bit_identical():
    from repro.bench.registry import get_module
    from repro.bench.scenario import PRESETS
    from repro.sim.engine import Engine

    scenario = PRESETS["fast"]()
    original_step = Engine.step
    probe = EngineProbe()
    probe.install()
    try:
        for case in get_module("fig12").cases(scenario):
            plain, _ = execute("fig12", case, scenario, probe)
            tree = spans.SpanTree()
            traced, sample = execute("fig12", case, scenario, probe, tree)
            assert result_digest(traced) == result_digest(plain)
            assert Engine.step is original_step  # wrappers removed
            layers = sample.layers
            assert layers["sim.engine.ticks"] == sample.ticks > 0
            assert layers["mem.machine.resolve.calls"] == sample.ticks
            assert layers["core.sources.pebs_feed.calls"] > 0
            self_sum = spans.self_time_sum(layers)
            assert abs(self_sum - sample.wall) <= 0.01 * sample.wall
    finally:
        probe.uninstall()
