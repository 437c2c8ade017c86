"""``python -m perfbench compare`` verdicts."""

from perfbench.__main__ import compare

BENCH = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "ticks_per_s", "unit": "ticks/s", "better": "higher",
     "bound": 0.1},
]}


def record(wall, setup, ticks, failed=0):
    return {"workloads": {"w": {
        "failed_cases": failed,
        "end_to_end": {
            "wall_s": {"median": wall},
            "setup_s": {"median": setup},
            "ticks_per_s": {"median": ticks},
        },
    }}}


def verdicts(base, new):
    return {r["metric"]: r["regression"] for r in compare(base, new, BENCH)}


def test_lower_is_better_metric():
    base = record(10.0, 1.0, 1000.0)
    assert verdicts(base, record(10.9, 1.0, 1000.0))["wall_s"] is False
    assert verdicts(base, record(11.2, 1.0, 1000.0))["wall_s"] is True
    assert verdicts(base, record(5.0, 1.0, 1000.0))["wall_s"] is False


def test_higher_is_better_metric():
    base = record(10.0, 1.0, 1000.0)
    assert verdicts(base, record(10.0, 1.0, 950.0))["ticks_per_s"] is False
    assert verdicts(base, record(10.0, 1.0, 880.0))["ticks_per_s"] is True
    assert verdicts(base, record(10.0, 1.0, 2000.0))["ticks_per_s"] is False


def test_setup_absolute_floor():
    base = record(10.0, 0.02, 1000.0)
    # +200% but only 0.04 s: inside the 0.05 s floor
    assert verdicts(base, record(10.0, 0.06, 1000.0))["setup_s"] is False
    assert verdicts(base, record(10.0, 0.08, 1000.0))["setup_s"] is True
    # above the floor the share bound applies
    base = record(10.0, 1.0, 1000.0)
    assert verdicts(base, record(10.0, 1.09, 1000.0))["setup_s"] is False
    assert verdicts(base, record(10.0, 1.2, 1000.0))["setup_s"] is True


def test_more_failed_cases_is_a_regression():
    base = record(10.0, 1.0, 1000.0)
    assert verdicts(base, record(10.0, 1.0, 1000.0, failed=1))[
        "failed_cases"] is True
