"""Pointwise comparison of collector-merged telemetry series."""

from typing import Any, Dict, List


def series_differences(expected: Dict[str, Any], actual: Dict[str, Any],
                       tolerance: float = 0.0) -> List[str]:
    """Pointwise differences between two merged telemetry series maps.

    Both arguments are ``{metric_key: {"times": [...], "values": [...]}}``
    maps as produced by :meth:`repro.obs.telemetry.Collector.collect` for
    one experiment.  A sharded run's collector-merged series must equal
    the unsharded run's **key for key and point for point** (see
    :mod:`repro.colo.sharding`): per-tenant keys by disjoint union,
    machine-global extensive keys by exact sums.  Returns human-readable
    difference descriptions ([] = identical).
    """
    problems = []
    for key in sorted(set(expected) - set(actual)):
        problems.append(f"missing series: {key}")
    for key in sorted(set(actual) - set(expected)):
        problems.append(f"unexpected series: {key}")
    for key in sorted(set(expected) & set(actual)):
        want, got = expected[key], actual[key]
        if list(want["times"]) != list(got["times"]):
            problems.append(
                f"{key}: timestamps differ "
                f"({len(want['times'])} vs {len(got['times'])} points)"
            )
            continue
        for t, a, b in zip(want["times"], want["values"], got["values"]):
            if abs(a - b) > tolerance:
                problems.append(f"{key} @ t={t}: {a} != {b}")
                break
    return problems
