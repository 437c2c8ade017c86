"""The ``REPRO_PROFILE`` switch: with it set, every bench case runs under
the span wrappers of :mod:`repro.obs.spans` and prints a ``[profile]``
self-time report per layer to stderr::

    REPRO_PROFILE=1 python -m repro.bench fig6 --preset fast --no-cache
"""

from __future__ import annotations

import os


def profiler_enabled() -> bool:
    """True when the ``REPRO_PROFILE`` environment flag is set (non-empty, not 0).

    Parsing is case- and whitespace-insensitive: ``"False"``, ``" 0 "``,
    ``"NO"`` all disable, matching how the values read.
    """
    value = os.environ.get("REPRO_PROFILE", "")
    return value.strip().lower() not in ("", "0", "false", "no")


def profiling_active() -> bool:
    """True under ``REPRO_PROFILE`` or inside a telemetry session opened
    with ``profile=True`` (``--profile-out``)."""
    if profiler_enabled():
        return True
    from repro.obs import telemetry

    return telemetry.profiling_active()
