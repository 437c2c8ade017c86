"""Live terminal dashboard over a telemetry spool: ``bench watch <dir>``.

``python -m repro.bench watch out.json.live`` re-collects the spool's
JSONL channels every ``--interval`` wall seconds and renders one frame:
tier occupancy, migration/eviction rates, PEBS loss, per-tenant SLO
attainment, controller actions, and the live tenants — while the run
that is writing the channels is still going.  ``--once`` prints a single frame and exits
(scripts, tests); ``--plain`` suppresses the ANSI clear between frames.

Everything is derived from the collected series (see
:class:`repro.obs.telemetry.Collector`): *rates* come from the last two
points of the cumulative counters, so the dashboard needs no state of its
own and tolerates channels appearing mid-run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.telemetry import Collector, metric_key, parse_key

#: ANSI: clear screen + home (the non-plain inter-frame reset)
CLEAR = "\x1b[2J\x1b[H"

GIB = 1024.0 ** 3


def fmt_bytes(value: float) -> str:
    for unit, width in (("GiB", GIB), ("MiB", 1024.0 ** 2), ("KiB", 1024.0)):
        if value >= width:
            return f"{value / width:.2f} {unit}"
    return f"{value:.0f} B"


def series_last(series: Dict[str, dict], key: str) -> Optional[float]:
    entry = series.get(key)
    if entry is None or not entry["values"]:
        return None
    return entry["values"][-1]


def series_rate(series: Dict[str, dict], key: str) -> Optional[float]:
    """Per-second rate over the last window of a cumulative counter."""
    entry = series.get(key)
    if entry is None or len(entry["values"]) < 2:
        return None
    dt = entry["times"][-1] - entry["times"][-2]
    if dt <= 0:
        return None
    return max(entry["values"][-1] - entry["values"][-2], 0.0) / dt


def _sum_by_name(series: Dict[str, dict], name: str,
                 reducer) -> Optional[float]:
    """Apply ``reducer`` per matching key and sum (None when no key matches).

    Matches keys whose metric name is ``name`` regardless of labels, so
    scoped counters (``{scope="t03"}``) aggregate across the fleet.
    ``tenant``-labelled keys are excluded: they are the sampler's
    per-tenant mirror of the same quantities, and summing both sides
    would double-count colo runs (the tenant table shows them instead).
    """
    total = None
    for key in series:
        metric, labels = parse_key(key)
        if metric != name or "tenant" in labels:
            continue
        value = reducer(series, key)
        if value is not None:
            total = (total or 0.0) + value
    return total


def _loss_rate(series: Dict[str, dict], labels_suffix: str = "") -> Optional[float]:
    """Window PEBS loss fraction from the cumulative sampled/dropped pair."""
    dropped = series_rate(series, f"pebs_dropped_total{labels_suffix}")
    sampled = series_rate(series, f"pebs_sampled_total{labels_suffix}")
    if dropped is None or sampled is None:
        return None
    total = dropped + sampled
    return dropped / total if total > 0 else 0.0


def tenant_rows(series: Dict[str, dict],
                t_latest: Optional[float]) -> Tuple[List[Tuple[str, dict]],
                                                    int]:
    """Latest values of the tenants still publishing, and how many left.

    Keyed off any tenant-labelled series.  A departed tenant's series end
    at its departure, so a tenant is live when one of its series has a
    point at ``t_latest`` (the section's latest instant).
    """
    tenants: Dict[str, dict] = {}
    live = set()
    for key, entry in series.items():
        name, labels = parse_key(key)
        tenant = labels.get("tenant")
        if tenant is None or not entry["values"]:
            continue
        tenants.setdefault(tenant, {})[name] = entry["values"][-1]
        if entry["times"][-1] == t_latest:
            live.add(tenant)
    rows = sorted(item for item in tenants.items() if item[0] in live)
    return rows, len(tenants) - len(rows)


def _case_groups(series: Dict[str, dict]) -> List[Tuple[Optional[str],
                                                        Dict[str, dict]]]:
    """Split an experiment's series by their ``case`` label.

    The collector folds each non-sum channel's case identity into its
    keys (see :class:`~repro.obs.telemetry.Collector`); the dashboard
    unfolds it back so per-case sections read off bare metric names.
    Sum-merged (sharded fleet) series have no case label and land in the
    ``None`` group.
    """
    if not series:
        return [(None, {})]  # channels exist but no snapshots yet
    groups: Dict[Optional[str], Dict[str, dict]] = {}
    for key, entry in series.items():
        name, labels = parse_key(key)
        case = labels.pop("case", None)
        groups.setdefault(case, {})[metric_key(name, labels)] = entry
    return sorted(groups.items(), key=lambda item: item[0] or "")


def render_frame(collected: dict, now: Optional[str] = None) -> str:
    """One dashboard frame for a collected telemetry document."""
    lines: List[str] = []
    header = "repro.bench watch"
    if now:
        header += f" — {now}"
    lines.append(header)
    experiments = collected.get("experiments", {})
    if not experiments:
        lines.append("  (no telemetry channels yet)")
        return "\n".join(lines)
    sections = [
        (exp_name, case, sub, experiments[exp_name]["channels"])
        for exp_name in sorted(experiments)
        for case, sub in _case_groups(experiments[exp_name]["series"])
    ]
    for exp_name, case, series, channels in sections:
        if case is not None:
            channels = [c for c in channels
                        if c["labels"].get("case") == case] or channels
        t_latest = max(
            (entry["times"][-1] for entry in series.values()
             if entry["times"]), default=None
        )
        title = exp_name or "(run)"
        if case is not None:
            title += f"/{case}"
        lines.append("")
        lines.append(f"== {title}  [{len(channels)} channel"
                     f"{'s' if len(channels) != 1 else ''}"
                     + (f", t={t_latest:.1f}s" if t_latest is not None else "")
                     + "]")
        dram = series_last(series, "dram_bytes")
        nvm = series_last(series, "nvm_bytes")
        if dram is not None and nvm is not None:
            total = dram + nvm
            frac = dram / total if total > 0 else 0.0
            lines.append(f"  tiers      DRAM {fmt_bytes(dram)}  "
                         f"NVM {fmt_bytes(nvm)}  ({frac:.1%} in DRAM)")
        queue = series_last(series, "migration_queue_bytes")
        if queue is not None:
            lines.append(f"  queue      {fmt_bytes(queue)} pending migration")
        migration = _sum_by_name(series, "pages_migrated_total", series_rate)
        evicted = _sum_by_name(series, "evicted_pages_total", series_rate)
        rates = []
        if migration is not None:
            rates.append(f"migrations {migration:.1f} pages/s")
        if evicted is not None:
            rates.append(f"evictions {evicted:.1f} pages/s")
        if rates:
            lines.append(f"  rates      {'  '.join(rates)}")
        loss = _loss_rate(series)
        if loss is not None:
            lines.append(f"  pebs       {loss:.2%} sample loss (window)")
        attainment = series_last(series, "slo_attainment")
        if attainment is not None:
            lines.append(f"  slo        {attainment:.1%} fleet attainment")
        actions = {
            parse_key(key)[1].get("action", "?"): entry["values"][-1]
            for key, entry in series.items()
            if parse_key(key)[0] == "controller_actions_total"
            and entry["values"]
        }
        if actions:
            summary = "  ".join(
                f"{action}={int(count)}"
                for action, count in sorted(actions.items())
            )
            lines.append(f"  controller {summary}")
        tenants, departed = tenant_rows(series, t_latest)
        if departed:
            lines.append(f"  tenants    ({len(tenants)} live, "
                         f"{departed} departed)")
        elif tenants:
            lines.append(f"  tenants    ({len(tenants)})")
        if tenants:
            lines.append("    name      dram        hot         "
                         "evicted   slowdown  ok")
            shown = tenants[:16]
            for tenant, values in shown:
                dram_t = values.get("dram_bytes")
                hot_t = values.get("hot_bytes")
                evicted_t = values.get("evicted_pages_total")
                slowdown = values.get("slo_slowdown")
                attained = values.get("slo_attained")
                lines.append(
                    f"    {tenant:<8}"
                    f"  {fmt_bytes(dram_t) if dram_t is not None else '-':>10}"
                    f"  {fmt_bytes(hot_t) if hot_t is not None else '-':>10}"
                    f"  {int(evicted_t) if evicted_t is not None else '-':>7}"
                    f"  {f'{slowdown:.2f}x' if slowdown is not None else '-':>8}"
                    f"  {'y' if attained == 1.0 else 'n' if attained == 0.0 else '-'}"
                )
            if len(tenants) > len(shown):
                lines.append(f"    ... and {len(tenants) - len(shown)} more")
    profiles = collected.get("profiles", [])
    if profiles:
        lines.append("")
        lines.append(f"  profiles   {len(profiles)} structured records spooled")
    return "\n".join(lines)


def watch_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench watch",
        description="Live dashboard over a telemetry spool directory "
                    "(the FILE.live/ root written by --telemetry-out).",
    )
    parser.add_argument("root", help="telemetry spool directory")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="wall seconds between frames (default: 2)")
    parser.add_argument("--once", action="store_true",
                        help="render one frame and exit")
    parser.add_argument("--plain", action="store_true",
                        help="no ANSI clear between frames (append frames)")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error(f"--interval must be positive: {args.interval}")
    collector = Collector(args.root)
    try:
        while True:
            stamp = time.strftime("%H:%M:%S")
            frame = render_frame(collector.collect(), now=stamp)
            if args.once or args.plain:
                print(frame)
            else:
                sys.stdout.write(CLEAR + frame + "\n")
                sys.stdout.flush()
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # downstream (e.g. ``| head``) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(watch_main())
