"""python -m perfbench run|compare|record

``run`` measures: ``--repeats`` untraced rounds, then one traced round;
each round runs every workload in its own fresh child process
(``perfbench/run.py``), one child at a time.  It prints, and writes to
``--out``, the median over rounds of every end-to-end metric with its
min, quartiles and n, and the traced round's per-layer metrics.

``compare BASE.json NEW.json`` applies the ``BENCHMARK.json`` bounds to
every (metric, workload) pair of two ``run`` outputs and exits 1 on a
regression.

``record`` re-derives ``perfbench/expected.json``, the per-case result
digests the runs check against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List

from perfbench.harness import EXPECTED_PATH, ROOT, load_expected
from perfbench.spans import self_time_sum

HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_SCRIPT = HERE / "run.py"

#: absolute slack below which a worse metric is not a regression: set-up
#: time of a few tens of milliseconds moves by more than its share bound
#: on scheduling noise alone
ABS_FLOOR = {"setup_s": 0.05}


def calibrate(runs: int = 5) -> float:
    """Seconds for a fixed pure-Python loop, min of ``runs``.

    Recorded to compare hosts; it never scales a gated metric.
    """
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "calib_s": calibrate(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def run_child(workload: str, seed: int, trace: bool) -> dict:
    """One pass of a workload in a fresh process; returns its parsed
    result line."""
    proc = subprocess.run(
        [sys.executable, str(RUN_SCRIPT), "--workload", workload,
         "--seed", str(seed), "--seconds", "0",
         "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} child exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "min": min(values),
            "q1": q1, "q3": q3, "n": len(values)}


def load_benchmark() -> dict:
    with open(BENCHMARK) as fh:
        return json.load(fh)


def cmd_run(args) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    verified = str(args.seed) in load_expected()
    host = host_record()
    samples: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    attempted = {n: 0 for n in names}
    failed = {n: 0 for n in names}
    for round_no in range(args.repeats):
        for name in names:
            result = run_child(name, args.seed, trace=False)
            attempted[name] += result["attempted"]
            failed[name] += result["failed"]
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
            print(f"[round {round_no + 1}/{args.repeats}] {name}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr)
    traced = {}
    for name in names:
        result = run_child(name, args.seed, trace=True)
        attempted[name] += result["attempted"]
        failed[name] += result["failed"]
        traced[name] = {m: e["value"] for m, e in result["metrics"].items()}
        print(f"[traced] {name}", file=sys.stderr)

    out = {
        "kind": "perfbench",
        "seed": args.seed,
        "repeats": args.repeats,
        "verified": verified,
        "host": host,
        "workloads": {
            name: {
                "attempted": attempted[name],
                "failed_cases": failed[name],
                "end_to_end": {
                    metric: dict(summarize(values), unit=e2e[metric]["unit"])
                    for metric, values in samples[name].items()
                },
                "per_layer": traced[name],
            }
            for name in names
        },
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
    print(render(out, bench))
    print(f"[written: {args.out}]")
    return 0 if all(f == 0 for f in failed.values()) else 1


def render(out: dict, bench: dict) -> str:
    host = out["host"]
    lines = [
        f"perfbench seed={out['seed']} repeats={out['repeats']} "
        f"verified: {'true' if out['verified'] else 'false'}",
        f"host: calib_s={host['calib_s']:.4f} python={host['python']} "
        f"numpy={host['numpy']} nproc={host['nproc']} "
        f"commit={host['commit']}",
        "",
        f"{'workload':<14} {'metric':<12} {'unit':<8} {'bound':>6} "
        f"{'median':>11} {'min':>11} {'q1':>11} {'q3':>11} {'n':>3}",
    ]
    for name, w in out["workloads"].items():
        for m in bench["end_to_end"]:
            s = w["end_to_end"][m["name"]]
            lines.append(
                f"{name:<14} {m['name']:<12} {m['unit']:<8} "
                f"{m['bound']:>6.0%} {s['median']:>11.4f} {s['min']:>11.4f} "
                f"{s['q1']:>11.4f} {s['q3']:>11.4f} {s['n']:>3}"
            )
        lines.append(f"{name:<14} failed_cases {w['failed_cases']} "
                     f"of {w['attempted']} case executions")
    lines += ["", "per-layer (traced round):"]
    for name, w in out["workloads"].items():
        layers = w["per_layer"]
        self_sum = self_time_sum(layers)
        lines.append(
            f"  {name}: trace.wall_s {layers['trace.wall_s']:.3f}, "
            f"self-time sum {self_sum:.3f}, "
            f"overhead {layers['trace.overhead_frac']:+.1%}"
        )
        top = sorted(
            ((v, m) for m, v in layers.items() if m.endswith(".self_s")),
            reverse=True,
        )[:6]
        lines.append("    " + ", ".join(f"{m} {v:.3f}" for v, m in top))
    return "\n".join(lines)


def compare(base: dict, new: dict, bench: dict) -> List[dict]:
    """One row per (workload, metric): base and new medians, verdict."""
    rows = []
    for name, new_w in new["workloads"].items():
        base_w = base["workloads"].get(name)
        if base_w is None:
            continue
        for m in bench["end_to_end"]:
            metric = m["name"]
            b = base_w["end_to_end"][metric]["median"]
            n = new_w["end_to_end"][metric]["median"]
            worse = n - b if m["better"] == "lower" else b - n
            allowed = max(m["bound"] * abs(b), ABS_FLOOR.get(metric, 0.0))
            rows.append({"workload": name, "metric": metric, "base": b,
                         "new": n, "change": (n - b) / b if b else 0.0,
                         "regression": worse > allowed})
        rows.append({"workload": name, "metric": "failed_cases",
                     "base": base_w["failed_cases"],
                     "new": new_w["failed_cases"], "change": 0.0,
                     "regression": new_w["failed_cases"]
                     > base_w["failed_cases"]})
    return rows


def cmd_compare(args) -> int:
    bench = load_benchmark()
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    rows = compare(base, new, bench)
    metrics = [m["name"] for m in bench["end_to_end"]] + ["failed_cases"]
    print(f"{'workload':<14} " + " ".join(f"{m:>24}" for m in metrics))
    for name in new["workloads"]:
        cells = []
        for metric in metrics:
            row = next((r for r in rows if r["workload"] == name
                        and r["metric"] == metric), None)
            if row is None:
                cells.append(f"{'-':>24}")
                continue
            flag = "REGRESSION" if row["regression"] else "ok"
            cells.append(f"{row['change']:>+8.1%} {flag:>15}")
        print(f"{name:<14} " + " ".join(cells))
    regressions = [r for r in rows if r["regression"]]
    for r in regressions:
        print(f"regression: {r['workload']} {r['metric']} "
              f"{r['base']:.6g} -> {r['new']:.6g}")
    return 1 if regressions else 0


def cmd_record(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.harness import record_digests
    from repro.bench.runner import tune_gc

    tune_gc()
    expected = load_expected()
    expected.update(record_digests(args.seeds))
    ordered = {seed: expected[seed] for seed in sorted(expected, key=int)}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(ordered, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print(f"[recorded seeds {args.seeds} into {EXPECTED_PATH}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--out", default="perfbench-out.json")
    cmp_ = sub.add_parser("compare", help="gate NEW against BASE")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    rec = sub.add_parser("record", help="re-derive expected.json digests")
    rec.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.command == "run" and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return {"run": cmd_run, "compare": cmd_compare,
            "record": cmd_record}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
