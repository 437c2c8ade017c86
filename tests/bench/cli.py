"""Whole-experiment runs through ``python -m repro.bench``, shared by the
slow suite.

An experiment runs at most once per mode across the suite: plain (the
in-process golden suite), instrumented (every export the CLI can write in
one pass) and parallel or sharded.  :data:`RUNS` lists the CLI runs; each
is a session fixture of the same name (``tests/conftest.py``) that hands
its output directory and stdouts to every check that reads it.

The runs are subprocesses, so they start in the background as soon as
collection shows that a selected test needs them, one after another on a
helper thread, while the in-process tests go on; the tests that read them
are moved to the end of the session.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

FAST = ("--preset", "fast", "--no-cache")

#: fixture name -> the bench CLI invocations it makes, in order, in one
#: output directory
RUNS: Dict[str, List[Tuple[str, ...]]] = {
    # fig9 and colo_matrix with every export at once: metric summaries,
    # the Perfetto timeline and health report (which trace every case and
    # keep the segments under diagnose.perfetto.json.segments/), live
    # telemetry, the span profile, and the tables as goldens.  Serial: the
    # runs share the host with the in-process tests.
    "fig9_colo_instrumented": [(
        "fig9", "colo_matrix", *FAST, "-j", "1",
        "--metrics-out", "metrics.json",
        "--perfetto-out", "diagnose.perfetto.json",
        "--health-out", "diagnose.health.json",
        "--telemetry-out", "telemetry.json",
        "--profile-out", "profile.json",
        "--update-golden", "--golden-dir", "golden",
    )],
    # fleet_diurnal with live telemetry, serially and with its three arms
    # on three workers
    "fleet_diurnal_telemetry": [
        ("fleet_diurnal", *FAST, "-j", "1",
         "--telemetry-out", "fleet-telemetry.json"),
        ("fleet_diurnal", *FAST, "-j", "3",
         "--telemetry-out", "fleet-telemetry-j3.json"),
    ],
    # colo_sharded (64 tenants) unsharded and as 8 shards, both spooling
    # telemetry
    "colo_sharded_telemetry": [
        ("colo_sharded", *FAST, "-j", "1",
         "--telemetry-out", "fleet-unsharded.json"),
        ("colo_sharded", *FAST, "-j", "2", "--shards", "8",
         "--telemetry-out", "fleet-sharded.json"),
    ],
    # the policy zoo (learned policy) and the TPC-C engine over the pool
    "policy_tpcc_parallel": [(
        "policy_matrix", "tpcc_buffer", *FAST, "-j", "4",
        "--update-golden", "--golden-dir", "par-golden",
    )],
}


def bench(*args: str, cwd: Path) -> subprocess.Popen:
    """Start the bench CLI in ``cwd`` at low priority (``nice``, where the
    host has it), so that it takes the cores the in-process tests leave
    idle."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    nice = shutil.which("nice")
    prefix = [nice, "-n", "10"] if nice else []
    return subprocess.Popen(
        [*prefix, sys.executable, "-m", "repro.bench", *args],
        cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def table_text(stdout: str) -> str:
    """Rendered tables of a bench run, without the ``[...]`` footers that
    carry wall times and output paths."""
    return "\n".join(
        line for line in stdout.splitlines() if not line.startswith("[")
    )


class BackgroundRuns:
    """Makes the runs of :data:`RUNS` one after another on a thread."""

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._lock = threading.Lock()
        self._queue: List[str] = []
        self._done: Dict[str, threading.Event] = {}
        self._results: Dict[str, Tuple[Path, List[str], Optional[str]]] = {}
        self._running = False
        self._stopped = False
        self._proc: Optional[subprocess.Popen] = None

    def start(self, names: List[str]) -> None:
        """Queue the runs ``names`` not queued yet."""
        with self._lock:
            for name in names:
                if name not in self._done:
                    self._done[name] = threading.Event()
                    self._queue.append(name)
            if self._queue and not self._running:
                self._running = True
                threading.Thread(target=self._work, daemon=True).start()

    def _work(self) -> None:
        while True:
            with self._lock:
                if not self._queue or self._stopped:
                    self._running = False
                    return
                name = self._queue.pop(0)
            out, stdouts, error = None, [], "run stopped"
            try:
                out = self._tmp.mktemp(name)
                for argv in RUNS[name]:
                    self._proc = bench(*argv, cwd=out)
                    stdout, stderr = self._proc.communicate(timeout=900)
                    if self._proc.returncode != 0:
                        error = (f"repro.bench {' '.join(argv)} exited "
                                 f"{self._proc.returncode}:\n{stderr[-2000:]}")
                        break
                    stdouts.append(stdout)
                else:
                    error = None
            except Exception as exc:  # reported by result()
                error = repr(exc)
            finally:
                self._results[name] = (out, stdouts, error)
                self._done[name].set()

    def result(self, name: str) -> Tuple[Path, List[str]]:
        """The output directory and stdouts of run ``name``, once done."""
        self.start([name])
        self._done[name].wait()
        out, stdouts, error = self._results[name]
        assert error is None, error
        return out, stdouts

    def stop(self) -> None:
        """Start no further run and end the one in flight."""
        with self._lock:
            self._stopped = True
        proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
