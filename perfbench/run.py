"""Run one perfbench workload in this process.

    python3 perfbench/run.py --workload gups_sweep --seed 42 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``python -m perfbench run`` drives this script once per
workload and round.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # numpy reads this at import; the benchmark measures one host thread.
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
