"""Tests for the tpcc_buffer experiment's crossover.

The crossover tests read the *committed golden table* — no simulation —
and assert the directions the experiment exists to show.  The serial run
is checked against that table by the golden suite, the ``-j 4`` run by
``tests/bench/test_cli_runs.py``.
"""

import csv
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "tpcc_buffer.csv"


def _golden_txn_rates():
    rows = list(csv.DictReader(GOLDEN.open()))
    return {
        (r["dram/footprint"], r["system"]): float(r["txn/s"]) for r in rows
    }


class TestGoldenCrossover:
    """The committed table must actually show the claimed crossover."""

    def test_bufferpool_wins_mid_dram(self):
        rates = _golden_txn_rates()
        for frac in ("0.3", "0.6"):
            assert rates[(frac, "bufferpool")] > rates[(frac, "hemem")], (
                f"at DRAM fraction {frac} the pinned-index pool should "
                "beat transparent paging"
            )

    def test_hemem_wins_when_footprint_fits_dram(self):
        rates = _golden_txn_rates()
        assert rates[("1.2", "hemem")] > rates[("1.2", "bufferpool")], (
            "with the footprint resident the pool only pays its "
            "per-touch tax; hemem should win"
        )

    def test_hemem_wins_when_dram_is_scarce(self):
        rates = _golden_txn_rates()
        assert rates[("0.1", "hemem")] > rates[("0.1", "bufferpool")], (
            "pinning the whole index at 0.1x DRAM starves the heap; "
            "transparent hotness-balancing should win"
        )

    def test_priority_arbiter_protects_the_colo_tenant(self):
        rates = _golden_txn_rates()
        assert rates[("colo-priority", "hemem")] > rates[
            ("colo-none", "hemem")]
