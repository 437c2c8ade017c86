"""The paper's claims, checked against the committed golden tables.

EXPERIMENTS.md's ✓/~ verdicts are claims about PAPER.md's figures.  Each
``claim_<experiment>(table)`` below asserts one experiment's claims on a
table of that experiment; ``CLAIMS`` maps experiment names to them.  The
tests feed each claim the committed fast-preset golden
(``tests/golden/<name>.csv``), so no experiment runs here: a golden
refresh that breaks a paper claim fails this module.  ``MUTATIONS``
changes one golden cell per claim to show that each claim can fail.

A claim takes any table of its experiment, so a full-preset run can be
checked from Python::

    from repro.bench.registry import run_experiment
    from repro.bench.scenario import full
    claim_fig5(run_experiment("fig5", full()))
"""

import pytest

from repro.bench.registry import MODULES
from tests.bench.golden import GOLDEN_DIR, load_golden


def as_floats(table, column):
    """Parse a table column to floats ('-' cells dropped)."""
    return [float(c) for c in table.column_values(column) if c not in ("-", "")]


def _by_first_cell(table):
    return {row[0]: row for row in table.rows}


def _cell(table, rows, key, column):
    return float(rows[key][table.columns.index(column)])


# -- the paper's tables and figures ------------------------------------------


def claim_table1(table):
    """Table 1: device model calibration vs the paper's quoted numbers."""
    read_lat = as_floats(table, "R lat (ns)")
    assert read_lat == [82.0, 175.0]
    write_lat = as_floats(table, "W lat (ns)")
    assert write_lat == [82.0, 94.0]


def claim_fig1(table):
    """Fig 1: thread-scaling curves of both devices."""
    rows = {tuple(r[:3]): [float(c) for c in r[3:]] for r in table.rows}

    # DRAM sequential read scales with threads.
    dram_seq = rows[("dram", "read", "seq")]
    assert dram_seq[-1] > 3 * dram_seq[0]

    # Optane write saturates by 4 threads (column order: 1,2,4,8,16,24).
    opt_wr = rows[("optane", "write", "seq")]
    assert opt_wr[-1] <= opt_wr[2] * 1.1

    # Optane sequential read beats DRAM random at full thread count.
    assert rows[("optane", "read", "seq")][-1] > rows[("dram", "read", "rand")][-1]


def claim_fig2(table):
    """Fig 2: access-size sensitivity at 16 threads."""
    rows = {tuple(r[:3]): [float(c) for c in r[3:]] for r in table.rows}

    # Optane sequential read is size-insensitive once saturated.
    opt_seq = rows[("optane", "read", "seq")]
    assert max(opt_seq[1:]) <= min(opt_seq[1:]) * 1.3

    # Small random reads are slow on both; large blocks close the gap.
    dram_rand = rows[("dram", "read", "rand")]
    assert dram_rand[-1] > 2 * dram_rand[0]

    # Optane write stays pinned at low bandwidth for all sizes.
    opt_wr = rows[("optane", "write", "rand")]
    assert max(opt_wr) < 5.0


def claim_fig3(table):
    """Fig 3: page-table scan cost growth."""
    base = as_floats(table, "4KB")
    huge = as_floats(table, "2MB")
    giga = as_floats(table, "1GB")

    # Terabyte-scale base-page scans take seconds.
    assert base[-2] > 1.0  # 1 TB row
    # Huge pages are orders of magnitude cheaper, giga cheaper still.
    assert all(b / h > 300 for b, h in zip(base, huge))
    assert all(h > g for h, g in zip(huge, giga))
    # Small capacities scan fast at every page size.
    assert base[0] < 0.1


def claim_fig5(table):
    """Fig 5: uniform GUPS vs working set size."""
    dram = as_floats(table, "dram")
    mm = as_floats(table, "mm")
    hemem = as_floats(table, "hemem")
    nvm = as_floats(table, "nvm")

    # While fitting comfortably (first rows), HeMem and MM track DRAM.
    assert hemem[0] > 0.95 * dram[0]
    assert mm[0] > 0.95 * dram[0]

    # Near DRAM capacity (128 GB row, index 4) MM sags well below HeMem.
    assert hemem[4] > 1.8 * mm[4]

    # Beyond DRAM everything is far below DRAM and above raw NVM.
    assert hemem[-1] < 0.6 * dram[-1]
    assert mm[-1] >= nvm[-1] * 0.9


def claim_fig6(table):
    """Fig 6: GUPS vs hot set size at 512 GB working set."""
    hemem = as_floats(table, "hemem")
    mm = as_floats(table, "mm")
    nimble = as_floats(table, "nimble")

    # HeMem at or above MM for every hot set size that fits DRAM.
    assert all(h >= m * 0.95 for h, m in zip(hemem, mm))
    # Peak advantage well above MM somewhere mid-range.
    assert max(h / m for h, m in zip(hemem, mm)) > 1.3
    # Nimble far below both while MM is healthy (paper: ~25% of MM); it
    # stays below MM even once MM degrades.
    assert all(n < 0.45 * m for n, m in zip(nimble[:3], mm[:3]))
    assert all(n < m for n, m in zip(nimble, mm))
    # Convergence once the hot set exceeds DRAM (last row).
    assert hemem[-1] < 1.25 * mm[-1]


def claim_fig7(table):
    """Fig 7: thread scalability with background-thread contention."""
    mm = as_floats(table, "mm")
    hemem = as_floats(table, "hemem")
    threads_variant = as_floats(table, "hemem-threads")

    # Throughput grows with thread count for both (low range).
    assert mm[2] > mm[0]
    assert hemem[2] > hemem[0]

    # At full socket everyone converges near the NVM-write bandwidth
    # ceiling (our calibration; the paper instead shows MM ~10% ahead —
    # see EXPERIMENTS.md).  All three land within 15% of each other.
    top = max(mm[-1], hemem[-1], threads_variant[-1])
    assert min(mm[-1], hemem[-1], threads_variant[-1]) > 0.85 * top
    # The copy-thread variant never beats the DMA variant meaningfully.
    assert threads_variant[-1] <= hemem[-1] * 1.02


def claim_fig8(table):
    """Fig 8: HeMem overhead breakdown."""
    ratios = {row[0]: float(row[2]) for row in table.rows}

    # PEBS sampling is nearly free on top of the oracle.
    assert ratios["PEBS"] > 0.9
    # Page-table scanning costs real throughput (TLB shootdowns).
    assert ratios["PT Scan"] < ratios["PEBS"]
    # Full HeMem lands close to the oracle.
    assert ratios["PEBS + Migrate"] > 0.85
    # PT-based configurations are worse than every PEBS configuration
    # (paper: 43% / 18% of Opt; our model penalises them less — see
    # EXPERIMENTS.md), with sync no better than async.
    assert ratios["PT + M. Async"] < ratios["PEBS + Migrate"]
    assert ratios["PT + M. Sync"] <= ratios["PT + M. Async"] * 1.05


def claim_fig9(table):
    """Fig 9: instantaneous GUPS through a hot-set shift."""
    rows = _by_first_cell(table)

    def col(system, name):
        return _cell(table, rows, system, name)

    # HeMem dips at the shift, then fully recovers.
    assert col("hemem", "dip") < 0.9 * col("hemem", "pre-shift")
    assert col("hemem", "recovered/pre") > 0.9

    # MM recovers too, with a dip no deeper than proportional.
    assert col("mm", "recovered/pre") > 0.9

    # HeMem-PT-Async does not recover (paper: stays at ~54% of HeMem).
    assert col("hemem-pt-async", "recovered/pre") < 0.8
    assert col("hemem-pt-async", "recovered") < 0.7 * col("hemem", "recovered")


def claim_fig10(table):
    """Fig 10: PEBS sampling-period sensitivity."""
    avg = as_floats(table, "gups(avg)")
    dropped = as_floats(table, "dropped%")

    # Periods: 100, 1k, 5k, 20k, 100k, 1M.
    # The 5k-100k plateau outperforms the 1M extreme.
    plateau = max(avg[2:5])
    assert plateau >= avg[-1]
    # Drops concentrate at the lowest periods.
    assert dropped[0] >= max(dropped[2:5])


def claim_fig11(table):
    """Fig 11: hot read threshold sensitivity."""
    gups = as_floats(table, "gups")
    # Thresholds: 2, 4, 8, 12, 16, 20, 26, 32.
    mid = max(gups[2:6])  # 8..20
    # The mid plateau is at least as good as both extremes.
    assert mid >= gups[0]
    assert mid >= gups[-1]


def claim_fig12(table):
    """Fig 12: cooling threshold sensitivity through a hot-set shift."""
    post = as_floats(table, "post-shift")
    recovered = as_floats(table, "recovered/pre")

    # Cooling thresholds: 8, 13, 18, 24, 30.  The default (18) adapts well.
    assert recovered[2] > 0.85
    # The default's post-shift throughput is at least as good as the
    # too-aggressive extreme (cooling == hot threshold).
    assert post[2] >= post[0] * 0.95


def claim_table2(table):
    """Table 2: asymmetric read/write GUPS."""
    ratios = {row[0]: float(row[2]) for row in table.rows}

    # HeMem's write-awareness wins; the others trail (paper: MM 0.86x,
    # Nimble 0.36x).
    assert ratios["hemem"] == 1.0
    assert ratios["mm"] < 0.95
    assert ratios["nimble"] < ratios["mm"]


def claim_fig13(table):
    """Fig 13: Silo TPC-C warehouse scalability."""
    hemem = as_floats(table, "hemem")
    mm = as_floats(table, "mm")
    nimble = as_floats(table, "nimble")
    xmem = as_floats(table, "xmem")

    # Warehouses: 216, 432, 648, 864, 1200, 1728 (DRAM boundary at 864).
    # In DRAM, HeMem at or above MM and Nimble.
    for i in range(3):
        assert hemem[i] >= mm[i] * 0.98
        assert hemem[i] >= nimble[i] * 0.98
    # X-Mem (heap in NVM) far below HeMem while HeMem's data fits DRAM,
    # and still below it once both spill to NVM.
    assert all(x < 0.7 * h for x, h in zip(xmem[:4], hemem[:4]))
    assert all(x < h for x, h in zip(xmem, hemem))
    # Past DRAM, MM competitive with (paper: ahead of) HeMem.
    assert mm[-1] > 0.85 * hemem[-1]
    # Throughput declines past the DRAM boundary for HeMem.
    assert hemem[-1] < hemem[0]


def claim_table3(table):
    """Table 3: FlexKVS throughput and latency."""
    rows = _by_first_cell(table)

    def col(system, name):
        cell = rows[system][table.columns.index(name)]
        return float(cell) if cell != "-" else None

    # Parity while fitting DRAM (16 GB working set).
    assert abs(col("hemem", "16GB") - col("mm", "16GB")) < 0.1 * col("mm", "16GB")

    # At 700 GB HeMem leads MM, Nimble, and NVM placement.
    assert col("hemem", "700GB") > col("mm", "700GB")
    assert col("hemem", "700GB") > col("nimble", "700GB")
    assert col("hemem", "700GB") > col("nvm", "700GB")

    # Latency: HeMem at or below MM at every percentile.
    for percentile in ("p50", "p90", "p99", "p99.9"):
        assert col("hemem", percentile) <= col("mm", percentile)


def claim_table4(table):
    """Table 4: FlexKVS latency under performance isolation."""
    rows = _by_first_cell(table)

    def col(system, name):
        return _cell(table, rows, system, name)

    # HeMem's pinned priority instance beats MM's at p50 and p99.
    assert col("hemem", "prio p50") < col("mm", "prio p50")
    assert col("hemem", "prio p99") <= col("mm", "prio p99")

    # Without tangible harm to the regular instance (within 15%).
    assert col("hemem", "reg p50") < col("mm", "reg p50") * 1.15


def claim_fig14(table):
    """Fig 14: BC on 2^28 vertices (fits DRAM)."""
    means = {row[0]: float(row[-1]) for row in table.rows}
    iters = {row[0]: int(row[1]) for row in table.rows}

    # Everyone finishes.
    assert all(n >= 8 for n in iters.values())
    # HeMem tracks DRAM-only closely.
    assert means["hemem"] < means["dram"] * 1.15
    # MM pays for conflict misses + NVM write-backs (paper: ~93% slower).
    assert means["mm"] > means["hemem"] * 1.2


def claim_fig15(table):
    """Fig 15: BC on 2^29 vertices (exceeds DRAM)."""
    rows = _by_first_cell(table)
    means = {row[0]: float(row[-1]) for row in table.rows}

    # HeMem well ahead of MM (paper: 58%) and ahead of Nimble (paper: 36%).
    assert means["mm"] > means["hemem"] * 1.3
    assert means["nimble"] > means["hemem"] * 1.05

    # HeMem's later iterations are no slower than its first (migration
    # settles).
    first = float(rows["hemem"][2])
    last = float(rows["hemem"][9])
    assert last <= first * 1.05


def claim_fig16(table):
    """Fig 16: NVM writes during BC (device wear)."""
    rows = _by_first_cell(table)

    def writes(system):
        return [float(c) for c in rows[system][1:9] if c != "-"]

    mm = writes("mm")
    hemem = writes("hemem")

    # MM writes a roughly constant volume every iteration.
    assert max(mm) < min(mm) * 1.3
    # HeMem's writes decline as the write-hot set reaches DRAM, ending
    # well below MM (paper: ~10x fewer).
    assert hemem[-1] < hemem[0]
    assert hemem[-1] < 0.5 * mm[-1]


def claim_ablations(table):
    """Design-choice ablations (DESIGN.md §4)."""
    ratios = {row[0]: float(row[4]) for row in table.rows}

    # Cooling as aggressively as pages qualify under-estimates the hot set.
    assert ratios["cooling at hot threshold (8)"] < 0.7
    # The redundancy findings: these knobs do not move steady workloads.
    assert 0.9 < ratios["write-priority off"] < 1.1
    assert 0.9 < ratios["small-bypass off (silo)"] < 1.1
    # ... but the bypass is what keeps ephemeral buffers out of NVM.
    assert ratios["small-bypass off (ephemeral)"] < 0.6
    # Copy threads never beat the DMA engine.
    assert ratios["dma off (4 copy threads)"] <= 1.02


def claim_dma(table):
    """DMA configuration sweep (paper §3.2: batch 4, 2 channels)."""
    rows = {int(row[0]): [float(c) for c in row[1:]] for row in table.rows}

    # Two channels saturate the NVM-bound migration path: ch=4 adds nothing.
    batch4 = rows[4]  # columns: ch=1, ch=2, ch=4, ch=8
    assert batch4[1] > batch4[0] * 1.2
    assert batch4[2] <= batch4[1] * 1.01

    # Batching amortises the ioctl; at 2 MB copies batch 4 is within 1% of
    # batch 32 (the knee is early, as the paper found).
    assert rows[4][1] > rows[32][1] * 0.99


# -- extensions beyond the paper's figures ------------------------------------


def claim_policy_matrix(table):
    """Placement-policy zoo under churn (EXPERIMENTS.md, ``policy_matrix``)."""
    thrash = {row[1]: row for row in table.rows if row[0] == "gups-thrash"}

    def col(policy, name):
        return thrash[policy][table.columns.index(name)]

    # On gups-thrash nomad commits most demotions as zero-byte remaps ...
    assert float(col("nomad", "no-copy %").rstrip("%")) > 50.0
    # ... and so moves fewer GB than copy-everything hemem.
    assert float(col("nomad", "migrated GB")) < float(col("hemem", "migrated GB"))


def claim_fleet_diurnal(table):
    """Fleet-scale diurnal serving (EXPERIMENTS.md, ``fleet_diurnal``)."""
    rows = _by_first_cell(table)
    tails = [c for c in table.columns if c.startswith("p99 ")]

    def worst_tail(arm):
        return max(_cell(table, rows, arm, c) for c in tails)

    # The SLO controller lifts fleet attainment over fair sharing with
    # fixed knobs.
    assert _cell(table, rows, "slo", "attain %") > \
        _cell(table, rows, "static", "attain %")
    # The unarbitrated arm posts the worst p99 tail.
    for arm in ("static", "slo"):
        assert worst_tail("none") > worst_tail(arm)


def claim_colo_table4(table):
    """Table 4 as two colocated tenants (DESIGN.md §9, "Experiments")."""
    rows = _by_first_cell(table)

    def col(case, name):
        return _cell(table, rows, case, name)

    # Strict priority lifts the KVS tenant off congested NVM ...
    assert col("colo-priority", "prio p99") < col("colo-none", "prio p99")
    # ... and recovers the single-manager pinned latency.
    assert col("colo-priority", "prio p99") == col("single-hemem", "prio p99")


def claim_tpcc_buffer(table):
    """Buffer pool vs transparent paging (EXPERIMENTS.md, ``tpcc_buffer``)."""
    rate = {(row[0], row[1]): float(row[table.columns.index("txn/s")])
            for row in table.rows}

    # The app-directed buffer pool beats transparent paging when DRAM is
    # scarce-but-workable (0.3/0.6 of footprint) and loses when DRAM is
    # starved (0.1, pinning starves the heap) or plentiful (1.2, only the
    # bookkeeping tax remains).
    for frac in ("0.3", "0.6"):
        assert rate[(frac, "bufferpool")] > rate[(frac, "hemem")], frac
    for frac in ("0.1", "1.2"):
        assert rate[(frac, "hemem")] > rate[(frac, "bufferpool")], frac
    # Beside a GUPS scan, the priority arbiter recovers the database's
    # throughput over free-for-all sharing.
    assert rate[("colo-priority", "hemem")] > rate[("colo-none", "hemem")]


CLAIMS = {
    name[len("claim_"):]: claim
    for name, claim in sorted(globals().items())
    if name.startswith("claim_")
}

# One golden cell per entry, (experiment, row index, column, new cell),
# each breaking one assertion of the experiment's claim.
MUTATIONS = [
    ("table1", 1, "R lat (ns)", "176"),
    ("fig1", 0, "t=24", "12.0"),
    ("fig2", 7, "64B", "6.0"),
    ("fig3", 0, "4KB", "0.5"),
    ("fig5", 4, "hemem", "0.0700"),
    ("fig6", 5, "hemem", "0.0260"),
    ("fig7", 4, "hemem-threads", "0.1040"),
    ("fig8", 1, "vs Opt", "0.85"),
    ("fig9", 2, "recovered/pre", "0.85"),
    ("fig10", 5, "gups(avg)", "0.0960"),
    ("fig11", 0, "gups", "0.0960"),
    ("fig12", 2, "recovered/pre", "0.80"),
    ("table2", 1, "x (vs hemem)", "0.96"),
    ("fig13", 5, "mm", "500000"),
    ("table3", 1, "p99", "43.0"),
    ("table4", 0, "prio p50", "74"),
    ("fig14", 3, "mean", "3.50"),
    ("fig15", 0, "it8", "9.90"),
    ("fig16", 0, "it8", "30.00"),
    ("ablations", 0, "ablated/baseline", "0.80"),
    ("dma", 2, "ch=2", "3.50"),
    ("policy_matrix", 1, "no-copy %", "40.0%"),
    ("policy_matrix", 1, "migrated GB", "13.60"),
    ("fleet_diurnal", 2, "attain %", "13.3"),
    ("fleet_diurnal", 1, "p99 q3", "1.50"),
    ("colo_table4", 1, "prio p99", "102"),
    ("colo_table4", 0, "prio p99", "101"),
    ("tpcc_buffer", 6, "txn/s", "500000"),
    ("tpcc_buffer", 17, "txn/s", "195073"),
]


def test_claims_cover_registered_experiments_with_goldens():
    for name in CLAIMS:
        assert name in MODULES, f"claim for unregistered experiment {name}"
        assert (GOLDEN_DIR / f"{name}.csv").exists(), f"no golden for {name}"


def test_every_claim_has_a_mutation():
    assert {m[0] for m in MUTATIONS} == set(CLAIMS)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_paper_claim_holds_on_golden(name):
    CLAIMS[name](load_golden(name))


@pytest.mark.parametrize(
    "name, row, column, cell", MUTATIONS,
    ids=[f"{m[0]}-{m[1]}-{m[2]}" for m in MUTATIONS],
)
def test_claim_fails_on_mutated_golden(name, row, column, cell):
    table = load_golden(name)
    index = table.columns.index(column)
    assert table.rows[row][index] != cell
    table.rows[row][index] = cell
    with pytest.raises(AssertionError):
        CLAIMS[name](table)
