"""Golden-snapshot regression suite.

Every experiment's fast-preset table is committed under ``tests/golden/``
as CSV.  These tests re-run each experiment serially (no cache, no pool)
and compare the freshly assembled table against the committed snapshot
cell-for-cell.  Each run also checks the conservation laws of
:mod:`repro.core.invariants` on every machine it built, so every policy
and experiment is covered.  Any simulator change that moves a number
shows up as a precise cell diff; refresh the snapshots deliberately with::

    PYTHONPATH=src python -m repro.bench all -j 1 --no-cache --update-golden
"""

from pathlib import Path

import pytest

from repro.bench.registry import MODULES, get_module
from repro.bench.runner import run_experiment
from repro.bench.scenario import fast
from repro.core.invariants import violations
from repro.obs.runtime import capture

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def parse_golden(text: str):
    """Parse Table.to_csv output back into (columns, rows) of strings."""
    rows = []
    for line in text.splitlines():
        cells, cell, quoted, i = [], "", False, 0
        while i < len(line):
            ch = line[i]
            if quoted:
                if ch == '"':
                    if i + 1 < len(line) and line[i + 1] == '"':
                        cell += '"'
                        i += 1
                    else:
                        quoted = False
                else:
                    cell += ch
            elif ch == '"':
                quoted = True
            elif ch == ",":
                cells.append(cell)
                cell = ""
            else:
                cell += ch
            i += 1
        cells.append(cell)
        rows.append(cells)
    return rows[0], rows[1:]


def test_every_experiment_has_a_golden_table():
    missing = [n for n in MODULES if not (GOLDEN_DIR / f"{n}.csv").exists()]
    assert not missing, (
        f"no golden table for {missing}; regenerate with "
        "PYTHONPATH=src python -m repro.bench all -j 1 --no-cache --update-golden"
    )


def test_no_stale_golden_tables():
    stale = [
        p.name for p in GOLDEN_DIR.glob("*.csv") if p.stem not in MODULES
    ]
    assert not stale, f"golden tables without an experiment: {stale}"


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(MODULES))
def test_golden_table(name):
    golden_path = GOLDEN_DIR / f"{name}.csv"
    assert golden_path.exists(), (
        f"missing {golden_path}; regenerate with --update-golden"
    )
    columns, rows = parse_golden(golden_path.read_text())

    # metrics=False: the snapshot check runs the same uninstrumented path
    # as the default CLI (capture cannot change results either way); the
    # bare capture only records the machines for the invariant check.
    with capture(trace=False, metrics=False) as cap:
        table = run_experiment(get_module(name), name, fast(), jobs=1,
                               cache=None, metrics=False)
    for index, machine in enumerate(cap.machines()):
        if machine.engine is not None:
            assert violations(machine.engine) == [], (
                f"{name}: machine {index} broke a conservation law"
            )

    assert table.columns == columns, f"{name}: column set changed"
    assert len(table.rows) == len(rows), f"{name}: row count changed"
    for r, (fresh, golden) in enumerate(zip(table.rows, rows)):
        for column, got, want in zip(columns, fresh, golden):
            assert got == want, (
                f"{name}: cell (row {r}, {column!r}) drifted: "
                f"golden {want!r} != fresh {got!r}"
            )
