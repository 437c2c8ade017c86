"""The committed golden tables under ``tests/golden/``.

Each ``<experiment>.csv`` is the experiment's fast-preset table as written
by ``Table.to_csv``; :func:`load_golden` reads one back into a
:class:`~repro.bench.report.Table` (the golden suite compares fresh runs
against it, and the paper-claims module checks the paper's claims on it).
"""

import csv
from pathlib import Path

from repro.bench.report import Table

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def load_golden(name: str) -> Table:
    """The committed golden table of experiment ``name``."""
    text = (GOLDEN_DIR / f"{name}.csv").read_text()
    columns, *rows = csv.reader(text.splitlines())
    table = Table(name, columns)
    for row in rows:
        table.row(*row)
    return table
