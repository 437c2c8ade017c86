"""A Silo-style in-memory transactional database (Tu et al., SOSP'13).

Implements the parts of Silo's design that matter for a functional TPC-C:

- tables with primary-key hash indexes and optional ordered secondary scans,
- optimistic concurrency control: transactions buffer writes, record the
  version (TID word) of every record they read, then commit by locking the
  write set in a global order, validating the read set, and installing new
  versions stamped with an epoch-based TID,
- an epoch counter advanced by the database (Silo advances it every 40 ms;
  here callers advance it explicitly or per-commit-batch).

The implementation also counts record-level reads and writes so the
simulation adapter can derive TPC-C's memory access profile from measured
behaviour instead of hand-picked constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


class TransactionAborted(Exception):
    """Raised at commit when read-set validation fails."""


@dataclass
class Record:
    """One row: payload plus the TID word (version, lock bit)."""

    value: Any
    tid: int = 0
    locked: bool = False


class Table:
    """A table with a primary-key index and access counting."""

    def __init__(self, name: str, stats: Optional["AccessCounter"] = None):
        self.name = name
        self.rows: Dict[Any, Record] = {}
        self.stats = stats or AccessCounter()

    def insert_raw(self, key: Any, value: Any) -> None:
        """Loader path: no transaction, no counting."""
        if key in self.rows:
            raise KeyError(f"{self.name}: duplicate key {key!r}")
        self.rows[key] = Record(value)

    def get_record(self, key: Any) -> Optional[Record]:
        return self.rows.get(key)

    def scan_keys(self, lo: Any, hi: Any) -> List[Any]:
        """Inclusive ordered key-range scan (keys must be comparable)."""
        return sorted(k for k in self.rows if lo <= k <= hi)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class AccessCounter:
    """Record-level access counts, used to calibrate the access model."""

    reads: int = 0
    writes: int = 0
    index_probes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.index_probes = 0

    def snapshot(self) -> Tuple[int, int, int]:
        return (self.reads, self.writes, self.index_probes)


class Database:
    """Tables + epoch counter + transaction factory."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        self.epoch = 1
        self.counter = AccessCounter()
        self.commits = 0
        self.aborts = 0

    def create_table(self, name: str) -> Table:
        if name in self.tables:
            raise KeyError(f"table {name} already exists")
        table = Table(name, self.counter)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        return self.tables[name]

    def advance_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def transaction(self) -> "Transaction":
        return Transaction(self)


class Transaction:
    """One OCC transaction: buffered writes, versioned reads, Silo commit."""

    def __init__(self, db: Database):
        self.db = db
        # read set: (table, key) -> tid observed at read time
        self._reads: Dict[Tuple[str, Any], int] = {}
        # write set: (table, key) -> new value (None = delete)
        self._writes: Dict[Tuple[str, Any], Any] = {}
        self._inserts: Dict[Tuple[str, Any], Any] = {}
        self.committed = False

    # -- operations --------------------------------------------------------------
    def read(self, table: str, key: Any) -> Any:
        """Read a row; returns None if absent.  Own writes win."""
        tkey = (table, key)
        if tkey in self._writes:
            return self._writes[tkey]
        if tkey in self._inserts:
            return self._inserts[tkey]
        tbl = self.db.table(table)
        tbl.stats.index_probes += 1
        record = tbl.get_record(key)
        if record is None:
            return None
        tbl.stats.reads += 1
        self._reads[tkey] = record.tid
        return record.value

    def write(self, table: str, key: Any, value: Any) -> None:
        """Buffer an update to an existing row (validated at commit)."""
        self._writes[(table, key)] = value

    def insert(self, table: str, key: Any, value: Any) -> None:
        """Buffer an insert of a new row."""
        tkey = (table, key)
        if tkey in self._inserts:
            raise KeyError(f"transaction inserts {tkey} twice")
        self._inserts[tkey] = value

    def scan(self, table: str, lo: Any, hi: Any) -> List[Tuple[Any, Any]]:
        """Read a key range (each row joins the read set)."""
        tbl = self.db.table(table)
        out = []
        for key in tbl.scan_keys(lo, hi):
            value = self.read(table, key)
            if value is not None:
                out.append((key, value))
        return out

    # -- Silo commit protocol -------------------------------------------------------
    def commit(self) -> int:
        """Lock write set (sorted), validate read set, install, unlock.

        Returns the commit TID.  Raises :class:`TransactionAborted` (and
        rolls back nothing — writes were never installed) on conflict.
        """
        if self.committed:
            raise RuntimeError("transaction already committed")
        db = self.db

        # Phase 1: lock the write set in global order (deadlock freedom).
        lock_keys = sorted(
            set(self._writes) | set(self._inserts), key=lambda tk: (tk[0], repr(tk[1]))
        )
        locked: List[Record] = []
        try:
            for table, key in lock_keys:
                tbl = db.table(table)
                record = tbl.get_record(key)
                if record is None:
                    if (table, key) in self._writes:
                        raise TransactionAborted(f"{table}[{key!r}] vanished")
                    continue  # insert of a fresh key: nothing to lock yet
                if record.locked:
                    raise TransactionAborted(f"{table}[{key!r}] is locked")
                record.locked = True
                locked.append(record)

            # Phase 2: validate the read set.
            for (table, key), seen_tid in self._reads.items():
                record = db.table(table).get_record(key)
                if record is None:
                    raise TransactionAborted(f"{table}[{key!r}] deleted under us")
                if record.tid != seen_tid:
                    raise TransactionAborted(f"{table}[{key!r}] version changed")
                if record.locked and (table, key) not in self._writes:
                    raise TransactionAborted(f"{table}[{key!r}] locked by a writer")

            # Phase 3: install with a fresh TID in the current epoch.
            tid = self._make_tid()
            for (table, key), value in self._writes.items():
                tbl = db.table(table)
                record = tbl.get_record(key)
                record.value = value
                record.tid = tid
                tbl.stats.writes += 1
            for (table, key), value in self._inserts.items():
                tbl = db.table(table)
                if tbl.get_record(key) is not None:
                    raise TransactionAborted(f"{table}[{key!r}] insert raced")
                tbl.rows[key] = Record(value, tid=tid)
                tbl.stats.writes += 1
        except TransactionAborted:
            db.aborts += 1
            raise
        finally:
            for record in locked:
                record.locked = False

        db.commits += 1
        self.committed = True
        return tid

    def _make_tid(self) -> int:
        """TIDs embed the epoch in the high bits and a sequence below."""
        db = self.db
        seq = db.commits + db.aborts + 1
        return (db.epoch << 40) | (seq & ((1 << 40) - 1))
