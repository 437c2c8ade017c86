"""Performance model: resolves access streams into achieved throughput.

For each stream the model computes

1. a *latency-limited* operation rate — threads divided by the per-op time
   (CPU work + tier-weighted memory stalls, derated by memory-level
   parallelism), then
2. per-device *bandwidth demand* in media bytes (random accesses pay the
   media granule: 64 B lines on DRAM, 256 B on Optane), and throttles all
   streams sharing a device proportionally when demand exceeds the device's
   pattern-weighted capacity (minus bandwidth reserved for in-flight
   migrations).

This two-constraint structure is what makes the paper's headline behaviours
fall out: NVM random writes bind at a tiny fraction of DRAM rates, so
write-heavy pages left in NVM crater throughput, while read-mostly cold data
in NVM is nearly free.

The model is the hottest code in the simulator (it runs once per stream per
tick), so it is organised around two caches, both exact — cached and
uncached evaluation produce bit-identical floats:

- a per-*stream-shape* table (:class:`_StreamShape`) holding every constant
  that depends only on (op size, reads/writes per op, pattern, CPU work,
  MLP): device latencies and per-thread rates resolved out of their dicts,
  media bytes per access, and per-channel capacity ceilings, and
- a memo of full ``(op_time, demand)`` evaluations keyed on the shape plus
  the exact tier-split fractions, which turns steady-state ticks (where the
  manager's placement answer repeats) into a single dict lookup.

On top of those, whole-tick memos (one for single-stream ticks, a
one-slot one for multi-stream ticks) return the previous tick's results
when the same stream and split objects recur with the same speed factor
and tick length and no bandwidth is reserved or partitioned.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mem.access import AccessStream, StreamResult, TierSplit
from repro.mem.devices import RAND, READ, WRITE, MemoryDevice
from repro.mem.page import Tier

#: Fraction of the device write latency visible to the pipeline (stores are
#: posted through the store buffer; they only stall when buffers back up).
STORE_VISIBLE_FRACTION = 0.25

#: Payload size of the line-granular traffic Memory Mode induces (cache
#: fills and write-backs move 64 B blocks).
LINE_PAYLOAD = 64

#: Demand channels, indexed 0..3.  The integer index replaces the
#: ``(Tier, op)`` tuple key in all hot loops.
_CHANNELS: Tuple[Tuple[Tier, str], ...] = (
    (Tier.DRAM, READ),
    (Tier.DRAM, WRITE),
    (Tier.NVM, READ),
    (Tier.NVM, WRITE),
)
_N_CHANNELS = len(_CHANNELS)

#: Bound on the (shape, split) memo; evicted wholesale when exceeded.
_MEMO_LIMIT = 1 << 16


class _StreamShape:
    """Constants of one stream *shape* (everything but threads and split).

    Holding these as plain attributes removes the per-tick dict lookups,
    enum hashing, and device ``__getattr__`` delegation from the hot path
    without changing a single arithmetic operation.
    """

    __slots__ = (
        "cpu_s", "reads_per_op", "writes_per_op", "mlp", "excess",
        "dram_read_bw", "nvm_read_bw", "dram_write_bw", "nvm_write_bw",
        "dram_media", "nvm_media", "pattern",
        "cap_dram_read", "cap_dram_write", "cap_nvm_read", "cap_nvm_write",
        "cap_nvm_read_rand", "cap_nvm_write_rand",
    )

    def __init__(self, stream: AccessStream, dram: MemoryDevice, nvm: MemoryDevice):
        pattern = stream.pattern.value
        self.pattern = pattern
        self.cpu_s = stream.cpu_ns_per_op * 1e-9
        self.reads_per_op = stream.reads_per_op
        self.writes_per_op = stream.writes_per_op
        self.mlp = stream.mlp
        self.excess = max(stream.op_size - LINE_PAYLOAD, 0)
        self.dram_read_bw = dram.thread_bw[(READ, pattern)]
        self.nvm_read_bw = nvm.thread_bw[(READ, pattern)]
        self.dram_write_bw = dram.thread_bw[(WRITE, pattern)]
        self.nvm_write_bw = nvm.thread_bw[(WRITE, pattern)]
        # media_bytes depends on (pattern, size) only, not the op.
        self.dram_media = dram.media_bytes(READ, pattern, stream.op_size)
        self.nvm_media = nvm.media_bytes(READ, pattern, stream.op_size)
        self.cap_dram_read = dram.capacity_bw(READ, pattern)
        self.cap_dram_write = dram.capacity_bw(WRITE, pattern)
        self.cap_nvm_read = nvm.capacity_bw(READ, pattern)
        self.cap_nvm_write = nvm.capacity_bw(WRITE, pattern)
        self.cap_nvm_read_rand = nvm.capacity_bw(READ, RAND)
        self.cap_nvm_write_rand = nvm.capacity_bw(WRITE, RAND)


class PerfModel:
    """Resolves one tick's streams against the device models."""

    def __init__(self, devices: Dict[Tier, MemoryDevice]):
        if Tier.DRAM not in devices or Tier.NVM not in devices:
            raise ValueError("perf model needs both DRAM and NVM devices")
        self.devices = devices
        dram = devices[Tier.DRAM]
        nvm = devices[Tier.NVM]
        self._dram_read_lat = dram.latency(READ)
        self._nvm_read_lat = nvm.latency(READ)
        self._dram_write_lat = dram.latency(WRITE)
        self._nvm_write_lat = nvm.latency(WRITE)
        # media bytes per 64 B line of manager-induced random NVM traffic
        self._line_media = nvm.media_bytes(READ, RAND, LINE_PAYLOAD)
        self._shapes: Dict[tuple, _StreamShape] = {}
        #: (shape, f_r, f_w, extra_r, extra_w) -> (op_time, demand entries)
        self._memo: Dict[tuple, Tuple[float, tuple]] = {}
        #: steady-state single-stream memo: (id(stream), id(split),
        #: speed_factor, dt) -> (stream, split, StreamResult).  Valid only
        #: with no reserved bandwidth and a unit rate factor.  Holding
        #: strong references to the keyed objects pins their ids, so an id
        #: collision with a dead object is impossible; StreamResult is
        #: immutable, so returning the same instance is exact.
        self._single_memo: Dict[tuple, tuple] = {}
        #: steady-state multi-stream memo, one slot: (key, streams, splits,
        #: results) with key (stream ids, split ids, speed_factor, dt).
        #: Same conditions and exactness argument as ``_single_memo``.
        self._multi_memo: Optional[tuple] = None

    def refresh(self) -> None:
        """Re-derive all device-dependent constants and drop every memo.

        The shape table and the (shape, split) memo bake device latencies
        and bandwidths in at first use, which is exactly what makes the
        model fast — but it also means a mid-run device change (fault
        injection degrading NVM, wear curves) would silently keep serving
        stale physics.  Degrading callers must invoke ``refresh`` after
        mutating a device; undegraded runs never call it, so the memo's
        exactness guarantees are untouched.
        """
        dram = self.devices[Tier.DRAM]
        nvm = self.devices[Tier.NVM]
        self._dram_read_lat = dram.latency(READ)
        self._nvm_read_lat = nvm.latency(READ)
        self._dram_write_lat = dram.latency(WRITE)
        self._nvm_write_lat = nvm.latency(WRITE)
        self._shapes.clear()
        self._memo.clear()
        self._single_memo.clear()
        self._multi_memo = None

    # -- shape/memo plumbing -------------------------------------------------
    def _shape_of(self, stream: AccessStream) -> _StreamShape:
        key = (
            stream.op_size, stream.reads_per_op, stream.writes_per_op,
            stream.pattern, stream.cpu_ns_per_op, stream.mlp,
        )
        shape = self._shapes.get(key)
        if shape is None:
            shape = _StreamShape(
                stream, self.devices[Tier.DRAM], self.devices[Tier.NVM]
            )
            self._shapes[key] = shape
        return shape

    def _resolve_stream(self, stream: AccessStream, split: TierSplit):
        """(op_time, demand entries) for one stream/split, memoized exactly.

        Demand entries are ``(channel, media_bytes_per_op, capacity, pattern)``
        tuples for every channel the stream touches.
        """
        shape = self._shape_of(stream)
        f_r = split.dram_read_frac
        f_w = split.dram_write_frac
        e_r = split.extra_nvm_read_bytes_per_op
        e_w = split.extra_nvm_write_bytes_per_op
        key = (shape, f_r, f_w, e_r, e_w)
        hit = self._memo.get(key)
        if hit is not None:
            return hit

        # -- op time (identical arithmetic to the original formulation) ----
        read_lat = f_r * self._dram_read_lat + (1.0 - f_r) * self._nvm_read_lat
        write_lat = (
            f_w * self._dram_write_lat + (1.0 - f_w) * self._nvm_write_lat
        ) * STORE_VISIBLE_FRACTION
        r_po = shape.reads_per_op
        w_po = shape.writes_per_op
        mem = r_po * read_lat + w_po * write_lat
        transfer = 0.0
        if shape.excess > 0:
            read_rate = f_r / shape.dram_read_bw + (1.0 - f_r) / shape.nvm_read_bw
            write_rate = f_w / shape.dram_write_bw + (1.0 - f_w) / shape.nvm_write_bw
            transfer = shape.excess * (r_po * read_rate + w_po * write_rate)
        op_t = shape.cpu_s + mem / shape.mlp + transfer

        # -- per-channel media demand (same accumulation order as before) --
        pattern = shape.pattern
        entries = []
        pa = r_po * f_r
        if pa > 0:
            entries.append((0, shape.dram_media * pa, shape.cap_dram_read, pattern))
        nvm_read = 0.0
        nvm_read_pat = None
        pa = r_po * (1 - f_r)
        if pa > 0:
            nvm_read = shape.nvm_media * pa
            nvm_read_pat = pattern
        pa = w_po * f_w
        if pa > 0:
            entries.append((1, shape.dram_media * pa, shape.cap_dram_write, pattern))
        nvm_write = 0.0
        nvm_write_pat = None
        pa = w_po * (1 - f_w)
        if pa > 0:
            nvm_write = shape.nvm_media * pa
            nvm_write_pat = pattern
        # Manager-induced line-granular NVM traffic (Memory Mode fills and
        # write-backs).  These are random 64 B block moves; a channel keeps
        # the pattern of its first contributor.
        if e_r > 0:
            nvm_read = nvm_read + self._line_media * (e_r / LINE_PAYLOAD)
            if nvm_read_pat is None:
                nvm_read_pat = RAND
        if e_w > 0:
            nvm_write = nvm_write + self._line_media * (e_w / LINE_PAYLOAD)
            if nvm_write_pat is None:
                nvm_write_pat = RAND
        if nvm_read_pat is not None:
            cap = (
                shape.cap_nvm_read if nvm_read_pat == pattern
                else shape.cap_nvm_read_rand
            )
            entries.append((2, nvm_read, cap, nvm_read_pat))
        if nvm_write_pat is not None:
            cap = (
                shape.cap_nvm_write if nvm_write_pat == pattern
                else shape.cap_nvm_write_rand
            )
            entries.append((3, nvm_write, cap, nvm_write_pat))

        value = (op_t, tuple(entries))
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = value
        return value

    def _resolve_single(
        self,
        stream: AccessStream,
        split: TierSplit,
        speed_factor: float,
        dt: float,
        reserved_bw: Dict[Tuple[Tier, str], float],
        rate_factor: float = 1.0,
    ) -> StreamResult:
        """One-stream tick, bit-identical to the general two-pass path."""
        memo_key = None
        if rate_factor == 1.0 and not reserved_bw:
            # Steady-state ticks replay the exact same (stream, split,
            # speed_factor, dt) arguments; the StreamResult is a pure
            # function of them, so the cached instance is exact.
            memo_key = (id(stream), id(split), speed_factor, dt)
            hit = self._single_memo.get(memo_key)
            if hit is not None and hit[0] is stream and hit[1] is split:
                return hit[2]
        op_t, entries = self._resolve_stream(stream, split)
        rate = stream.threads * speed_factor / op_t if op_t > 0 else 0.0
        if rate_factor != 1.0:
            rate *= rate_factor
        get = reserved_bw.get
        factor = 1.0
        for chan, bytes_per_op, cap, _pat in entries:
            d = rate * bytes_per_op
            if d > 0:
                c = (d * cap) / d
                c -= get(_CHANNELS[chan], 0.0)
                if c < 1e-9:
                    c = 1e-9
                t = c / d
                if t < factor:
                    factor = t
        ops = rate * factor * dt
        chan_bytes = [0.0] * _N_CHANNELS
        for chan, bytes_per_op, _cap, _pat in entries:
            chan_bytes[chan] += ops * bytes_per_op
        result = StreamResult(
            ops=ops,
            dram_read_bytes=chan_bytes[0],
            dram_write_bytes=chan_bytes[1],
            nvm_read_bytes=chan_bytes[2],
            nvm_write_bytes=chan_bytes[3],
            avg_op_latency=op_t / factor if factor > 0 else float("inf"),
        )
        if memo_key is not None:
            if len(self._single_memo) >= _MEMO_LIMIT:
                self._single_memo.clear()
            self._single_memo[memo_key] = (stream, split, result)
        return result

    # -- per-op cost --------------------------------------------------------
    def op_time(self, stream: AccessStream, split: TierSplit) -> float:
        """Seconds per operation for one thread, ignoring device-level caps.

        Two memory components: the *latency* of initiating each access
        (overlappable, divided by MLP) and, for payloads beyond one cache
        line, the *transfer* time of streaming the payload at the thread's
        per-tier streaming rate — a 4 KB value read from NVM takes ~4x as
        long as from DRAM even though the latencies differ by only ~2x.
        """
        return self._resolve_stream(stream, split)[0]

    # -- resolution ----------------------------------------------------------
    def resolve(
        self,
        streams: List[AccessStream],
        splits: List[TierSplit],
        speed_factor: float,
        dt: float,
        reserved_bw: Dict[Tuple[Tier, str], float],
        factors: Optional[List[float]] = None,
    ) -> List[StreamResult]:
        """Compute achieved per-stream throughput for one tick.

        ``reserved_bw`` maps (tier, op) to media bytes/s already claimed by
        migration traffic this tick.  ``factors`` optionally scales each
        stream's latency-limited rate (a per-stream admission multiplier;
        the colocation bandwidth partitioner uses it to enforce per-tenant
        device shares).  ``None`` — the only value any single-manager path
        ever passes — leaves every operation bit-identical to the
        pre-``factors`` model.
        """
        if len(streams) != len(splits):
            raise ValueError("streams and splits must align")
        if factors is not None and len(factors) != len(streams):
            raise ValueError("factors and streams must align")
        if not streams:
            return []
        if len(streams) == 1:
            # Single-stream ticks (every GUPS experiment) skip the shared
            # demand lists entirely; the arithmetic — including the
            # ``(d * cap) / d`` pattern-weighted capacity — is kept
            # operation-for-operation identical to the general path.
            return [self._resolve_single(
                streams[0], splits[0], speed_factor, dt, reserved_bw,
                rate_factor=factors[0] if factors is not None else 1.0,
            )]

        memo_key = None
        if factors is None and not reserved_bw:
            # Steady-state multi-stream ticks (TPC-C's heap and index, a
            # colocated fleet) replay the same stream and split objects;
            # the results are a pure function of them, speed_factor and dt.
            memo_key = (tuple(map(id, streams)), tuple(map(id, splits)),
                        speed_factor, dt)
            memo = self._multi_memo
            if memo is not None and memo[0] == memo_key:
                return list(memo[3])

        # Pass 1: unthrottled rates and per-channel demand.
        per_stream = []
        totals = [0.0] * _N_CHANNELS
        weighted_caps = [0.0] * _N_CHANNELS
        for i, (stream, split) in enumerate(zip(streams, splits)):
            op_t, entries = self._resolve_stream(stream, split)
            rate = stream.threads * speed_factor / op_t if op_t > 0 else 0.0
            if factors is not None and factors[i] != 1.0:
                rate *= factors[i]
            per_stream.append((stream, rate, op_t, entries))
            for chan, bytes_per_op, cap, _pat in entries:
                d = rate * bytes_per_op
                totals[chan] += d
                weighted_caps[chan] += d * cap

        # Channel throttles after subtracting migration reservations.
        throttles = [1.0] * _N_CHANNELS
        for chan in range(_N_CHANNELS):
            total = totals[chan]
            if total > 0:
                cap = weighted_caps[chan] / total
                cap -= reserved_bw.get(_CHANNELS[chan], 0.0)
                cap = max(cap, 1e-9)
                throttles[chan] = min(1.0, cap / total)

        # Pass 2: each stream runs at the pace of its slowest channel.
        results: List[StreamResult] = []
        for stream, rate, op_t, entries in per_stream:
            factor = 1.0
            for chan, _bytes_per_op, _cap, _pat in entries:
                t = throttles[chan]
                if t < factor:
                    factor = t
            achieved = rate * factor
            ops = achieved * dt
            chan_bytes = [0.0] * _N_CHANNELS
            for chan, bytes_per_op, _cap, _pat in entries:
                chan_bytes[chan] += ops * bytes_per_op
            res = StreamResult(
                ops=ops,
                dram_read_bytes=chan_bytes[0],
                dram_write_bytes=chan_bytes[1],
                nvm_read_bytes=chan_bytes[2],
                nvm_write_bytes=chan_bytes[3],
                avg_op_latency=op_t / factor if factor > 0 else float("inf"),
            )
            results.append(res)
        if memo_key is not None:
            # The strong references pin the keyed ids (no recycling).
            self._multi_memo = (memo_key, tuple(streams), tuple(splits),
                                tuple(results))
        return results
