"""Wait-free query plane: shared-memory epoch snapshots + reader processes.

The engine's in-process read path (`Engine._submit_query`) couples query
throughput to the engine loop: every query advances the engine clock and
ticks the batcher.  This module decouples reads entirely, the
asynchronous-reads serving shape of Liu, Shun & Zablotchi (arXiv
2401.08015): at each epoch commit the engine *publishes* the committed
core assignment into a ``multiprocessing.shared_memory`` double-buffer,
and a pool of OS reader processes answers every snapshot query kind
(:data:`~repro.service.snapshots.QUERY_KINDS`) directly from the pinned
buffer — never entering the engine loop, never pickling a core map.

Buffer layout (``docs/queryplane.md``)
--------------------------------------
Three kinds of segment, all named in a small fixed **control** segment:

* ``ctrl`` — int64 slots ``QP_CTRL_*`` (its own seqlock, the active
  buffer index, the allocation generation, capacities) plus three
  fixed-width name fields for the current data segments.  Regrows bump
  the generation and swap the names; readers re-attach when the cached
  generation goes stale.
* ``buf0`` / ``buf1`` — the double buffer.  Each is an int64 header
  (``QP_SEQ`` … ``QP_VOCAB_COUNT``) followed by a dense int64 payload:
  slot *i* holds the core number of the vertex with interned id *i*, or
  :data:`CORE_UNKNOWN` if that vertex has no core at the stamped epoch.
* ``vocab`` — an append-only byte log of length-prefixed pickled
  external vertex ids, in interned-id order.  Ids are assigned
  first-seen and never remapped (:class:`~repro.graph.interning.VertexInterner`),
  so readers decode incrementally and never re-read old entries.

Seqlock protocol
----------------
The publisher writes the *inactive* buffer: stamp ``QP_SEQ`` and its
``QP_SEQ_ECHO`` twin odd, write payload + header fields, stamp
``QP_SEQ_ECHO`` even, stamp ``QP_SEQ`` even, then flip
``QP_CTRL_ACTIVE``.  Readers load the header stamp, read, and then
require *both* ``QP_SEQ_ECHO`` and ``QP_SEQ`` to still equal the loaded
even stamp: an odd, changed, or mismatched stamp is a torn read and the
reader retries.  A reader can therefore *never* observe a
half-published epoch; the price is bounded retrying, never blocking —
the wait-free contract.

Memory-model caveat: the soundness argument assumes stores to the
shared mapping become visible in program order (x86-TSO) — CPython
emits no memory barriers for plain buffer writes.  On weakly-ordered
CPUs (aarch64: Apple Silicon, Graviton) an even stamp could in
principle become visible before the payload stores it follows.  The
``QP_SEQ_ECHO`` bracket narrows that window — the two stamps sit on
opposite sides of the payload writes, so a torn accept needs two
independently stale slots — but detection there is best-effort, not
guaranteed; deployments on weak memory models should treat the plane's
bit-identity gate (``python -m repro.bench queryplane``) as the
empirical check.

Staleness contract
------------------
Every answer is stamped with ``snapshot_epoch`` (the epoch it was
answered against) and ``staleness_epochs`` (how many epochs the latest
published buffer was ahead at answer time).  A reader pinned to an epoch
older than the publisher's ``min_epoch`` (checkpoint truncation,
replica promotion, or the snapshot store's retention horizon) gets a
structured :data:`E_EPOCH_TRUNCATED` refusal;
a pin inside the valid range but no longer buffered gets
:data:`E_EPOCH_UNAVAILABLE` (fall back to the engine path) — never a
stale or torn answer.
"""

from __future__ import annotations

import pickle
import struct
import time
from array import array
from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from multiprocessing import connection as _mpconn
from multiprocessing import shared_memory

from repro.graph.interning import VertexInterner
from repro.graph.storage import INT64, int64_view
from repro.service.requests import (
    E_EPOCH_TRUNCATED,
    E_EPOCH_UNAVAILABLE,
    E_UNKNOWN_VERTEX,
    STATUS_COMMITTED,
    STATUS_QUARANTINED,
    Response,
    make_error,
)
from repro.service.snapshots import CORE_UNKNOWN, SnapshotView, answer_query

Vertex = Hashable

__all__ = [
    "EpochPublisher",
    "SnapshotReader",
    "ReaderPool",
    "CORE_UNKNOWN",
    "NO_EPOCH",
]

# ----------------------------------------------------------------------
# shared-memory schema
# ----------------------------------------------------------------------
# Per-buffer header slots.  The ``QP_*`` names below are the buffer
# schema contract between :class:`EpochPublisher` (stores) and
# :class:`SnapshotReader` (loads); the static pass RL023-RL025
# (repro.analysis.static.bufferschema) fails the build when a slot is
# written but no longer decoded, decoded but never written, or declared
# and dead — the publisher and reader cannot drift apart silently.
QP_SEQ = 0          # seqlock stamp: odd while the publisher is writing
QP_EPOCH = 1        # committed epoch this buffer carries
QP_MIN_EPOCH = 2    # oldest answerable epoch (checkpoint truncation)
QP_N = 3            # valid payload slots (interner size at publish)
QP_VOCAB_LEN = 4    # valid bytes of the vocab segment
QP_VOCAB_COUNT = 5  # external ids encoded in those bytes
QP_SEQ_ECHO = 6     # post-payload stamp twin (weak-memory torn-read guard)

# Control segment slots (same store/load lockstep contract).
QP_CTRL_SEQ = 0          # seqlock stamp for generation swaps
QP_CTRL_ACTIVE = 1       # index of the buffer readers should use (0/1)
QP_CTRL_GENERATION = 2   # bumped on every segment reallocation
QP_CTRL_CAPACITY = 3     # payload slots per buffer
QP_CTRL_VOCAB_BYTES = 4  # vocab segment size in bytes

#: int64 slots reserved for each region before variable-size data
HEADER_SLOTS = 8
CTRL_SLOTS = 8
#: fixed-width utf-8 segment-name fields after the ctrl slots
NAME_BYTES = 128
CTRL_BYTES = CTRL_SLOTS * INT64 + 3 * NAME_BYTES

#: header epoch before the first publish (nothing answerable yet)
NO_EPOCH = -1

_LEN = struct.Struct("<I")  # vocab entry length prefix

# one-shot readers for the point-query fast path: a single C-level
# unpack replaces a run of per-slot memoryview loads
_CTRL3 = struct.Struct("<3q")  # QP_CTRL_SEQ, QP_CTRL_ACTIVE, QP_CTRL_GENERATION
_HDR6 = struct.Struct("<6q")   # QP_SEQ .. QP_VOCAB_COUNT
_HDR7 = struct.Struct("<7q")   # ... + QP_SEQ_ECHO (final-confirm read)
_I64 = struct.Struct("<q")


class _Seg:
    """A shared-memory segment plus its int64 overlay, releasable in
    the right order (cast memoryviews must go before ``shm.close``)."""

    __slots__ = ("shm", "i64", "owned")

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 owned: bool) -> None:
        self.shm = shm
        self.i64 = int64_view(shm.buf, slots)
        self.owned = owned

    def release(self, unlink: bool) -> None:
        self.i64.release()
        self.shm.close()
        if unlink and self.owned:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _create(nbytes: int) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(create=True, size=nbytes)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a publisher-owned segment without adopting it: before
    3.13, ``SharedMemory(name=...)`` registers the segment with the
    attaching process's resource tracker too, which then warns about (or
    double-unlinks) blocks the publisher already cleaned up.  Only the
    creator tracks (and unlinks) a segment.  Registration is suppressed
    (rather than undone after the fact) because forked readers may share
    the publisher's tracker process: a post-hoc unregister from several
    readers would race the publisher's own unlink-time unregister."""
    try:
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig
    except ImportError:  # pragma: no cover - tracker API drift
        return shared_memory.SharedMemory(name=name)


def _put_name(buf, field: int, name: str) -> None:
    off = CTRL_SLOTS * INT64 + field * NAME_BYTES
    raw = name.encode("utf-8")
    if len(raw) >= NAME_BYTES:
        raise ValueError(f"segment name too long: {name!r}")
    buf[off:off + NAME_BYTES] = raw + b"\0" * (NAME_BYTES - len(raw))


def _get_name(buf, field: int) -> str:
    off = CTRL_SLOTS * INT64 + field * NAME_BYTES
    raw = bytes(buf[off:off + NAME_BYTES])
    return raw.split(b"\0", 1)[0].decode("utf-8")


# ----------------------------------------------------------------------
# publisher (engine side)
# ----------------------------------------------------------------------
class EpochPublisher:
    """Engine-side writer of the wait-free snapshot buffers.

    One publisher per serving engine (primary, follower, or sharded
    router).  :meth:`publish` is called at every epoch commit with the
    committed dense core array of the engine's
    :class:`~repro.service.snapshots.SnapshotStore`, whose interner the
    publisher shares, and the slots the store's commit ring says changed
    since the last publish.  The back buffer is exactly one publish
    behind the front, so a commit writes the slots of the previous
    publish and of this one, O(|V*|), plus the vocab entries of newly
    interned vertices.  The first publish from an array, the one after
    it, and the one after a regrow copy the whole array.

    The publisher owns every segment it creates and unlinks them in
    :meth:`close`; readers attach by ``ctrl_name`` and never own.
    """

    def __init__(self, capacity: int = 256, vocab_capacity: int = 8192,
                 interner: Optional[VertexInterner] = None) -> None:
        if capacity < 1 or vocab_capacity < _LEN.size + 1:
            raise ValueError("capacity/vocab_capacity too small")
        #: vertex <-> payload slot; readers hold these ids, so the
        #: interner is fixed for the publisher's life
        self.interner = interner if interner is not None else VertexInterner()
        self._vocab_log = bytearray()
        self._vocab_count = 0
        self._note_vocab()
        self._capacity = max(capacity, len(self.interner))
        self._vocab_capacity = max(vocab_capacity, len(self._vocab_log))
        self._generation = 0
        self._active = 0
        self._seq = [0, 0]
        self._last = (NO_EPOCH, NO_EPOCH)  # (epoch, min_epoch) published
        #: the array the last publish read, and the slots it changed
        #: (``None``: unknown, so the next publish copies everything)
        self._source: Optional[array] = None
        self._changed: Optional[set] = None
        self._ctrl = _Seg(_create(CTRL_BYTES), CTRL_SLOTS, owned=True)
        self._bufs: List[_Seg] = []
        self._vocab: Optional[_Seg] = None
        self._alloc_segments(b"")
        self._write_ctrl()

    # -- layout ---------------------------------------------------------
    @property
    def ctrl_name(self) -> str:
        """The control segment name — the only address readers need."""
        return self._ctrl.shm.name

    @property
    def epoch(self) -> int:
        """The last published epoch (:data:`NO_EPOCH` before the first)."""
        return self._last[0]

    @property
    def source(self) -> Optional[array]:
        """The core array the last :meth:`publish` read: a store passes
        changed slots only when its array is this one."""
        return self._source

    @property
    def closed(self) -> bool:
        return self._ctrl is None

    def front(self) -> Tuple[int, bytes]:
        """``(epoch, payload bytes)`` of the buffer readers are sent to."""
        seg = self._bufs[self._active]
        off = HEADER_SLOTS * INT64
        return (seg.i64[QP_EPOCH],
                bytes(seg.shm.buf[off:off + seg.i64[QP_N] * INT64]))

    def _buf_bytes(self) -> int:
        return (HEADER_SLOTS + self._capacity) * INT64

    def _alloc_segments(self, payload) -> None:
        """Allocate fresh buffers and vocab, stamping ``payload`` (the
        last published epoch's) into both buffers."""
        self._bufs = [
            _Seg(_create(self._buf_bytes()), HEADER_SLOTS + self._capacity,
                 owned=True)
            for _ in range(2)
        ]
        self._vocab = _Seg(_create(self._vocab_capacity), 0, owned=True)
        self._seq = [0, 0]
        n = len(self._vocab_log)
        self._vocab.shm.buf[:n] = self._vocab_log
        self._vocab_written = n
        for b in (0, 1):
            self._write_buffer(b, *self._last, payload)
        self._changed = None  # both buffers now hold one epoch

    def _write_ctrl(self) -> None:
        ctrl = self._ctrl.i64
        seq = ctrl[QP_CTRL_SEQ]
        ctrl[QP_CTRL_SEQ] = seq + 1  # odd: names/capacities changing
        _put_name(self._ctrl.shm.buf, 0, self._bufs[0].shm.name)
        _put_name(self._ctrl.shm.buf, 1, self._bufs[1].shm.name)
        _put_name(self._ctrl.shm.buf, 2, self._vocab.shm.name)
        ctrl[QP_CTRL_ACTIVE] = self._active
        ctrl[QP_CTRL_GENERATION] = self._generation
        ctrl[QP_CTRL_CAPACITY] = self._capacity
        ctrl[QP_CTRL_VOCAB_BYTES] = self._vocab_capacity
        ctrl[QP_CTRL_SEQ] = seq + 2

    def _write_buffer(self, b: int, epoch: int, min_epoch: int,
                      payload, slots: Optional[set] = None) -> None:
        """Seqlock-write buffer ``b``: odd stamps, payload + header
        fields, even echo, even stamp.  ``payload`` is an int64 array
        (or its raw bytes); with ``slots``, only those payload slots are
        written — the rest already hold their values.  The echo is the
        last store after the payload; the stamp pair brackets every
        payload byte (module docstring, *Memory-model caveat*)."""
        seg = self._bufs[b]
        hdr = seg.i64
        self._seq[b] += 1
        hdr[QP_SEQ] = self._seq[b]
        hdr[QP_SEQ_ECHO] = self._seq[b]
        with memoryview(payload) as whole, whole.cast("B") as raw:
            n = len(raw) // INT64
            if slots is None:
                off = HEADER_SLOTS * INT64
                seg.shm.buf[off:off + len(raw)] = raw
            else:
                for i in slots:
                    hdr[HEADER_SLOTS + i] = payload[i]
        hdr[QP_EPOCH] = epoch
        hdr[QP_MIN_EPOCH] = min_epoch
        hdr[QP_N] = n
        hdr[QP_VOCAB_LEN] = len(self._vocab_log)
        hdr[QP_VOCAB_COUNT] = self._vocab_count
        self._seq[b] += 1
        hdr[QP_SEQ_ECHO] = self._seq[b]
        hdr[QP_SEQ] = self._seq[b]

    # -- vocab -----------------------------------------------------------
    def _note_vocab(self) -> None:
        """Log the vocab entries of every id interned since last time."""
        new = self.interner.tables()[1][self._vocab_count:]
        blobs = list(map(partial(pickle.dumps, protocol=4), new))
        # length prefix + blob per entry, joined at C speed
        self._vocab_log += b"".join(
            map(bytes.__add__, map(_LEN.pack, map(len, blobs)), blobs))
        self._vocab_count += len(new)

    def _regrow(self, n: int) -> None:
        """Reallocate segments (doubled) and re-stamp the *previous*
        epoch — copied from the active buffer — into both, so pinned
        readers of that epoch keep getting pre-grow answers; the caller
        then publishes the new epoch on top.  Old segments are unlinked
        — attached readers keep a valid mapping and re-attach on the
        next generation check."""
        old = (*self._bufs, self._vocab)
        active = self._bufs[self._active]
        off = HEADER_SLOTS * INT64
        prev = bytes(active.shm.buf[off:off + active.i64[QP_N] * INT64])
        while self._capacity < n:
            self._capacity *= 2
        while self._vocab_capacity < len(self._vocab_log):
            self._vocab_capacity *= 2
        self._generation += 1
        self._alloc_segments(prev)
        self._write_ctrl()
        for seg in old:
            seg.release(unlink=True)

    # -- the publish hook ------------------------------------------------
    def publish(self, epoch: int, min_epoch: int, cores: array,
                changed: Optional[set] = None) -> None:
        """Publish the core assignment of a committed epoch.

        ``cores`` is the store's dense int64 core array over
        :attr:`interner` (slot *i* holds the core of id *i*, or
        :data:`CORE_UNKNOWN`).  ``changed`` names the slots that differ
        from the last publish, which must have read this same array
        (:attr:`source`); ``None`` means unknown.  The back buffer holds
        the publish before the last, so it gets this publish's and the
        last one's changed slots, or the whole array when either is
        unknown.  ``min_epoch`` moves the refusal boundary: pins below
        it get :data:`E_EPOCH_TRUNCATED`.
        """
        self._note_vocab()
        n = len(cores)
        if n > self._capacity or len(self._vocab_log) > self._vocab_capacity:
            self._regrow(n)
        elif len(self._vocab_log) > self._vocab_written:
            # append-only: ship the new vocab tail before the header
            # that advertises it, so readers never chase missing bytes
            w, m = self._vocab_written, len(self._vocab_log)
            self._vocab.shm.buf[w:m] = self._vocab_log[w:m]
            self._vocab_written = m
        prev = self._changed if cores is self._source else None
        slots = None if changed is None or prev is None else prev | changed
        back = 1 - self._active
        self._write_buffer(back, epoch, min_epoch, cores, slots)
        self._active = back
        self._ctrl.i64[QP_CTRL_ACTIVE] = back
        self._last = (epoch, min_epoch)
        self._source = cores
        self._changed = changed

    # -- lifecycle -------------------------------------------------------
    def close(self, unlink: bool = True) -> None:
        """Release (and by default unlink) every owned segment."""
        if self._ctrl is None:
            return
        for seg in (*self._bufs, self._vocab, self._ctrl):
            seg.release(unlink)
        self._ctrl = None
        self._bufs = []
        self._vocab = None

    def __enter__(self) -> "EpochPublisher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# reader (query side)
# ----------------------------------------------------------------------
class SnapshotReader:
    """Wait-free decoder over a publisher's buffers.

    Usable in-process (tests, diagnostics) or inside a
    :class:`ReaderPool` worker.  Never blocks: a torn read retries, and
    ``max_spins`` bounds the retrying (a pathological publisher stall
    surfaces as a ``RuntimeError``, not a hang).
    """

    def __init__(self, ctrl_name: str, max_spins: int = 200_000) -> None:
        self._ctrl = _Seg(_attach(ctrl_name), CTRL_SLOTS, owned=False)
        #: raw buffers cached for the fast path (the ctrl one is fixed
        #: for the reader's lifetime; ``_hraw`` tracks reattachment)
        self._ctrl_raw = self._ctrl.shm.buf
        self._hraw: List[memoryview] = []
        self._max_spins = max_spins
        self._generation = -1
        self._bufs: List[_Seg] = []
        self._vocab: Optional[_Seg] = None
        self._capacity = 0
        self._externals: List[Vertex] = []
        self._slots: Dict[Vertex, int] = {}
        self._voff = 0
        #: observed torn reads (diagnostics; also exercised in tests)
        self.retries = 0
        self._view_cache: "Dict[int, Tuple[int, int, SnapshotView]]" = {}

    # -- attachment ------------------------------------------------------
    def _spin(self, spins: int) -> int:
        self.retries += 1
        spins += 1
        if spins >= self._max_spins:
            raise RuntimeError(
                "queryplane read did not stabilize "
                f"(>{self._max_spins} retries) — publisher stalled?"
            )
        if spins % 1024 == 0:
            time.sleep(0.0001)
        return spins

    def _read_ctrl(self) -> Tuple[int, int]:
        """Stable (active, generation); re-attaches segments when the
        generation moved.  The hot path — an unchanged generation, i.e.
        every read that isn't racing a regrow — loads three int slots
        and never touches the segment-name bytes."""
        ctrl = self._ctrl.i64
        buf = self._ctrl.shm.buf
        spins = 0
        while True:
            s1 = ctrl[QP_CTRL_SEQ]
            if s1 & 1:
                spins = self._spin(spins)
                continue
            active = ctrl[QP_CTRL_ACTIVE]
            gen = ctrl[QP_CTRL_GENERATION]
            if gen == self._generation:
                if ctrl[QP_CTRL_SEQ] != s1:
                    spins = self._spin(spins)
                    continue
                return active, gen
            cap = ctrl[QP_CTRL_CAPACITY]
            vocab_bytes = ctrl[QP_CTRL_VOCAB_BYTES]
            names = [_get_name(buf, f) for f in range(3)]
            if ctrl[QP_CTRL_SEQ] != s1:
                spins = self._spin(spins)
                continue
            self._reattach(gen, cap, vocab_bytes, names)
            return active, gen

    def _reattach(self, gen: int, cap: int, vocab_bytes: int,
                  names: List[str]) -> None:
        self._detach_data()
        self._bufs = [
            _Seg(_attach(names[b]), HEADER_SLOTS + cap, owned=False)
            for b in (0, 1)
        ]
        self._vocab = _Seg(_attach(names[2]), 0, owned=False)
        if self._vocab.shm.size < vocab_bytes:
            raise RuntimeError(
                f"queryplane vocab segment smaller than advertised "
                f"({self._vocab.shm.size} < {vocab_bytes}) — generation "
                "skew between ctrl and data segments"
            )
        self._hraw = [seg.shm.buf for seg in self._bufs]
        self._capacity = cap
        self._generation = gen
        # vocab entries survive regrows verbatim (append-only log is
        # copied whole), so the incremental decode state stays valid
        self._view_cache.clear()

    def _detach_data(self) -> None:
        self._hraw = []
        for seg in self._bufs:
            seg.release(unlink=False)
        if self._vocab is not None:
            self._vocab.release(unlink=False)
        self._bufs = []
        self._vocab = None

    # -- decoding --------------------------------------------------------
    def _decode_vocab(self, count: int, length: int) -> None:
        """Advance the incremental external-id table to ``count``
        entries (``length`` valid bytes).  Entries are append-only and
        complete before the header that advertises them, so no seqlock
        is needed here."""
        if len(self._externals) >= count:
            return
        buf = self._vocab.shm.buf
        off = self._voff
        while len(self._externals) < count:
            if off + _LEN.size > length:
                raise RuntimeError("queryplane vocab truncated")
            (n,) = _LEN.unpack(bytes(buf[off:off + _LEN.size]))
            off += _LEN.size
            x = pickle.loads(bytes(buf[off:off + n]))
            off += n
            self._slots[x] = len(self._externals)
            self._externals.append(x)
        self._voff = off

    def _stable_header(self, b: int) -> Optional[Tuple[int, ...]]:
        """One stable header read of buffer ``b`` or ``None`` if torn."""
        hdr = self._bufs[b].i64
        s1 = hdr[QP_SEQ]
        if s1 & 1:
            return None
        epoch = hdr[QP_EPOCH]
        min_epoch = hdr[QP_MIN_EPOCH]
        n = hdr[QP_N]
        vlen = hdr[QP_VOCAB_LEN]
        vcount = hdr[QP_VOCAB_COUNT]
        if hdr[QP_SEQ_ECHO] != s1 or hdr[QP_SEQ] != s1:
            return None
        return s1, epoch, min_epoch, n, vlen, vcount

    def latest_epoch(self) -> int:
        """The most recently published epoch (:data:`NO_EPOCH` if none)."""
        spins = 0
        while True:
            active, _gen = self._read_ctrl()
            meta = self._stable_header(active)
            if meta is not None:
                return meta[1]
            spins = self._spin(spins)

    def _locate(self, pin_epoch: Optional[int]):
        """Find a stable buffer answering ``pin_epoch`` (``None`` =
        latest).  Returns ``(b, meta, latest, refusal)`` where refusal
        is ``None`` or an ``(code, message)`` pair."""
        spins = 0
        while True:
            active, _gen = self._read_ctrl()
            meta = self._stable_header(active)
            if meta is None:
                spins = self._spin(spins)
                continue
            latest, min_epoch = meta[1], meta[2]
            if latest == NO_EPOCH:
                return None, None, latest, (
                    E_EPOCH_UNAVAILABLE, "nothing published yet",
                )
            if pin_epoch is None or pin_epoch == latest:
                return active, meta, latest, None
            if pin_epoch < min_epoch:
                return None, None, latest, (
                    E_EPOCH_TRUNCATED,
                    f"epoch {pin_epoch} below min_epoch {min_epoch} "
                    "(truncated by checkpoint recovery or promotion)",
                )
            other = 1 - active
            ometa = self._stable_header(other)
            if ometa is not None and ometa[1] == pin_epoch:
                return other, ometa, latest, None
            if ometa is None and self._stable_header(active) != meta:
                # the flip raced us: re-run the location from scratch
                spins = self._spin(spins)
                continue
            return None, None, latest, (
                E_EPOCH_UNAVAILABLE,
                f"epoch {pin_epoch} not buffered (latest {latest}); "
                "use the engine read path",
            )

    def _materialize(self, b: int, meta: Tuple[int, ...]) -> Optional[SnapshotView]:
        """A :class:`SnapshotView` over a private copy of buffer ``b``'s
        payload, or ``None`` on a torn copy.  Views are cached per epoch
        so aggregate kinds (``degeneracy`` …) reuse the per-view
        results."""
        seq, epoch, _min_epoch, n, vlen, vcount = meta
        cached = self._view_cache.get(epoch)
        if cached is not None and cached[0] == seq and cached[1] == b:
            return cached[2]
        self._decode_vocab(vcount, vlen)
        seg = self._bufs[b]
        off = HEADER_SLOTS * INT64
        cores = array("q")
        cores.frombytes(seg.shm.buf[off:off + n * INT64])
        hdr = seg.i64
        if hdr[QP_SEQ_ECHO] != seq or hdr[QP_SEQ] != seq:
            return None
        view = SnapshotView(epoch, cores, self._slots, self._externals)
        self._view_cache[epoch] = (seq, b, view)
        if len(self._view_cache) > 4:
            self._view_cache.pop(next(iter(self._view_cache)))
        return view

    # -- answering -------------------------------------------------------
    def answer(self, kind: str, args: Tuple = (),
               pin_epoch: Optional[int] = None) -> Tuple[Any, int, int, Optional[Tuple[str, str]]]:
        """Answer one query from shared memory.

        Returns ``(value, snapshot_epoch, staleness_epochs, error)``
        with ``error`` either ``None`` or an ``(code, message)`` pair —
        the raw envelope :class:`ReaderPool` ships over its pipes (a
        full :class:`~repro.service.requests.Response` is materialized
        caller-side to keep the pipe payload slim).
        """
        if pin_epoch is None and kind in _POINT_KINDS:
            raw = self._answer_point_fast(kind, args)
            if raw is not None:
                return raw
        spins = 0
        while True:
            b, meta, latest, refusal = self._locate(pin_epoch)
            if refusal is not None:
                return None, latest, 0, refusal
            view = self._materialize(b, meta)
            if view is not None:
                break
            spins = self._spin(spins)
        value, err = answer_query(view, kind, args)
        # staleness as of this answer's own location pass: a pinned (or
        # just-superseded) buffer reports how far behind it already was
        return value, view.epoch, max(0, latest - view.epoch), err

    def _answer_point_fast(self, kind: str, args: Tuple):
        """Fused read for an unpinned point query: one stable pass over
        ctrl + header + the vertex's slot via C-level unpacks, computing
        the answer exactly as :mod:`repro.core.queries` does (``core`` =
        the slot value, ``in_k_core`` = known and ``>= k``).  Returns a
        raw envelope, or ``None`` to fall back to the general path on
        any instability, refusal, or argument problem — the fallback
        owns every non-happy case, so the two paths cannot diverge."""
        if kind == "core":
            if len(args) != 1:
                return None
        elif len(args) != 2:
            return None
        ctrl_buf = self._ctrl_raw
        s1, active, gen = _CTRL3.unpack_from(ctrl_buf)
        if (s1 & 1) or gen != self._generation:
            return None
        hbuf = self._hraw[active]
        h1, epoch, _min_epoch, n, vlen, vcount = _HDR6.unpack_from(hbuf)
        if (h1 & 1) or epoch == NO_EPOCH:
            return None
        u = args[0]
        slot = self._slots.get(u)
        if slot is None and vcount > len(self._externals):
            self._decode_vocab(vcount, vlen)
            slot = self._slots.get(u)
        if slot is not None and slot < n:
            val = _I64.unpack_from(hbuf, (HEADER_SLOTS + slot) * INT64)[0]
        else:
            val = CORE_UNKNOWN
        # confirm the whole pass was stable: header not restamped (both
        # stamp slots, the echo being the post-payload one), no buffer
        # flip or regrow behind our back
        hcheck = _HDR7.unpack_from(hbuf)
        if (hcheck[QP_SEQ] != h1 or hcheck[QP_SEQ_ECHO] != h1
                or _CTRL3.unpack_from(ctrl_buf) != (s1, active, gen)):
            return None
        if kind == "core":
            if val == CORE_UNKNOWN:
                return None, epoch, 0, (
                    E_UNKNOWN_VERTEX,
                    f"vertex {u!r} unknown at epoch {epoch}",
                )
            return val, epoch, 0, None
        try:
            return (val != CORE_UNKNOWN and val >= args[1]), epoch, 0, None
        except TypeError:
            return None  # bad k: the general path builds the refusal

    def respond(self, kind: str, args: Tuple = (),
                pin_epoch: Optional[int] = None,
                id: str = "qp") -> Response:
        """:meth:`answer`, materialized as a full
        :class:`~repro.service.requests.Response` envelope."""
        value, epoch, staleness, err = self.answer(kind, args, pin_epoch)
        return raw_to_response((value, epoch, staleness, err), id=id)

    def stats(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "generation": self._generation,
            "vocab": len(self._externals),
        }

    def close(self) -> None:
        self._detach_data()
        if self._ctrl is not None:
            self._ctrl.release(unlink=False)
            self._ctrl = None

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: kinds the fused fast path answers from a single payload slot
_POINT_KINDS = ("core", "in_k_core")


def raw_to_response(raw: Tuple[Any, int, int, Optional[Tuple[str, str]]],
                    id: str = "qp") -> Response:
    """Materialize a reader's raw ``(value, epoch, staleness, error)``
    envelope as a :class:`~repro.service.requests.Response`."""
    value, epoch, staleness, err = raw
    epoch_field = None if epoch == NO_EPOCH else epoch
    if err is not None:
        code, message = err
        return Response(
            id=id, op="query", status=STATUS_QUARANTINED,
            error=make_error(code, message),
            snapshot_epoch=epoch_field, staleness_epochs=staleness,
        )
    return Response(
        id=id, op="query", status=STATUS_COMMITTED, value=value,
        epoch=epoch_field, snapshot_epoch=epoch_field,
        staleness_epochs=staleness,
    )


# ----------------------------------------------------------------------
# reader pool (OS processes)
# ----------------------------------------------------------------------
def _reader_worker(conn, ctrl_name: str, counter_name: str,
                   idx: int, nreaders: int) -> None:
    """One OS reader process: drain batched query frames against its own
    :class:`SnapshotReader`, bumping a per-reader slot of the shared
    read counter after every answer (single writer per slot — that is
    the whole atomicity argument)."""
    reader = SnapshotReader(ctrl_name)
    counter = _attach(counter_name)
    counts = int64_view(counter.buf, nreaders)
    served = 0
    loaded: List[Tuple[str, Tuple]] = []
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            if op == "q":
                _op, items, pin = msg
                out = []
                try:
                    for kind, args in items:
                        out.append(reader.answer(kind, args, pin))
                        served += 1
                        counts[idx] = served
                except Exception as exc:  # surface, don't wedge the pipe
                    conn.send(("err", repr(exc)))
                else:
                    conn.send(("ok", out))
            elif op == "load":
                # stage a private workload slice for a later "run" — the
                # transfer cost stays out of the measured window
                loaded = msg[1]
                conn.send(("ok", len(loaded)))
            elif op == "run":
                # answer the staged slice in a local loop: the parent is
                # not in the read path at all (it only applies updates),
                # so throughput scales with reader processes
                sample_every = msg[1]
                samples = []
                answer = reader.answer
                try:
                    for i, (kind, args) in enumerate(loaded):
                        raw = answer(kind, args, None)
                        served += 1
                        if not i % 64:
                            # the counter is monotone and read coarsely
                            # (pressure polls); a batched store is fine
                            counts[idx] = served
                        if not i % sample_every:
                            samples.append((i, raw))
                except Exception as exc:
                    counts[idx] = served
                    conn.send(("err", repr(exc)))
                else:
                    counts[idx] = served
                    conn.send(("ok", samples))
            elif op == "stats":
                conn.send(("ok", reader.stats()))
            elif op == "stop":
                conn.send(("ok", served))
                break
            else:  # pragma: no cover - protocol drift
                conn.send(("err", f"unknown op {op!r}"))
    finally:
        counts.release()
        counter.close()
        reader.close()
        conn.close()


class ReaderPool:
    """N OS reader processes answering snapshot queries in parallel.

    Queries are shipped in batched frames (round-robin, at most one
    frame outstanding per reader so a reply can never deadlock the
    request pipe) and answered entirely from shared memory — the engine
    process is not involved.  :meth:`reads_total` exposes the shared
    read counter; the engine polls it to keep ``query_pressure`` batch
    cuts firing even though no query ever ticks the batcher
    (:meth:`repro.service.engine.Engine.enable_queryplane`).
    """

    def __init__(self, ctrl_name: str, readers: int = 4) -> None:
        if readers < 1:
            raise ValueError("readers must be >= 1")
        from repro.parallel.procs import fork_context

        ctx = fork_context()
        self.readers = readers
        self._counter = _Seg(_create(readers * INT64), readers, owned=True)
        for i in range(readers):
            self._counter.i64[i] = 0
        self._conns = []
        self._procs = []
        for i in range(readers):
            parent, child = ctx.Pipe()
            p = ctx.Process(
                target=_reader_worker,
                args=(child, ctrl_name, self._counter.shm.name, i, readers),
                daemon=True,
            )
            p.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(p)
        self._next = 0
        self._tok = 0
        self._pending: List[List[int]] = [[] for _ in range(readers)]
        self._done: Dict[int, List] = {}

    # -- frame plumbing --------------------------------------------------
    def _recv(self, r: int):
        return self._recv_conn(self._conns[r])

    def _recv_conn(self, conn):
        status, payload = conn.recv()
        if status != "ok":
            raise RuntimeError(f"reader failed: {payload}")
        return payload

    def _collect_reader(self, r: int) -> None:
        pend = self._pending[r]
        while pend:
            self._done[pend.pop(0)] = self._recv(r)

    def dispatch(self, items: List[Tuple[str, Tuple]],
                 pin_epoch: Optional[int] = None) -> int:
        """Ship one frame of ``(kind, args)`` queries to the next
        reader; returns a token resolvable via :meth:`drain`.  Collects
        that reader's outstanding reply first, bounding pipe depth."""
        r = self._next
        self._next = (self._next + 1) % self.readers
        self._collect_reader(r)
        self._conns[r].send(("q", items, pin_epoch))
        tok = self._tok
        self._tok += 1
        self._pending[r].append(tok)
        return tok

    def drain(self) -> Dict[int, List]:
        """Collect every outstanding frame: token -> list of raw
        ``(value, epoch, staleness, error)`` envelopes, frame order
        preserved within each token."""
        for r in range(self.readers):
            self._collect_reader(r)
        out = self._done
        self._done = {}
        return out

    # -- convenience -----------------------------------------------------
    def query(self, kind: str, *args, pin_epoch: Optional[int] = None,
              id: str = "qp") -> Response:
        """One synchronous query through the pool (tests, CLI)."""
        tok = self.dispatch([(kind, tuple(args))], pin_epoch)
        raw = self.drain()[tok][0]
        return raw_to_response(raw, id=id)

    def query_many(self, items: List[Tuple[str, Tuple]],
                   pin_epoch: Optional[int] = None,
                   frame: int = 512) -> List:
        """Answer a batch across all readers; returns raw envelopes in
        input order."""
        toks = [
            self.dispatch(items[i:i + frame], pin_epoch)
            for i in range(0, len(items), frame)
        ]
        done = self.drain()
        return [raw for t in toks for raw in done[t]]

    # -- partitioned runs (bench / bulk serving) -------------------------
    def preload(self, slices: List[List[Tuple[str, Tuple]]]) -> List[int]:
        """Stage one workload slice per reader (``len(slices)`` must
        equal ``readers``) for a subsequent :meth:`run`.  The transfer
        happens now, so the run itself measures pure answering."""
        if len(slices) != self.readers:
            raise ValueError(
                f"need {self.readers} slices, got {len(slices)}"
            )
        for r, items in enumerate(slices):
            self._collect_reader(r)
            self._conns[r].send(("load", items))
        return [self._recv(r) for r in range(self.readers)]

    def run(self, sample_every: int = 512,
            on_tick: Optional[Callable[[], None]] = None,
            tick_s: float = 0.002) -> List[List[Tuple[int, Tuple]]]:
        """Answer every preloaded slice concurrently, one local loop per
        reader process — the parent never touches a query.  ``on_tick``
        is called between completion polls (the bench applies interleaved
        updates there).  Returns, per reader, the sampled ``(local_index,
        raw_envelope)`` pairs (every ``sample_every``-th answer)."""
        for r in range(self.readers):
            self._collect_reader(r)
            self._conns[r].send(("run", sample_every))
        done: List[Optional[List]] = [None] * self.readers
        if on_tick is None:
            # nothing to interleave: block idly instead of busy-polling
            # so the readers get the whole machine
            pending = {self._conns[r]: r for r in range(self.readers)}
            while pending:
                for conn in _mpconn.wait(list(pending)):
                    done[pending.pop(conn)] = self._recv_conn(conn)
            return done
        while any(d is None for d in done):
            for r in range(self.readers):
                if done[r] is None and self._conns[r].poll(tick_s):
                    done[r] = self._recv(r)
            on_tick()
        return done

    # -- the shared read counter ----------------------------------------
    def counters(self) -> List[int]:
        """Per-reader served counts, read directly from shared memory."""
        return self._counter.i64.tolist()

    def reads_total(self) -> int:
        """Total queries served by the pool — the atomic feedback signal
        for the engine's ``query_pressure`` cut."""
        return sum(self._counter.i64)

    def stats(self) -> List[Dict[str, int]]:
        out = []
        for r in range(self.readers):
            self._collect_reader(r)
            self._conns[r].send(("stats",))
            out.append(self._recv(r))
        return out

    def close(self) -> None:
        """Stop every reader and release the counter segment."""
        if self._counter is None:
            return
        for r, conn in enumerate(self._conns):
            try:
                self._collect_reader(r)
                conn.send(("stop",))
                self._recv(r)
            except (OSError, EOFError, BrokenPipeError, RuntimeError):
                # RuntimeError: a reader replied ('err', ...) to an
                # earlier frame — shutdown must still reach every
                # process and release the counter segment; closing the
                # pipe below unblocks the reader if "stop" never landed
                pass
            conn.close()
        for p in self._procs:
            p.join(timeout=10)
            if p.is_alive():  # pragma: no cover - wedged reader
                p.terminate()
                p.join(timeout=5)
        self._counter.release(unlink=True)
        self._counter = None

    def __enter__(self) -> "ReaderPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
