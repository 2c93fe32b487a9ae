"""True-parallel process backend: shard workers in real OS processes.

The ``direct`` backend hosts every shard engine inside the router's
process.  This module is the other backend of
:class:`~repro.service.sharding.ShardedEngine`: each shard engine runs in
its **own OS process** (forked worker, one duplex pipe), so shards
execute with no shared interpreter state and no GIL coupling — the
shared-nothing scale-out that ``repro.bench sharding`` measures.

Protocol
--------
The router speaks length-one request/reply frames over a
``multiprocessing.Pipe``: ``(op, *args)`` in, ``("ok", payload)`` or
``("err", repr)`` back.  A worker wraps the same
:class:`~repro.service.sharding.ShardEngine` as an in-process shard in
a :class:`~repro.service.sharding.LocalShard` and answers each frame
with the same-named method of it, so the two backends share one shard
surface (and process-mode latencies and deadlines are in the same cost
units, and as reproducible) and the router is backend-agnostic.

The epoch stitch needs only plain RPCs: ``edge_deltas`` returns the
shard's last epoch together with the edge batches it committed since a
given epoch (one frame, so the two always agree), and
``edges``/``present_vertices`` hand over the full edge list and vertex
set when the router rebuilds its global maintainer.

One part of the protocol is not simple RPC — **shutdown** (the
torn-tail rule): ``quiesce`` makes the worker close its journal, reply
with its checkpoint payload and exit; the client then **joins the
process before** the router appends the final checkpoint record to the
(now unowned) journal file.  Two writers never hold the file at once.

Fault planes cannot cross the fork (they hold a mutex and live
counters), so a worker receives ``(FaultSpec, derived seed)`` and builds
its own independent plane — see
:func:`repro.faults.plane.derive_plane`.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import replace
from typing import Dict, Optional

from repro.faults.plane import FaultPlane

__all__ = ["ProcessShard", "fork_context"]


def fork_context():
    """The ``fork`` start method when the platform has it (Linux always
    does), else the platform default — the worker target and its args
    are picklable, so ``spawn`` works too, just slower to start."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return mp.get_context()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: frames a worker answers with the same-named
#: :class:`~repro.service.sharding.LocalShard` method of its shard
_FRAMES = frozenset({
    "submit", "flush", "take_completed", "prepare_group", "commit_group",
    "abort_group", "epoch", "pending_ops", "edges", "present_vertices",
    "edge_deltas", "metrics", "check",
})


def _shard_worker(conn, shard_id: int, spec: Dict,
                  init_edges, recover_from: Optional[str],
                  foreign=()) -> None:
    """Worker main loop: host one shard engine behind a
    :class:`~repro.service.sharding.LocalShard`, serve pipe frames."""
    # imported here as well as lazily usable under spawn: the module is
    # re-imported in the child, and repro.service must finish importing
    # before we construct engines
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.service.sharding import LocalShard, ShardEngine

    cfg = spec["config"]
    fs = spec["fault_spec"]
    if fs is not None and fs.active:
        cfg = replace(cfg, faults=FaultPlane(fs, seed=spec["fault_seed"]))
    if recover_from is not None:
        eng = ShardEngine.from_journal(recover_from, cfg)
    else:
        eng = ShardEngine(DynamicGraph(list(init_edges or [])), cfg,
                          foreign=list(foreign or ()))
    shard = LocalShard(shard_id, eng)

    while True:
        try:
            msg = conn.recv()
        except EOFError:  # router died / abandoned us
            break
        op, args = msg[0], msg[1:]
        try:
            if op in _FRAMES:
                out = getattr(shard, op)(*args)
            elif op == "submit_many":
                out = [shard.submit(r) for r in args[0]]
            elif op == "quiesce":
                payload = shard.quiesce()
                shard.close()
                conn.send(("ok", payload))
                break
            elif op == "abandon":
                shard.abandon()
                conn.send(("ok", None))
                break
            else:
                raise ValueError(f"unknown frame {op!r}")
        except BaseException as exc:  # never let the pipe go silent
            conn.send(("err", f"{type(exc).__name__}: {exc}"))
            continue
        conn.send(("ok", out))
    conn.close()


# ----------------------------------------------------------------------
# router side
# ----------------------------------------------------------------------
class ProcessShard:
    """Pipe client for one shard worker; LocalShard-shaped surface."""

    def __init__(self, shard_id: int, process, conn,
                 journal_path: Optional[str]) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.journal_path = journal_path

    @classmethod
    def start(cls, shard_id: int, spec: Dict, init_edges,
              recover_from: Optional[str] = None,
              foreign=()) -> "ProcessShard":
        ctx = fork_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_shard_worker,
            args=(child, shard_id, spec, init_edges, recover_from,
                  foreign),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child.close()
        return cls(shard_id, proc, parent,
                   spec["config"].journal_path)

    # -- framing -------------------------------------------------------
    def send(self, *msg) -> None:
        self.conn.send(msg)

    def recv(self):
        tag, payload = self.conn.recv()
        if tag == "err":
            raise RuntimeError(f"shard {self.shard_id}: {payload}")
        return payload

    def rpc(self, *msg):
        self.send(*msg)
        return self.recv()

    # -- op plane ------------------------------------------------------
    def submit(self, request):
        return self.rpc("submit", request)

    def submit_many(self, requests):
        return self.rpc("submit_many", requests)

    def flush(self):
        return self.rpc("flush")

    def take_completed(self):
        return self.rpc("take_completed")

    # -- 2PC participant ----------------------------------------------
    def prepare_group(self, items):
        return self.rpc("prepare_group", items)

    def commit_group(self, txs):
        return self.rpc("commit_group", txs)

    def abort_group(self, txs):
        return self.rpc("abort_group", txs)

    # -- stitch inputs -------------------------------------------------
    def epoch(self):
        return self.rpc("epoch")

    def pending_ops(self):
        return self.rpc("pending_ops")

    def edges(self):
        return self.rpc("edges")

    def present_vertices(self):
        return self.rpc("present_vertices")

    def edge_deltas(self, since):
        return self.rpc("edge_deltas", since)

    def metrics(self):
        return self.rpc("metrics")

    def check(self):
        return self.rpc("check")

    # -- shutdown ------------------------------------------------------
    def quiesce(self) -> Dict:
        """Stop the worker: it closes its journal, hands back its
        checkpoint payload and exits; we *join* it here so the journal
        file has no writer left by the time :meth:`final_checkpoint`
        appends to it."""
        payload = self.rpc("quiesce")
        self.process.join(timeout=60)
        return payload

    def final_checkpoint(self, payload: Dict) -> None:
        if self.journal_path is None:
            return  # worker's journal was in-memory: nothing outlived it
        from repro.service.journal import EdgeJournal

        j = EdgeJournal.load(self.journal_path)
        j.log_checkpoint(**payload)
        j.close()

    def close(self) -> None:
        self.conn.close()
        if self.process.is_alive():  # quiesce already joined it normally
            self.process.terminate()
            self.process.join(timeout=10)

    def abandon(self) -> None:
        """Crash-stop: kill the worker where it stands (between frames,
        so the journal tail is whole — torn-write tails are the
        journal's committed-prefix department, not ours)."""
        try:
            self.rpc("abandon")
        except (RuntimeError, EOFError, OSError, BrokenPipeError):
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=10)
        self.conn.close()
