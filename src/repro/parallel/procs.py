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
``("err", repr)`` back.  Workers host the same direct
:class:`~repro.service.engine.Engine` as in-process shards (so
process-mode latencies and deadlines are in the same cost units, and as
reproducible) and keep the same surface
as :class:`~repro.service.sharding.LocalShard`, so the router is
backend-agnostic.

The epoch stitch needs only plain RPCs: ``deltas`` returns the shard's
last epoch together with the edge batches it committed since a given
epoch (one frame, so the two always agree), and ``edges``/``present``
hand over the full edge list and vertex set when the router rebuilds
its global maintainer.

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
from typing import Dict, List, Optional

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
def _shard_edges(eng) -> List:
    """Every edge the shard co-owns: maintained plus foreign-tracked."""
    return list(eng.graph.edges()) + eng.foreign_edges()


def _shard_vertices(eng) -> List:
    """Present vertices including endpoints only foreign edges name."""
    out = list(eng.graph.vertices())
    seen = set(out)
    for u, v in eng.foreign_edges():
        for x in (u, v):
            if x not in seen:
                seen.add(x)
                out.append(x)
    return out


def _shard_worker(conn, shard_id: int, spec: Dict,
                  init_edges, recover_from: Optional[str],
                  foreign=()) -> None:
    """Worker main loop: host one shard engine, serve pipe frames."""
    # imported here as well as lazily usable under spawn: the module is
    # re-imported in the child, and repro.service must finish importing
    # before we construct engines
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.service.engine import Engine

    cfg = spec["config"]
    fs = spec["fault_spec"]
    if fs is not None and fs.active:
        cfg = replace(cfg, faults=FaultPlane(fs, seed=spec["fault_seed"]))
    if recover_from is not None:
        eng = Engine.from_journal(recover_from, cfg)
    else:
        eng = Engine(DynamicGraph(list(init_edges or [])), cfg,
                     foreign=list(foreign or ()))

    while True:
        try:
            msg = conn.recv()
        except EOFError:  # router died / abandoned us
            break
        op = msg[0]
        try:
            if op == "submit":
                out = eng.submit(msg[1])
            elif op == "submit_many":
                out = [eng.submit(r) for r in msg[1]]
            elif op == "flush":
                out = eng.flush()
            elif op == "take":
                out = eng.take_completed()
            elif op == "prepare":
                out = eng.prepare_cross(*msg[1:])
            elif op == "commit2":
                out = eng.commit_cross(msg[1])
            elif op == "abort2":
                out = eng.abort_cross(msg[1])
            elif op == "prepare_group":
                out = [eng.prepare_cross(tx, kind, edge, rid, shard_id,
                                         peer, role=role)
                       for tx, kind, edge, rid, peer, role in msg[1]]
            elif op == "commit_group":
                out = eng.commit_cross_group(msg[1])
            elif op == "abort_group":
                for tx in msg[1]:
                    eng.abort_cross(tx)
                out = None
            elif op == "epoch":
                out = eng.epoch
            elif op == "pending":
                out = eng.pending_ops()
            elif op == "edges":
                out = _shard_edges(eng)
            elif op == "present":
                out = _shard_vertices(eng)
            elif op == "deltas":
                out = eng.snapshots.edge_deltas(msg[1])
            elif op == "metrics":
                out = eng.metrics()
            elif op == "check":
                out = eng.check()
            elif op == "quiesce":
                payload = {
                    "epoch": eng.epoch,
                    "edges": eng._graph_edges(),
                    "cores": eng.maintainer.cores(),
                    "order": eng.maintainer.order_sequence(),
                    "foreign": eng.foreign_edges(),
                }
                eng.close()
                conn.send(("ok", payload))
                break
            elif op == "abandon":
                eng.journal.close()
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
        return self.rpc("take")

    # -- 2PC participant ----------------------------------------------
    def prepare_cross(self, tx, kind, edge, rid, peer, role="apply"):
        return self.rpc("prepare", tx, kind, edge, rid, self.shard_id,
                        peer, role)

    def commit_cross(self, tx):
        return self.rpc("commit2", tx)

    def abort_cross(self, tx):
        return self.rpc("abort2", tx)

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
        return self.rpc("pending")

    def edges(self):
        return self.rpc("edges")

    def present_vertices(self):
        return self.rpc("present")

    def edge_deltas(self, since):
        return self.rpc("deltas", since)

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
        j.log_checkpoint(payload["epoch"], payload["edges"],
                         payload["cores"], payload["order"],
                         foreign=payload.get("foreign", ()))
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
