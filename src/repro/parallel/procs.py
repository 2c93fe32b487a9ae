"""True-parallel process backend: shard workers in real OS processes.

The ``direct`` and ``sim`` backends host every shard engine inside the
router's process.  This module is the third backend of
:class:`~repro.service.sharding.ShardedEngine`: each shard engine runs in
its **own OS process** (forked worker, one duplex pipe), so shards
execute with no shared interpreter state and no GIL coupling — the
shared-nothing scale-out the ISSUE's speedup acceptance measures.

Protocol
--------
The router speaks length-one request/reply frames over a
``multiprocessing.Pipe``: ``(op, *args)`` in, ``("ok", payload)`` or
``("err", repr)`` back.  Workers host a *direct*
:class:`~repro.service.engine.Engine` (the worker process already
provides isolation, and the direct kernel's deterministic service clock
keeps process-mode latencies and deadlines in the same units, and as
reproducible, as in-process shards) and keep the same surface
as :class:`~repro.service.sharding.LocalShard`, so the router is
backend-agnostic.

Two parts of the protocol are not simple RPC:

* **Shutdown** (the torn-tail rule): ``quiesce`` makes the worker close
  its journal, reply with its checkpoint payload and exit; the client
  then **joins the process before** the router appends the final
  checkpoint record to the (now unowned) journal file.  Two writers
  never hold the file at once.

* **Distributed stitch**: :func:`refine_distributed` runs the epoch
  stitch's synchronous H-index rounds (:mod:`repro.parallel.hindex`)
  *inside the shard workers* over two ``multiprocessing.shared_memory``
  int64 arrays — every worker refines the vertices it owns, the router
  is the barrier between rounds, and the fixpoint is bit-identical to
  the in-process :func:`~repro.parallel.hindex.refine_cores` because
  the per-round kernel and the seed are the same.

Fault planes cannot cross the fork (they hold a mutex and live
counters), so a worker receives ``(FaultSpec, derived seed)`` and builds
its own independent plane — see
:func:`repro.faults.plane.derive_plane`.
"""

from __future__ import annotations

import multiprocessing as mp
from array import array
from dataclasses import replace
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plane import FaultPlane
from repro.graph.interning import stable_shard
from repro.graph.storage import INT64, int64_view
from repro.parallel.hindex import refine_round, seed_degrees

__all__ = ["ProcessShard", "refine_distributed", "fork_context"]


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
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a router-owned segment without adopting it: before
    3.13, ``SharedMemory(name=...)`` registers the segment with the
    attaching process's resource tracker too, which then warns about (or
    double-unlinks) blocks the router already cleaned up.  Only the
    router creates, so only the router tracks.  Registration is
    suppressed (rather than undone after the fact) because forked
    workers may share the router's tracker process: a post-hoc
    unregister from several workers would race the router's own
    unlink-time unregister on the shared tracker."""
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


def _build_refine(eng, extgid: Dict, shard_id: int, nshards: int, n: int):
    """CSR over router gids for this worker's subgraph, plus the owned
    slots.  Maintained edges plus foreign-tracked cross edges together
    give an owned vertex its *full* global adjacency — which is what
    makes the local degree seed and the local H-index correct."""
    adj: Dict[int, List[int]] = {}
    for u, v in _shard_edges(eng):
        gu, gv = extgid[u], extgid[v]
        adj.setdefault(gu, []).append(gv)
        adj.setdefault(gv, []).append(gu)
    indptr = array("q", [0])
    targets = array("q")
    for g in range(n):
        targets.extend(adj.get(g, ()))
        indptr.append(len(targets))
    owned = sorted(
        extgid[x] for x in _shard_vertices(eng)
        if stable_shard(x, nshards) == shard_id
    )
    return indptr, targets, owned


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


def _shard_worker(conn, shard_id: int, nshards: int, spec: Dict,
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

    shm_a = shm_b = None
    views: List = []
    refine = None  # (indptr, targets, owned, n)
    qp = None  # worker-owned query-plane publisher (docs/queryplane.md)
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
            elif op == "metrics":
                out = eng.metrics()
            elif op == "check":
                out = eng.check()
            elif op == "refine_begin":
                _, name_a, name_b, n, extgid = msg
                shm_a = _attach(name_a)
                shm_b = _attach(name_b)
                va = int64_view(shm_a.buf, n)
                vb = int64_view(shm_b.buf, n)
                views = [va, vb]
                refine = (*_build_refine(eng, extgid, shard_id, nshards, n), n)
                seed_degrees(refine[0], refine[2], va)
                out = refine[2]  # owned gids (the router's presence set)
            elif op == "refine_round":
                r = msg[1]
                indptr, targets, owned, _n = refine
                cur, nxt = views[r % 2], views[1 - r % 2]
                out = refine_round(indptr, targets, owned, cur, nxt)
            elif op == "refine_end":
                for v in views:
                    v.release()
                views = []
                refine = None
                for shm in (shm_a, shm_b):
                    if shm is not None:
                        shm.close()
                shm_a = shm_b = None
                out = None
            elif op == "qp_enable":
                # publish this shard's epochs into worker-owned shared
                # memory; the router (or any process) attaches readers
                # by the returned ctrl name.  The engine publishes on
                # every commit from here on — no extra frames needed.
                qp = eng.enable_queryplane(**(msg[1] or {}))
                out = qp.ctrl_name
            elif op == "quiesce":
                payload = {
                    "epoch": eng.epoch,
                    "edges": eng._graph_edges(),
                    "cores": eng.maintainer.cores(),
                    "order": eng.maintainer.order_sequence(),
                    "foreign": eng.foreign_edges(),
                }
                eng.close()
                if qp is not None:
                    qp.close()
                conn.send(("ok", payload))
                break
            elif op == "abandon":
                eng.journal.close()
                if qp is not None:
                    qp.close()
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
              nshards: int, recover_from: Optional[str] = None,
              foreign=()) -> "ProcessShard":
        ctx = fork_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_shard_worker,
            args=(child, shard_id, nshards, spec, init_edges, recover_from,
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

    def enable_queryplane(self, **kwargs) -> str:
        """Enable the worker-side epoch publisher; returns the ctrl
        segment name any process can attach a SnapshotReader to."""
        return self.rpc("qp_enable", kwargs)

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


def refine_distributed(shards: List[ProcessShard], interner
                       ) -> Tuple[List[int], Set[int]]:
    """Run the epoch stitch's H-index refinement inside the workers.

    Allocates the two shared double-buffer arrays, has every worker
    seed degrees for the vertices it owns (round 0 reads buffer A), then
    drives synchronous rounds — all workers compute round ``r`` before
    any sees ``r+1`` — until no slot changed anywhere.  Returns the
    final per-gid values and the set of present (owned-by-someone) gids.
    """
    # each worker refines against router gids; ship it the ext->gid map
    # for exactly the vertices it holds (owned + ghost replicas)
    maps: List[Dict] = []
    for sh in shards:
        sh.send("present")
    for sh in shards:
        maps.append({x: interner.intern(x) for x in sh.recv()})
    n = len(interner)
    if n == 0:
        return [], set()
    size = n * INT64
    shm_a = shared_memory.SharedMemory(create=True, size=size)
    shm_b = shared_memory.SharedMemory(create=True, size=size)
    try:
        shm_a.buf[:size] = bytes(size)
        shm_b.buf[:size] = bytes(size)
        present: Set[int] = set()
        for sh, m in zip(shards, maps):
            sh.send("refine_begin", shm_a.name, shm_b.name, n, m)
        for sh in shards:
            present.update(sh.recv())   # barrier: all seeds written
        r = 0
        while True:
            for sh in shards:
                sh.send("refine_round", r)
            changed = sum(sh.recv() for sh in shards)  # round barrier
            if changed == 0:
                break
            r += 1
        # round r wrote the buffer opposite its read buffer (A on even)
        final = int64_view((shm_b if r % 2 == 0 else shm_a).buf, n)
        vals = list(final)
        final.release()
        for sh in shards:
            sh.send("refine_end")
        for sh in shards:
            sh.recv()
        return vals, present
    finally:
        shm_a.close()
        shm_b.close()
        shm_a.unlink()
        shm_b.unlink()
