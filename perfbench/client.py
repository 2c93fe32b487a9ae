"""The closed-loop client: set up, replay, check.

One repetition builds the graph and the engine (timed as set-up), replays
the workload's ops with one outstanding call (timed as the replay), then
checks the result outside any timed window.  An update's ``submit``
returns ``pending`` at once, so updates pipeline up to the batch cut; its
latency runs from its ``submit`` to the return of the call in which its
response became terminal.  A read's latency is the wall time of its
``submit``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.decomposition import core_decomposition
from repro.graph.dynamic_graph import DynamicGraph
from repro.service import Engine, EngineConfig
from repro.service.requests import (
    E_UNKNOWN_VERTEX,
    STATUS_COMMITTED,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    Request,
)
from repro.service.sharding import ShardedEngine
from repro.traffic.driver import cores_digest

from perfbench.tracing import Tracer
from perfbench.workloads import POINT_KINDS, Workload

clock = time.perf_counter

#: fields of the per-ledger accounting identity
LEDGER = ("admitted", "committed", "quarantined", "timed_out", "abandoned")


@dataclass
class Rep:
    """What one repetition measured and how its checks came out."""

    setup_s: List[float]
    replay_s: float = 0.0
    committed_updates: int = 0
    update_lat: List[float] = field(default_factory=list)
    point_lat: List[float] = field(default_factory=list)
    agg_lat: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unknown_vertex: int = 0
    unterminated: int = 0
    verdicts: Dict[str, bool] = field(default_factory=dict)
    cores_digest: str = ""
    journal_digest: str = ""
    tracer: Optional[Tracer] = None
    layer_counts: Dict[str, float] = field(default_factory=dict)
    answer_lat: List[float] = field(default_factory=list)
    #: throughput and percentiles, filled in once the samples are summarised
    summary: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def drop_samples(self) -> None:
        """Free the latency samples once summarised, so the run's peak RSS
        does not grow with what the harness keeps."""
        self.update_lat, self.point_lat, self.agg_lat = [], [], []


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _graph(w: Workload) -> DynamicGraph:
    if w.dense and w.initial_edges:
        return DynamicGraph.from_int_edges(w.initial_edges)
    return DynamicGraph(w.initial_edges)


def _construct(w: Workload, workdir: str):
    config = dict(w.config)
    if w.journal_file:
        config["journal_path"] = os.path.join(workdir, f"{w.name}.wal")
    cfg = EngineConfig(**config)
    if w.sharded:
        eng = ShardedEngine(_graph(w), cfg)
    else:
        eng = Engine(_graph(w), cfg)
    publisher = eng.enable_queryplane() if w.queryplane else None
    return eng, publisher


def close(eng, publisher) -> None:
    eng.close()
    if publisher is not None:
        publisher.close()


def setup(w: Workload, workdir: str) -> Tuple[object, object, List[float]]:
    """Build graph and engine ``w.setup_repeats`` times; keep the last."""
    samples = []
    eng = publisher = None
    # one full collection up front: one before every sample would walk the
    # whole heap each time and leave the caches cold for the next sample
    gc.collect()
    for i in range(w.setup_repeats):
        if eng is not None:
            close(eng, publisher)
            eng = publisher = None
        t0 = clock()
        eng, publisher = _construct(w, workdir)
        samples.append(clock() - t0)
    return eng, publisher, samples


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay(eng, w: Workload, rep: Rep) -> None:
    """Drive ``w.ops`` through ``eng`` as one closed-loop client."""
    pending: Dict[str, float] = {}
    update_lat, point_lat, agg_lat = rep.update_lat, rep.point_lat, rep.agg_lat
    failed = unknown = attempted = 0
    client_committed = 0

    def settle(responses, t_end: float) -> None:
        nonlocal failed, client_committed
        for r in responses:
            t0 = pending.pop(r.id, None)
            if t0 is None:
                continue  # engine-generated (window expiry)
            if r.status == STATUS_COMMITTED:
                update_lat.append(t_end - t0)
                client_committed += 1
            else:
                failed += 1

    submit, take = eng.submit, eng.take_completed
    start = clock()
    for op in w.ops:
        tag = op[0]
        if tag == "t":
            eng.advance_to(op[1])
            settle(take(), clock())
        elif tag == "+" or tag == "-":
            attempted += 1
            t0 = clock()
            r = submit(Request("insert" if tag == "+" else "remove",
                               u=op[1], v=op[2]))
            t1 = clock()
            if r.status == STATUS_PENDING:
                pending[r.id] = t0
            elif r.status == STATUS_COMMITTED:
                update_lat.append(t1 - t0)
                client_committed += 1
            else:
                failed += 1
            settle(take(), t1)
        elif tag == "q":
            attempted += 1
            kind = op[1]
            t0 = clock()
            r = submit(Request("query", kind=kind, args=op[2]))
            t1 = clock()
            (point_lat if kind in POINT_KINDS else agg_lat).append(t1 - t0)
            if r.status != STATUS_COMMITTED:
                if (kind == "core" and r.status == STATUS_QUARANTINED
                        and r.error["code"] == E_UNKNOWN_VERTEX):
                    unknown += 1  # a correct answer: absent at that epoch
                else:
                    failed += 1
            settle(take(), t1)
        elif tag == "S":
            eng.cores()
    final = eng.drain_window() if w.windowed else eng.flush()
    t_end = clock()
    settle(final, t_end)
    settle(take(), t_end)
    rep.replay_s = t_end - start
    rep.attempted = attempted
    rep.failed = failed + len(pending)
    rep.unknown_vertex = unknown
    rep.unterminated = len(pending)
    # the monolith's ledger also counts the window plane's own removes;
    # the router's and the shards' ledgers overlap on cross-shard edges,
    # so the sharded count is the client's
    rep.committed_updates = (client_committed if w.sharded else
                             eng.metrics()["counters"]["committed_updates"])


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Reference:
    """From-scratch decomposition of the expected final edge set, built
    once per run and shared by every repetition."""

    def __init__(self, w: Workload) -> None:
        self.edges: Set = w.expected_edges()
        self._vertices: Optional[Set] = None
        self._cores: Dict = {}

    def cores(self, vertices: Set) -> Dict:
        if self._vertices != vertices:
            g = DynamicGraph(sorted(self.edges))
            for x in vertices:
                g.add_vertex(x)
            self._cores = core_decomposition(g).core
            self._vertices = set(vertices)
        return self._cores


def final_state(eng, w: Workload) -> Tuple[Dict, Set, str]:
    """(final cores, final edge set, journal digest) — the stitched view
    for the sharded router."""
    cores = dict(eng.cores())
    if w.sharded:
        edges = {tuple(sorted(e)) for sh in eng.shards for e in sh.edges()}
        digests = "".join(sh.engine.journal.digest() for sh in eng.shards)
        jd = hashlib.sha256(digests.encode("ascii")).hexdigest()
    else:
        edges = {tuple(sorted(e)) for e in eng.graph.edges()}
        jd = eng.journal.digest()
    return cores, edges, jd


def ledgers(eng, w: Workload) -> List[Dict]:
    m = eng.metrics()
    if w.sharded:
        return [m["router"]["counters"]] + [s["counters"] for s in m["shards"]]
    return [m["counters"]]


def verdict(cores: Dict, edges: Set, ref: Reference) -> Dict[str, bool]:
    """The output checks: the engine holds the expected edge set, and its
    cores bit-equal a from-scratch decomposition of that set."""
    return {
        "edges_match": edges == ref.edges,
        "cores_match": cores == ref.cores(set(cores)),
    }


def check(eng, w: Workload, rep: Rep, ref: Reference,
          mutate: Optional[Callable[[Dict], None]] = None) -> None:
    """Fill ``rep.verdicts``; ``mutate`` may corrupt the cores first."""
    cores, edges, jd = final_state(eng, w)
    if mutate is not None:
        mutate(cores)
    rep.verdicts = verdict(cores, edges, ref)
    rep.verdicts["ledger_balanced"] = all(
        c["admitted"] == sum(c[k] for k in LEDGER[1:]) for c in ledgers(eng, w)
    )
    rep.verdicts["all_terminal"] = rep.unterminated == 0
    rep.cores_digest = cores_digest(cores)
    rep.journal_digest = jd


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def run_rep(w: Workload, workdir: str, ref: Reference, *,
            traced: bool = False,
            mutate: Optional[Callable[[Dict], None]] = None) -> Rep:
    eng, publisher, samples = setup(w, workdir)
    rep = Rep(setup_s=samples)
    try:
        if traced:
            rep.tracer = Tracer()
            if w.sharded:
                rep.tracer.instrument_sharded(eng)
            else:
                rep.tracer.instrument_engine(eng, publisher)
        gc.collect()
        try:
            replay(eng, w, rep)
        finally:
            if rep.tracer is not None:
                rep.tracer.restore()
        check(eng, w, rep, ref, mutate)
        if traced:
            rep.layer_counts = layer_counts(eng, w)
            rep.answer_lat = reader_answers(eng, w, publisher)
            publisher = None  # closed by reader_answers
    finally:
        close(eng, publisher)
    return rep


def layer_counts(eng, w: Workload) -> Dict[str, float]:
    """Counters the program already keeps, read once after the replay."""
    engines = [sh.engine for sh in eng.shards] if w.sharded else [eng]
    cuts = {r: 0 for r in ("size", "conflict", "pressure", "time")}
    out = {"epochs": 0, "coalesced": 0, "cancelled": 0, "journal_records": 0,
           "journal_bytes": 0, "retained": 0, "window_fired": 0}
    collectors = [e.metrics_collector for e in engines]
    if w.sharded:
        collectors.append(eng.metrics_collector)
    for e in engines:
        out["epochs"] += e.epoch
        out["journal_records"] += len(e.journal)
        out["journal_bytes"] += len(e.journal.to_bytes())
    for m in collectors:
        for r in cuts:
            cuts[r] += m.cuts[r]
        out["coalesced"] += m.coalesced
        out["cancelled"] += m.cancelled
        out["retained"] += (len(m.update_latencies) + len(m.query_latencies)
                            + len(m.epoch_log))
        out["window_fired"] += m.window["fired"]
    out.update({f"cuts_{r}": n for r, n in cuts.items()})
    cross = 0
    upd = [op for op in w.ops if op[0] in ("+", "-")]
    if w.sharded:
        shard_of = eng.interner.shard_of
        cross = sum(1 for op in upd if shard_of(op[1]) != shard_of(op[2]))
    out["cross_frac"] = cross / len(upd) if upd else 0.0
    return out


def reader_answers(eng, w: Workload, publisher) -> List[float]:
    """Answer the workload's point reads through an in-process
    ``SnapshotReader`` on the engine's publisher (one is attached after
    the replay when the workload runs without a query plane)."""
    from repro.service.queryplane import SnapshotReader

    if publisher is None:
        publisher = eng.enable_queryplane()
    lat = []
    try:
        with SnapshotReader(publisher.ctrl_name) as reader:
            for op in w.ops:
                if op[0] == "q" and op[1] in POINT_KINDS:
                    t0 = clock()
                    reader.answer(op[1], op[2])
                    lat.append(clock() - t0)
    finally:
        publisher.close()
    return lat


def seq_reference(w: Workload) -> Tuple[float, Dict]:
    """Apply the workload's edge changes one at a time through the
    sequential order-based maintainer; returns (wall seconds, cores)."""
    from repro.core.maintainer import OrderMaintainer

    m = OrderMaintainer(_graph(w))
    changes = w.update_ops()
    gc.collect()
    t0 = clock()
    for op in changes:
        if op[0] == "+":
            m.insert_edge(op[1], op[2])
        else:
            m.remove_edge(op[1], op[2])
    return clock() - t0, m.cores()
