"""Experiment runners for every table and figure of the paper's evaluation.

All running times are **simulated makespans in work units** (see
``repro.parallel.costs``): the paper measures wall-clock milliseconds on a
64-core machine; under the GIL the equivalent quantity is the simulated
parallel time, which preserves exactly the comparisons the paper makes
(who wins, by what factor, how speedups scale with workers).  Sequential
wall-clock is additionally benchmarked by the pytest-benchmark suites.

Experiment scale is controlled by the caller (the ``benchmarks/`` suite
defaults to a quick configuration; set ``REPRO_BENCH_SCALE=full`` there
for the full 16-dataset sweep recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.join_edge_set import JoinEdgeSetMaintainer
from repro.baselines.matching import MatchingMaintainer
from repro.core.decomposition import core_decomposition, core_histogram
from repro.core.maintainer import OrderMaintainer, TraversalMaintainer
from repro.graph.datasets import DATASETS
from repro.graph.dictgraph import DictGraph
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.parallel.batch import ParallelOrderMaintainer
from repro.bench.workloads import (
    contended_batch,
    dataset_workload,
    disjoint_batches,
    service_trace,
    uniform_update_trace,
)

Edge = Tuple[int, int]

__all__ = [
    "ALGORITHMS",
    "run_remove_insert",
    "table1_datasets",
    "fig3_core_distributions",
    "fig4_running_time",
    "table2_speedups",
    "fig5_locked_vertices",
    "fig6_scalability",
    "fig7_stability",
    "run_service",
    "run_chaos",
    "run_failover",
    "run_representation",
    "run_scheduling",
    "run_sharding",
    "run_queryplane",
    "run_traffic",
    "traffic_profile",
]

# name -> factory(graph, workers) -> maintainer with {insert,remove}_edges
ALGORITHMS: Dict[str, Callable] = {
    "Our": lambda g, p: ParallelOrderMaintainer(g, num_workers=p),
    "JE": lambda g, p: JoinEdgeSetMaintainer(g, num_workers=p),
    "M": lambda g, p: MatchingMaintainer(g, num_workers=p),
}


def run_remove_insert(
    dataset: str,
    batch_size: int,
    workers: int,
    algo: str = "Our",
    seed: int = 0,
    check: bool = False,
    trace_races: bool = False,
) -> Dict[str, object]:
    """One experiment cell: build the full stand-in graph, remove the
    sampled batch, then insert it back (Section 5.2's protocol).

    Returns simulated makespans, total work, wall-clock seconds, and the
    per-edge instrumentation of both phases.  With ``trace_races`` a
    :class:`repro.analysis.RaceDetector` watches the run (``Our`` only)
    and its counters land in the ``analysis`` key; tracing perturbs
    wall-clock, so it is off by default and never affects makespans.
    """
    edges, batch = dataset_workload(dataset, batch_size, seed=seed)
    graph = DynamicGraph(edges)
    detector = None
    if trace_races and algo == "Our":
        from repro.analysis import RaceDetector

        detector = RaceDetector()
        m = ParallelOrderMaintainer(graph, num_workers=workers, detector=detector)
    else:
        m = ALGORITHMS[algo](graph, workers)
    t0 = time.perf_counter()
    rem = m.remove_edges(batch)
    t1 = time.perf_counter()
    ins = m.insert_edges(batch)
    t2 = time.perf_counter()
    if check:
        m.check()
    cell: Dict[str, object] = {
        "dataset": dataset,
        "algo": algo,
        "workers": workers,
        "remove_makespan": rem.makespan,
        "insert_makespan": ins.makespan,
        "remove_work": rem.report.total_work,
        "insert_work": ins.report.total_work,
        "remove_wall_s": t1 - t0,
        "insert_wall_s": t2 - t1,
        "remove_stats": rem.stats,
        "insert_stats": ins.stats,
    }
    if detector is not None:
        cell["analysis"] = detector.report().counters()
    return cell


def run_service(
    dataset: str,
    ops: int = 500,
    query_rate: float = 0.25,
    seed: int = 0,
    max_batch: int = 64,
    max_delay: Optional[float] = 20_000.0,
    query_pressure: Optional[int] = 32,
    max_pending: Optional[int] = None,
    check: bool = False,
) -> Dict[str, object]:
    """The ``service`` workload: drive the serving engine with an
    interleaved insert/remove/query trace over a dataset stand-in and
    report its metrics surface.

    The returned dict carries the engine metrics (``metrics``), the
    wall-clock seconds spent and whether the quiescence accounting
    invariant ``admitted == committed + quarantined + timed_out +
    abandoned`` held after the final drain (``invariant_ok`` — asserted
    by the CI smoke job).
    """
    from repro.service import Engine, EngineConfig

    initial, trace = service_trace(dataset, ops, query_rate=query_rate, seed=seed)
    eng = Engine(
        DynamicGraph(initial),
        EngineConfig(
            max_batch=max_batch,
            max_delay=max_delay,
            query_pressure=query_pressure,
            max_pending=max_pending,
            seed=seed,
        ),
    )
    t0 = time.perf_counter()
    for item in trace:
        if item[0] == "query":
            eng.query(item[1], *item[2])
        elif item[0] == "insert":
            eng.insert(item[1], item[2])
        else:
            eng.remove(item[1], item[2])
    eng.flush()
    wall = time.perf_counter() - t0
    if check:
        eng.check()
    m = eng.metrics()
    c = m["counters"]
    invariant_ok = (
        c["admitted"]
        == c["committed"] + c["quarantined"] + c["timed_out"] + c["abandoned"]
        and c["in_flight"] == 0
    )
    return {
        "dataset": dataset,
        "ops": len(trace),
        "wall_s": wall,
        "metrics": m,
        "invariant_ok": invariant_ok,
    }


def run_chaos(
    dataset: str,
    ops: int = 400,
    query_rate: float = 0.2,
    seed: int = 0,
    max_batch: int = 16,
    crash_rate: float = 0.01,
    stall_rate: float = 0.01,
    max_crashes: Optional[int] = 8,
    checkpoint_every: int = 4,
    restarts: int = 2,
    verify_determinism: bool = True,
    check: bool = False,
) -> Dict[str, object]:
    """The ``chaos`` workload: the serving engine under a seeded fault
    schedule, with crash recovery and simulated process restarts, judged
    differentially against an uninterrupted run.

    The direct kernel consults the plane once per edge, so the faults
    are crashes and stalls (``docs/faults.md``).

    Three engines see the same trace: a **faulty** engine (fault plane
    armed, WAL journal, periodic checkpoints, retries sized above the
    crash budget so nothing is abandoned), a **clean** engine (no
    faults), and — at ``restarts`` evenly spaced points — the faulty
    engine is torn down and rebuilt from its journal via
    :meth:`Engine.from_journal`, continuing the stream where it left
    off.  Every query answer is compared between the two engines as the
    stream runs, and at the end:

    * ``recovered_ok`` — the faulty engine's cores equal the clean
      engine's on every vertex (the headline claim);
    * ``oracle_ok`` — both equal a from-scratch
      :func:`~repro.core.decomposition.core_decomposition` of the edge
      set reconstructed *from the journal alone*;
    * ``determinism_ok`` (with ``verify_determinism``) — a second
      faulty run with the same seed reproduced the same journal bytes
      and the same fault-schedule digest.

    ``max_delay`` is disabled so both engines cut at identical points
    (retry backoff advances only the faulty engine's clock).
    """
    from repro.faults.plane import FaultSpec
    from repro.service import Engine, EngineConfig

    spec = FaultSpec(
        crash_rate=crash_rate, stall_rate=stall_rate,
        max_crashes=max_crashes,
    )
    budget = max_crashes if max_crashes is not None else 64
    faulty_cfg = EngineConfig(
        max_batch=max_batch, seed=seed,
        faults=spec, checkpoint_every=checkpoint_every,
        max_retries=budget + 1,
    )
    clean_cfg = EngineConfig(max_batch=max_batch, seed=seed)
    initial, trace = service_trace(dataset, ops, query_rate=query_rate, seed=seed)

    restart_every = len(trace) // (restarts + 1) if restarts else len(trace) + 1

    def drive(cfg: EngineConfig, do_restarts: bool):
        eng = Engine(DynamicGraph(initial), cfg)
        other = Engine(DynamicGraph(initial), clean_cfg)
        mismatches = 0
        performed = 0
        for i, item in enumerate(trace):
            if do_restarts and restarts and i and i % restart_every == 0:
                # simulated process crash at a quiescent point: drain
                # both engines, then resurrect the faulty one from its
                # journal alone
                eng.flush()
                other.flush()
                eng = Engine.from_journal(eng.journal, cfg)
                performed += 1
            if item[0] == "query":
                a = eng.query(item[1], *item[2])
                b = other.query(item[1], *item[2])
                if a.value != b.value or a.epoch != b.epoch:
                    mismatches += 1
            elif item[0] == "insert":
                eng.insert(item[1], item[2])
                other.insert(item[1], item[2])
            else:
                eng.remove(item[1], item[2])
                other.remove(item[1], item[2])
        eng.flush()
        other.flush()
        return eng, other, mismatches, performed

    t0 = time.perf_counter()
    faulty, clean, query_mismatches, performed = drive(faulty_cfg, do_restarts=True)
    wall = time.perf_counter() - t0
    if check:
        faulty.check()
        clean.check()

    fc = faulty.cores()
    recovered_ok = fc == clean.cores()
    # independent oracle: a from-scratch decomposition of the edge set
    # reconstructed from the journal alone.  Vertices that lost their
    # last edge are absent from the edge list but live on in the engine
    # with core 0 — they must agree too.
    oracle = dict(
        core_decomposition(DictGraph(faulty.journal.final_edges())).core
    )
    oracle_ok = (
        all(fc.get(u) == k for u, k in oracle.items())
        and all(k == 0 for u, k in fc.items() if u not in oracle)
    )

    determinism_ok = None
    if verify_determinism:
        again, _, _, _ = drive(faulty_cfg, do_restarts=True)
        determinism_ok = (
            again.journal.digest() == faulty.journal.digest()
            and again.faults is not None and faulty.faults is not None
            and again.faults.digest() == faulty.faults.digest()
        )

    m = faulty.metrics()
    c = m["counters"]
    invariant_ok = (
        c["admitted"]
        == c["committed"] + c["quarantined"] + c["timed_out"] + c["abandoned"]
        and c["in_flight"] == 0
    )
    return {
        "dataset": dataset,
        "ops": len(trace),
        "seed": seed,
        "spec": {
            "crash_rate": crash_rate, "stall_rate": stall_rate,
            "max_crashes": max_crashes,
        },
        "restarts": performed,
        "wall_s": wall,
        "metrics": m,
        "faults": dict(m["faults"]),
        "epoch": faulty.epoch,
        "journal_records": len(faulty.journal),
        "journal_digest": faulty.journal.digest(),
        "schedule_digest": (
            faulty.faults.digest() if faulty.faults is not None else None
        ),
        "query_mismatches": query_mismatches,
        "recovered_ok": recovered_ok,
        "oracle_ok": oracle_ok,
        "determinism_ok": determinism_ok,
        "invariant_ok": invariant_ok,
        # headline gate for the CI chaos-smoke job
        "ok": bool(
            recovered_ok and oracle_ok and invariant_ok
            and query_mismatches == 0
            and (determinism_ok is None or determinism_ok)
        ),
    }


def run_failover(
    dataset: str,
    ops: int = 400,
    query_rate: float = 0.25,
    seed: int = 0,
    max_batch: int = 8,
    replicas: int = 3,
    ship_lag: int = 6,
    primary_crash_rate: float = 0.01,
    primary_crashes: int = 2,
    crash_rate: float = 0.0,
    stall_rate: float = 0.0,
    max_crashes: Optional[int] = 4,
    checkpoint_every: int = 4,
    verify_determinism: bool = True,
) -> Dict[str, object]:
    """The ``failover`` workload: a replica set under seeded primary
    deaths, judged on the three replication promises
    (``docs/replication.md``):

    * **zero committed-op loss** — every update the set acknowledged as
      ``committed`` (minus cancelled net no-ops, which are never
      journaled) appears in the final primary's journal, across every
      promotion;
    * **divergence bounded by replication lag** — every follower query
      answer equals the primary's snapshot *at the epoch the follower
      reported* (``replica_epoch``), i.e. replicas serve exactly the
      lag-old truth, never a wrong one, and the observed
      ``replica_lag_records`` stays within the shipping-lag bound;
    * **recovery-time objective** — promotions (each internally verified
      bit-identical against ``Engine.from_journal`` of the committed
      prefix; :meth:`ReplicaSet.promote` raises otherwise) are timed and
      reported as RTO wall milliseconds plus catch-up record counts.

    Engine-level faults (``crash_rate``, ``stall_rate``) can ride along so
    failover is exercised on journals containing aborted intents; the
    final state is additionally checked against a from-scratch
    decomposition of the journal's edge set, and (with
    ``verify_determinism``) a same-seed rerun must reproduce the same
    journal bytes, crash schedule and promotion log.
    """
    from repro.faults.plane import FaultSpec
    from repro.replication import ReplicaSet
    from repro.service import EngineConfig
    from repro.service.snapshots import QUERY_KINDS

    engine_faults = None
    if crash_rate or stall_rate:
        engine_faults = FaultSpec(
            crash_rate=crash_rate, stall_rate=stall_rate,
            max_crashes=max_crashes,
        )
    budget = max_crashes if max_crashes is not None else 64
    cfg = EngineConfig(
        max_batch=max_batch, seed=seed,
        faults=engine_faults, checkpoint_every=checkpoint_every,
        max_retries=budget + 1,
    )
    process_spec = FaultSpec(
        crash_rate=primary_crash_rate, max_crashes=primary_crashes,
    ) if primary_crash_rate else None
    initial, trace = service_trace(dataset, ops, query_rate=query_rate,
                                   seed=seed)

    def drive():
        rs = ReplicaSet(
            DynamicGraph(initial), cfg, replicas=replicas,
            ship_lag=ship_lag, primary_faults=process_spec,
            promote_on_crash=True,
        )
        acked: Dict[str, str] = {}     # committed update id -> detail
        stats = {
            "replica_queries": 0, "stale_answers": 0,
            "divergence_violations": 0, "uncomparable": 0,
            "max_lag_records": 0, "headless_rejects": 0,
        }

        def note(resp):
            if resp.op != "query" and resp.status == "committed":
                acked[resp.id] = resp.detail or ""
            if resp.status == "rejected" and resp.error \
                    and resp.error["code"] == "primary-down":
                stats["headless_rejects"] += 1

        uid = 0
        for item in trace:
            if item[0] == "query":
                resp = rs.query(item[1], *item[2])
                if resp.replica_lag_records is not None:
                    stats["replica_queries"] += 1
                    stats["max_lag_records"] = max(
                        stats["max_lag_records"], resp.replica_lag_records
                    )
                if (resp.status == "committed"
                        and resp.replica_epoch is not None
                        and rs.primary is not None):
                    handler = QUERY_KINDS[item[1]]
                    try:
                        pinned = rs.primary.view(resp.replica_epoch)
                    except ValueError:
                        # the promoted primary's checkpoint floor rose
                        # past this replica's epoch — uncomparable
                        stats["uncomparable"] += 1
                    else:
                        want = handler(pinned, tuple(item[2]))
                        if resp.value != want:
                            stats["divergence_violations"] += 1
                        live = handler(rs.primary.view(), tuple(item[2]))
                        if resp.value != live:
                            stats["stale_answers"] += 1
            else:
                rid = f"u{uid}"
                uid += 1
                if item[0] == "insert":
                    note(rs.insert(item[1], item[2], id=rid))
                else:
                    note(rs.remove(item[1], item[2], id=rid))
                for r in rs.take_completed():
                    note(r)
        for r in rs.flush():
            note(r)
        return rs, acked, stats

    t0 = time.perf_counter()
    rs, acked, stats = drive()
    wall = time.perf_counter() - t0

    # ----- zero committed-op loss ------------------------------------
    # every acked non-cancelled update must be named by a committed
    # intent in the final primary's journal (the prefix survives every
    # promotion, so one replay covers all generations)
    journaled: set = set()
    lost: List[str] = []
    if rs.primary is not None:
        replay = rs.primary.journal.replay()
        for b in replay.committed:
            journaled.update(b.ids)
        lost = sorted(
            rid for rid, detail in acked.items()
            if detail != "cancelled" and rid not in journaled
        )
    committed_op_loss = len(lost)

    # ----- final state: invariants + from-scratch oracle -------------
    final_state_ok = rs.primary is not None
    invariant_ok = None
    if rs.primary is not None:
        try:
            rs.check()
            invariant_ok = True
        except (AssertionError, ValueError):
            invariant_ok = False
        fc = rs.primary.cores()
        oracle = dict(
            core_decomposition(
                DictGraph(rs.primary.journal.final_edges())
            ).core
        )
        final_state_ok = (
            invariant_ok
            and all(fc.get(u) == k for u, k in oracle.items())
            and all(k == 0 for u, k in fc.items() if u not in oracle)
        )

    # ----- RTO -------------------------------------------------------
    promos = rs.promotions
    rto = None
    if promos:
        walls = sorted(p.wall_s * 1000 for p in promos)
        rto = {
            "median_ms": statistics.median(walls),
            "max_ms": walls[-1],
            "median_catchup_records": statistics.median(
                sorted(p.catchup_records for p in promos)
            ),
        }

    # ----- determinism -----------------------------------------------
    def promo_log(r):
        return [(p.generation, p.replica, p.epoch, p.prefix_records)
                for p in r.promotions]

    determinism_ok = None
    if verify_determinism:
        rs2, _, _ = drive()
        determinism_ok = (
            rs2.primary is not None and rs.primary is not None
            and rs2.primary.journal.digest() == rs.primary.journal.digest()
            and promo_log(rs2) == promo_log(rs)
            and (
                rs.process_faults is None
                or rs2.process_faults.digest() == rs.process_faults.digest()
            )
        )

    # the shipping policy lets an async replica drift to ship_lag, plus
    # the records one commit cycle appends before the pump runs
    lag_bound = ship_lag + 4
    verdicts = {
        "zero_loss": committed_op_loss == 0,
        "divergence_bounded": (
            stats["divergence_violations"] == 0
            and stats["max_lag_records"] <= lag_bound
        ),
        "promotions_verified": len(promos) == rs.primary_crashes,
        "final_state_ok": bool(final_state_ok),
        "determinism_ok": determinism_ok,
    }
    return {
        "dataset": dataset,
        "ops": len(trace),
        "seed": seed,
        "replicas": replicas,
        "ship_lag": ship_lag,
        "lag_bound": lag_bound,
        "primary_crash_rate": primary_crash_rate,
        "primary_crash_budget": primary_crashes,
        "wall_s": wall,
        "primary_crashes": rs.primary_crashes,
        "promotions": len(promos),
        "rto": rto,
        "committed_op_loss": committed_op_loss,
        "lost_ids": lost[:16],
        "acked_updates": len(acked),
        "journaled_ids": len(journaled),
        "replica_queries": stats["replica_queries"],
        "stale_answers": stats["stale_answers"],
        "divergence_violations": stats["divergence_violations"],
        "uncomparable": stats["uncomparable"],
        "max_lag_records": stats["max_lag_records"],
        "headless_rejects": stats["headless_rejects"],
        "epoch": rs.primary.epoch if rs.primary is not None else None,
        "journal_records": (
            len(rs.primary.journal) if rs.primary is not None else 0
        ),
        "journal_digest": (
            rs.primary.journal.digest() if rs.primary is not None else ""
        ),
        "schedule_digest": (
            rs.process_faults.digest()
            if rs.process_faults is not None else None
        ),
        "replication": rs.metrics(),
        "verdicts": verdicts,
        # headline gate for the CI replication-smoke job
        "ok": all(v for v in verdicts.values() if v is not None),
    }


def run_representation(
    dataset: str,
    batch_size: int = 300,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, object]:
    """Graph-representation workload: dict-backed vs array-backed substrate.

    Times the two sequential hot paths on both substrates and reports the
    array/dict speedups:

    * *decomposition* — a full BZ peel of the dataset stand-in: the
      generic hash-keyed kernel over :class:`DictGraph` against the
      flat-array kernel over the interned :class:`DynamicGraph`;
    * *maintenance* — the Section 5.2 protocol run sequentially through
      :class:`OrderMaintainer` (remove the sampled batch edge by edge,
      insert it back), exercising the k-order, ``d_out``/``mcd`` storage
      and the graph mutation paths end to end.

    Wall-clock is the best of ``repeats`` runs, with the two substrates
    *interleaved* inside each repeat so machine-load drift hits both
    equally; graph construction is excluded (both substrates build from
    the same edge list).  The CI smoke job asserts the combined
    ``speedup`` stays above a floor so the array substrate can never
    silently regress behind the dict baseline it replaced.
    """
    edges, batch = dataset_workload(dataset, batch_size, seed=seed)

    def best_interleaved(pairs) -> List[float]:
        """pairs: [(make, run), ...]; returns best wall-clock per pair."""
        times: List[List[float]] = [[] for _ in pairs]
        for _ in range(repeats):
            for i, (make, run) in enumerate(pairs):
                subject = make()
                t0 = time.perf_counter()
                run(subject)
                times[i].append(time.perf_counter() - t0)
        return [min(ts) for ts in times]

    def drive(m: OrderMaintainer) -> None:
        for u, v in batch:
            m.remove_edge(u, v)
        for u, v in batch:
            m.insert_edge(u, v)

    dict_decomp, array_decomp = best_interleaved(
        [
            (lambda: DictGraph(edges), core_decomposition),
            (lambda: DynamicGraph(edges), core_decomposition),
        ]
    )
    dict_maint, array_maint = best_interleaved(
        [
            (lambda: OrderMaintainer(DictGraph(edges)), drive),
            (lambda: OrderMaintainer(DynamicGraph(edges)), drive),
        ]
    )

    g = DynamicGraph(edges)
    decomp_speedup = dict_decomp / max(array_decomp, 1e-9)
    maint_speedup = dict_maint / max(array_maint, 1e-9)
    return {
        "dataset": dataset,
        "n": g.num_vertices,
        "m": g.num_edges,
        "batch": len(batch),
        "repeats": repeats,
        "dict_decomp_s": dict_decomp,
        "array_decomp_s": array_decomp,
        "decomp_speedup": decomp_speedup,
        "dict_maint_s": dict_maint,
        "array_maint_s": array_maint,
        "maint_speedup": maint_speedup,
        # headline metric (geometric mean of the two phases) — what the
        # CI smoke gate asserts against
        "speedup": (decomp_speedup * maint_speedup) ** 0.5,
    }


def run_scheduling(
    dataset: str,
    batch_size: int = 300,
    workers: int = 48,
    hubs: int = 48,
    seed: int = 0,
    policies: Sequence[str] = ("fifo", "lpt", "conflict-aware"),
    thread_repeats: int = 3,
) -> Dict[str, object]:
    """Scheduling-policy workload: the contended hub batch under each
    batch-scheduling policy (see :mod:`repro.parallel.scheduling`).

    For every policy the Section 5.2 protocol runs on a fresh graph
    (remove the hub-incident batch, insert it back) and the row records
    the simulated makespans plus the contention counters the policy is
    supposed to move: ``lock_failures``, ``contended_time``,
    ``spin_time`` and — for wave-emitting policies — the per-wave
    breakdown and wave count of the insert phase.

    The thread backend (:class:`ThreadedOrderMaintainer`) is additionally
    timed per policy (best of ``thread_repeats`` wall-clock runs) so a
    scheduling win in simulation can be checked against real lock
    traffic: the conflict-aware plan must never make the threaded path
    slower.

    The headline ``speedup`` is the fifo/conflict-aware ratio of total
    simulated makespan (remove + insert) — the CI smoke gate asserts it
    stays above a floor.
    """
    from repro.parallel.threads import ThreadedOrderMaintainer

    edges, batch = contended_batch(dataset, batch_size, hubs=hubs, seed=seed)

    rows: Dict[str, Dict[str, object]] = {}
    for policy in policies:
        m = ParallelOrderMaintainer(
            DynamicGraph(edges), num_workers=workers, policy=policy, seed=seed
        )
        rem = m.remove_edges(batch)
        ins = m.insert_edges(batch)

        def phase(res) -> Dict[str, object]:
            rep = res.report
            return {
                "makespan": rep.makespan,
                "total_work": rep.total_work,
                "lock_acquires": rep.lock_acquires,
                "lock_failures": rep.lock_failures,
                "contended_time": rep.contended_time,
                "spin_time": rep.spin_time,
                "num_waves": res.plan.num_waves,
                "conflicts": res.plan.conflicts,
            }

        thread_wall = float("inf")
        for _ in range(thread_repeats):
            tm = ThreadedOrderMaintainer(
                DynamicGraph(edges), num_workers=workers, policy=policy
            )
            t0 = time.perf_counter()
            tm.remove_edges(batch)
            tm.insert_edges(batch)
            thread_wall = min(thread_wall, time.perf_counter() - t0)

        rows[policy] = {
            "remove": phase(rem),
            "insert": phase(ins),
            "makespan": rem.makespan + ins.makespan,
            "wave_contention": {
                str(k): v for k, v in ins.report.wave_contention.items()
            },
            "thread_wall_s": thread_wall,
        }

    baseline = rows[policies[0]]["makespan"]
    for row in rows.values():
        row["speedup_vs_fifo"] = baseline / max(row["makespan"], 1e-9)

    g = DynamicGraph(edges)
    return {
        "dataset": dataset,
        "n": g.num_vertices,
        "m": g.num_edges,
        "batch": len(batch),
        "hubs": hubs,
        "workers": workers,
        "policies": rows,
        # headline metric — what the CI smoke gate asserts against
        "speedup": (
            rows["conflict-aware"]["speedup_vs_fifo"]
            if "conflict-aware" in rows
            else 1.0
        ),
    }


#: ops between the full global core-map reads of the interleaved sharding
#: leg: a final-stitch-only run never pays the router's stitch in-trace
SHARDING_READ_EVERY = 500


def _sharding_leg(make, trace, read_every: Optional[int]
                  ) -> Tuple[float, List]:
    """Build an engine with ``make``, drive ``trace``, and read the full
    core map after a flush every ``read_every`` ops (``None``: only at
    the end).  Returns the wall-clock of the whole leg and every map
    read."""
    t0 = time.perf_counter()
    eng = make()
    reads = []
    for i, (op, u, v) in enumerate(trace, 1):
        getattr(eng, op)(u, v)
        if read_every and i % read_every == 0:
            eng.flush()
            reads.append(eng.cores())
    eng.flush()
    reads.append(eng.cores())
    eng.close()
    return time.perf_counter() - t0, reads


def run_sharding(
    num_vertices: int = 1200,
    ops: int = 12000,
    shards: int = 4,
    repeats: int = 3,
    seed: int = 0,
    crash_txs: Sequence[int] = (0, 5),
) -> Dict[str, object]:
    """Sharded scale-out workload: process backend vs one direct engine.

    Drives the same uniform update trace
    (:func:`repro.bench.workloads.uniform_update_trace` — the
    cross-shard *worst case*: at N shards a fraction (N-1)/N of ops
    spans two shards) through

    * a single :class:`~repro.service.engine.Engine` on the direct
      backend, and
    * a :class:`~repro.service.sharding.ShardedEngine` on the process
      backend with ``shards`` OS-process workers,

    twice: once reading the global core map only at the end (the
    headline ``speedup``), and once flushing and reading it every
    :data:`SHARDING_READ_EVERY` ops (``speedup_interleaved``, which
    charges the sharded leg the router stitch a serving read pays).
    Wall-clock is best of ``repeats`` (the box is noisy; min is the
    stable statistic).  Every repeat also checks each stitched core map
    read is **bit-identical** to the single engine's at the same point —
    the differential guarantee the speedup must not buy its way out of.

    A second, smaller pass exercises the 2PC crash windows: for every
    router crash point the run is re-driven with an injected
    :class:`~repro.service.sharding.RouterCrashed`, recovered via
    :meth:`~repro.service.sharding.ShardedEngine.from_journals`, and the
    recovered stitch is checked against a fresh single-engine
    decomposition of the recovered edge set.

    The headline ``speedup`` is monolith/sharded wall-clock; ``ok``
    requires bit-identity at every read and every crash window
    recovered.
    """
    import os
    import shutil
    import tempfile

    from repro.service.engine import Engine, EngineConfig
    from repro.service.sharding import (
        CRASH_POINTS, RouterCrashed, ShardedEngine,
    )

    trace = uniform_update_trace(num_vertices, ops, seed=seed)
    cross = sum(
        1 for _, u, v in trace
        if u % shards != v % shards
    )

    def mono():
        return Engine(DynamicGraph())

    def sharded():
        return ShardedEngine(DynamicGraph(),
                             EngineConfig(backend="process", shards=shards))

    #: read cadence -> (monolith walls, sharded walls)
    walls: Dict[Optional[int], Tuple[List[float], List[float]]] = {
        None: ([], []), SHARDING_READ_EVERY: ([], [])}
    identical = True
    for _ in range(repeats):
        for every, (mono_walls, shard_walls) in walls.items():
            wall, mono_reads = _sharding_leg(mono, trace, every)
            mono_walls.append(wall)
            wall, shard_reads = _sharding_leg(sharded, trace, every)
            shard_walls.append(wall)
            identical = identical and shard_reads == mono_reads

    # ----- crash windows: recovery must match a fresh single engine --
    crash_trace = uniform_update_trace(
        max(64, num_vertices // 8), max(512, ops // 16), seed=seed + 1
    )
    recoveries = {}
    tmp = tempfile.mkdtemp(prefix="repro-sharding-bench-")
    try:
        for point in CRASH_POINTS:
            for txseq in crash_txs:
                base = os.path.join(tmp, f"{point}-{txseq}")
                eng = ShardedEngine(
                    DynamicGraph(),
                    EngineConfig(shards=shards, journal_path=base,
                                 cross_group=4),
                    crash_2pc={point: txseq},
                )
                crashed = False
                try:
                    for op, u, v in crash_trace:
                        getattr(eng, op)(u, v)
                    eng.flush()
                except RouterCrashed:
                    crashed = True
                    eng.abandon()
                if not crashed:
                    eng.close()
                rec = ShardedEngine.from_journals(
                    base, EngineConfig(shards=shards)
                )
                got = rec.cores()
                union = set()
                for sh in rec.shards:
                    for u, v in sh.edges():
                        union.add(canonical_edge(u, v))
                rec.close()
                oracle = Engine(DynamicGraph(sorted(union, key=repr)))
                fresh = dict(oracle.maintainer.cores())
                oracle.close()
                recoveries[f"{point}@tx{txseq}"] = {
                    "crashed": crashed,
                    "resolutions": len(rec.resolutions),
                    "identical": got == fresh,
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    mono_walls, shard_walls = walls[None]
    mono_wall, shard_wall = min(mono_walls), min(shard_walls)
    mono_iwalls, shard_iwalls = walls[SHARDING_READ_EVERY]
    mono_iwall, shard_iwall = min(mono_iwalls), min(shard_iwalls)
    recovered_ok = all(r["identical"] for r in recoveries.values())
    crash_seen = any(r["crashed"] for r in recoveries.values())
    return {
        "num_vertices": num_vertices,
        "ops": ops,
        "cross_ops": cross,
        "shards": shards,
        "repeats": repeats,
        "seed": seed,
        "mono_wall_s": mono_wall,
        "shard_wall_s": shard_wall,
        "mono_walls_s": mono_walls,
        "shard_walls_s": shard_walls,
        "read_every": SHARDING_READ_EVERY,
        "mono_interleaved_wall_s": mono_iwall,
        "shard_interleaved_wall_s": shard_iwall,
        "mono_interleaved_walls_s": mono_iwalls,
        "shard_interleaved_walls_s": shard_iwalls,
        "speedup_interleaved": mono_iwall / max(shard_iwall, 1e-9),
        "bit_identical": identical,
        "crash_recoveries": recoveries,
        "crash_windows_exercised": crash_seen,
        # headline metric — what the CI smoke gate asserts against
        "speedup": mono_wall / max(shard_wall, 1e-9),
        "ok": identical and recovered_ok and crash_seen,
    }


def _queryplane_workload(num_vertices: int, queries: int, updates: int,
                         seed: int):
    """The 99/1 read-heavy mix: a seed graph, a query stream dominated
    by point lookups (the realistic serving shape — aggregates amortize
    through the per-view caches), and a small interleaved update trace."""
    import random

    from repro.graph.generators import erdos_renyi

    rng = random.Random(seed)
    initial = erdos_renyi(num_vertices, 3 * num_vertices, seed=seed)
    verts = sorted({w for e in initial for w in e})
    kinds = ("core", "in_k_core", "k_shell", "degeneracy",
             "shell_histogram")
    weights = (0.55, 0.30, 0.05, 0.05, 0.05)
    qitems: List[Tuple[str, Tuple]] = []
    for kind in rng.choices(kinds, weights=weights, k=queries):
        if kind == "core":
            qitems.append((kind, (rng.choice(verts),)))
        elif kind == "in_k_core":
            qitems.append((kind, (rng.choice(verts), rng.randrange(1, 8))))
        elif kind == "k_shell":
            qitems.append((kind, (rng.randrange(1, 6),)))
        else:
            qitems.append((kind, ()))
    ups = uniform_update_trace(num_vertices, updates, seed=seed + 1)
    return initial, qitems, ups


def _qp_verify(snapshots, samples) -> bool:
    """Every sampled raw envelope must be bit-identical to the store's
    view at the stamped epoch — the differential gate the speedup must
    not buy its way out of."""
    from repro.service.snapshots import QUERY_KINDS

    for kind, qargs, raw in samples:
        value, epoch, _stale, err = raw
        if epoch is None or epoch < snapshots.min_epoch:
            return False
        expected = QUERY_KINDS[kind](snapshots.view(epoch), qargs)
        if err is not None:
            # both paths refuse a 'core' lookup of an unknown vertex;
            # the refusal is correct iff the view agrees there is no core
            code = err["code"] if isinstance(err, dict) else err[0]
            if not (kind == "core" and code == "unknown-vertex"
                    and expected is None):
                return False
        elif value != expected:
            return False
    return True


def run_queryplane(
    num_vertices: int = 400,
    queries: int = 1_000_000,
    update_rate: float = 0.01,
    readers: Sequence[int] = (1, 2, 4),
    frame: int = 512,
    seed: int = 0,
    repeats: int = 2,
    recovery: bool = True,
) -> Dict[str, object]:
    """Wait-free query plane vs the in-engine query path (ISSUE 9).

    Drives the same read-heavy trace — ``queries`` snapshot queries with
    an ``update_rate`` fraction of interleaved edge updates (the 99/1
    mix at the defaults) — through

    * the classic path: every query funnels through
      :meth:`Engine.query`, coupling read throughput to the engine loop;
    * the query plane: the engine only applies updates (publishing each
      epoch to the shared-memory double buffer) while a
      :class:`~repro.service.queryplane.ReaderPool` of N OS processes
      answers the query stream from the pinned buffer in batched frames.

    The trace is phased — update burst, then query burst — and the
    reported throughput is queries per second of *query-serving* time:
    the update bursts are identical engine work in both legs (on a
    multi-core host they additionally overlap the reader processes), so
    they are committed outside the timed windows rather than letting a
    small CI box serialize them into both walls.  Sampled answers are
    checked **bit-identical** to ``SnapshotStore.view(epoch)`` at the
    stamped epoch, each phase's samples before the next update burst, so
    every stamped epoch is still inside the store's retention horizon
    (:data:`~repro.service.snapshots.DELTA_EPOCHS` commits).

    A separate smaller leg exercises mid-stream recovery: the primary
    journals with checkpoints, dies between two query bursts, restarts
    via :meth:`Engine.from_journal`, and **rebinds the same publisher**
    — attached readers keep answering across the restart, sampled
    answers stay bit-identical, and a pin below the checkpoint-truncated
    ``min_epoch`` draws the structured ``epoch-truncated`` refusal.

    The headline ``speedup`` is the largest reader count's throughput
    over the in-engine path; ``ok`` additionally requires bit-identity
    everywhere and a clean recovery leg.
    """
    import os
    import shutil
    import tempfile

    from repro.service.engine import Engine, EngineConfig
    from repro.service.queryplane import ReaderPool
    from repro.service.requests import E_EPOCH_TRUNCATED

    updates = max(1, int(queries * update_rate / (1.0 - update_rate)))
    initial, qitems, ups = _queryplane_workload(
        num_vertices, queries, updates, seed
    )

    # ----- baseline: every query enters the engine loop ---------------
    # both legs apply the identical update trace through an identical
    # engine — only the read path differs, so the update cost cancels
    # out of the comparison
    eng = Engine(DynamicGraph(initial))
    # The trace is phased: an (untimed) update burst commits fresh
    # epochs, then a timed query burst serves against them.  Epochs
    # churn across the whole run exactly like the interleaved mix, but
    # the timed windows contain only query serving — the update cost is
    # identical engine work in both legs (and on a multi-core host it
    # overlaps the reader processes anyway), so counting it in the walls
    # would only dilute the read-path comparison on small CI boxes.
    # enough phases to churn epochs mid-run, few enough that each timed
    # window amortises the per-phase reader wakeups on small boxes
    phases = max(4, min(16, len(ups) // 4))
    qper = (queries + phases - 1) // phases

    def _update_burst(eng, phase, state):
        goal = min(len(ups), ((phase + 1) * len(ups)) // phases)
        while state[0] < goal:
            op, u, v = ups[state[0]]
            getattr(eng, op)(u, v)
            state[0] += 1
        eng.flush()

    # each phase's timed burst is repeated and the best wall kept —
    # identically for both legs — so a scheduler stall on a shared CI
    # box doesn't charge one leg a tail it didn't earn
    state = [0]
    base_ok = True
    engine_wall = 0.0
    for phase in range(phases):
        _update_burst(eng, phase, state)
        chunk = qitems[phase * qper:(phase + 1) * qper]
        best = None
        for _rep in range(max(1, repeats)):
            t0 = time.perf_counter()
            for kind, qargs in chunk:
                resp = eng.query(kind, *qargs)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        engine_wall += best or 0.0
        if chunk:
            # a quarantined answer (unknown vertex) carries no epoch;
            # the engine answered it against the then-latest view
            ep = resp.epoch if resp.epoch is not None \
                else eng.snapshots.epoch
            base_ok = base_ok and _qp_verify(
                eng.snapshots, [(kind, qargs, (resp.value, ep, 0, resp.error))])
    eng.close()
    engine_qps = queries / max(engine_wall, 1e-9)

    # ----- the wait-free plane at each reader count --------------------
    # each reader answers its own partition of the phase in a local loop
    # (N independent clients, each with a private SnapshotReader); the
    # parent applies the phase's update burst, then is idle in poll()
    # while the readers serve
    pool_cells: Dict[int, Dict[str, float]] = {}
    identical = base_ok
    for n in readers:
        eng = Engine(DynamicGraph(initial))
        publisher = eng.enable_queryplane()
        nsamples = 0
        state = [0]
        wall = 0.0
        try:
            with ReaderPool(publisher.ctrl_name, readers=n) as pool:
                eng.bind_read_counter(pool.reads_total)
                for phase in range(phases):
                    _update_burst(eng, phase, state)
                    chunk = qitems[phase * qper:(phase + 1) * qper]
                    if not chunk:
                        continue
                    slices = [chunk[r::n] for r in range(n)]
                    pool.preload(slices)
                    best = None
                    per_reader = None
                    for _rep in range(max(1, repeats)):
                        t0 = time.perf_counter()
                        got_now = pool.run(sample_every=frame)
                        dt = time.perf_counter() - t0
                        if best is None or dt < best:
                            best = dt
                        if per_reader is None:
                            per_reader = got_now
                    wall += best or 0.0
                    samples = [(*slices[r][local_i], raw)
                               for r, got in enumerate(per_reader)
                               for local_i, raw in got]
                    identical = identical and _qp_verify(eng.snapshots,
                                                         samples)
                    nsamples += len(samples)
                eng.flush()
        finally:
            eng.bind_read_counter(None)
            eng.close()
            publisher.close()
        qps = queries / max(wall, 1e-9)
        pool_cells[n] = {
            "wall_s": wall,
            "qps": qps,
            "speedup": qps / engine_qps,
            "samples": nsamples,
        }

    # ----- mid-stream recovery leg -------------------------------------
    rec: Dict[str, object] = {"ran": False}
    if recovery:
        small_q = max(2 * frame, queries // 50)
        tmp = tempfile.mkdtemp(prefix="repro-queryplane-bench-")
        path = os.path.join(tmp, "qp.journal")
        try:
            cfg = EngineConfig(max_batch=4, journal_path=path,
                               checkpoint_every=3)
            eng = Engine(DynamicGraph(initial), cfg)
            publisher = eng.enable_queryplane()
            samples = []
            # denser cadence than the throughput legs so several
            # checkpoints land before the crash and recovery truncates
            rstate = [0]
            rstride = max(1, small_q // min(len(ups), 64))

            def _rdrive(eng, upto):
                while rstate[0] < len(ups) and rstate[0] * rstride <= upto:
                    op, u, v = ups[rstate[0]]
                    getattr(eng, op)(u, v)
                    rstate[0] += 1

            try:
                with ReaderPool(publisher.ctrl_name, readers=2) as pool:
                    for start in range(0, small_q // 2, frame):
                        _rdrive(eng, start)
                        pool.drain()
                        pool.dispatch(qitems[start:start + frame])
                    eng.flush()
                    pool.drain()
                    eng.close()  # the primary "dies" (journal survives)

                    eng = Engine.from_journal(path, cfg)
                    eng.enable_queryplane(publisher=publisher)
                    toks = {}
                    for start in range(small_q // 2, small_q, frame):
                        _rdrive(eng, start)
                        toks[pool.dispatch(qitems[start:start + frame])] \
                            = start
                    eng.flush()
                    for t, raws in pool.drain().items():
                        samples.append((*qitems[toks[t]], raws[0]))
                    rec_ok = _qp_verify(eng.snapshots, samples)
                    min_epoch = eng.snapshots.min_epoch
                    refusal = pool.query("degeneracy",
                                         pin_epoch=min_epoch - 1)
                    refused = (refusal.error is not None
                               and refusal.error["code"] == E_EPOCH_TRUNCATED)
                    rec = {
                        "ran": True,
                        "min_epoch": min_epoch,
                        "truncated": min_epoch > 0,
                        "bit_identical": rec_ok,
                        "refused_below_min": refused,
                        "ok": rec_ok and min_epoch > 0 and refused,
                    }
            finally:
                eng.close()
                publisher.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    top = max(readers)
    return {
        "num_vertices": num_vertices,
        "queries": queries,
        "updates": len(ups),
        "update_rate": update_rate,
        "frame": frame,
        "seed": seed,
        "repeats": max(1, repeats),
        "engine_wall_s": engine_wall,
        "engine_qps": engine_qps,
        "readers": pool_cells,
        "bit_identical": identical,
        "recovery": rec,
        # headline metric — what the CI smoke gate asserts against
        "speedup": pool_cells[top]["speedup"],
        "ok": (identical
               and (not recovery or bool(rec.get("ok")))),
    }


def sequential_traversal_times(
    dataset: str, batch_size: int, seed: int = 0
) -> Dict[str, float]:
    """TI/TR reference points (work units), same remove-then-insert protocol."""
    edges, batch = dataset_workload(dataset, batch_size, seed=seed)
    m = TraversalMaintainer(DynamicGraph(edges))
    tr = sum(s.work for s in m.remove_edges(batch))
    ti = sum(s.work for s in m.insert_edges(batch))
    return {"TI": ti, "TR": tr}


# ----------------------------------------------------------------------
# Table 1 / Figure 3
# ----------------------------------------------------------------------
def table1_datasets(names: Optional[Iterable[str]] = None, seed: int = 0) -> List[Dict]:
    """Stand-in graph statistics next to the paper's original Table 1."""
    rows = []
    for name in names or DATASETS:
        ds = DATASETS[name]
        g = ds.graph(seed)
        decomp = core_decomposition(g)
        rows.append(
            {
                "name": name,
                "kind": ds.kind,
                "n": g.num_vertices,
                "m": g.num_edges,
                "avg_deg": round(g.average_degree(), 2),
                "max_k": decomp.max_core,
                "paper_n": ds.paper.n,
                "paper_m": ds.paper.m,
                "paper_avg_deg": ds.paper.avg_deg,
                "paper_max_k": ds.paper.max_k,
            }
        )
    return rows


def fig3_core_distributions(
    names: Optional[Iterable[str]] = None, seed: int = 0
) -> Dict[str, Dict[int, int]]:
    """Core-number histogram per dataset (x = core value, y = #vertices)."""
    out = {}
    for name in names or DATASETS:
        g = DATASETS[name].graph(seed)
        out[name] = core_histogram(core_decomposition(g).core)
    return out


# ----------------------------------------------------------------------
# Figure 4 / Table 2
# ----------------------------------------------------------------------
def fig4_running_time(
    names: Iterable[str],
    worker_counts: Sequence[int] = (1, 2, 4, 8, 16),
    batch_size: int = 1000,
    algos: Sequence[str] = ("Our", "JE", "M"),
    seed: int = 0,
    include_traversal: bool = True,
) -> Dict[str, Dict[str, Dict[int, Dict[str, float]]]]:
    """Running time by worker count, per dataset and algorithm.

    Returns ``data[dataset][algo][P] = {"insert": t, "remove": t}``.
    The sequential references appear as ``data[ds]["T"][1]`` (TI/TR) and
    the 1-worker Our run doubles as OI/OR (same work, as in the paper).
    """
    data: Dict[str, Dict[str, Dict[int, Dict[str, float]]]] = {}
    for name in names:
        data[name] = {}
        for algo in algos:
            data[name][algo] = {}
            for p in worker_counts:
                cell = run_remove_insert(name, batch_size, p, algo, seed)
                data[name][algo][p] = {
                    "insert": cell["insert_makespan"],
                    "remove": cell["remove_makespan"],
                }
        if include_traversal:
            t = sequential_traversal_times(name, batch_size, seed)
            data[name]["T"] = {1: {"insert": t["TI"], "remove": t["TR"]}}
    return data


def table2_speedups(
    fig4: Dict[str, Dict[str, Dict[int, Dict[str, float]]]],
    p_hi: int = 16,
) -> List[Dict]:
    """The paper's Table 2 derived from Figure 4 data."""

    def ratio(a: float, b: float) -> float:
        return round(a / b, 1) if b else float("inf")

    rows = []
    for ds, algos in fig4.items():

        def t(algo: str, p: int, phase: str) -> float:
            return algos[algo][p][phase]

        row = {"dataset": ds}
        for algo, label in (("Our", "Our"), ("JE", "JE"), ("M", "M")):
            if algo in algos:
                row[f"{label}I 1v{p_hi}"] = ratio(
                    t(algo, 1, "insert"), t(algo, p_hi, "insert")
                )
                row[f"{label}R 1v{p_hi}"] = ratio(
                    t(algo, 1, "remove"), t(algo, p_hi, "remove")
                )
        for other in ("JE", "M"):
            if other in algos:
                row[f"OurI vs {other}I @1"] = ratio(
                    t(other, 1, "insert"), t("Our", 1, "insert")
                )
                row[f"OurR vs {other}R @1"] = ratio(
                    t(other, 1, "remove"), t("Our", 1, "remove")
                )
                row[f"OurI vs {other}I @{p_hi}"] = ratio(
                    t(other, p_hi, "insert"), t("Our", p_hi, "insert")
                )
                row[f"OurR vs {other}R @{p_hi}"] = ratio(
                    t(other, p_hi, "remove"), t("Our", p_hi, "remove")
                )
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 5: |V+| distribution
# ----------------------------------------------------------------------
def fig5_locked_vertices(
    names: Iterable[str],
    batch_size: int = 1000,
    workers: int = 16,
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[int, int]]]:
    """Histogram of per-edge ``|V+|`` (== locked vertices) for OurI/OurR."""
    out: Dict[str, Dict[str, Dict[int, int]]] = {}
    for name in names:
        cell = run_remove_insert(name, batch_size, workers, "Our", seed)
        hist_i: Dict[int, int] = {}
        for s in cell["insert_stats"]:
            hist_i[len(s.v_plus)] = hist_i.get(len(s.v_plus), 0) + 1
        hist_r: Dict[int, int] = {}
        for s in cell["remove_stats"]:
            hist_r[len(s.v_plus)] = hist_r.get(len(s.v_plus), 0) + 1
        out[name] = {
            "OurI": dict(sorted(hist_i.items())),
            "OurR": dict(sorted(hist_r.items())),
        }
    return out


# ----------------------------------------------------------------------
# Figure 6: scalability in batch size
# ----------------------------------------------------------------------
def fig6_scalability(
    names: Iterable[str],
    batch_sizes: Sequence[int] = (500, 1000, 2500, 5000),
    workers: int = 16,
    algos: Sequence[str] = ("Our", "JE"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[int, Dict[str, float]]]]:
    """Time ratio relative to the smallest batch, per dataset/algorithm.

    Returns ``data[ds][algo][batch] = {"insert_ratio": r, "remove_ratio": r,
    "insert": t, "remove": t}``.
    """
    out: Dict[str, Dict[str, Dict[int, Dict[str, float]]]] = {}
    for name in names:
        out[name] = {}
        for algo in algos:
            cells = {}
            for b in batch_sizes:
                cell = run_remove_insert(name, b, workers, algo, seed)
                cells[b] = cell
            b0 = batch_sizes[0]
            out[name][algo] = {
                b: {
                    "insert": cells[b]["insert_makespan"],
                    "remove": cells[b]["remove_makespan"],
                    "insert_ratio": cells[b]["insert_makespan"]
                    / max(cells[b0]["insert_makespan"], 1e-9),
                    "remove_ratio": cells[b]["remove_makespan"]
                    / max(cells[b0]["remove_makespan"], 1e-9),
                }
                for b in batch_sizes
            }
    return out


# ----------------------------------------------------------------------
# Figure 7: stability across disjoint batches
# ----------------------------------------------------------------------
def fig7_stability(
    names: Iterable[str],
    groups: int = 10,
    batch_size: int = 500,
    workers: int = 16,
    algos: Sequence[str] = ("Our", "JE"),
    seed: int = 0,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Repeat the remove+insert experiment over disjoint edge groups and
    report per-group times plus mean/stdev/relative-spread."""
    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in names:
        edges, _ = dataset_workload(name, batch_size, seed=seed)
        batches = disjoint_batches(edges, groups, batch_size, seed=seed + 7)
        out[name] = {}
        for algo in algos:
            ins_times: List[float] = []
            rem_times: List[float] = []
            for batch in batches:
                g = DynamicGraph(edges)
                m = ALGORITHMS[algo](g, workers)
                rem_times.append(m.remove_edges(batch).makespan)
                ins_times.append(m.insert_edges(batch).makespan)
            out[name][algo] = {
                "insert_times": ins_times,
                "remove_times": rem_times,
                "insert_mean": statistics.mean(ins_times),
                "insert_rel_spread": (
                    (max(ins_times) - min(ins_times))
                    / max(statistics.mean(ins_times), 1e-9)
                ),
                "remove_mean": statistics.mean(rem_times),
                "remove_rel_spread": (
                    (max(rem_times) - min(rem_times))
                    / max(statistics.mean(rem_times), 1e-9)
                ),
            }
    return out


# ----------------------------------------------------------------------
# traffic: sliding-window SLO attainment per shape (docs/traffic.md)
# ----------------------------------------------------------------------
def traffic_profile(shape: str, *, seed: int = 0) -> Dict[str, object]:
    """The bench's per-shape engine profile.  The three in-capacity
    shapes run unbounded admission with time-based cuts; ``overload``
    squeezes the ingress queue (backpressure → ``rejected``) and arms a
    small crash budget with zero retries so the ``abandoned`` terminal
    state is exercised too."""
    prof: Dict[str, object] = {
        "max_batch": 16,
        "max_delay": 256.0,
        "seed": seed,
    }
    if shape == "overload":
        from repro.faults.plane import FaultSpec

        prof.update(
            max_pending=12,
            max_retries=0,
            faults=FaultSpec(crash_rate=0.05, max_crashes=3),
        )
    return prof


def run_traffic(
    shape: str,
    *,
    ops: int = 2000,
    vertices: int = 120,
    window: Optional[float] = None,
    rate: Optional[float] = None,
    query_mix: float = 0.2,
    seed: int = 0,
    trace_path: Optional[str] = None,
    verify_boundaries: bool = True,
    boundary_limit: Optional[int] = 8,
) -> Dict[str, object]:
    """One traffic cell: generate (or load) the shape's trace, replay it
    twice through fresh engines for the SLO numbers plus a determinism
    verdict (same trace → same cores digest, same journal digest), and —
    unless disabled — replay a lossless leg in *engine* mode
    (``EngineConfig.window``, no deadlines) that bit-compares the cores
    against a from-scratch decomposition at every window boundary and
    against the model-mode leg's final cores.

    The SLO legs replay in **model** mode: deadline = ``t + slo[class]``,
    expiry removes submitted through the same admission path as live
    traffic.  ``trace_path`` loads a pre-generated trace instead of
    generating (the CI smoke uses the bundled ``examples/traces/``)."""
    from repro.service import Engine
    from repro.traffic import Trace, generate_trace, replay

    if trace_path is not None:
        trace = Trace.load(trace_path).materialized()
    else:
        trace = generate_trace(
            shape, ops=ops, vertices=vertices, seed=seed,
            **({"window": window} if window is not None else {}),
            **({"rate": rate} if rate is not None else {}),
            query_mix=query_mix,
        )
    shape = trace.header.shape
    legs = []
    for _ in range(2):
        eng = Engine(DynamicGraph(),
                     **traffic_profile(shape, seed=seed))
        legs.append(replay(eng, trace, mode="model"))
    a, b = legs
    determinism_ok = (
        a.cores_digest == b.cores_digest
        and a.journal_digest == b.journal_digest
        and a.trace_digest == b.trace_digest
    )
    boundaries_ok = True
    engine_mode_ok = True
    boundaries: List[Dict] = []
    if verify_boundaries:
        # the oracle legs are about *window* correctness, not capacity:
        # they always run lossless (unbounded admission, no deadlines, no
        # faults) even for the overload shape, whose squeeze belongs to
        # the SLO legs above
        vprof = traffic_profile("uniform", seed=seed)
        weng = Engine(DynamicGraph(), window=trace.header.window, **vprof)
        wrep = replay(weng, trace, mode="engine", slo={"update": None,
                                                       "query": None},
                      check_boundaries=True, boundary_limit=boundary_limit)
        boundaries = wrep.boundaries
        boundaries_ok = wrep.boundaries_ok
        mrep = replay(Engine(DynamicGraph(), **vprof), trace, mode="model",
                      slo={"update": None, "query": None})
        engine_mode_ok = wrep.cores_digest == mrep.cores_digest
    cell: Dict[str, object] = {
        "shape": shape,
        "mode": "model",
        "records": trace.header.ops,
        "vertices": trace.header.vertices,
        "window": trace.header.window,
        "seed": trace.header.seed,
        "trace_digest": a.trace_digest,
        "cores_digest": a.cores_digest,
        "journal_digest": a.journal_digest,
        "slo": a.slo,
        "expiry": a.expiry,
        "window_metrics": a.metrics.get("window", {}),
        "counters": a.metrics["counters"],
        "cuts": a.metrics["cuts"],
        "now": a.metrics["now"],
        "event_now": a.metrics.get("event_now", 0.0),
        "invariant_ok": a.invariant_ok and b.invariant_ok,
        "determinism_ok": determinism_ok,
        "boundaries": boundaries,
        "boundaries_ok": boundaries_ok,
        "engine_mode_ok": engine_mode_ok,
    }
    cell["ok"] = bool(
        cell["invariant_ok"] and determinism_ok
        and boundaries_ok and engine_mode_ok
    )
    return cell
