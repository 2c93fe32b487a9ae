"""``repro-serve`` — drive the serving engine from the command line.

Runs an interleaved insert/remove/query trace through
:class:`repro.service.Engine` and prints the metrics surface::

    repro-serve --dataset BA --ops 1000 --query-rate 0.3
    repro-serve --edge-list graph.txt --ops 500 --max-batch 128 --json
    repro-serve --trace examples/traces/uniform.jsonl --trace-mode engine

Input is either a registered dataset stand-in (``--dataset``), a real
edge-list file (``--edge-list``), or a timed-operation trace
(``--trace``, the ``repro.traffic`` format of ``docs/traffic.md``).
Edge lists are read leniently: malformed lines and self-loops are
counted and skipped (``read_edge_list(strict=False)``) — the file-level
twin of the engine's request quarantine — and reported in the output
under ``ingest``.  Traces are *generated* artifacts and therefore
strict: a malformed trace exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.bench.reporting import render_service_metrics
from repro.bench.workloads import service_trace, trace_from_edges
from repro.graph.datasets import DATASETS
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.io import read_edge_list
from repro.service.engine import BACKENDS, Engine, EngineConfig

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve an interleaved update/query stream over a graph "
        "and report engine metrics.",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--dataset", default="BA", choices=sorted(DATASETS),
                     help="registered dataset stand-in (default: BA)")
    src.add_argument("--edge-list", metavar="PATH",
                     help="edge-list file (read leniently; malformed lines "
                     "and self-loops counted and skipped)")
    src.add_argument("--trace", metavar="PATH",
                     help="replay a timed-operation trace file "
                     "(repro.traffic canonical JSONL, docs/traffic.md); "
                     "strict — a malformed trace exits 2")
    p.add_argument("--ops", type=int, default=1000, help="trace length")
    p.add_argument("--query-rate", type=float, default=0.25)
    p.add_argument("--max-batch", type=int, default=64,
                   help="micro-batch size cut threshold")
    p.add_argument("--max-delay", type=float, default=20_000.0,
                   help="micro-batch age cut threshold (service-clock "
                   "units; 0 disables)")
    p.add_argument("--query-pressure", type=int, default=32,
                   help="queries since last commit before a staleness cut "
                   "(0 disables)")
    p.add_argument("--max-pending", type=int, default=0,
                   help="ingress queue bound; overflow is rejected "
                   "(0 = unbounded)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--crash-rate", type=float, default=0.0,
                   help="fault injection: crash probability per edge; "
                   "0 disables the fault plane")
    p.add_argument("--stall-rate", type=float, default=0.0,
                   help="fault injection: stall probability per edge")
    p.add_argument("--max-crashes", type=int, default=8,
                   help="fault injection: total crash budget")
    p.add_argument("--max-retries", type=int, default=16,
                   help="crashed-batch retries before abandonment")
    p.add_argument("--journal", metavar="PATH",
                   help="persist the write-ahead journal to this file")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="journal checkpoint cadence in epochs (0 = never)")
    p.add_argument("--recover-from", metavar="PATH",
                   help="restart from a journal file written by a previous "
                   "run (--journal) instead of building a fresh engine; "
                   "the trace then continues against the recovered state "
                   "and keeps appending to that file (or to --journal, if "
                   "given, via a rebase)")
    shrd = p.add_argument_group("sharding (docs/sharding.md)")
    shrd.add_argument("--shards", type=int, default=1,
                      help="engine shards behind the router (1 = the "
                      "classic monolithic engine, the default)")
    shrd.add_argument("--backend", choices=BACKENDS, default="direct",
                      help="shard substrate: 'direct' (in this process, "
                      "the default) or 'process' (each shard engine in "
                      "its own OS process; requires --shards >= 2)")
    qp = p.add_argument_group("wait-free query plane (docs/queryplane.md)")
    qp.add_argument("--readers", type=int, default=0,
                    help="OS reader processes answering queries from the "
                    "shared-memory epoch snapshot instead of the engine "
                    "loop (0 = classic in-engine reads, the default)")
    qp.add_argument("--read-mix", type=float, default=1.0,
                    metavar="FRAC",
                    help="with --readers: fraction of trace queries routed "
                    "to the reader pool; the rest still take the in-engine "
                    "path (default 1.0 = all reads wait-free)")
    tfc = p.add_argument_group("traffic replay (docs/traffic.md)")
    tfc.add_argument("--trace-mode", choices=("model", "engine"),
                     default="model",
                     help="with --trace: 'model' submits the trace's expiry "
                     "removes like any other op (works on every backend, "
                     "including --shards); 'engine' skips them and arms the "
                     "engine's own sliding-window plane "
                     "(EngineConfig.window) instead")
    tfc.add_argument("--check-boundaries", action="store_true",
                     help="with --trace: quiesce at each window boundary "
                     "and bit-compare the cores against a from-scratch "
                     "decomposition of the ideal windowed edge set; the "
                     "run is made lossless (SLO deadlines off — a "
                     "deadline-dropped insert diverges from the ideal by "
                     "design) and batching is perturbed by the quiesces; "
                     "exits 1 on mismatch")
    repl = p.add_argument_group("replication (docs/replication.md)")
    repl.add_argument("--replicas", type=int, default=0,
                      help="follower read replicas behind the primary "
                      "(0 = unreplicated serving, the default)")
    repl.add_argument("--ship-lag", type=int, default=8,
                      help="async replicas are shipped journal records only "
                      "once they fall more than this many records behind")
    repl.add_argument("--ship-batch", type=int, default=0,
                      help="max records per shipping poll (0 = unbounded)")
    repl.add_argument("--promote-on-crash", action="store_true",
                      help="fail over to the most-caught-up follower when "
                      "the primary process dies (otherwise the set goes "
                      "headless and updates are rejected)")
    repl.add_argument("--primary-crash-rate", type=float, default=0.0,
                      help="seeded primary process-death probability per "
                      "update submission (0 disables)")
    repl.add_argument("--primary-crashes", type=int, default=1,
                      help="total primary-death budget")
    p.add_argument("--check", action="store_true",
                   help="assert engine invariants after the drain")
    p.add_argument("--json", action="store_true",
                   help="dump the metrics dict as JSON instead of text")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    ingest = {"kept": 0, "malformed": 0, "self_loops": 0}
    if args.trace:
        if args.readers or args.replicas or args.recover_from:
            print("--trace replays a self-contained timed trace; it cannot "
                  "be combined with --readers, --replicas or --recover-from",
                  file=sys.stderr)
            return 2
        if args.trace_mode == "engine" and args.shards > 1:
            print("--trace-mode engine arms the monolithic engine's "
                  "sliding-window plane; a sharded engine replays traces "
                  "in model mode (docs/traffic.md)", file=sys.stderr)
            return 2
        initial, trace = [], []
        source, ingest = args.trace, None
    elif args.edge_list:
        edges = read_edge_list(args.edge_list, strict=False, counters=ingest)
        if not edges:
            print("edge list is empty after lenient parsing", file=sys.stderr)
            return 2
        initial, trace = trace_from_edges(
            edges, args.ops, query_rate=args.query_rate, seed=args.seed
        )
        source = args.edge_list
    else:
        initial, trace = service_trace(
            args.dataset, args.ops, query_rate=args.query_rate, seed=args.seed
        )
        source = args.dataset
        ingest = None

    faults = None
    if args.crash_rate or args.stall_rate:
        from repro.faults.plane import FaultSpec

        faults = FaultSpec(
            crash_rate=args.crash_rate,
            stall_rate=args.stall_rate,
            max_crashes=args.max_crashes or None,
        )
    # sharding/backend validation (exit 2 = config error, docs/sharding.md)
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    if args.backend == "process" and args.shards < 2:
        print("--backend process hosts each shard engine in its own OS "
              "process; it requires --shards >= 2 (use --backend direct "
              "for a monolithic engine)", file=sys.stderr)
        return 2
    if args.readers < 0:
        print("--readers must be >= 0", file=sys.stderr)
        return 2
    if not 0.0 <= args.read_mix <= 1.0:
        print("--read-mix must be in [0, 1]", file=sys.stderr)
        return 2
    if args.readers and (args.shards > 1 or args.replicas):
        print("--readers serves the monolithic engine's query plane; it "
              "cannot be combined with --shards or --replicas (enable "
              "those planes programmatically, see docs/queryplane.md)",
              file=sys.stderr)
        return 2
    if args.shards > 1 and args.replicas:
        print("--shards cannot be combined with --replicas: the "
              "replication plane ships one primary journal, a sharded "
              "engine writes one journal per shard", file=sys.stderr)
        return 2
    if args.shards > 1 and args.recover_from:
        if args.journal and args.journal != args.recover_from:
            print("sharded recovery continues its per-shard journals in "
                  "place; --journal must be omitted or equal "
                  "--recover-from", file=sys.stderr)
            return 2
        written = 0
        while os.path.exists(f"{args.recover_from}.shard{written}"):
            written += 1
        if written == 0:
            print(f"no shard journals at {args.recover_from}.shard0..N "
                  "(was the run sharded?)", file=sys.stderr)
            return 2
        if written != args.shards:
            print(f"--recover-from journals were written by {written} "
                  f"shard(s) but --shards is {args.shards}; the shard "
                  "count (and vertex placement) is fixed at write time",
                  file=sys.stderr)
            return 2
    cfg = EngineConfig(
        max_batch=args.max_batch,
        max_delay=args.max_delay or None,
        query_pressure=args.query_pressure or None,
        max_pending=args.max_pending or None,
        backend=args.backend,
        shards=args.shards,
        seed=args.seed,
        faults=faults,
        journal_path=None if args.recover_from else args.journal,
        checkpoint_every=args.checkpoint_every or None,
        max_retries=args.max_retries,
    )
    if args.trace:
        return _serve_trace(args, cfg)
    if args.shards > 1:
        return _serve_sharded(args, cfg, initial, trace, source, ingest)
    if args.replicas:
        if args.recover_from:
            print("--replicas cannot be combined with --recover-from: a "
                  "replica set bootstraps its followers from the primary "
                  "journal's birth record", file=sys.stderr)
            return 2
        return _serve_replicated(args, cfg, initial, trace, source, ingest)

    if args.recover_from:
        try:
            eng = Engine.from_journal(args.recover_from, cfg)
        except OSError as exc:
            print(f"cannot recover from {args.recover_from}: {exc}",
                  file=sys.stderr)
            return 2
        journal_at = args.recover_from
        if args.journal and args.journal != args.recover_from:
            try:
                eng.journal.rebase(args.journal)
            except OSError as exc:
                print(f"cannot continue the journal at {args.journal}: "
                      f"{exc}", file=sys.stderr)
                eng.close()
                return 2
            journal_at = args.journal
        print(f"recovered from {args.recover_from}: epoch {eng.epoch}, "
              f"{eng.graph.num_edges} edges; journal continues at "
              f"{journal_at}", file=sys.stderr)
    else:
        eng = Engine(DynamicGraph(initial), cfg)
    with eng:
        if args.readers:
            qp_stats = _drive_with_readers(eng, trace, args)
        else:
            qp_stats = None
            _drive_trace(eng, trace)
        eng.flush()
        if args.check:
            eng.check()
        metrics = eng.metrics()
    if qp_stats is not None:
        metrics["queryplane"] = qp_stats
    if ingest is not None:
        metrics["ingest"] = ingest

    if args.json:
        print(json.dumps(metrics, indent=2, default=repr))
    else:
        print(f"source: {source}  initial edges: {len(initial)}  "
              f"trace ops: {len(trace)}")
        if ingest is not None:
            print(f"ingest: kept {ingest['kept']}  "
                  f"malformed {ingest['malformed']}  "
                  f"self-loops {ingest['self_loops']}")
        if qp_stats is not None:
            print(f"queryplane: readers {qp_stats['readers']}  "
                  f"wait-free reads {qp_stats['wait_free_reads']} "
                  f"(mix {qp_stats['read_mix']:g}, counter "
                  f"{qp_stats['reads_total']})")
        print(render_service_metrics(metrics))
    return 0 if _accounting_ok(metrics) else 1


def _drive_trace(target, trace) -> None:
    """Feed one workload trace into an Engine or ReplicaSet."""
    for item in trace:
        if item[0] == "query":
            target.query(item[1], *item[2])
        elif item[0] == "insert":
            target.insert(item[1], item[2])
        else:
            target.remove(item[1], item[2])


def _drive_with_readers(eng, trace, args):
    """The ``--readers N`` serving path (docs/queryplane.md).

    Updates go to the engine as usual; ``--read-mix`` of the queries are
    answered by the reader pool from the shared-memory snapshot (the
    rest take the classic in-engine path).  The pool's read counter is
    bound back into the batcher so ``query_pressure`` cuts keep firing
    even when reads never enter the engine loop.
    """
    import random as _random

    from repro.service.queryplane import ReaderPool

    publisher = eng.enable_queryplane()
    rng = _random.Random(args.seed ^ 0x51CA)
    wait_free = 0
    try:
        with ReaderPool(publisher.ctrl_name, readers=args.readers) as pool:
            eng.bind_read_counter(pool.reads_total)
            for item in trace:
                if item[0] == "query":
                    if rng.random() < args.read_mix:
                        pool.query(item[1], *item[2])
                        wait_free += 1
                    else:
                        eng.query(item[1], *item[2])
                elif item[0] == "insert":
                    eng.insert(item[1], item[2])
                else:
                    eng.remove(item[1], item[2])
            stats = {
                "readers": args.readers,
                "read_mix": args.read_mix,
                "wait_free_reads": wait_free,
                "reads_total": pool.reads_total(),
                "per_reader": pool.counters(),
            }
            eng.flush()  # fold the final read-counter delta
    finally:
        eng.bind_read_counter(None)
        publisher.close()
    return stats


def _accounting_ok(metrics) -> bool:
    c = metrics["counters"]
    ok = (
        c["admitted"]
        == c["committed"] + c["quarantined"] + c["timed_out"] + c["abandoned"]
        and c["in_flight"] == 0
    )
    if not ok:
        print("accounting invariant VIOLATED", file=sys.stderr)
    return ok


def _serve_trace(args, cfg) -> int:
    """The ``--trace PATH`` serving path (docs/traffic.md): replay a
    timed-operation trace through the engine and report SLO attainment
    next to the usual metrics surface."""
    import dataclasses

    from repro.traffic import Trace, replay

    try:
        trace = Trace.load(args.trace).materialized()
    except (OSError, ValueError) as exc:
        print(f"cannot replay trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    header = trace.header
    if args.trace_mode == "engine":
        cfg = dataclasses.replace(cfg, window=header.window)
    if args.shards > 1:
        from repro.service.sharding import ShardedEngine

        eng = ShardedEngine(DynamicGraph(), cfg)
    else:
        eng = Engine(DynamicGraph(), cfg)
    with eng:
        rep = replay(eng, trace, mode=args.trace_mode,
                     slo=({"update": None, "query": None}
                          if args.check_boundaries else None),
                     check_boundaries=args.check_boundaries)
        metrics = rep.metrics

    if args.json:
        print(json.dumps(rep.as_dict(), indent=2, default=repr))
    else:
        print(f"source: {args.trace}  shape: {header.shape}  "
              f"records: {header.ops}  window: {header.window:g}  "
              f"mode: {args.trace_mode}"
              + (f"  shards: {cfg.shards}" if args.shards > 1 else ""))
        print(f"trace sha256 {rep.trace_digest[:16]}  "
              f"cores sha256 {rep.cores_digest[:16]}"
              + (f"  journal sha256 {rep.journal_digest[:16]}"
                 if rep.journal_digest else ""))
        for cls, s in sorted(rep.slo.items()):
            lat = s["latency"]
            print(f"{cls}: n={s['count']} hit-rate {s['hit_rate']:.3f} "
                  f"(budget {s['budget']})  p50={lat['p50']:.0f} "
                  f"p99={lat['p99']:.0f}  late={s['late']} "
                  f"rejected={s['rejected']} timed_out={s['timed_out']} "
                  f"abandoned={s['abandoned']}")
        if rep.expiry and args.trace_mode == "model":
            print(f"expiry: {rep.expiry}")
        if rep.boundaries:
            bad = [b for b in rep.boundaries if not b["ok"]]
            print(f"boundaries: {len(rep.boundaries)} checked, "
                  f"{len(bad)} mismatched")
        if "router" in metrics:
            print("router:")
            print(render_service_metrics(metrics["router"]))
        else:
            print(render_service_metrics(metrics))
    ok = rep.invariant_ok and rep.boundaries_ok
    if not ok:
        print("trace replay FAILED "
              f"(invariant={rep.invariant_ok} "
              f"boundaries={rep.boundaries_ok})", file=sys.stderr)
    return 0 if ok else 1


def _serve_sharded(args, cfg, initial, trace, source, ingest) -> int:
    """The ``--shards N`` serving path: router + N engine shards."""
    from repro.service.sharding import ShardedEngine

    if args.recover_from:
        try:
            eng = ShardedEngine.from_journals(args.recover_from, cfg)
        except (OSError, ValueError) as exc:
            print(f"cannot recover from {args.recover_from}.shard*: {exc}",
                  file=sys.stderr)
            return 2
        resolved = sum(1 for r in eng.resolutions if r.committed)
        aborted = sum(1 for r in eng.resolutions if not r.committed)
        print(f"recovered {cfg.shards} shards from {args.recover_from}: "
              f"epoch {eng.epoch}; resolution pass committed {resolved}, "
              f"aborted {aborted} dangling prepare(s)", file=sys.stderr)
    else:
        eng = ShardedEngine(DynamicGraph(initial), cfg)
    with eng:
        _drive_trace(eng, trace)
        eng.flush()
        if args.check:
            eng.check()
        metrics = eng.metrics()
    if ingest is not None:
        metrics["ingest"] = ingest
    if args.json:
        print(json.dumps(metrics, indent=2, default=repr))
    else:
        print(f"source: {source}  initial edges: {len(initial)}  "
              f"trace ops: {len(trace)}  shards: {cfg.shards}  "
              f"backend: {cfg.backend}")
        if ingest is not None:
            print(f"ingest: kept {ingest['kept']}  "
                  f"malformed {ingest['malformed']}  "
                  f"self-loops {ingest['self_loops']}")
        for i, sm in enumerate(metrics["shards"]):
            c = sm["counters"]
            print(f"shard {i}: epoch {sm['epoch']}  "
                  f"admitted {c['admitted']}  committed {c['committed']}  "
                  f"quarantined {c['quarantined']}")
        print("router:")
        print(render_service_metrics(metrics["router"]))
    ok = _accounting_ok(metrics["router"])
    for sm in metrics["shards"]:
        ok = _accounting_ok(sm) and ok
    return 0 if ok else 1


def _serve_replicated(args, cfg, initial, trace, source, ingest) -> int:
    """The ``--replicas N`` serving path: primary + followers + failover."""
    from repro.bench.reporting import render_replication
    from repro.replication import ReplicaSet

    primary_faults = None
    if args.primary_crash_rate:
        from repro.faults.plane import FaultSpec

        primary_faults = FaultSpec(
            crash_rate=args.primary_crash_rate,
            max_crashes=args.primary_crashes or None,
        )
    with ReplicaSet(
        DynamicGraph(initial),
        cfg,
        replicas=args.replicas,
        ship_lag=args.ship_lag,
        ship_batch=args.ship_batch or None,
        primary_faults=primary_faults,
        promote_on_crash=args.promote_on_crash,
    ) as rs:
        _drive_trace(rs, trace)
        rs.flush()
        repl = rs.metrics()
        if rs.primary is None:
            print("primary died and no follower was promoted "
                  "(pass --promote-on-crash)", file=sys.stderr)
            if args.json:
                print(json.dumps({"replication": repl}, indent=2,
                                 default=repr))
            else:
                print(render_replication(repl))
            return 1
        if args.check:
            rs.check()
        metrics = rs.primary.metrics()
        metrics["replication"] = repl
    if ingest is not None:
        metrics["ingest"] = ingest
    if args.json:
        print(json.dumps(metrics, indent=2, default=repr))
    else:
        print(f"source: {source}  initial edges: {len(initial)}  "
              f"trace ops: {len(trace)}  replicas: {args.replicas}")
        if ingest is not None:
            print(f"ingest: kept {ingest['kept']}  "
                  f"malformed {ingest['malformed']}  "
                  f"self-loops {ingest['self_loops']}")
        print(render_replication(metrics["replication"]))
        print(render_service_metrics(metrics))
    return 0 if _accounting_ok(metrics) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
