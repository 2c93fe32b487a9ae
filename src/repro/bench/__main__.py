"""Command-line experiment runner: ``python -m repro.bench <experiment>``.

Regenerates the paper's tables and figures without pytest:

    python -m repro.bench table1
    python -m repro.bench fig3  --datasets BA roadNet-CA
    python -m repro.bench fig4  --datasets BA --workers 1 4 16 --batch 300
    python -m repro.bench table2 --datasets BA RMAT
    python -m repro.bench fig5 fig6 fig7
    python -m repro.bench service --datasets BA --ops 500 --query-rate 0.3
    python -m repro.bench chaos --datasets BA --seed 7 --assert-recovered
    python -m repro.bench failover --datasets BA --replicas 3 --assert-failover
    python -m repro.bench representation --datasets BA ER --assert-speedup 0.9
    python -m repro.bench scheduling --datasets BA --assert-speedup 1.2
    python -m repro.bench sharding --shards 4 --assert-speedup 1.5
    python -m repro.bench all   --batch 200

``--profile`` wraps the run in :mod:`cProfile` and prints the top 25
functions by cumulative time — the first stop for any hot-path pass.

Output is the same paper-style text the benchmark suite writes to
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.bench import harness
from repro.bench.reporting import (
    render_chaos,
    render_failover,
    render_histogram,
    render_queryplane,
    render_series,
    render_service_metrics,
    render_sharding,
    render_table,
    render_traffic,
)

DEFAULT_DATASETS = ["roadNet-CA", "ER", "BA", "RMAT"]
EXPERIMENTS = (
    "table1", "fig3", "fig4", "table2", "fig5", "fig6", "fig7", "service",
    "chaos", "failover", "representation", "scheduling", "sharding",
    "queryplane", "traffic",
)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    p.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ("all",),
        help="which experiments to run",
    )
    p.add_argument("--datasets", nargs="+", default=DEFAULT_DATASETS)
    p.add_argument("--workers", nargs="+", type=int, default=[1, 4, 16])
    p.add_argument("--batch", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ops", type=int, default=500,
                   help="service workload: trace length")
    p.add_argument("--query-rate", type=float, default=0.25,
                   help="service workload: fraction of queries in the trace")
    p.add_argument("--repeats", type=int, default=3,
                   help="representation/scheduling: wall-clock best-of repeats")
    p.add_argument("--hubs", type=int, default=8,
                   help="scheduling workload: number of hub vertices whose "
                        "incident edges form the contended batch")
    p.add_argument("--assert-speedup", type=float, default=None, metavar="X",
                   help="representation/scheduling/sharding/queryplane: exit "
                        "1 unless the headline speedup is >= X on every cell")
    p.add_argument("--shards", type=int, default=4,
                   help="sharding workload: shard count (process backend)")
    p.add_argument("--vertices", type=int, default=1200,
                   help="sharding workload: vertex universe size")
    p.add_argument("--shard-ops", type=int, default=12000,
                   help="sharding workload: update-trace length")
    p.add_argument("--queries", type=int, default=1_000_000,
                   help="queryplane workload: timed query count")
    p.add_argument("--update-rate", type=float, default=0.01,
                   help="queryplane workload: updates per query")
    p.add_argument("--reader-counts", nargs="+", type=int, default=[1, 2, 4],
                   help="queryplane workload: reader-pool sizes to sweep")
    p.add_argument("--qp-vertices", type=int, default=400,
                   help="queryplane workload: vertex universe size")
    p.add_argument("--frame", type=int, default=512,
                   help="queryplane workload: sample every Nth answer for "
                        "bit-identity verification")
    p.add_argument("--no-recovery", action="store_true",
                   help="queryplane workload: skip the mid-stream crash/"
                        "recovery leg")
    p.add_argument("--crash-rate", type=float, default=0.01,
                   help="chaos workload: per-edge crash probability")
    p.add_argument("--stall-rate", type=float, default=0.01,
                   help="chaos workload: per-edge stall probability")
    p.add_argument("--max-crashes", type=int, default=8,
                   help="chaos workload: total crash budget per engine")
    p.add_argument("--restarts", type=int, default=2,
                   help="chaos workload: simulated process restarts "
                        "(journal reload) spread over the trace")
    p.add_argument("--assert-recovered", action="store_true",
                   help="chaos: exit 1 unless every dataset recovered "
                        "(cores match the uninterrupted run and the "
                        "from-scratch oracle, deterministically)")
    p.add_argument("--replicas", type=int, default=3,
                   help="failover workload: follower replicas per set")
    p.add_argument("--ship-lag", type=int, default=6,
                   help="failover workload: async shipping lag in records")
    p.add_argument("--primary-crash-rate", type=float, default=0.01,
                   help="failover workload: seeded primary-death "
                        "probability per update submission")
    p.add_argument("--primary-crashes", type=int, default=2,
                   help="failover workload: primary-death budget")
    p.add_argument("--assert-failover", action="store_true",
                   help="failover: exit 1 unless every dataset survived "
                        "(zero committed-op loss, divergence bounded by "
                        "replication lag, every promotion verified "
                        "bit-identical, deterministically)")
    p.add_argument("--shapes", nargs="+", default=None,
                   metavar="SHAPE",
                   help="traffic workload: which shapes to run "
                        "(default: all of repro.traffic.SHAPES)")
    p.add_argument("--traffic-ops", type=int, default=2000,
                   help="traffic workload: arrival-op count per shape "
                        "(the window roughly doubles the record count)")
    p.add_argument("--traffic-vertices", type=int, default=120,
                   help="traffic workload: vertex universe size")
    p.add_argument("--traces", nargs="+", default=None, metavar="PATH",
                   help="traffic workload: replay these trace files "
                        "instead of generating (one cell per file; "
                        "--shapes/--traffic-ops are then ignored)")
    p.add_argument("--no-boundary-verify", action="store_true",
                   help="traffic workload: skip the lossless window-"
                        "boundary oracle leg (SLO legs only)")
    p.add_argument("--assert-hit-rate", type=float, default=None,
                   metavar="X",
                   help="traffic: exit 1 unless the update deadline "
                        "hit-rate is >= X on every non-overload shape")
    p.add_argument("--json", type=str, default=None, metavar="PATH",
                   help="representation/scheduling/chaos: also write the "
                        "cells to PATH as JSON")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top 25 functions "
                        "by cumulative time")
    return p


def _run(args: argparse.Namespace) -> int:
    wanted = list(EXPERIMENTS) if "all" in args.experiments else args.experiments

    fig4_cache = None

    def fig4_data():
        nonlocal fig4_cache
        if fig4_cache is None:
            fig4_cache = harness.fig4_running_time(
                args.datasets,
                worker_counts=tuple(args.workers),
                batch_size=args.batch,
                seed=args.seed,
            )
        return fig4_cache

    for exp in wanted:
        print(f"\n=== {exp} ===")
        if exp == "table1":
            print(render_table(harness.table1_datasets(args.datasets, seed=args.seed)))
        elif exp == "fig3":
            for name, hist in harness.fig3_core_distributions(
                args.datasets, seed=args.seed
            ).items():
                print(f"\n--- {name} ---")
                print(render_histogram(hist))
        elif exp == "fig4":
            for ds, algos in fig4_data().items():
                for phase in ("insert", "remove"):
                    series = {
                        f"{algo}{'I' if phase == 'insert' else 'R'}": {
                            p: cell[phase] for p, cell in per_p.items()
                        }
                        for algo, per_p in algos.items()
                    }
                    print(f"\n--- {ds} / {phase} ---")
                    print(render_series(series, title="algo \\ P"))
        elif exp == "table2":
            rows = harness.table2_speedups(fig4_data(), p_hi=max(args.workers))
            print(render_table(rows))
        elif exp == "fig5":
            out = harness.fig5_locked_vertices(
                args.datasets,
                batch_size=args.batch,
                workers=max(args.workers),
                seed=args.seed,
            )
            for ds, hists in out.items():
                for which, hist in hists.items():
                    print(f"\n--- {ds} / {which} ---")
                    print(render_histogram(hist))
        elif exp == "fig6":
            sizes = tuple(
                max(10, args.batch * f // 4) for f in (1, 2, 4)
            )
            out = harness.fig6_scalability(
                args.datasets[:2],
                batch_sizes=sizes,
                workers=max(args.workers),
                seed=args.seed,
            )
            for ds, algos in out.items():
                series = {
                    f"{algo}I": {b: c["insert_ratio"] for b, c in per_b.items()}
                    for algo, per_b in algos.items()
                }
                print(f"\n--- {ds} (insert-time ratios) ---")
                print(render_series(series, title="algo \\ batch", value_fmt="{:.2f}"))
        elif exp == "service":
            for ds in args.datasets:
                cell = harness.run_service(
                    ds,
                    ops=args.ops,
                    query_rate=args.query_rate,
                    seed=args.seed,
                    max_batch=max(1, args.batch // 4),
                )
                print(f"\n--- {ds} ---")
                print(render_service_metrics(cell["metrics"]))
                if not cell["invariant_ok"]:
                    print("!! accounting invariant VIOLATED")
                    return 1
        elif exp == "chaos":
            import json as _json

            cells = [
                harness.run_chaos(
                    ds,
                    ops=args.ops,
                    query_rate=args.query_rate,
                    seed=args.seed,
                    max_batch=max(1, args.batch // 16),
                    crash_rate=args.crash_rate,
                    stall_rate=args.stall_rate,
                    max_crashes=args.max_crashes,
                    restarts=args.restarts,
                )
                for ds in args.datasets
            ]
            for cell in cells:
                print(f"\n--- {cell['dataset']} ---")
                print(render_chaos(cell))
            if args.json:
                slim = [
                    {k: v for k, v in c.items() if k != "metrics"}
                    | {"faults": c["faults"],
                       "counters": c["metrics"]["counters"]}
                    for c in cells
                ]
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(slim, fh, indent=2)
                print(f"wrote {args.json}")
            if args.assert_recovered:
                bad = [c for c in cells if not c["ok"]]
                if bad:
                    for c in bad:
                        print(
                            f"!! {c['dataset']}: chaos run DIVERGED "
                            f"(recovered={c['recovered_ok']} "
                            f"oracle={c['oracle_ok']} "
                            f"deterministic={c['determinism_ok']} "
                            f"invariant={c['invariant_ok']})"
                        )
                    return 1
        elif exp == "failover":
            import json as _json

            cells = [
                harness.run_failover(
                    ds,
                    ops=args.ops,
                    query_rate=args.query_rate,
                    seed=args.seed,
                    max_batch=max(1, args.batch // 16),
                    replicas=args.replicas,
                    ship_lag=args.ship_lag,
                    primary_crash_rate=args.primary_crash_rate,
                    primary_crashes=args.primary_crashes,
                    crash_rate=args.crash_rate,
                    stall_rate=args.stall_rate,
                    max_crashes=args.max_crashes,
                )
                for ds in args.datasets
            ]
            for cell in cells:
                print(f"\n--- {cell['dataset']} ---")
                print(render_failover(cell))
            if args.json:
                slim = [
                    {k: v for k, v in c.items() if k != "replication"}
                    | {"replication": {
                        k: v for k, v in c["replication"].items()
                        if k != "replicas"
                    }}
                    for c in cells
                ]
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(slim, fh, indent=2)
                print(f"wrote {args.json}")
            if args.assert_failover:
                bad = [c for c in cells if not c["ok"]]
                if bad:
                    for c in bad:
                        v = c["verdicts"]
                        print(
                            f"!! {c['dataset']}: failover run FAILED "
                            f"(zero_loss={v['zero_loss']} "
                            f"divergence_bounded={v['divergence_bounded']} "
                            f"promotions_verified={v['promotions_verified']} "
                            f"final_state={v['final_state_ok']} "
                            f"deterministic={v['determinism_ok']})"
                        )
                    return 1
        elif exp == "representation":
            import json as _json

            cells = [
                harness.run_representation(
                    ds,
                    batch_size=args.batch,
                    seed=args.seed,
                    repeats=args.repeats,
                )
                for ds in args.datasets
            ]
            rows = [
                {
                    "dataset": c["dataset"],
                    "n": c["n"],
                    "m": c["m"],
                    "dict decomp (s)": round(c["dict_decomp_s"], 4),
                    "array decomp (s)": round(c["array_decomp_s"], 4),
                    "decomp x": round(c["decomp_speedup"], 2),
                    "dict maint (s)": round(c["dict_maint_s"], 4),
                    "array maint (s)": round(c["array_maint_s"], 4),
                    "maint x": round(c["maint_speedup"], 2),
                    "speedup": round(c["speedup"], 2),
                }
                for c in cells
            ]
            print(render_table(rows))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(cells, fh, indent=2)
                print(f"wrote {args.json}")
            if args.assert_speedup is not None:
                slow = [
                    c for c in cells if c["speedup"] < args.assert_speedup
                ]
                if slow:
                    for c in slow:
                        print(
                            f"!! {c['dataset']}: array-over-dict speedup "
                            f"{c['speedup']:.2f} < {args.assert_speedup}"
                        )
                    return 1
        elif exp == "scheduling":
            import json as _json

            cells = [
                harness.run_scheduling(
                    ds,
                    batch_size=args.batch,
                    workers=max(args.workers),
                    hubs=args.hubs,
                    seed=args.seed,
                    thread_repeats=args.repeats,
                )
                for ds in args.datasets
            ]
            rows = []
            for c in cells:
                for policy, r in c["policies"].items():
                    rows.append(
                        {
                            "dataset": c["dataset"],
                            "policy": policy,
                            "makespan": round(r["makespan"], 1),
                            "lock fails": (
                                r["remove"]["lock_failures"]
                                + r["insert"]["lock_failures"]
                            ),
                            "contended": round(
                                r["remove"]["contended_time"]
                                + r["insert"]["contended_time"], 1
                            ),
                            "waves": r["insert"]["num_waves"],
                            "thread (s)": round(r["thread_wall_s"], 4),
                            "vs fifo": round(r["speedup_vs_fifo"], 2),
                        }
                    )
            print(render_table(rows))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(cells, fh, indent=2)
                print(f"wrote {args.json}")
            if args.assert_speedup is not None:
                slow = [
                    c for c in cells if c["speedup"] < args.assert_speedup
                ]
                if slow:
                    for c in slow:
                        print(
                            f"!! {c['dataset']}: conflict-aware-over-fifo "
                            f"speedup {c['speedup']:.2f} < {args.assert_speedup}"
                        )
                    return 1
        elif exp == "sharding":
            import json as _json

            cell = harness.run_sharding(
                num_vertices=args.vertices,
                ops=args.shard_ops,
                shards=args.shards,
                repeats=args.repeats,
                seed=args.seed,
            )
            print(render_sharding(cell))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(cell, fh, indent=2)
                print(f"wrote {args.json}")
            if not cell["ok"]:
                print("!! sharding: bit-identity or crash recovery failed")
                return 1
            if (args.assert_speedup is not None
                    and cell["speedup"] < args.assert_speedup):
                print(
                    f"!! sharding: process@{cell['shards']} speedup "
                    f"{cell['speedup']:.2f} < {args.assert_speedup}"
                )
                return 1
        elif exp == "queryplane":
            import json as _json

            cell = harness.run_queryplane(
                num_vertices=args.qp_vertices,
                queries=args.queries,
                update_rate=args.update_rate,
                readers=tuple(args.reader_counts),
                frame=args.frame,
                seed=args.seed,
                repeats=args.repeats,
                recovery=not args.no_recovery,
            )
            print(render_queryplane(cell))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(cell, fh, indent=2)
                print(f"wrote {args.json}")
            if not cell["ok"]:
                print("!! queryplane: bit-identity or recovery failed")
                return 1
            if (args.assert_speedup is not None
                    and cell["speedup"] < args.assert_speedup):
                print(
                    f"!! queryplane: {max(args.reader_counts)}-reader "
                    f"speedup {cell['speedup']:.2f} < {args.assert_speedup}"
                )
                return 1
        elif exp == "traffic":
            import json as _json

            from repro.traffic import SHAPES

            if args.traces:
                cells = [
                    harness.run_traffic(
                        "uniform",  # overridden by the trace header
                        trace_path=path,
                        seed=args.seed,
                        verify_boundaries=not args.no_boundary_verify,
                    )
                    for path in args.traces
                ]
            else:
                cells = [
                    harness.run_traffic(
                        shape,
                        ops=args.traffic_ops,
                        vertices=args.traffic_vertices,
                        seed=args.seed,
                        verify_boundaries=not args.no_boundary_verify,
                    )
                    for shape in (args.shapes or SHAPES)
                ]
            for cell in cells:
                print(f"\n--- {cell['shape']} ---")
                print(render_traffic(cell))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as fh:
                    _json.dump(cells, fh, indent=2)
                print(f"wrote {args.json}")
            bad = [c for c in cells if not c["ok"]]
            if bad:
                for c in bad:
                    print(
                        f"!! {c['shape']}: traffic run FAILED "
                        f"(invariant={c['invariant_ok']} "
                        f"deterministic={c['determinism_ok']} "
                        f"boundaries={c['boundaries_ok']} "
                        f"engine_mode={c['engine_mode_ok']})"
                    )
                return 1
            if args.assert_hit_rate is not None:
                slow = [
                    c for c in cells
                    if c["shape"] != "overload"
                    and c["slo"].get("update", {}).get("hit_rate", 1.0)
                    < args.assert_hit_rate
                ]
                if slow:
                    for c in slow:
                        print(
                            f"!! {c['shape']}: update hit-rate "
                            f"{c['slo']['update']['hit_rate']:.3f} "
                            f"< {args.assert_hit_rate}"
                        )
                    return 1
        elif exp == "fig7":
            out = harness.fig7_stability(
                args.datasets[:2],
                groups=4,
                batch_size=max(20, args.batch // 2),
                workers=max(args.workers),
                seed=args.seed,
            )
            for ds, algos in out.items():
                print(f"\n--- {ds} ---")
                for algo, cell in algos.items():
                    print(
                        f"{algo}: insert spread {cell['insert_rel_spread']:.2f} "
                        f"remove spread {cell['remove_rel_spread']:.2f}"
                    )
    return 0


def main(argv: List[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not args.profile:
        return _run(args)
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = _run(args)
    finally:
        prof.disable()
        print("\n=== profile (top 25 by cumulative time) ===")
        pstats.Stats(prof, stream=sys.stdout).sort_stats(
            "cumulative"
        ).print_stats(25)
    return rc


if __name__ == "__main__":
    sys.exit(main())
