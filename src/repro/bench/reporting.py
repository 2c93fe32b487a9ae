"""ASCII renderers for benchmark output (tables and log-scale series).

The benchmark suite prints paper-style rows with these helpers; the same
strings go into EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "render_table",
    "render_series",
    "render_histogram",
    "render_log_plot",
    "render_analysis_stats",
    "render_service_metrics",
    "render_chaos",
    "render_replication",
    "render_failover",
    "render_queryplane",
    "render_sharding",
    "render_traffic",
]


def render_table(rows: Sequence[Mapping], columns: Optional[List[str]] = None) -> str:
    """Render dict-rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    series: Mapping[str, Mapping],
    title: str = "",
    value_fmt: str = "{:.0f}",
) -> str:
    """Render ``{line_name: {x: y}}`` as a small text matrix (x across)."""
    xs = sorted({x for line in series.values() for x in line})
    header = [title.ljust(12)] + [str(x).rjust(10) for x in xs]
    lines = ["".join(header)]
    for name, line in series.items():
        row = [name.ljust(12)]
        for x in xs:
            v = line.get(x)
            row.append((value_fmt.format(v) if v is not None else "-").rjust(10))
        lines.append("".join(row))
    return "\n".join(lines)


def render_log_plot(
    series: Mapping[str, Mapping],
    height: int = 12,
    title: str = "",
) -> str:
    """Render ``{line: {x: y}}`` as an ASCII scatter with a log-10 y-axis —
    the shape of the paper's Figure 4 panels.  Each line gets a letter
    marker; collisions show ``*``."""
    pts = [
        (x, y) for line in series.values() for x, y in line.items() if y > 0
    ]
    if not pts:
        return "(no data)"
    xs = sorted({x for x, _ in pts})
    lo = math.log10(min(y for _, y in pts))
    hi = math.log10(max(y for _, y in pts))
    span = (hi - lo) or 1.0
    markers = {}
    for i, name in enumerate(series):
        markers[name] = chr(ord("A") + i % 26)
    col_w = 6
    grid = [[" "] * (len(xs) * col_w) for _ in range(height)]
    for name, line in series.items():
        for x, y in line.items():
            if y <= 0:
                continue
            row = height - 1 - int((math.log10(y) - lo) / span * (height - 1))
            col = xs.index(x) * col_w + col_w // 2
            cell = grid[row][col]
            grid[row][col] = markers[name] if cell == " " else "*"
    lines = [title] if title else []
    for r, row in enumerate(grid):
        frac = 1 - r / (height - 1) if height > 1 else 1.0
        ylab = 10 ** (lo + frac * span)
        lines.append(f"{ylab:>10.0f} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * (len(xs) * col_w))
    lines.append(
        " " * 12 + "".join(str(x).center(col_w) for x in xs) + "   (workers)"
    )
    legend = "  ".join(f"{m}={name}" for name, m in markers.items())
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def render_analysis_stats(cells: Sequence[Mapping]) -> str:
    """Render the race-detector counters of benchmark cells run with
    ``trace_races=True`` (see :func:`repro.bench.harness.run_remove_insert`).

    One row per cell: races found (0 is the expected steady state),
    accesses traced and how many were annotated relaxed, plus the
    synchronization-event count the happens-before clocks were built
    from.  Cells without an ``analysis`` key are skipped."""
    rows = []
    for cell in cells:
        a = cell.get("analysis")
        if a is None:
            continue
        rows.append(
            {
                "dataset": cell.get("dataset", "?"),
                "P": cell.get("workers", "?"),
                "races": a["races"],
                "accesses": a["accesses_traced"],
                "relaxed": a["relaxed_accesses"],
                "sync_ops": a["sync_ops"],
                "locations": a["locations"],
            }
        )
    if not rows:
        return "(no analysis data — run with trace_races=True)"
    return render_table(rows)


def render_service_metrics(metrics: Mapping, max_epochs: int = 8) -> str:
    """Render the serving engine's metrics dict (see
    ``repro.service.metrics``) as the paper-style text block the
    ``service`` bench experiment and ``repro-serve`` print.

    Shows the service clock with its unit (``clock_unit``), the request
    accounting (with the quiescence invariant spelled out), cut-reason
    counters, queue depths, latency percentiles per request class, the
    folded batch-report totals, and the head of the per-epoch commit
    log."""
    c = metrics["counters"]
    unit = metrics["clock_unit"]
    lines = [
        f"service clock {metrics['now']:.0f} ({unit} units)  "
        f"epochs {metrics['epoch']}",
        (
            f"admitted {c['admitted']} == committed {c['committed']} "
            f"+ quarantined {c['quarantined']} + timed_out {c['timed_out']} "
            f"+ abandoned {c.get('abandoned', 0)} "
            f"(in flight {c['in_flight']}, rejected {c['rejected']})"
        ),
        (
            f"updates committed {c['committed_updates']}  "
            f"queries answered {c['committed_queries']}  "
            f"coalesced {c['coalesced']}  cancelled {c['cancelled']}"
        ),
        "cuts: " + "  ".join(f"{k}={v}" for k, v in metrics["cuts"].items()),
        (
            f"queue: pending {metrics['queues']['pending_depth']}  "
            f"max {metrics['queues']['max_pending_depth']}  "
            f"capacity {metrics['queues']['ingress_capacity']}"
        ),
    ]
    for cls in ("update", "query"):
        lat = metrics["latency"][cls]
        lines.append(
            f"{cls} latency ({unit} units): n={lat['count']} mean={lat['mean']:.1f} "
            f"p50={lat['p50']:.1f} p90={lat['p90']:.1f} p99={lat['p99']:.1f} "
            f"max={lat['max']:.1f}"
        )
    sim = metrics["sim"]
    lines.append(
        f"sim: batches={sim['batches']} makespan={sim['makespan']:.0f} "
        f"work={sim['total_work']:.0f} spin={sim['spin_time']:.0f}"
    )
    flt = metrics.get("faults")
    if flt and any(flt.values()):
        lines.append(
            "faults: "
            + "  ".join(f"{k}={v}" for k, v in flt.items() if v)
        )
    epochs = metrics.get("epochs", [])
    if epochs:
        rows = [
            {
                "epoch": e["epoch"],
                "kind": e["kind"],
                "batch": e["batch_size"],
                "makespan": f"{e['makespan']:.0f}",
                "p50": f"{e['latency']['p50']:.0f}",
                "p99": f"{e['latency']['p99']:.0f}",
            }
            for e in epochs[:max_epochs]
        ]
        lines.append(render_table(rows))
        if len(epochs) > max_epochs:
            lines.append(f"... and {len(epochs) - max_epochs} more epochs")
    return "\n".join(lines)


def render_chaos(cell: Mapping) -> str:
    """Render one ``run_chaos`` cell (see ``repro.bench.harness``): the
    fault schedule, the recovery verdicts, and the engine metrics block."""
    spec = cell["spec"]
    f = cell["faults"]
    verdict = "RECOVERED" if cell["ok"] else "DIVERGED"
    lines = [
        (
            f"{cell['dataset']}: {cell['ops']} ops, seed {cell['seed']}, "
            f"{cell['restarts']} restart(s), "
            f"crash/stall rates {spec['crash_rate']}/{spec['stall_rate']}"
            f" (budget {spec['max_crashes']})"
        ),
        (
            f"injected: crashes={f['crashes']} stalls={f['stalls_injected']}"
            f"  crashed_batches={f['crashed_batches']} "
            f"recoveries={f['recoveries']} retries={f['retries']}"
        ),
        (
            f"verdict: {verdict}  cores==clean {cell['recovered_ok']}  "
            f"cores==oracle {cell['oracle_ok']}  "
            f"query mismatches {cell['query_mismatches']}  "
            f"invariant {cell['invariant_ok']}  "
            f"deterministic {cell['determinism_ok']}"
        ),
        (
            f"journal: {cell['journal_records']} records "
            f"sha256 {cell['journal_digest'][:16]}  "
            f"schedule sha256 {(cell['schedule_digest'] or '')[:16]}"
        ),
        render_service_metrics(cell["metrics"], max_epochs=4),
    ]
    return "\n".join(lines)


def render_replication(repl: Mapping) -> str:
    """Render a :meth:`ReplicaSet.metrics
    <repro.replication.replicaset.ReplicaSet.metrics>` dict: topology
    state, shipping totals, the promotion log, and one row per replica
    (lag in records, applied epoch, generation)."""
    lines = [
        (
            f"replication: generation {repl['generation']}  "
            f"primary {'alive' if repl['primary_alive'] else 'DEAD'}  "
            f"crashes {repl['primary_crashes']}  "
            f"promotions {repl['promotions']}"
        ),
        (
            f"shipping: {repl['records_shipped']} records shipped  "
            f"{repl['records_replayed']} replayed  "
            f"{repl['submitted_updates']} updates submitted"
        ),
    ]
    for p in repl["promotion_log"]:
        lines.append(
            f"  promoted replica {p['replica']} -> generation "
            f"{p['generation']} at epoch {p['epoch']} "
            f"(prefix {p['prefix_records']} records, caught up "
            f"{p['catchup_records']}, truncated {p['truncated_records']}, "
            f"{p['wall_s'] * 1000:.1f} ms)"
        )
    rows = [
        {
            "replica": r["replica"],
            "lag": r["lag_records"],
            "epoch": r["epoch"],
            "gen": r["generation"],
            "applied": r["applied"],
            "queries": r["queries_served"],
            "shipped": r["shipper"]["records_shipped"],
        }
        for r in repl["replicas"]
    ]
    if rows:
        lines.append(render_table(rows))
    else:
        lines.append("(no followers left)")
    return "\n".join(lines)


def render_failover(cell: Mapping) -> str:
    """Render one ``run_failover`` cell (see ``repro.bench.harness``):
    the crash schedule, the loss/divergence verdicts, RTO stats, and the
    replication metrics block."""
    v = cell["verdicts"]
    verdict = "SURVIVED" if cell["ok"] else "FAILED"
    lines = [
        (
            f"{cell['dataset']}: {cell['ops']} ops, seed {cell['seed']}, "
            f"{cell['replicas']} replicas, ship-lag {cell['ship_lag']}, "
            f"primary crash rate {cell['primary_crash_rate']} "
            f"(budget {cell['primary_crash_budget']})"
        ),
        (
            f"verdict: {verdict}  committed-op loss "
            f"{cell['committed_op_loss']}  divergence violations "
            f"{cell['divergence_violations']}  "
            f"stale answers {cell['stale_answers']}/"
            f"{cell['replica_queries']}  max lag {cell['max_lag_records']}"
        ),
        (
            f"checks: zero-loss {v['zero_loss']}  "
            f"divergence-bounded {v['divergence_bounded']}  "
            f"promotions-verified {v['promotions_verified']}  "
            f"final-state {v['final_state_ok']}  "
            f"deterministic {v['determinism_ok']}"
        ),
        (
            f"failover: {cell['primary_crashes']} crash(es), "
            f"{cell['promotions']} promotion(s), RTO "
            + (
                f"median {cell['rto']['median_ms']:.1f} ms / "
                f"max {cell['rto']['max_ms']:.1f} ms, catch-up "
                f"median {cell['rto']['median_catchup_records']} records"
                if cell["promotions"]
                else "n/a"
            )
        ),
        (
            f"journal: {cell['journal_records']} records "
            f"sha256 {cell['journal_digest'][:16]}  "
            f"crash schedule sha256 {(cell['schedule_digest'] or '')[:16]}"
        ),
        render_replication(cell["replication"]),
    ]
    return "\n".join(lines)


def render_sharding(cell: Mapping) -> str:
    """Render one ``run_sharding`` cell (see ``repro.bench.harness``):
    the scale-out wall-clock comparisons (final read only, then
    interleaved reads), the bit-identity verdict, and one line per
    exercised 2PC crash window."""
    verdict = "OK" if cell["ok"] else "FAILED"
    lines = [
        (
            f"sharding: {cell['ops']} ops over {cell['num_vertices']} "
            f"vertices ({cell['cross_ops']} cross-shard), "
            f"{cell['shards']} shards, seed {cell['seed']}"
        ),
        (
            f"wall-clock (best of {cell['repeats']}): "
            f"direct monolith {cell['mono_wall_s']:.3f} s  "
            f"process sharded {cell['shard_wall_s']:.3f} s  "
            f"-> {cell['speedup']:.2f}x"
        ),
        (
            f"with a full core-map read every {cell['read_every']} ops: "
            f"direct monolith {cell['mono_interleaved_wall_s']:.3f} s  "
            f"process sharded {cell['shard_interleaved_wall_s']:.3f} s  "
            f"-> {cell['speedup_interleaved']:.2f}x"
        ),
        (
            f"verdict: {verdict}  bit-identical {cell['bit_identical']}  "
            f"crash windows exercised {cell['crash_windows_exercised']}"
        ),
    ]
    for name, r in sorted(cell["crash_recoveries"].items()):
        lines.append(
            f"  {name}: crashed {r['crashed']}  "
            f"resolutions {r['resolutions']}  identical {r['identical']}"
        )
    return "\n".join(lines)


def render_queryplane(cell: Mapping) -> str:
    """Render one ``run_queryplane`` cell (see ``repro.bench.harness``):
    the in-engine baseline, one line per reader-pool size, and the
    bit-identity / recovery verdicts."""
    verdict = "OK" if cell["ok"] else "FAILED"
    lines = [
        (
            f"queryplane: {cell['queries']} queries / {cell['updates']} "
            f"updates over {cell['num_vertices']} vertices "
            f"(rate {cell['update_rate']}, frame {cell['frame']}, "
            f"seed {cell['seed']})"
        ),
        (
            f"in-engine baseline (best of {cell.get('repeats', 1)} per "
            f"phase): {cell['engine_wall_s']:.3f} s  "
            f"{cell['engine_qps']:,.0f} q/s"
        ),
    ]
    for n in sorted(cell["readers"]):
        r = cell["readers"][n]
        lines.append(
            f"  {n} reader(s): {r['wall_s']:.3f} s  {r['qps']:,.0f} q/s  "
            f"-> {r['speedup']:.2f}x  ({r['samples']} samples verified)"
        )
    rec = cell["recovery"]
    if rec.get("ran"):
        lines.append(
            f"recovery: min_epoch {rec['min_epoch']}  "
            f"truncated {rec['truncated']}  "
            f"bit-identical {rec['bit_identical']}  "
            f"refused-below-min {rec['refused_below_min']}"
        )
    lines.append(
        f"verdict: {verdict}  bit-identical {cell['bit_identical']}  "
        f"headline speedup {cell['speedup']:.2f}x"
    )
    return "\n".join(lines)


def render_traffic(cell: Mapping) -> str:
    """Render one ``run_traffic`` cell (see ``repro.bench.harness``): the
    trace identity, per-class SLO attainment (p50/p99 user-perceived
    latency and deadline hit-rate), the sliding-window counters, and the
    determinism / boundary-oracle verdicts."""
    verdict = "OK" if cell["ok"] else "FAILED"
    c = cell["counters"]
    lines = [
        (
            f"{cell['shape']}: {cell['records']} records over "
            f"{cell['vertices']} vertices, window {cell['window']:.0f}, "
            f"seed {cell['seed']}  trace sha256 {cell['trace_digest'][:16]}"
        ),
        (
            f"admitted {c['admitted']} == committed {c['committed']} "
            f"+ quarantined {c['quarantined']} + timed_out {c['timed_out']} "
            f"+ abandoned {c.get('abandoned', 0)} "
            f"(rejected {c['rejected']}, coalesced {c['coalesced']})"
        ),
    ]
    for cls in ("update", "query"):
        s = cell["slo"].get(cls)
        if s is None or s["count"] == 0:
            continue
        lat = s["latency"]
        lines.append(
            f"{cls}: n={s['count']} hit-rate {s['hit_rate']:.3f} "
            f"(budget {s['budget']})  "
            f"p50={lat['p50']:.0f} p99={lat['p99']:.0f} max={lat['max']:.0f}  "
            f"late={s['late']} rejected={s['rejected']} "
            f"timed_out={s['timed_out']} abandoned={s['abandoned']}"
        )
    w = cell.get("window_metrics") or {}
    if w:
        lines.append(
            f"window: scheduled={w.get('scheduled', 0)} "
            f"fired={w.get('fired', 0)} rebuffered={w.get('rebuffered', 0)} "
            f"armed={w.get('armed', 0)}  expiry {cell['expiry']}"
        )
    nb = len(cell.get("boundaries", ()))
    lines.append(
        f"verdict: {verdict}  invariant {cell['invariant_ok']}  "
        f"deterministic {cell['determinism_ok']}  "
        f"boundaries {cell['boundaries_ok']} ({nb} checked)  "
        f"engine-mode==model-mode {cell['engine_mode_ok']}"
    )
    return "\n".join(lines)


def render_histogram(
    hist: Mapping[int, int], width: int = 40, log: bool = True
) -> str:
    """Render ``{bucket: count}`` as horizontal ASCII bars."""
    if not hist:
        return "(empty)"
    max_count = max(hist.values())
    scale = (math.log1p(max_count) if log else max_count) or 1
    lines = []
    for k in sorted(hist):
        v = hist[k]
        mag = math.log1p(v) if log else v
        bar = "#" * max(1, int(width * mag / scale)) if v else ""
        lines.append(f"{k:>6}  {v:>8}  {bar}")
    return "\n".join(lines)
