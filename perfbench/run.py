"""Wall-clock serving benchmark.

    python3 perfbench/run.py --workload window --seed 1 --seconds 40 --trace 0

Replays one seeded workload through the public serving surface from a
single in-process closed-loop client, on the ``sim`` backend in one
thread.  A run makes a fixed number of repetitions (fresh set-up, full
replay, check): ``--seconds`` divided by the workload's nominal cost of
one, so the count does not depend on how fast the program is.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from
the traced ones (see ``perfbench/layers.json`` for what each should move).
Every repetition is checked outside its timed window; a failed check
makes the command exit 1.

The last line of standard output is the result object; the line before
it, prefixed ``REPORT``, holds provenance, input digests, sample counts
and every check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.service.metrics import percentile  # noqa: E402
from repro.traffic.driver import cores_digest  # noqa: E402

from perfbench import client  # noqa: E402
from perfbench.workloads import NAMES, build  # noqa: E402

#: a p99 is reported only when at least this many samples lie beyond it
TAIL_SAMPLES = 10
#: wall seconds after which no further repetition starts, whatever the
#: count, so that a much slower program still ends within its time limit
HARD_STOP_S = 110.0


def quantile(samples, p: float, scale: float):
    """Nearest-rank ``p``-th percentile times ``scale`` with its sample
    count; ``None`` when fewer than :data:`TAIL_SAMPLES` lie beyond it."""
    n = len(samples)
    if n == 0 or n - math.ceil(p / 100.0 * n) < (TAIL_SAMPLES if p > 50 else 0):
        return None, n
    return percentile(sorted(samples), p) * scale, n


def metric(value, unit: str, n=None) -> dict:
    rec = {"value": value, "unit": unit}
    if n is not None:
        rec["n"] = n
    return rec


# ----------------------------------------------------------------------
# end-to-end metrics (untraced repetitions only)
# ----------------------------------------------------------------------
#: (metric prefix, Rep attribute, unit, scale from seconds)
LATENCIES = (
    ("update", "update_lat", "ms", 1e3),
    ("read", "point_lat", "us", 1e6),
    ("agg_read", "agg_lat", "us", 1e6),
)


def rep_metrics(rep) -> dict:
    """One repetition's throughput and latency percentiles."""
    out = {"update_ops_per_s": metric(rep.committed_updates / rep.replay_s,
                                      "ops/s", rep.committed_updates)}
    for prefix, attr, unit, scale in LATENCIES:
        for p in (50, 99):
            value, n = quantile(getattr(rep, attr), p, scale)
            if value is not None:
                out[f"{prefix}_p{p}_{unit}"] = metric(value, unit, n)
    return out


def end_to_end(reps) -> tuple:
    """The end-to-end metrics, and every repetition's own values.

    Each timing is taken from the least-disturbed repetition (highest
    throughput, lowest latency percentile): on a shared host the machine
    slows by up to half for stretches of seconds, and the best of a fixed
    number of repetitions is far steadier run to run than their median.
    """
    setups = [s for r in reps for s in r.setup_s]
    per_rep = [r.summary for r in reps]
    out = {"setup_s": metric(statistics.median(setups), "s", len(setups))}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep if name in m]
        pick = max if name == "update_ops_per_s" else min
        out[name] = pick(values, key=lambda rec: rec["value"])
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return out, per_rep


# ----------------------------------------------------------------------
# per-layer metrics (traced repetitions)
# ----------------------------------------------------------------------
def per_layer(traced, untraced, seq_ref_s: float) -> dict:
    def mean(f):
        return statistics.fmean(f(r) for r in traced)

    def total(name):
        return mean(lambda r: r.tracer.total.get(name, 0.0))

    counts = traced[0].layer_counts
    kern = traced[0].tracer.kernel
    wall = statistics.median(r.replay_s for r in traced)
    epochs = counts["epochs"]
    updates = traced[0].committed_updates
    kernel_s = total("kernel.insert") + total("kernel.remove")
    journal_s = sum(total(n) for n in traced[0].tracer.total
                    if n.startswith("journal."))
    answer = statistics.median(quantile(r.answer_lat, 50, 1e6)[0]
                               for r in traced)
    per_epoch = lambda s: s / epochs * 1e6 if epochs else 0.0  # noqa: E731
    return {
        "engine.self_s": metric(mean(lambda r: r.tracer.self_time.get("engine", 0.0)), "s"),
        "engine.calls_n": metric(traced[0].tracer.calls.get("engine", 0), "count"),
        "engine.epochs_n": metric(epochs, "count"),
        "batcher.classify_s": metric(total("batcher.classify"), "s"),
        "batcher.cut_s": metric(total("batcher.cut"), "s"),
        "batcher.cuts_size_n": metric(counts["cuts_size"], "count"),
        "batcher.cuts_conflict_n": metric(counts["cuts_conflict"], "count"),
        "batcher.cuts_pressure_n": metric(counts["cuts_pressure"], "count"),
        "batcher.cuts_time_n": metric(counts["cuts_time"], "count"),
        "batcher.edges_per_epoch": metric(kern["edges"] / epochs if epochs else 0.0, "edges"),
        "batcher.coalesced_n": metric(counts["coalesced"], "count"),
        "batcher.cancelled_n": metric(counts["cancelled"], "count"),
        "kernel.insert_s": metric(total("kernel.insert"), "s"),
        "kernel.remove_s": metric(total("kernel.remove"), "s"),
        "kernel.edges_n": metric(kern["edges"], "count"),
        "kernel.us_per_edge": metric(kernel_s / kern["edges"] * 1e6 if kern["edges"] else 0.0, "us"),
        "kernel.vplus_n": metric(kern["vplus"], "count"),
        "kernel.vstar_n": metric(kern["vstar"], "count"),
        "kernel.vstar_per_vplus": metric(kern["vstar"] / kern["vplus"] if kern["vplus"] else 0.0, "ratio"),
        "kernel.lock_failures_n": metric(kern["lock_failures"], "count"),
        "kernel.total_work_sim": metric(kern["total_work_sim"], "sim"),
        "kernel.makespan_sim": metric(kern["makespan_sim"], "sim"),
        "kernel.share": metric(kernel_s / wall, "fraction"),
        "scheduling.plan_s": metric(total("scheduling.plan"), "s"),
        "core.seq_ref_s": metric(seq_ref_s, "s"),
        "journal.intent_s": metric(total("journal.intent"), "s"),
        "journal.commit_s": metric(total("journal.commit"), "s"),
        "journal.checkpoint_s": metric(total("journal.checkpoint"), "s"),
        "journal.records_n": metric(counts["journal_records"], "count"),
        "journal.bytes_per_update": metric(counts["journal_bytes"] / updates if updates else 0.0, "B"),
        "journal.share": metric(journal_s / wall, "fraction"),
        "snapshots.commit_s": metric(total("snapshots.commit"), "s"),
        "snapshots.commit_us_per_epoch": metric(per_epoch(total("snapshots.commit")), "us"),
        "snapshots.commit_share": metric(total("snapshots.commit") / wall, "fraction"),
        "snapshots.view_s": metric(total("snapshots.view"), "s"),
        "snapshots.point_query_s": metric(total("snapshots.point_query"), "s"),
        "snapshots.agg_query_s": metric(total("snapshots.agg_query"), "s"),
        "queryplane.publish_s": metric(total("queryplane.publish"), "s"),
        "queryplane.publish_us_per_epoch": metric(per_epoch(total("queryplane.publish")), "us"),
        "queryplane.answer_p50_us": metric(answer, "us"),
        "metrics.record_epoch_s": metric(total("metrics.record_epoch"), "s"),
        "metrics.retained_n": metric(counts["retained"], "count"),
        "window.advance_s": metric(mean(lambda r: r.tracer.tagged.get("window.advance", 0.0)), "s"),
        "window.fired_n": metric(counts["window_fired"], "count"),
        "sharding.cross_frac": metric(counts["cross_frac"], "fraction"),
        "sharding.prepare_s": metric(total("sharding.prepare"), "s"),
        "sharding.commit_group_s": metric(total("sharding.commit_group"), "s"),
        "sharding.shard_submit_s": metric(total("sharding.shard_submit"), "s"),
        "sharding.stitch_s": metric(total("sharding.stitch"), "s"),
        "trace.replay_s": metric(wall, "s"),
        "trace.overhead_frac": metric(
            wall / statistics.median(r.replay_s for r in untraced) - 1.0, "fraction"),
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over every file of the program under ``src/``."""
    import hashlib

    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode("utf-8"))
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(variants, args) -> dict:
    w = variants[0]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": w.name,
        "inputs_sha256": [v.digest for v in variants],
        "engine_config": w.config,
        "workload_params": w.params,
        "op_counts": w.op_counts(),
    }


# ----------------------------------------------------------------------
def repetitions(w, args) -> int:
    """Rounds for this run: fixed by ``--seconds`` and the workload, not by
    the program's speed.  A traced round is an untraced repetition plus a
    traced one, which costs about three untraced ones."""
    n = args.seconds / w.rep_seconds
    return max(1, round(n / 3 if args.trace else n))


def measure(variants, args, workdir: str):
    """Run the fixed number of rounds, round ``i`` on input instance
    ``i mod len(variants)``; stop early only if the program is so slow that
    the next round would run past :data:`HARD_STOP_S`."""
    refs = [client.Reference(v) for v in variants]
    pattern = (False, True) if args.trace else (False,)
    reps = []
    start = time.perf_counter()
    for i in range(repetitions(variants[0], args)):
        k = i % len(variants)
        t0 = time.perf_counter()
        for traced in pattern:
            rep = client.run_rep(variants[k], workdir, refs[k], traced=traced)
            rep.summary = rep_metrics(rep)
            rep.drop_samples()
            reps.append(rep)
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle > HARD_STOP_S:
            break
        gc.collect()
    return reps


def declared(trace: int) -> list:
    """The metrics ``BENCHMARK.json`` declares for this mode; the others
    (such as ``failed_op_frac`` and the seed-sensitive p99s it leaves
    unbounded) appear only in ``REPORT`` and the human-readable lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def pin_to_one_cpu() -> None:
    """Keep the run on the lowest allowed CPU: on a small shared host the
    scheduler otherwise migrates it between CPUs of different speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process, if one started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    w = build(args.workload, args.seed)
    variants = [w] + [build(args.workload, args.seed, instance=k)
                      for k in range(1, min(w.instances, repetitions(w, args)))]
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of every collection
    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        t0 = time.perf_counter()
        reps = measure(variants, args, workdir)
        measure_s = time.perf_counter() - t0
        extra, per_rep = {}, None
        untraced = [r for r in reps if r.tracer is None]
        traced = [r for r in reps if r.tracer is not None]
        if args.trace:
            seq_s, seq_cores = client.seq_reference(w)
            # each round is an untraced and a traced repetition of one instance
            extra = {
                "traced_equals_untraced": all(
                    (a.cores_digest, a.journal_digest)
                    == (b.cores_digest, b.journal_digest)
                    for a, b in zip(reps[::2], reps[1::2])),
                "seq_ref_matches":
                    cores_digest(seq_cores) == reps[0].cores_digest,
            }
            metrics = per_layer(traced, untraced, seq_s)
        else:
            metrics, per_rep = end_to_end(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.attempted if not r.ok else r.failed for r in reps)
    verdicts = {k: all(r.verdicts[k] for r in reps) for k in reps[0].verdicts}
    verdicts.update(extra)
    correct = all(verdicts.values())
    report = {
        "provenance": provenance(variants, args),
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "replay_s": [r.replay_s for r in reps],
        "measure_s": measure_s,
        "verdicts": verdicts,
        "unknown_vertex_reads": sum(r.unknown_vertex for r in reps),
        "failed_op_frac": metric(failed / attempted, "fraction"),
        "metrics": metrics,
        "per_repetition": per_rep,
    }
    width = max(len(k) for k in metrics)
    for name, rec in metrics.items():
        n = f"  (n={rec['n']})" if "n" in rec else ""
        print(f"{name:<{width}}  {rec['value']:>14.6g} {rec['unit']}{n}")
    print(f"{'failed_op_frac':<{width}}  {failed / attempted:>14.6g} fraction")
    print(f"verdict: {'correct' if correct else 'FAILED'} {verdicts}")
    print("REPORT " + json.dumps(report, sort_keys=True, default=repr))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in declared(args.trace) if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
