"""Tests of the benchmark's own code, at a tiny scale.

    python3 -m pytest perfbench/tests
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import client, tracing  # noqa: E402
from perfbench.workloads import NAMES, build  # noqa: E402
from repro.service.snapshots import SnapshotView  # noqa: E402

VIEW_METHODS = tracing.POINT_QUERY_METHODS + tracing.AGG_QUERY_METHODS

SCALE = 0.03


@pytest.fixture(scope="module", params=NAMES)
def workload(request):
    return build(request.param, seed=5, scale=SCALE)


def test_tiny_run_passes_every_check(workload, tmp_path):
    rep = client.run_rep(workload, str(tmp_path), client.Reference(workload))
    assert rep.verdicts and rep.ok, rep.verdicts
    assert rep.failed == 0
    assert rep.attempted == sum(
        1 for op in workload.ops if op[0] in ("+", "-", "q"))
    assert len(rep.point_lat) == workload.op_counts()["point_reads"]
    assert rep.update_lat and rep.replay_s > 0


def test_flipped_core_value_fails_the_check(workload, tmp_path):
    pick = random.Random(11)

    def flip(cores):
        u = pick.choice(sorted(cores))
        cores[u] += 1

    rep = client.run_rep(workload, str(tmp_path), client.Reference(workload),
                         mutate=flip)
    assert rep.verdicts["cores_match"] is False
    assert not rep.ok


def test_tracing_leaves_cores_and_journal_unchanged(workload, tmp_path):
    ref = client.Reference(workload)
    originals = {m: vars(SnapshotView)[m] for m in VIEW_METHODS}
    plain = client.run_rep(workload, str(tmp_path), ref)
    traced = client.run_rep(workload, str(tmp_path), ref, traced=True)
    assert traced.ok
    assert traced.cores_digest == plain.cores_digest
    assert traced.journal_digest == plain.journal_digest
    # the wrappers saw the kernel and the class-level query wraps were
    # taken off again
    assert traced.tracer.kernel["edges"] > 0
    assert "kernel.insert" in traced.tracer.total
    assert {m: vars(SnapshotView)[m] for m in VIEW_METHODS} == originals


def test_restore_takes_every_instance_wrapper_off(workload, tmp_path):
    eng, publisher, _ = client.setup(workload, str(tmp_path))
    try:
        engines = ([sh.engine for sh in eng.shards] if workload.sharded
                   else [eng])
        layers = [eng, *eng.shards] if workload.sharded else []
        for e in engines:
            layers += [e, e.batcher, e.maintainer, e.maintainer.policy,
                       e.journal, e.snapshots, e.metrics_collector]
        if publisher is not None:
            layers.append(publisher)
        layers.append(SnapshotView)
        before = [dict(vars(obj)) for obj in layers]
        tracer = tracing.Tracer()
        if workload.sharded:
            tracer.instrument_sharded(eng)
        else:
            tracer.instrument_engine(eng, publisher)
        changed = [obj for obj, b in zip(layers, before) if dict(vars(obj)) != b]
        assert SnapshotView in changed
        assert all(e.maintainer in changed for e in engines)
        tracer.restore()
        assert [dict(vars(obj)) for obj in layers] == before
    finally:
        client.close(eng, publisher)


def test_same_seed_same_inputs():
    a = build("churn", seed=3, scale=SCALE)
    b = build("churn", seed=3, scale=SCALE)
    c = build("churn", seed=4, scale=SCALE)
    assert a.digest == b.digest and a.ops == b.ops
    assert a.digest != c.digest
    d = build("churn", seed=3, scale=SCALE, instance=1)
    assert d.digest == build("churn", seed=3, scale=SCALE, instance=1).digest
    assert d.digest not in (a.digest, c.digest)
