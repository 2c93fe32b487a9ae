"""Differential: the same trace *file* replayed on a direct monolith and
on the process-sharded backend must converge — identical final cores,
pinned journal digests and digest-stable double runs.  The committed
batches of each bundled trace's journal, fed to the simulated OurI/OurR
and to the direct OI/OR kernel, give equal cores after every batch.
Replays are lossless (no SLO deadlines): deadline drops are
timing-dependent by design, so they are exactly what a bit-identity
check must exclude."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.maintainer import DirectOrderMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service import Engine, EngineConfig
from repro.service.engine import apply_batch
from repro.service.sharding import ShardedEngine
from repro.traffic import Trace, generate_trace, replay
from repro.traffic.driver import cores_digest

LOSSLESS = {"update": None, "query": None}

TRACES = Path(__file__).resolve().parent.parent / "examples" / "traces"
BUNDLED = sorted(p.name for p in TRACES.glob("*.jsonl"))

#: journal digests of the lossless direct replays of the bundled traces
#: (cut points do not depend on the clock here: ``max_delay=None``)
BUNDLED_JOURNAL_DIGESTS = {
    "diurnal.jsonl":
        "d602ac71fdce2112c79a2207196a4fad871c436b079dabc4aaf59bab947f53f0",
    "flash.jsonl":
        "a00465afe6d971a792ec7a9761b89875c78fc24b6d37f79b1c98900730914129",
    "overload.jsonl":
        "1b2c4d2b7954cae60e7844d53a49ad5a8f879739a3eb015de0cd9ab558560366",
    "uniform.jsonl":
        "258cda8cbff86ab72cd6656cf81995750074995f2aca52314b0549dfa5b7145f",
}

#: the direct kernel's OM order after an engine-mode replay of the bundled
#: uniform trace with checkpoints every 8 epochs, and the journal those
#: checkpoints land in.  The sequential OI/OR breaks order ties unlike the
#: simulated OurI/OurR (same cores, different order), so these pin the
#: direct kernel's tie-breaking.
DIRECT_ORDER_DIGEST = (
    "7e404fb3904a56641e8e05c03f7bdf878dfde1f40f03616c09a20bacf69f0d0f")
DIRECT_CHECKPOINTED_JOURNAL_DIGEST = (
    "98948749405214fdcae9439da62ed988d77eff48a606080340f3dbfc668a92ec")


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    tr = generate_trace("diurnal", ops=220, vertices=40, seed=13,
                        window=9000.0)
    path = tmp_path_factory.mktemp("traces") / "diurnal.jsonl"
    digest = tr.save(path)
    return path, digest


def replay_monolith(path, mode="model"):
    """Lossless replay on a direct monolith; returns the report and the
    (closed) engine."""
    trace = Trace.load(path)
    cfg = dict(max_batch=8, max_delay=None, seed=13)
    if mode == "engine":
        cfg["window"] = trace.header.window
    eng = Engine(DynamicGraph(), EngineConfig(**cfg))
    with eng:
        return replay(eng, trace, mode=mode, slo=LOSSLESS), eng


def test_trace_digest_matches_file(trace_file):
    path, digest = trace_file
    assert Trace.load(path).digest() == digest


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_trace_direct_matches_sim(name):
    """Kernel-level differential: the direct engine's committed batches,
    replayed from its journal on the simulated OurI/OurR and on the
    direct OI/OR, give equal cores after every batch."""
    path = TRACES / name
    (rep, eng), (again, _) = replay_monolith(path), replay_monolith(path)
    assert rep.invariant_ok and again.invariant_ok
    assert rep.cores_digest == again.cores_digest
    assert rep.journal_digest == again.journal_digest
    assert rep.journal_digest == BUNDLED_JOURNAL_DIGESTS[name]
    journal = eng.journal.replay()
    assert journal.committed
    kernels = [cls(DynamicGraph(list(journal.initial_edges)))
               for cls in (ParallelOrderMaintainer, DirectOrderMaintainer)]
    for batch in journal.committed:
        for m in kernels:
            apply_batch(m, batch.kind, list(batch.edges))
        assert kernels[0].cores() == kernels[1].cores(), batch.epoch
    assert kernels[1].cores() == eng.cores()


def checkpointed_replay():
    trace = Trace.load(TRACES / "uniform.jsonl")
    eng = Engine(DynamicGraph(), EngineConfig(
        max_batch=8, max_delay=None, seed=13,
        window=trace.header.window, checkpoint_every=8))
    with eng:
        rep = replay(eng, trace, mode="engine", slo=LOSSLESS)
    order = json.dumps(eng.maintainer.order_sequence()).encode()
    return rep, hashlib.sha256(order).hexdigest()


def test_checkpointed_direct_replay_pins_om_order():
    direct, order = checkpointed_replay()
    again, order_again = checkpointed_replay()
    assert order == order_again == DIRECT_ORDER_DIGEST
    assert direct.journal_digest == again.journal_digest
    assert direct.journal_digest == DIRECT_CHECKPOINTED_JOURNAL_DIGEST


def test_double_run_digest_stable_per_backend(trace_file):
    path, digest = trace_file
    (a, _), (b, _) = replay_monolith(path), replay_monolith(path)
    assert a.trace_digest == b.trace_digest == digest
    assert a.cores_digest == b.cores_digest
    assert a.journal_digest == b.journal_digest


def test_engine_mode_matches_model_mode(trace_file):
    path, _ = trace_file
    model, _ = replay_monolith(path, mode="model")
    engine, _ = replay_monolith(path, mode="engine")
    assert engine.final_cores == model.final_cores
    assert engine.cores_digest == model.cores_digest


def test_process_sharded_matches_monolith(trace_file):
    path, digest = trace_file
    mono, _ = replay_monolith(path)

    def sharded_run():
        trace = Trace.load(path)
        eng = ShardedEngine(DynamicGraph(), EngineConfig(
            shards=2, backend="process", max_batch=8, max_delay=None,
            seed=13))
        with eng:
            return replay(eng, trace, mode="model", slo=LOSSLESS)

    a = sharded_run()
    b = sharded_run()
    assert a.invariant_ok
    assert a.trace_digest == digest
    assert a.final_cores == mono.final_cores
    assert cores_digest(a.final_cores) == mono.cores_digest
    assert a.cores_digest == b.cores_digest  # double-run stability


def test_mode_guards():
    tr = generate_trace("uniform", ops=20, vertices=10, seed=1)
    eng = Engine(DynamicGraph(), EngineConfig(max_batch=4))
    with pytest.raises(ValueError, match="window"):
        replay(eng, tr, mode="engine")  # engine mode needs config.window
    weng = Engine(DynamicGraph(), EngineConfig(max_batch=4,
                                               window=tr.header.window))
    with pytest.raises(ValueError, match="double-remove"):
        replay(weng, tr, mode="model")  # model mode would double-remove
    with pytest.raises(ValueError, match="unknown replay mode"):
        replay(eng, tr, mode="magic")
