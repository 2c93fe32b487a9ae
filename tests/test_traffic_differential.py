"""Differential: the same trace *file* replayed on the direct and sim
monolith backends and on the process-sharded backend must converge —
identical final cores everywhere, byte-identical journal digests where
there is a single journal to compare, and digest-stable double runs.
Replays are lossless (no SLO deadlines): deadline drops are
backend-timing-dependent by design, so they are exactly what a
bit-identity check must exclude."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.graph.dynamic_graph import DynamicGraph
from repro.service import Engine, EngineConfig
from repro.service.sharding import ShardedEngine
from repro.traffic import Trace, generate_trace, replay
from repro.traffic.driver import cores_digest

LOSSLESS = {"update": None, "query": None}

TRACES = Path(__file__).resolve().parent.parent / "examples" / "traces"
BUNDLED = sorted(p.name for p in TRACES.glob("*.jsonl"))

#: journal digests of the lossless direct replays of the bundled traces.
#: Cut points do not depend on the clock here (``max_delay=None``) and
#: the WAL carries no timings, so the sim backend writes the same bytes.
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
#: simulated OurI/OurR (same cores, different order), so these differ
#: from the sim backend's and pin the direct kernel's tie-breaking.
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


def replay_monolith(path, backend, mode="model"):
    trace = Trace.load(path)
    cfg = dict(max_batch=8, max_delay=None, num_workers=4,
               backend=backend, seed=13)
    if mode == "engine":
        cfg["window"] = trace.header.window
    eng = Engine(DynamicGraph(), EngineConfig(**cfg))
    with eng:
        return replay(eng, trace, mode=mode, slo=LOSSLESS)


def test_trace_digest_matches_file(trace_file):
    path, digest = trace_file
    assert Trace.load(path).digest() == digest


def test_sim_and_direct_monoliths_bit_identical(trace_file):
    path, _ = trace_file
    sim = replay_monolith(path, "sim")
    direct = replay_monolith(path, "direct")
    assert sim.invariant_ok and direct.invariant_ok
    assert sim.final_cores == direct.final_cores
    assert sim.cores_digest == direct.cores_digest
    # the WAL carries no timings: identical admission order + identical
    # cuts => byte-identical journals even across kernels
    assert sim.journal_digest == direct.journal_digest


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_trace_direct_matches_sim(name):
    path = TRACES / name
    runs = {b: (replay_monolith(path, b), replay_monolith(path, b))
            for b in ("direct", "sim")}
    for a, b in runs.values():
        assert a.invariant_ok and b.invariant_ok
        assert a.cores_digest == b.cores_digest
        assert a.journal_digest == b.journal_digest
    direct, sim = runs["direct"][0], runs["sim"][0]
    assert direct.final_cores == sim.final_cores
    assert direct.cores_digest == sim.cores_digest
    assert direct.journal_digest == sim.journal_digest
    assert direct.journal_digest == BUNDLED_JOURNAL_DIGESTS[name]


def checkpointed_replay(backend):
    trace = Trace.load(TRACES / "uniform.jsonl")
    eng = Engine(DynamicGraph(), EngineConfig(
        max_batch=8, max_delay=None, seed=13, backend=backend,
        window=trace.header.window, checkpoint_every=8))
    with eng:
        rep = replay(eng, trace, mode="engine", slo=LOSSLESS)
    order = json.dumps(eng.maintainer.order_sequence()).encode()
    return rep, hashlib.sha256(order).hexdigest()


def test_checkpointed_direct_replay_pins_om_order():
    direct, order = checkpointed_replay("direct")
    again, order_again = checkpointed_replay("direct")
    sim, _ = checkpointed_replay("sim")
    assert direct.final_cores == sim.final_cores
    assert order == order_again == DIRECT_ORDER_DIGEST
    assert direct.journal_digest == again.journal_digest
    assert direct.journal_digest == DIRECT_CHECKPOINTED_JOURNAL_DIGEST


def test_double_run_digest_stable_per_backend(trace_file):
    path, digest = trace_file
    for backend in ("direct", "sim"):
        a = replay_monolith(path, backend)
        b = replay_monolith(path, backend)
        assert a.trace_digest == b.trace_digest == digest
        assert a.cores_digest == b.cores_digest
        assert a.journal_digest == b.journal_digest


def test_engine_mode_matches_model_mode(trace_file):
    path, _ = trace_file
    model = replay_monolith(path, "sim", mode="model")
    engine = replay_monolith(path, "sim", mode="engine")
    assert engine.final_cores == model.final_cores
    assert engine.cores_digest == model.cores_digest


def test_process_sharded_matches_monolith(trace_file):
    path, digest = trace_file
    mono = replay_monolith(path, "sim")

    def sharded_run():
        trace = Trace.load(path)
        eng = ShardedEngine(DynamicGraph(), EngineConfig(
            shards=2, backend="process", max_batch=8, max_delay=None,
            num_workers=2, seed=13))
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
