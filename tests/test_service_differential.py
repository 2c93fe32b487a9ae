"""Differential test: an interleaved update/query trace answered
through engine snapshots must match replaying the same committed prefix
sequentially and querying BZ-recomputed cores, across several seeds.
The engine's committed batches, replayed on the simulated OurI/OurR
under both SimMachine schedules, must reach the same cores too."""

import pytest

from repro.bench.workloads import trace_from_edges
from repro.core.decomposition import core_decomposition
from repro.core.queries import degeneracy, in_k_core, k_shell, shell_histogram
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.parallel.batch import ParallelOrderMaintainer
from repro.service import Engine
from repro.service.engine import apply_batch


def expected_answer(graph, kind, args):
    """BZ-recomputed ground truth for one snapshot query kind."""
    core = core_decomposition(graph).core
    if kind == "core":
        return core.get(args[0])
    if kind == "in_k_core":
        return in_k_core(core, *args)
    if kind == "k_shell":
        return k_shell(core, *args)
    if kind == "degeneracy":
        return degeneracy(core)
    if kind == "shell_histogram":
        return shell_histogram(core)
    raise AssertionError(kind)


def run_differential(base_edges, seed, schedule, ops=160):
    initial, trace = trace_from_edges(
        base_edges, ops=ops, query_rate=0.3, seed=seed
    )
    eng = Engine(
        DynamicGraph(initial),
        max_batch=16,
        query_pressure=8,
        seed=seed,
    )
    shadow = DynamicGraph(initial)
    queries = quarantined = 0
    for item in trace:
        if item[0] == "insert":
            _, u, v = item
            shadow.add_edge(u, v)
            eng.insert(u, v)
        elif item[0] == "remove":
            _, u, v = item
            shadow.remove_edge(u, v)
            eng.remove(u, v)
        else:
            _, kind, args = item
            # snapshot answers are against the *committed* graph: pending
            # ops are not applied until a cut, so the ground truth is a
            # from-scratch BZ decomposition of eng.graph, frozen before
            # the query (a pressure cut may advance the epoch after it).
            # copy() keeps isolated vertices, which stay at core 0 rather
            # than vanishing from the decomposition.
            committed = eng.graph.copy()
            want = expected_answer(committed, kind, args)
            r = eng.query(kind, *args)
            if r.status == "quarantined":
                # only legal quarantine here: core() of a vertex the
                # committed graph has not seen yet
                assert r.error["code"] == "unknown-vertex"
                assert kind == "core" and want is None
                quarantined += 1
            else:
                assert r.status == "committed"
                assert r.value == want, (kind, args, r.value, want)
            queries += 1
    # drain: every committed op must land, and the final state must match
    # a plain sequential replay of the full trace
    for r in eng.flush():
        assert r.status == "committed"
    assert sorted(eng.graph.edges()) == sorted(shadow.edges())
    assert eng.cores() == core_decomposition(shadow).core
    eng.check()
    c = eng.metrics()["counters"]
    assert c["admitted"] == c["committed"] + c["quarantined"] + c["timed_out"]
    assert c["timed_out"] == 0
    assert c["quarantined"] == quarantined
    replay = eng.journal.replay()
    sim = ParallelOrderMaintainer(DynamicGraph(list(replay.initial_edges)),
                                  schedule=schedule, seed=seed)
    for b in replay.committed:
        apply_batch(sim, b.kind, list(b.edges))
    assert sim.cores() == eng.cores()
    return queries


@pytest.mark.parametrize("schedule", ["min-clock", "random"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_er_trace_matches_sequential_replay(seed, schedule):
    base = erdos_renyi(60, 220, seed=seed)
    queries = run_differential(base, seed, schedule)
    assert queries > 20  # the trace actually exercised the snapshot path


@pytest.mark.parametrize("schedule", ["min-clock", "random"])
def test_ba_trace_matches_sequential_replay(schedule):
    base = barabasi_albert(70, 3, seed=9)
    run_differential(base, seed=7, schedule=schedule)
