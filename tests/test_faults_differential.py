"""Chaos differential suite (fault-plane ISSUE satellite).

Three layers of the same claim — injected faults are invisible in
committed results as long as the retry budget outlasts the crash
budget:

* seeded differentials over every small graph family: a faulty engine
  (crashes + stalls, journal, checkpoints, retries) answers the same
  statuses and ends on the same cores as a clean engine;
* benign schedules (stalls only) leave even the epoch timeline
  untouched;
* a hypothesis stateful machine drives an engine through interleaved
  inserts/removes/flushes/process-restarts and checks it against a
  never-crashed :class:`DictGraph` oracle after every flush.

The engine's direct kernel draws one fault decision per edge.  The
simulated OurI/OurR draws one per worker event, acquire-timeouts
included; :func:`test_simulated_kernel_recovers_every_crashed_batch`
covers that kernel on its own.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.core.decomposition import core_decomposition
from repro.faults.plane import BatchCrashed, FaultPlane, FaultSpec
from repro.graph.dictgraph import DictGraph
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.graph.generators import barabasi_albert
from repro.parallel.batch import ParallelOrderMaintainer
from repro.parallel.runtime import SimDeadlockError
from repro.service import Engine, EngineConfig
from repro.service.requests import STATUS_ABANDONED

from tests.conftest import assert_cores_match_bz, small_graph_families

#: more retries than the crash budget, so no batch is ever abandoned and
#: the faulty engine must converge to the clean one
CHAOS = FaultSpec(crash_rate=0.02, stall_rate=0.02, max_crashes=5)
BENIGN = FaultSpec(stall_rate=0.15)


def _trace(edges, seed):
    """A deterministic insert/remove mix over/around an edge list."""
    ops, present = [], set()
    for i, (u, v) in enumerate(edges):
        e = canonical_edge(u, v)
        if i % 4 == 3 and present:
            out = sorted(present, key=repr)[i % len(present)]
            ops.append(("remove", *out))
            present.discard(out)
        elif e not in present:
            ops.append(("insert", u, v))
            present.add(e)
    return ops


def _run(initial, ops, spec, seed):
    eng = Engine(DynamicGraph(initial),
                 EngineConfig(max_batch=4, seed=seed, faults=spec,
                              max_retries=10, checkpoint_every=3))
    for i, (op, u, v) in enumerate(ops):
        (eng.insert if op == "insert" else eng.remove)(u, v)
        if i % 5 == 4:
            eng.query("degeneracy")
    eng.flush()
    return eng, [(r.id, r.status, r.epoch) for r in eng.take_completed()]


@pytest.mark.parametrize(
    "name,edges", small_graph_families(seed=13), ids=lambda p: str(p)[:12]
)
def test_chaos_engine_matches_clean_engine(name, edges):
    cut = (2 * len(edges)) // 3
    ops = _trace(edges[cut:] + edges[:10], seed=13)
    faulty, f_statuses = _run(edges[:cut], ops, CHAOS, seed=13)
    clean, c_statuses = _run(edges[:cut], ops, None, seed=13)
    # per-operation terminal statuses and commit epochs agree...
    assert f_statuses == c_statuses
    # ...and so do the committed results
    assert faulty.epoch == clean.epoch
    assert faulty.cores() == clean.cores()
    faulty.check()
    assert_cores_match_bz(faulty.maintainer)
    # the journal's final edge set is the recovered graph
    assert faulty.journal.final_edges() == faulty._graph_edges()


def test_chaos_differential_actually_injected_crashes():
    """The parametrized differential is vacuous if the schedule never
    fires — require crashes *somewhere* across the families."""
    crashes = 0
    for _, edges in small_graph_families(seed=13):
        cut = (2 * len(edges)) // 3
        eng, _ = _run(edges[:cut], _trace(edges[cut:] + edges[:10], 13),
                      CHAOS, seed=13)
        crashes += eng.metrics()["faults"]["crashed_batches"]
    assert crashes > 0, "chaos spec never crashed a batch; retune rates"


@pytest.mark.parametrize("name,edges", small_graph_families(seed=4)[:3],
                         ids=lambda p: str(p)[:12])
def test_benign_faults_never_change_results(name, edges):
    """Stalls perturb timing only: statuses, epochs and cores are
    identical to a fault-free run."""
    cut = len(edges) // 2
    ops = _trace(edges[cut:], seed=4)
    faulty, f_statuses = _run(edges[:cut], ops, BENIGN, seed=4)
    clean, c_statuses = _run(edges[:cut], ops, None, seed=4)
    flt = faulty.metrics()["faults"]
    assert flt["stalls_injected"] > 0
    assert flt["crashed_batches"] == 0
    assert f_statuses == c_statuses
    assert faulty.epoch == clean.epoch
    assert faulty.cores() == clean.cores()


def _kernel_chaos(seed):
    """Insert and remove batches on the simulated OurI/OurR under crash,
    stall and acquire-timeout injection.  Before each batch the live
    state is checkpointed (graph, cores, OM order); a crashed attempt
    discards the maintainer, restores the checkpoint through
    ``from_checkpoint`` and re-applies the batch, as the engine's
    journal recovery does.  After every batch the cores must equal a
    from-scratch decomposition of the intended edge set."""
    spec = FaultSpec(crash_rate=0.01, stall_rate=0.02, timeout_rate=0.02,
                     max_crashes=6)
    plane = FaultPlane(spec, seed=seed)
    edges = barabasi_albert(60, 3, seed=3)
    present = {canonical_edge(u, v) for u, v in edges[:90]}
    m = ParallelOrderMaintainer(DynamicGraph(sorted(present)), faults=plane)
    batches = [("+", edges[i:i + 12]) for i in range(90, len(edges), 12)]
    batches += [("-", edges[i:i + 12]) for i in range(0, 72, 12)]
    crashed = 0
    for kind, batch in batches:
        ck = (sorted(present), m.cores(), m.order_sequence())
        while True:
            try:
                if kind == "+":
                    m.insert_edges(batch)
                else:
                    m.remove_edges(batch)
                break
            except (BatchCrashed, SimDeadlockError):
                crashed += 1
                m = ParallelOrderMaintainer.from_checkpoint(
                    DynamicGraph(ck[0]), ck[1], ck[2], faults=plane)
        edits = {canonical_edge(u, v) for u, v in batch}
        present = present | edits if kind == "+" else present - edits
        oracle = core_decomposition(DictGraph(sorted(present))).core
        got = m.cores()
        assert all(got[u] == k for u, k in oracle.items())
        assert all(k == 0 for u, k in got.items() if u not in oracle)
    m.check()
    return plane, crashed


def test_simulated_kernel_recovers_every_crashed_batch():
    plane, crashed = _kernel_chaos(seed=7)
    assert plane.crashes > 0 and crashed > 0, plane.counters()
    assert plane.timeouts > 0, plane.counters()
    assert plane.stalls > 0, plane.counters()
    again, _ = _kernel_chaos(seed=7)
    assert again.digest() == plane.digest()
    other, _ = _kernel_chaos(seed=8)
    assert other.digest() != plane.digest()


class ChaosEngineMachine(RuleBasedStateMachine):
    """Stateful chaos: a crashing, restarting engine vs a DictGraph
    oracle that never fails.

    The oracle tracks the *intended* edge set (inserts minus removes);
    rules only submit operations the engine will accept (fresh inserts,
    removes of intended edges), so after a flush the committed graph
    must equal the oracle exactly — crashes, retries and process
    restarts included.  max_retries exceeds the crash budget, so
    abandonment is impossible and divergence means a real bug.
    """

    VERTICES = 14

    def __init__(self):
        super().__init__()
        base = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        self.cfg = EngineConfig(
            max_batch=3, seed=21, checkpoint_every=2, max_retries=9,
            faults=FaultSpec(crash_rate=0.03, stall_rate=0.03,
                             max_crashes=8),
        )
        self.eng = Engine(DynamicGraph(base), self.cfg)
        self.intended = {canonical_edge(u, v) for u, v in base}
        self.restarts = 0

    def _absent(self):
        n = self.VERTICES
        return [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in self.intended
        ]

    @rule(data=st.data())
    def insert(self, data):
        absent = self._absent()
        if not absent:
            return
        u, v = data.draw(st.sampled_from(absent))
        resp = self.eng.insert(u, v)
        assert resp.status != STATUS_ABANDONED
        self.intended.add((u, v))

    @precondition(lambda self: self.intended)
    @rule(data=st.data())
    def remove(self, data):
        e = data.draw(st.sampled_from(sorted(self.intended)))
        self.eng.remove(*e)
        self.intended.discard(e)

    @rule()
    def flush_and_compare(self):
        for resp in self.eng.flush():
            assert resp.status != STATUS_ABANDONED, resp
        oracle = core_decomposition(DictGraph(sorted(self.intended))).core
        got = self.eng.cores()
        for u, k in oracle.items():
            assert got[u] == k, f"core[{u}]={got[u]} != oracle {k}"
        for u, k in got.items():
            # vertices that lost their last edge stay known, at core 0
            if u not in oracle:
                assert k == 0, f"dangling vertex {u} has core {k}"

    @rule()
    def crash_the_process_and_restart(self):
        """Process restart: flush (pending ops would be lost by the WAL
        contract, and the oracle cannot know which), then rebuild the
        engine from its journal bytes and keep going against it."""
        self.eng.flush()
        self.eng = Engine.from_journal(self.eng.journal.to_bytes(), self.cfg)
        self.restarts += 1

    def teardown(self):
        self.flush_and_compare()
        self.eng.check()


TestChaosEngineMachine = ChaosEngineMachine.TestCase
TestChaosEngineMachine.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
