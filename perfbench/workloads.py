"""Seeded inputs for the four serving workloads.

A builder turns ``(seed, scale)`` into a :class:`Workload`: the initial
edge list, the op sequence the closed-loop client replays, the engine
configuration and the sha256 of the inputs.  The program under test only
ever sees the generated inputs.  ``scale`` shrinks every size for the
benchmark's own tests; the benchmark always runs at ``scale=1``.

Ops are plain tuples:

``("+", u, v)`` / ``("-", u, v)``
    insert / remove through ``submit``.
``("x", u, v)``
    a sliding-window expiry.  The engine's window plane fires it; the
    client never submits it, it only applies it to the expected edge set.
``("t", t)``
    ``advance_to(t)`` on the event clock.
``("q", kind, args)``
    a read through ``submit``.
``("S",)``
    the sharded router's stitched ``cores()``.

``churn``, ``read-mostly`` and ``sharded-2pc`` hold an exact number of
point and aggregate reads whatever the seed.  ``window`` takes its reads
from the ``repro.traffic`` generator's random mix, so its counts are fixed
by the seed but differ from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.bench.harness import traffic_profile
from repro.bench.workloads import uniform_update_trace
from repro.graph.generators import powerlaw_cluster
from repro.traffic import generate_trace

Edge = Tuple[int, int]

POINT_KINDS = ("core", "in_k_core")
AGG_KINDS = ("degeneracy", "shell_histogram", "k_shell")

NAMES = ("churn", "read-mostly", "window", "sharded-2pc")


@dataclass
class Workload:
    """One generated workload instance."""

    name: str
    seed: int
    initial_edges: List[Edge]
    ops: List[tuple]
    #: ``EngineConfig`` fields (``journal_path`` is filled in per run)
    config: Dict
    #: vertices are exactly ``0..n-1``, so the graph takes the dense fast path
    dense: bool = True
    sharded: bool = False
    queryplane: bool = False
    journal_file: bool = False
    #: setups per repetition; cheap set-ups repeat so ``setup_s`` is a
    #: median over enough samples to be steady
    setup_repeats: int = 1
    #: nominal wall seconds of one repetition (set-up, replay, check);
    #: a run of ``--seconds`` makes ``seconds / rep_seconds`` repetitions
    #: however fast the program is
    rep_seconds: float = 1.0
    #: distinct input instances a run cycles through, one per repetition
    #: (instance ``k > 0`` is built from seed ``seed * 1000 + k``)
    instances: int = 1
    #: sha256 of the inputs (the ``repro.traffic`` trace digest for window)
    digest: str = ""
    params: Dict = field(default_factory=dict)

    @property
    def windowed(self) -> bool:
        return self.config.get("window") is not None

    def expected_edges(self) -> Set[Edge]:
        """The edge set after every op applied in order."""
        present = set(self.initial_edges)
        for op in self.ops:
            if op[0] == "+":
                present.add(op[1:])
            elif op[0] in ("-", "x"):
                present.discard(op[1:])
        return present

    def update_ops(self) -> List[tuple]:
        """The edge changes in order, expiries included."""
        return [op for op in self.ops if op[0] in ("+", "-", "x")]

    def op_counts(self) -> Dict[str, int]:
        out = {"updates": 0, "expiries": 0, "point_reads": 0, "agg_reads": 0}
        for op in self.ops:
            if op[0] in ("+", "-"):
                out["updates"] += 1
            elif op[0] == "x":
                out["expiries"] += 1
            elif op[0] == "q":
                out["point_reads" if op[1] in POINT_KINDS else "agg_reads"] += 1
        return out


def inputs_digest(initial: Sequence[Edge], ops: Sequence[tuple]) -> str:
    blob = json.dumps({"initial": list(initial), "ops": list(ops)},
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _interleave(rng: random.Random, updates: List[tuple],
                reads: List[tuple]) -> List[tuple]:
    """Scatter ``reads`` at uniformly random positions among ``updates``,
    keeping the order of each."""
    total = len(updates) + len(reads)
    at = set(rng.sample(range(total), len(reads)))
    ui = iter(updates)
    ri = iter(reads)
    return [next(ri) if i in at else next(ui) for i in range(total)]


def _reads(rng: random.Random, n_point: int, n_agg: int, vertices: int,
           kmax: int) -> List[tuple]:
    point = []
    for _ in range(n_point):
        u = rng.randrange(vertices)
        if rng.random() < 0.7:
            point.append(("q", "core", (u,)))
        else:
            point.append(("q", "in_k_core", (u, rng.randint(1, kmax))))
    agg = []
    for _ in range(n_agg):
        kind = AGG_KINDS[rng.randrange(3)]
        args = (rng.randint(1, kmax),) if kind == "k_shell" else ()
        agg.append(("q", kind, args))
    reads = point + agg
    rng.shuffle(reads)
    return reads


def _sized(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def churn(seed: int, scale: float = 1.0) -> Workload:
    """Kernel-heavy: alternating homogeneous runs of ``max_batch`` removes
    and inserts on a power-law graph, with few reads."""
    n = _sized(10_000, scale, 100)
    k = 10
    edges = powerlaw_cluster(n, k, 0.1, seed=seed)
    rng = random.Random(seed * 7919 + 1)
    # a run is exactly one batch, cut by size on its last op, so an
    # insert never meets its own pending remove
    run_len = _sized(512, scale, 8)
    runs = 2 * _sized(22, scale, 2)
    # each remove run takes random present edges out; the insert run
    # after it puts the same edges back, so every pair of epochs returns
    # to the initial graph and the kernel's work per run stays level
    updates: List[tuple] = []
    for _ in range(runs // 2):
        batch = rng.sample(edges, run_len)
        updates.extend(("-",) + e for e in batch)
        rng.shuffle(batch)
        updates.extend(("+",) + e for e in batch)
    reads = _reads(rng, _sized(1200, scale, 20), _sized(1200, scale, 20),
                   n, k)
    ops = _interleave(rng, updates, reads)
    return Workload(
        name="churn", seed=seed, initial_edges=edges, ops=ops,
        config={"max_batch": run_len, "seed": seed}, rep_seconds=2.9,
        digest=inputs_digest(edges, ops),
        params={"vertices": n, "edges": len(edges), "run_len": run_len,
                "runs": runs},
    )


def read_mostly(seed: int, scale: float = 1.0) -> Workload:
    """Snapshot-heavy: 95% reads, 5% inserts, pressure cuts every
    ``query_pressure`` reads, query plane on."""
    n = _sized(100_000, scale, 300)
    edges = powerlaw_cluster(n, 2, 0.1, seed=seed, k_min=1)
    rng = random.Random(seed * 7919 + 2)
    total = _sized(16_000, scale, 400)
    n_ins = total // 20
    n_agg = _sized(1100, scale, 20)
    present = set(edges)
    updates: List[tuple] = []
    while len(updates) < n_ins:
        u, v = rng.randrange(n), rng.randrange(n)
        e = (u, v) if u < v else (v, u)
        if u != v and e not in present:
            present.add(e)
            updates.append(("+",) + e)
    reads = _reads(rng, total - n_ins - n_agg, n_agg, n, 2)
    ops = _interleave(rng, updates, reads)
    return Workload(
        name="read-mostly", seed=seed, initial_edges=edges, ops=ops,
        config={"max_batch": 512, "query_pressure": 16, "seed": seed},
        queryplane=True, rep_seconds=8.0,
        digest=inputs_digest(edges, ops),
        params={"vertices": n, "edges": len(edges)},
    )


def window(seed: int, scale: float = 1.0) -> Workload:
    """Per-epoch fixed costs and retention: the ``repro.traffic`` uniform
    sliding-window trace replayed in engine mode with a file journal."""
    arrivals = _sized(22_000, scale, 300)
    vertices = _sized(1000, scale, 40)
    win = 600_000.0 * scale
    trace = generate_trace("uniform", ops=arrivals, vertices=vertices,
                           window=win, seed=seed, query_mix=0.4).materialized()
    ops: List[tuple] = []
    for op in trace:
        ops.append(("t", op.t))
        if op.op == "query":
            ops.append(("q", op.q, tuple(op.args)))
        elif op.expiry:
            ops.append(("x", op.u, op.v))
        else:
            ops.append(("+" if op.op == "insert" else "-", op.u, op.v))
    config = dict(traffic_profile("uniform", seed=seed))
    config.update(window=win, checkpoint_every=256)
    return Workload(
        name="window", seed=seed, initial_edges=[], ops=ops, config=config,
        journal_file=True, setup_repeats=20, dense=False, rep_seconds=3.7,
        digest=trace.digest(),
        params={"arrivals": arrivals, "vertices": vertices, "window": win,
                "query_mix": 0.4, "shape": "uniform"},
    )


def sharded_2pc(seed: int, scale: float = 1.0) -> Workload:
    """Two in-process ``sim`` shards fed ``uniform_update_trace`` (about
    half the edges cross-shard), point and aggregate reads through the
    router, and a periodic stitched ``cores()``."""
    vertices = _sized(1500, scale, 60)
    warm = _sized(500, scale, 20)
    n_upd = _sized(3500, scale, 100)
    trace = uniform_update_trace(vertices, warm + n_upd, seed=seed)
    initial: Set[Edge] = set()
    for op, u, v in trace[:warm]:
        e = (u, v) if u < v else (v, u)
        if op == "insert":
            initial.add(e)
        else:
            initial.discard(e)
    updates = [("+" if op == "insert" else "-",) + ((u, v) if u < v else (v, u))
               for op, u, v in trace[warm:]]
    rng = random.Random(seed * 7919 + 4)
    reads = _reads(rng, _sized(1100, scale, 20), _sized(1100, scale, 20),
                   vertices, 4)
    mixed = _interleave(rng, updates, reads)
    every = _sized(500, scale, 50)
    ops: List[tuple] = []
    for i, op in enumerate(mixed, 1):
        ops.append(op)
        if i % every == 0:
            ops.append(("S",))
    init = sorted(initial)
    return Workload(
        name="sharded-2pc", seed=seed, initial_edges=init, ops=ops,
        config={"shards": 2, "max_batch": 32, "seed": seed},
        sharded=True, dense=False, setup_repeats=5, rep_seconds=2.4,
        # a router read that follows a commit re-stitches the global cores
        # (refine rounds until convergence), and the read tail is the tail
        # of those stitch costs, which one instance's graph decides: best
        # of 13 repetitions spread 0.29-0.34 over 10 seeds with one instance
        # a run, 0.11-0.16 with one instance per repetition
        instances=16,
        digest=inputs_digest(init, ops),
        params={"vertices": vertices, "warm_ops": warm, "stitch_every": every},
    )


BUILDERS = {
    "churn": churn,
    "read-mostly": read_mostly,
    "window": window,
    "sharded-2pc": sharded_2pc,
}


def build(name: str, seed: int, scale: float = 1.0,
          instance: int = 0) -> Workload:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r} (known: {NAMES})") from None
    return builder(seed * 1000 + instance if instance else seed, scale)
