"""Seeded traffic-shape generators.

Each shape turns an arrival-time sampler (:mod:`repro.graph.generators`)
into a sequentially valid sliding-window trace: the generator keeps an
*ideal window model* — the present-set a perfect engine would hold — so
every insert targets an absent edge and every window expiry emits an
explicit ``remove`` record (``"x":1``) at exactly ``arrival + window``.
Removes therefore come for free from the window, exactly the mixed
insert/remove stream that exercises the order-based maintenance kernels
hardest.

Shapes (``docs/traffic.md`` has the catalog):

``uniform``
    Homogeneous Poisson arrivals — the baseline the old bench covered.
``diurnal``
    A sinusoidal day-curve: load swings between trough and peak
    (inhomogeneous Poisson by thinning), so batch sizes and queue depths
    breathe over the run.
``flash``
    A flash crowd: arrivals spike ``factor``-fold inside one interval
    and every insert in the burst attaches to one hub vertex — the
    adversarial case for order maintenance (hot hub, contended core).
``overload``
    Sustained arrivals far beyond the engine's admission capacity; pair
    it with a small ``max_pending`` to exercise backpressure
    (``rejected``) and, with a fault plane, the ``abandoned`` terminal
    state.  The accounting invariant must survive all of it.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from repro.graph.generators import (
    burst_rate,
    diurnal_rate,
    exponential_arrivals,
    thinned_arrivals,
)
from repro.traffic.trace import TimedOp, Trace, TraceHeader

Edge = Tuple[int, int]

SHAPES = ("uniform", "diurnal", "flash", "overload")

#: default per-class SLO budgets (service-clock units).  Tuned so the
#: non-overload shapes attain >0.9 at the bench's default engine profile
#: while overload measurably misses — see BENCH_traffic_*.json.
DEFAULT_SLO = {"update": 6000.0, "query": 4000.0}

#: default arrival rate (events per event-clock unit).  The engine
#: needs ~75 service units per op at small batches, so stability wants
#: rate < ~1/75; 0.005 leaves headroom for bursts while time-based cuts
#: (max_delay ~256) keep batches from starving.
DEFAULT_RATE = 0.005

__all__ = [
    "DEFAULT_RATE", "DEFAULT_SLO", "SHAPES", "WindowModel", "generate_trace",
]


class WindowModel:
    """The ideal sliding-window present-set: edge → expiry due-time,
    with O(1) membership, O(1) uniform sampling and a due-time heap.
    Used by the generators (sequential validity) and by the stateful
    tests as the from-scratch oracle."""

    def __init__(self) -> None:
        self.due: Dict[Edge, float] = {}
        self._heap: List[Tuple[float, Edge]] = []
        self._elist: List[Edge] = []
        self._epos: Dict[Edge, int] = {}

    def __len__(self) -> int:
        return len(self.due)

    def __contains__(self, e: Edge) -> bool:
        return e in self.due

    def edges(self) -> List[Edge]:
        return sorted(self.due)

    def add(self, e: Edge, due: float) -> None:
        if e in self.due:
            raise ValueError(f"edge already present: {e!r}")
        self.due[e] = due
        heapq.heappush(self._heap, (due, e))
        self._epos[e] = len(self._elist)
        self._elist.append(e)

    def discard(self, e: Edge) -> None:
        if self.due.pop(e, None) is None:
            return
        # swap-pop the sampling list; the heap entry goes stale and is
        # skipped on pop (same idiom as the engine's expiry heap)
        i = self._epos.pop(e)
        last = self._elist.pop()
        if last != e:
            self._elist[i] = last
            self._epos[last] = i

    def pop_due(self, t: float) -> List[Tuple[float, Edge]]:
        """Expired edges (due <= t) in due order, removed from the set."""
        out: List[Tuple[float, Edge]] = []
        while self._heap and self._heap[0][0] <= t:
            due, e = heapq.heappop(self._heap)
            if self.due.get(e) != due:
                continue  # stale (removed or re-added later)
            self.discard(e)
            out.append((due, e))
        return out

    def sample_edge(self, rng: random.Random) -> Optional[Edge]:
        if not self._elist:
            return None
        return self._elist[rng.randrange(len(self._elist))]


def _arrivals(shape: str, ops: int, rate: float, seed: int,
              params: Dict) -> List[float]:
    if shape == "uniform":
        return exponential_arrivals(ops, rate, seed)
    if shape == "overload":
        # the engine-side squeeze (tiny max_pending) does the real
        # overloading; the dense clock just keeps expiries competing
        # with a saturated ingress
        return exponential_arrivals(ops, rate * params["factor"], seed)
    span = ops / rate  # expected span at the base rate
    if shape == "diurnal":
        period = params.get("period") or span / params["cycles"]
        fn = diurnal_rate(rate, period, params["depth"])
        return thinned_arrivals(ops, fn, rate * (1 + params["depth"]), seed)
    if shape == "flash":
        start = params.get("burst_start")
        length = params.get("burst_len")
        if start is None:
            start = 0.4 * span
        if length is None:
            length = 0.1 * span
        params["burst_start"], params["burst_len"] = start, length
        fn = burst_rate(rate, start, length, params["factor"])
        return thinned_arrivals(ops, fn, rate * params["factor"], seed)
    raise ValueError(f"unknown traffic shape {shape!r} (known: {SHAPES})")


def generate_trace(
    shape: str,
    *,
    ops: int = 1000,
    vertices: int = 100,
    window: float = 24000.0,
    seed: int = 0,
    rate: float = DEFAULT_RATE,
    query_mix: float = 0.2,
    slo: Optional[Dict[str, float]] = None,
    drain: bool = False,
    **shape_params,
) -> Trace:
    """Generate a sequentially valid sliding-window trace.

    ``ops`` counts *arrival* operations (inserts + queries); the window
    adds one expiry remove per insert on top, so the trace holds up to
    ``~2 * ops`` records.  ``drain=True`` appends the expiries still
    pending after the last arrival, ending on an empty graph.

    Shape parameters (``**shape_params``, all seeded-deterministic):
    ``diurnal``: ``cycles`` (default 2), ``depth`` (0.8), ``period``;
    ``flash``: ``factor`` (8.0), ``burst_start``, ``burst_len``,
    ``hub`` (0); ``overload``: ``factor`` (10.0).
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown traffic shape {shape!r} (known: {SHAPES})")
    if vertices < 3:
        raise ValueError("need at least 3 vertices")
    params: Dict = {
        "rate": rate,
        "query_mix": query_mix,
        "drain": drain,
    }
    if shape == "diurnal":
        params["cycles"] = shape_params.pop("cycles", 2)
        params["depth"] = shape_params.pop("depth", 0.8)
        params["period"] = shape_params.pop("period", None)
    elif shape == "flash":
        params["factor"] = shape_params.pop("factor", 8.0)
        params["burst_start"] = shape_params.pop("burst_start", None)
        params["burst_len"] = shape_params.pop("burst_len", None)
        params["hub"] = shape_params.pop("hub", 0)
    elif shape == "overload":
        params["factor"] = shape_params.pop("factor", 10.0)
    if shape_params:
        raise TypeError(
            f"unknown parameters for shape {shape!r}: "
            f"{sorted(shape_params)}"
        )
    arrivals = _arrivals(shape, ops, rate, seed, params)
    rng = random.Random(seed + 0x5EED)
    model = WindowModel()
    records: List[TimedOp] = []
    in_burst = None
    if shape == "flash":
        b0 = params["burst_start"]
        b1 = b0 + params["burst_len"]
        hub = params["hub"] % vertices

        def in_burst(t: float) -> bool:
            return b0 <= t < b1

    for t in arrivals:
        for due, e in model.pop_due(t):
            records.append(TimedOp(t=due, op="remove", u=e[0], v=e[1],
                                   expiry=True))
        if rng.random() < query_mix:
            records.append(_query_op(t, rng, model, vertices))
            continue
        e = _fresh_edge(rng, model, vertices,
                        hub=(hub if in_burst is not None and in_burst(t)
                             else None))
        if e is None:
            # the window is saturated (present-set ~ complete graph):
            # fall back to a query so the record count stays exact
            records.append(_query_op(t, rng, model, vertices))
            continue
        model.add(e, t + window)
        records.append(TimedOp(t=t, op="insert", u=e[0], v=e[1]))
    if drain:
        for due, e in model.pop_due(float("inf")):
            records.append(TimedOp(t=due, op="remove", u=e[0], v=e[1],
                                   expiry=True))
    header = TraceHeader(
        shape=shape, seed=seed, window=window, ops=len(records),
        vertices=vertices, slo=dict(slo if slo is not None else DEFAULT_SLO),
        params={k: v for k, v in params.items() if v is not None},
    )
    return Trace.from_ops(header, records)


def _fresh_edge(rng: random.Random, model: WindowModel, vertices: int,
                hub: Optional[int] = None) -> Optional[Edge]:
    """A uniformly sampled edge absent from the ideal window (canonical
    endpoints; ``hub`` pins one endpoint for the flash-crowd shape).
    Bounded rejection sampling with a deterministic scan fallback."""
    for _ in range(64):
        if hub is not None:
            u = hub
            v = rng.randrange(vertices)
        else:
            u = rng.randrange(vertices)
            v = rng.randrange(vertices)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in model:
            return e
    base = rng.randrange(vertices)
    for i in range(vertices):
        for j in range(i + 1, vertices):
            u = (base + i) % vertices
            v = (base + j) % vertices
            if u == v:
                continue
            e = (u, v) if u < v else (v, u)
            if hub is not None and hub not in e:
                continue
            if e not in model:
                return e
    return None


def _query_op(t: float, rng: random.Random, model: WindowModel,
              vertices: int) -> TimedOp:
    """A query record: usually a ``core`` probe on an endpoint of a
    present edge (answerable), sometimes a whole-graph statistic."""
    r = rng.random()
    e = model.sample_edge(rng)
    if e is not None and r < 0.85:
        return TimedOp(t=t, op="query", q="core", args=(e[rng.randrange(2)],))
    if r < 0.93:
        return TimedOp(t=t, op="query", q="degeneracy")
    return TimedOp(t=t, op="query", q="shell_histogram")
