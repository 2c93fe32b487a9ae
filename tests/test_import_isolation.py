"""Serving on the default (direct) backend never loads the simulated
machine: a fresh interpreter builds an Engine, a two-shard in-process
ShardedEngine and a FollowerEngine, drives each through submit, flush and
query, and must end with none of ``repro.parallel.runtime``,
``repro.parallel.scheduling``, ``repro.parallel.costs`` or
``repro.parallel.batch`` imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys

from repro.graph.dynamic_graph import DynamicGraph
from repro.replication import FollowerEngine
from repro.service import Engine, EngineConfig, ShardedEngine

answers = {}

eng = Engine(DynamicGraph([(0, 1), (1, 2)]), EngineConfig(checkpoint_every=1))
eng.insert(0, 2)
eng.flush()
answers["engine"] = eng.query("core", 0).value

router = ShardedEngine(DynamicGraph([(0, 1)]), EngineConfig(shards=2))
router.insert(1, 2)
router.insert(0, 2)
router.flush()
answers["sharded"] = router.query("core", 2).value
router.close()

follower = FollowerEngine(0, eng.config)
follower.receive(eng.journal.records)
follower.replay()
answers["follower"] = follower.query("core", 2).value
eng.close()

loaded = [m for m in ("repro.parallel.runtime", "repro.parallel.scheduling",
                     "repro.parallel.costs", "repro.parallel.batch")
          if m in sys.modules]
print(json.dumps({"answers": answers, "loaded": loaded}))
"""


def test_default_serving_never_imports_the_simulator():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["answers"] == {"engine": 2, "sharded": 2, "follower": 2}
    assert result["loaded"] == []
