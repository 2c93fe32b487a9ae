"""Seeded-mutant tests for the static analysis framework.

Each test plants one deliberate bug (a *mutant*) in a synthetic project
and asserts that exactly the rule designed for that bug — and no other
new-framework rule — fires.  The final gate asserts the real tree is
finding-free, which is what makes the mutants meaningful: every rule
both catches its target and stays silent on correct code.

Virtual file paths matter: the identity pass zones modules by path
fragment (``repro/core/korder`` is int-native, ``repro/graph/`` is the
translation layer, ``repro/service/`` is public surface), and the
journal pass only arms itself when a module declaring ``REC_*`` kinds
is present.
"""

from pathlib import Path

from repro.analysis.static import Project, run_analysis

SRC = Path(__file__).resolve().parents[1] / "src"

#: every rule introduced by the multi-pass framework
NEW_RULES = {
    "RL010", "RL011", "RL012", "RL013", "RL014",
    "RL015", "RL016", "RL017",
    "RL020", "RL021", "RL022",
    "RL023", "RL024", "RL025",
}


def new_rules_hit(sources):
    """Run the full analysis over a synthetic project; return the set of
    new-framework rules that fired (legacy RL00x are ignored so e.g. a
    deliberate lock-order mutant may also trip RL003)."""
    result = run_analysis(Project.from_sources(sources))
    return {f.rule for f in result.findings if f.rule in NEW_RULES}


# ----------------------------------------------------------------------
# identity-domain dataflow (RL010-RL014)
# ----------------------------------------------------------------------
class TestIdentityMutants:
    def test_rl010_external_id_into_raw_slot(self):
        src = {
            "src/repro/parallel/facade.py": (
                "from repro.graph.storage import raw_map, raw_get\n"
                "from repro.core.boundary import Boundary\n"
                "class Facade:\n"
                "    def __init__(self, ig):\n"
                "        self.b = Boundary(ig)\n"
                "        self.core = raw_map(4)\n"
                "    def core_of(self, v):\n"
                "        m = raw_map(4)\n"
                "        x = raw_get(m, v)\n"  # v is an external id
                "        return x\n"
            ),
        }
        assert new_rules_hit(src) == {"RL010"}

    def test_rl010_external_id_indexes_state_map(self):
        src = {
            "src/repro/parallel/facade.py": (
                "from repro.core.boundary import Boundary\n"
                "class Facade:\n"
                "    def __init__(self, ig):\n"
                "        self.b = Boundary(ig)\n"
                "    def core_of(self, v):\n"
                "        x = self.state.korder.core[v]\n"
                "        return x\n"
            ),
        }
        assert new_rules_hit(src) == {"RL010"}

    def test_rl011_interned_int_escapes_public_return(self):
        src = {
            "src/repro/parallel/facade.py": (
                "from repro.core.boundary import Boundary\n"
                "class Facade:\n"
                "    def __init__(self, ig):\n"
                "        self.b = Boundary(ig)\n"
                "    def vertex_id(self, v):\n"
                "        return self.b.vertex_in(v)\n"  # interned, untranslated
            ),
        }
        assert new_rules_hit(src) == {"RL011"}

    def test_rl012_double_translation(self):
        src = {
            "src/repro/service/tool.py": (
                "def resolve(b, v):\n"
                "    w = b.vertex_in(v)\n"
                "    u = b.intern(w)\n"  # w is already interned
                "    u2 = u\n"
            ),
        }
        assert new_rules_hit(src) == {"RL012"}

    def test_rl013_cross_domain_comparison(self):
        src = {
            "src/repro/parallel/facade.py": (
                "from repro.core.boundary import Boundary\n"
                "class Facade:\n"
                "    def __init__(self, ig):\n"
                "        self.b = Boundary(ig)\n"
                "    def is_same(self, v):\n"
                "        w = self.b.vertex_in(v)\n"
                "        return w == v\n"  # interned vs. external
            ),
        }
        assert new_rules_hit(src) == {"RL013"}

    def test_rl014_translation_below_the_boundary(self):
        src = {
            "src/repro/core/korder.py": (
                "def bump(state, interner, v):\n"
                "    x = interner.lookup(v)\n"  # int-native zone translates
                "    return x\n"
            ),
        }
        assert new_rules_hit(src) == {"RL014"}

    def test_rl014_interner_reference_below_the_boundary(self):
        src = {
            "src/repro/core/order_insert.py": (
                "from repro.graph.interning import VertexInterner\n"
                "def make():\n"
                "    return VertexInterner()\n"
            ),
        }
        assert new_rules_hit(src) == {"RL014"}


# ----------------------------------------------------------------------
# static lock-order graph (RL015-RL017)
# ----------------------------------------------------------------------
class TestLockOrderMutants:
    def test_rl015_inconsistent_acquisition_order(self):
        src = {
            "src/repro/parallel/mixed.py": (
                "def w1(a, b):\n"
                "    ok = yield ('try', a)\n"
                "    ok2 = yield ('try', b)\n"   # a -> b
                "    yield ('release', b)\n"
                "    yield ('release', a)\n"
                "def w2(a, b):\n"
                "    ok = yield ('try', b)\n"
                "    ok2 = yield ('try', a)\n"   # b -> a: cycle
                "    yield ('release', a)\n"
                "    yield ('release', b)\n"
            ),
        }
        assert new_rules_hit(src) == {"RL015"}

    def test_rl016_loop_accumulation_without_backoff(self):
        src = {
            "src/repro/parallel/accum.py": (
                "from repro.parallel.runtime import release_all\n"
                "def w(keys):\n"
                "    held = []\n"
                "    for k in keys:\n"
                "        while not (yield ('try', k)):\n"
                "            yield ('spin',)\n"   # keeps earlier locks
                "        held.append(k)\n"
                "    yield from release_all(held)\n"
            ),
        }
        assert new_rules_hit(src) == {"RL016"}

    def test_rl016_clean_with_full_backoff(self):
        """The _try_lock_all pattern (release everything + abort on
        failure) is the sanctioned loop and must stay silent."""
        src = {
            "src/repro/parallel/accum.py": (
                "from repro.parallel.runtime import release_all\n"
                "def try_all(keys):\n"
                "    held = []\n"
                "    for k in keys:\n"
                "        ok = yield ('try', k)\n"
                "        if not ok:\n"
                "            yield from release_all(held)\n"
                "            return False\n"
                "        held.append(k)\n"
                "    yield from release_all(held)\n"
                "    return True\n"
            ),
        }
        assert new_rules_hit(src) == set()

    def test_rl017_spin_while_holding(self):
        src = {
            "src/repro/parallel/holdwait.py": (
                "def w(a, b):\n"
                "    while not (yield ('try', a)):\n"
                "        yield ('spin',)\n"
                "    while not (yield ('try', b)):\n"  # holds a, spins on b
                "        yield ('spin',)\n"
                "    yield ('release', b)\n"
                "    yield ('release', a)\n"
            ),
        }
        assert new_rules_hit(src) == {"RL017"}

    def test_rl017_lock_pair_while_holding(self):
        src = {
            "src/repro/parallel/holdwait.py": (
                "from repro.parallel.runtime import lock_pair, release_all\n"
                "def w(a, b, c):\n"
                "    while not (yield ('try', c)):\n"
                "        yield ('spin',)\n"
                "    got = yield from lock_pair(a, b)\n"  # holds c
                "    yield from release_all([a, b, c])\n"
            ),
        }
        assert new_rules_hit(src) == {"RL017"}

    def test_interprocedural_cycle_through_yield_from(self):
        """The order graph unifies keys across helper inlining: w1 locks
        (x, y) through a helper, w2 locks (y, x) directly."""
        src = {
            "src/repro/parallel/helpers.py": (
                "def grab(p, q):\n"
                "    ok = yield ('try', p)\n"
                "    ok2 = yield ('try', q)\n"
                "def w1(x, y):\n"
                "    yield from grab(x, y)\n"
                "    yield ('release', x)\n"
                "    yield ('release', y)\n"
                "def w2(x, y):\n"
                "    ok = yield ('try', y)\n"
                "    ok2 = yield ('try', x)\n"
                "    yield ('release', x)\n"
                "    yield ('release', y)\n"
            ),
        }
        assert "RL015" in new_rules_hit(src)


# ----------------------------------------------------------------------
# journal-schema exhaustiveness (RL020-RL022)
# ----------------------------------------------------------------------
_JOURNAL_BASE = (
    "REC_A = 'a'\n"
    "REC_B = 'b'\n"
    "_KINDS = (REC_A, REC_B)\n"
    "class J:\n"
    "    def append(self, rec):\n"
    "        if rec['t'] not in _KINDS:\n"     # validation, not handling
    "            raise ValueError(rec)\n"
    "        self.records.append(rec)\n"
    "    def log_a(self, x):\n"
    "        self.append({'t': REC_A, 'x': x})\n"
)


class TestJournalSchemaMutants:
    def test_rl020_written_kind_without_reader(self):
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE
                + "    def log_b(self):\n"
                  "        self.append({'t': REC_B})\n"  # no reader arm
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL020"}

    def test_rl021_dead_dispatch_arm(self):
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("REC_B = 'b'", "REC_B = 'b'\nREC_C = 'c'")
                + "    def log_b(self):\n"
                  "        self.append({'t': REC_B})\n"
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "            elif t == REC_B:\n"
                  "                out = None\n"
                  "            elif t == REC_C:\n"  # nothing writes 'c'
                  "                out = None\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL021"}

    def test_rl022_field_shape_drift(self):
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("_KINDS = (REC_A, REC_B)",
                                      "_KINDS = (REC_A,)")
                .replace("REC_B = 'b'\n", "")
                + "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['epoch']\n"  # log_a stores 'x'
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL022"}

    def test_alias_tracks_record_kind_across_arms(self):
        """The pending-intent pattern: an alias bound in one arm is read
        in another; its fields belong to the *aliased* kind and must not
        be misattributed (no RL022 here)."""
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE
                + "    def log_b(self, n):\n"
                  "        self.append({'t': REC_B, 'n': n})\n"
                  "    def replay(self):\n"
                  "        pending = None\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                pending = rec\n"
                  "            elif t == REC_B:\n"
                  "                out = (pending['x'], rec['n'])\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == set()

    # -- replication record kinds: promote (WAL) and cursor (sidecar) --

    def test_rl020_promote_written_without_reader(self):
        """A failover writer appends promote records but replay never
        grew an arm for them — the generation bump would vanish."""
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("REC_B = 'b'", "REC_B = 'promote'")
                + "    def log_promote(self, gen, replica):\n"
                  "        self.append({'t': REC_B, 'generation': gen,\n"
                  "                     'replica': replica})\n"
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL020"}

    def test_rl021_cursor_reader_without_writer(self):
        """A shipper that can load a cursor sidecar nobody saves: the
        resume path is dead code."""
        src = {
            "src/repro/service/journal.py": _JOURNAL_BASE + (
                "    def log_b(self):\n"
                "        self.append({'t': REC_B})\n"
                "    def replay(self):\n"
                "        for rec in self.records:\n"
                "            t = rec['t']\n"
                "            if t == REC_A:\n"
                "                out = rec['x']\n"
                "            elif t == REC_B:\n"
                "                out = None\n"
                "        return out\n"
            ),
            "src/repro/replication/shipper.py": (
                "REC_CURSOR = 'cursor'\n"
                "def load_cursor(path):\n"
                "    rec = _read_one(path)\n"
                "    if rec['t'] == REC_CURSOR:\n"
                "        return (rec['records'], rec['offset'])\n"
                "    raise ValueError(rec)\n"
            ),
        }
        assert new_rules_hit(src) == {"RL021"}

    def test_rl022_cursor_field_drift(self):
        """save_cursor stores ``records``/``offset``; a reader asking
        for ``position`` is reading a field that was never written."""
        src = {
            "src/repro/service/journal.py": _JOURNAL_BASE + (
                "    def log_b(self):\n"
                "        self.append({'t': REC_B})\n"
                "    def replay(self):\n"
                "        for rec in self.records:\n"
                "            t = rec['t']\n"
                "            if t == REC_A:\n"
                "                out = rec['x']\n"
                "            elif t == REC_B:\n"
                "                out = None\n"
                "        return out\n"
            ),
            "src/repro/replication/shipper.py": (
                "REC_CURSOR = 'cursor'\n"
                "def save_cursor(fh, n, off):\n"
                "    fh.write({'t': REC_CURSOR, 'records': n,\n"
                "              'offset': off})\n"
                "def load_cursor(path):\n"
                "    rec = _read_one(path)\n"
                "    if rec['t'] == REC_CURSOR:\n"
                "        return (rec['position'], rec['offset'])\n"
                "    raise ValueError(rec)\n"
            ),
        }
        assert new_rules_hit(src) == {"RL022"}

    # -- cross-shard 2PC record kinds: prepare / commit2 / abort2 ------

    def test_rl020_prepare_written_without_reader(self):
        """A 2PC participant writes prepare records but replay never
        grew an arm for them — a dangling prepare would be invisible to
        the recovery resolution pass."""
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("REC_B = 'b'", "REC_B = 'prepare'")
                + "    def log_prepare(self, tx, kind, edge, role):\n"
                  "        self.append({'t': REC_B, 'tx': tx,\n"
                  "                     'kind': kind, 'edge': edge,\n"
                  "                     'role': role})\n"
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL020"}

    def test_rl021_abort2_arm_without_writer(self):
        """Replay dispatches on abort2 records nobody logs — the relic
        of a renamed decision record; presumed-abort would silently
        change meaning."""
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace(
                    "REC_B = 'b'", "REC_B = 'commit2'\nREC_C = 'abort2'")
                + "    def log_commit2(self, tx, epoch):\n"
                  "        self.append({'t': REC_B, 'tx': tx,\n"
                  "                     'epoch': epoch})\n"
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "            elif t == REC_B:\n"
                  "                out = rec['epoch']\n"
                  "            elif t == REC_C:\n"  # nothing writes abort2
                  "                out = None\n"
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL021"}

    def test_rl022_commit2_field_drift(self):
        """log_commit2 stores ``tx``/``epoch``; a reader pulling
        ``shard`` out of commit2 records is reading the prepare's shape
        — exactly the drift the role/foreign redesign invites."""
        src = {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("REC_B = 'b'", "REC_B = 'commit2'")
                + "    def log_commit2(self, tx, epoch):\n"
                  "        self.append({'t': REC_B, 'tx': tx,\n"
                  "                     'epoch': epoch})\n"
                  "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "            elif t == REC_B:\n"
                  "                out = rec['shard']\n"  # prepare's field
                  "        return out\n"
            ),
        }
        assert new_rules_hit(src) == {"RL022"}

    # -- init record: the optional edge-less-vertex field --------------

    _INIT_WRITER = (
        "    def log_init(self, edges, isolated):\n"
        "        rec = {'t': REC_B, 'edges': edges, 'isolated': isolated}\n"
        "        if not isolated:\n"
        "            del rec['isolated']\n"
        "        self.append(rec)\n"
    )

    def _init_journal(self, field):
        return {
            "src/repro/service/journal.py": (
                _JOURNAL_BASE.replace("REC_B = 'b'", "REC_B = 'init'")
                + self._INIT_WRITER
                + "    def replay(self):\n"
                  "        for rec in self.records:\n"
                  "            t = rec['t']\n"
                  "            if t == REC_A:\n"
                  "                out = rec['x']\n"
                  "            elif t == REC_B:\n"
                  f"                out = (rec['edges'], rec.get({field!r}, ()))\n"
                  "        return out\n"
            ),
        }

    def test_rl022_init_isolated_field_drift(self):
        """log_init stores the edge-less vertices as ``isolated``; a
        reader asking init records for ``vertices`` reads a field never
        written, and the rebuilt graph would lose them again."""
        assert new_rules_hit(self._init_journal("vertices")) == {"RL022"}
        assert new_rules_hit(self._init_journal("isolated")) == set()

    def test_pass_skipped_without_writer_zone(self):
        """Linting tests/ alone (no REC_* declarations in the project)
        must not flag every fixture as an unhandled kind."""
        src = {
            "tests/test_thing.py": (
                "def test_bogus(j):\n"
                "    j.append({'t': 'bogus'})\n"
            ),
        }
        assert new_rules_hit(src) == set()


# ----------------------------------------------------------------------
# buffer-schema lockstep (RL023-RL025)
# ----------------------------------------------------------------------
_BUFFER_BASE = (
    "QP_SEQ = 0\n"
    "QP_EPOCH = 1\n"
    "class Pub:\n"
    "    def write(self, hdr, epoch):\n"
    "        hdr[QP_SEQ] = 1\n"
    "        hdr[QP_EPOCH] = epoch\n"
    "        hdr[QP_SEQ] = 2\n"
)


class TestBufferSchemaMutants:
    def test_rl023_stored_slot_never_loaded(self):
        """The reader forgot to decode QP_EPOCH: the publisher pays for
        bytes nobody can see."""
        src = {
            "src/repro/service/queryplane.py": (
                _BUFFER_BASE
                + "class Rdr:\n"
                  "    def read(self, hdr):\n"
                  "        s1 = hdr[QP_SEQ]\n"
                  "        return s1\n"  # QP_EPOCH never loaded
            ),
        }
        assert new_rules_hit(src) == {"RL023"}

    def test_rl024_loaded_slot_never_stored(self):
        """The reader decodes a slot no publisher writes — always-zero
        garbage that looks like a valid epoch."""
        src = {
            "src/repro/service/queryplane.py": (
                _BUFFER_BASE.replace("        hdr[QP_EPOCH] = epoch\n", "")
                + "class Rdr:\n"
                  "    def read(self, hdr):\n"
                  "        s1 = hdr[QP_SEQ]\n"
                  "        epoch = hdr[QP_EPOCH]\n"  # nothing stores it
                  "        return s1, epoch\n"
            ),
        }
        assert new_rules_hit(src) == {"RL024"}

    def test_rl025_declared_slot_never_subscripted(self):
        """A renumbering relic: the constant survives, every use is
        gone — and its index is one layout change from being reused."""
        src = {
            "src/repro/service/queryplane.py": (
                _BUFFER_BASE.replace("QP_EPOCH = 1\n",
                                     "QP_EPOCH = 1\nQP_MIN_EPOCH = 2\n")
                + "class Rdr:\n"
                  "    def read(self, hdr):\n"
                  "        s1 = hdr[QP_SEQ]\n"
                  "        return s1, hdr[QP_EPOCH]\n"
            ),
        }
        assert new_rules_hit(src) == {"RL025"}

    def test_augassign_counts_as_store_and_load(self):
        """``hdr[QP_SEQ] += 1`` both reads and writes the slot — the
        seqlock bump idiom must satisfy both directions at once."""
        src = {
            "src/repro/service/queryplane.py": (
                "QP_SEQ = 0\n"
                "class Pub:\n"
                "    def stamp(self, hdr):\n"
                "        hdr[QP_SEQ] += 1\n"
            ),
        }
        assert new_rules_hit(src) == set()

    def test_pass_skipped_without_slot_declarations(self):
        """Linting a module that merely subscripts QP_-named constants
        (e.g. a test fixture importing them) must not arm the pass."""
        src = {
            "tests/test_thing.py": (
                "from repro.service.queryplane import QP_SEQ\n"
                "def test_poke(hdr):\n"
                "    hdr[QP_SEQ] = 3\n"
            ),
        }
        assert new_rules_hit(src) == set()


# ----------------------------------------------------------------------
# the gate that makes the mutants meaningful
# ----------------------------------------------------------------------
class TestCleanTree:
    def test_src_tree_is_finding_free(self):
        result = run_analysis(Project.load([str(SRC)]))
        assert result.findings == [], "\n".join(
            f.format() for f in result.findings)
