"""Two-level Order-Maintenance list (Dietz–Sleator / Bender et al.).

Supports the three operations of the paper's Section 3.2 with amortized
O(1) cost:

* ``order(x, y)`` — does ``x`` precede ``y``?  Two integer comparisons:
  ``x <= y  iff  L_t(x) < L_t(y) or (L_t(x) = L_t(y) and L_b(x) < L_b(y))``.
* ``insert_after(x, y)`` / ``insert_head`` / ``insert_tail`` — splice a new
  item into the order, relabeling locally when label space runs out.
* ``delete(x)`` — unlink; never relabels.

Structure: items live in *groups* (the bottom level); groups form a doubly
linked *top list*.  Each group holds at most ``capacity`` items.  When a
group overflows it *splits*; when the top list has no label gap after a
group ``g`` it *rebalances* following the paper's rule: walk successors
``g'`` until ``L(g') - L(g) > j**2`` (``j`` = number traversed), then
relabel those ``j`` groups with gap ``j``.

Relabel events (splits and rebalances) bump ``self.version`` — the hook the
parallel priority queue of Appendix E uses to detect that cached labels went
stale.

A permanent sentinel group+item sits at the head with labels 0, which makes
``insert_head``/``insert_tail`` plain ``insert_after`` calls and keeps every
relabel strictly to the right of label 0.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence

__all__ = ["OMItem", "OMGroup", "OMList"]

# 62-bit label universes leave headroom below Python's arbitrary precision
# while matching the fixed-width labels a C implementation would use.
_TOP_MAX = 1 << 62
_BOT_MAX = 1 << 62


def _gap_relabels(label: int, size: int, appends: int, sentinel: bool) -> int:
    """How many times ``appends`` tail inserts into a group of ``size``
    items whose last bottom label is ``label`` respace the group.

    Each insert halves the gap ``g`` to ``_BOT_MAX``, so
    ``(g - 1).bit_length()`` inserts fit before the gap drops below 2;
    the next one respaces the group evenly first (the sentinel keeps
    label 0)."""
    relabels = 0
    while True:
        fit = (_BOT_MAX - label - 1).bit_length()
        if appends <= fit:
            return relabels
        appends -= fit
        size += fit
        relabels += 1
        label = (size - sentinel) * (_BOT_MAX // (size + 1))


class OMItem:
    """A handle in the ordered list.

    ``payload`` is the caller's object (a vertex).  ``s`` is the per-item
    status counter of the paper's Algorithm 4/5: incremented before and
    after any operation that changes this item's position, so concurrent
    readers can detect in-flight moves (odd value) and moved items (changed
    value).  The sequential structure only bumps it on relabel/move; the
    parallel wrapper manages the protocol.
    """

    __slots__ = ("payload", "label", "group", "prev", "next", "s")

    def __init__(self, payload: Any = None) -> None:
        self.payload = payload
        self.label: int = 0
        self.group: Optional["OMGroup"] = None
        self.prev: Optional["OMItem"] = None
        self.next: Optional["OMItem"] = None
        self.s: int = 0

    @property
    def in_list(self) -> bool:
        """True while the item is spliced into some :class:`OMList`."""
        return self.group is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.group.label if self.group else None
        return f"OMItem({self.payload!r}, top={g}, bot={self.label})"


class OMGroup:
    """A bottom-level group: a contiguous run of items sharing a top label."""

    __slots__ = ("label", "prev", "next", "first", "last", "size")

    def __init__(self, label: int) -> None:
        self.label = label
        self.prev: Optional["OMGroup"] = None
        self.next: Optional["OMGroup"] = None
        self.first: Optional[OMItem] = None
        self.last: Optional[OMItem] = None
        self.size = 0

    def items(self) -> Iterator[OMItem]:
        x = self.first
        while x is not None:
            yield x
            x = x.next if x.group is self else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"OMGroup(label={self.label}, size={self.size})"


class OMList:
    """The ordered list.  See module docstring.

    Parameters
    ----------
    capacity:
        Maximum items per group before a split.  The theory wants
        Θ(log N); a fixed 64 behaves identically at our scales and is what
        practical implementations use.

    Statistics ``n_splits``, ``n_rebalances`` and the ``version`` counter
    are exposed for the versioned priority queue and for the OM ablation
    benchmark.
    """

    __slots__ = (
        "capacity",
        "_sentinel_group",
        "_sentinel",
        "_last",
        "size",
        "version",
        "relabels_in_progress",
        "n_splits",
        "n_rebalances",
    )

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 4:
            raise ValueError("capacity must be >= 4")
        self.capacity = capacity
        g = OMGroup(0)
        s = OMItem(None)
        s.group = g
        s.label = 0
        g.first = g.last = s
        g.size = 1
        self._sentinel_group = g
        self._sentinel = s
        self._last: OMItem = s
        self.size = 0  # excludes the sentinel
        self.version = 0
        # Incremented while a relabel runs; the parallel PQ polls it
        # (``O_k.cnt`` in Appendix E).  Sequentially it is 0 between calls.
        self.relabels_in_progress = 0
        self.n_splits = 0
        self.n_rebalances = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def order(self, x: OMItem, y: OMItem) -> bool:
        """True iff ``x`` strictly precedes ``y`` in the list."""
        # Hot path of every k-order comparison: same-group compares need
        # only the bottom labels (group identity substitutes for the top
        # label equality check — top labels are unique per group), and
        # the not-in-list guard is folded into the group load.
        if x is y:
            return False
        gx, gy = x.group, y.group
        if gx is gy:
            if gx is None:
                raise ValueError("item not in list")
            return x.label < y.label
        if gx is None or gy is None:
            raise ValueError("item not in list")
        return gx.label < gy.label

    def labels(self, x: OMItem) -> tuple:
        """The ``(top, bottom)`` label pair — the PQ's sort key."""
        return (x.group.label, x.label)  # type: ignore[union-attr]

    def first(self) -> Optional[OMItem]:
        """First real item, or None when empty."""
        return self._succ(self._sentinel)

    def last(self) -> Optional[OMItem]:
        """Last real item, or None when empty."""
        return None if self._last is self._sentinel else self._last

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[OMItem]:
        x = self.first()
        while x is not None:
            yield x
            x = self._succ(x)

    def _succ(self, x: OMItem) -> Optional[OMItem]:
        if x.next is not None:
            return x.next
        g = x.group.next if x.group else None
        while g is not None and g.size == 0:
            g = g.next
        return g.first if g is not None else None

    def successor(self, x: OMItem) -> Optional[OMItem]:
        """Next item in order, or None at the tail."""
        return self._succ(x)

    def predecessor(self, x: OMItem) -> Optional[OMItem]:
        """Previous item in order (possibly the internal sentinel's
        successor chain start), or None when ``x`` is the first item.

        Empty non-sentinel groups are unlinked eagerly, so the previous
        group (when needed) is guaranteed non-empty.
        """
        if x.prev is not None:
            prev = x.prev
        else:
            g = x.group.prev if x.group else None
            prev = g.last if g is not None else None
        if prev is self._sentinel:
            return None
        return prev

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert_head(self, y: OMItem) -> None:
        """Insert ``y`` as the new first item."""
        self.insert_after(self._sentinel, y)

    def insert_tail(self, y: OMItem) -> None:
        """Append ``y`` as the new last item."""
        self.insert_after(self._last, y)

    def extend(self, items: Sequence[OMItem]) -> None:
        """Append ``items`` at the tail, in order, in one pass.

        The result is exactly what one :meth:`insert_tail` per item
        leaves: the same groups, top and bottom labels, ``n_splits``,
        ``n_rebalances`` and ``version``.  Tail appends fill the last
        group, and a full group splits keeping its first
        ``capacity // 2`` items.  So every group that fills up ends with
        that many items, evenly respaced, and only the last group's
        labels need the appends replayed one by one.
        """
        for y in items:
            if y.group is not None:
                raise ValueError("item already in a list")
        if not items:
            return
        cap = self.capacity
        half = cap // 2
        g = self._last.group
        run = list(g.items())
        start_size = len(run)
        run.extend(items)
        cuts = [0]
        while len(run) - cuts[-1] > cap:
            cuts.append(cuts[-1] + half)
        n_new = len(cuts) - 1
        groups = [g] + [OMGroup(0) for _ in range(n_new)]
        relabels = 0
        if n_new:
            self.n_splits += n_new
            moved = cap - half
            # growing to its split, a group may run out of bottom labels
            # and respace (the fresh sentinel group does once)
            relabels += _gap_relabels(run[start_size - 1].label, start_size,
                                      cap - start_size,
                                      g is self._sentinel_group)
            relabels += (n_new - 1) * _gap_relabels(
                moved * (_BOT_MAX // (moved + 1)), moved, half, False)
            step = _BOT_MAX // (half + 1)
            for j in range(n_new):
                self._lay(groups[j], run[cuts[j]:cuts[j + 1]], step)
                # the split's top label (a rebalance when out of gap)
                self._insert_group_after(groups[j], groups[j + 1])
            # the last group starts as the moved upper half, respaced
            tail_from = cuts[-1] + moved
            self._lay(groups[-1], run[cuts[-1]:tail_from],
                      _BOT_MAX // (moved + 1))
        else:
            tail_from = start_size
        relabels += self._append_in_group(groups[-1], run[cuts[-1]:],
                                          tail_from - cuts[-1])
        self.version += 2 * (n_new + relabels)
        self.size += len(items)
        self._last = run[-1]

    def _lay(self, g: OMGroup, chunk: List[OMItem], step: int = 0) -> None:
        """Make ``chunk`` the linked items of ``g``; with a ``step``, label
        them ``step``, ``2 * step``, ... (the sentinel keeps 0)."""
        g.first, g.last, g.size = chunk[0], chunk[-1], len(chunk)
        label = 0
        prev = None
        for it in chunk:
            it.group = g
            it.prev = prev
            if prev is not None:
                prev.next = it
            if step and it is not self._sentinel:
                label += step
                it.label = label
            prev = it
        prev.next = None

    def _append_in_group(self, g: OMGroup, members: List[OMItem],
                         placed: int) -> int:
        """Append ``members[placed:]`` to ``g``, whose items are
        ``members[:placed]``, as :meth:`insert_after` would: each label
        halves the gap to the end of the label space, and a group out of
        gap is respaced first.  Returns how many respacings that took."""
        relabels = 0
        label = members[placed - 1].label
        for i in range(placed, len(members)):
            if _BOT_MAX - label < 2:
                relabels += 1
                self._lay(g, members[:i], _BOT_MAX // (i + 1))
                label = members[i - 1].label
            label += (_BOT_MAX - label) // 2
            members[i].label = label
        self._lay(g, members)
        return relabels

    def insert_before(self, x: OMItem, y: OMItem) -> None:
        """Insert ``y`` immediately before ``x``."""
        pred = self.predecessor(x)
        self.insert_after(pred if pred is not None else self._sentinel, y)

    def insert_after(self, x: OMItem, y: OMItem) -> None:
        """Insert ``y`` immediately after ``x`` (paper's ``Insert(x, y)``).

        ``x`` must be in this list; ``y`` must not be in any list.
        """
        if x.group is None:
            raise ValueError("anchor item not in list")
        if y.group is not None:
            raise ValueError("item already in a list")
        g = x.group
        if g.size >= self.capacity:
            self._split(g)
            g = x.group  # x may have moved to the new right half
        nxt_label = x.next.label if x.next is not None else _BOT_MAX
        if nxt_label - x.label < 2:
            self._relabel_group(g)
            nxt_label = x.next.label if x.next is not None else _BOT_MAX
        y.label = x.label + (nxt_label - x.label) // 2
        y.group = g
        y.prev = x
        y.next = x.next
        if x.next is not None:
            x.next.prev = y
        else:
            g.last = y
        x.next = y
        g.size += 1
        self.size += 1
        if x is self._last:
            self._last = y

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, x: OMItem) -> None:
        """Unlink ``x`` (paper's ``Delete(x)``) — O(1), never relabels."""
        g = x.group
        if g is None:
            raise ValueError("item not in list")
        if x is self._sentinel:
            raise ValueError("cannot delete the sentinel")
        if x.prev is not None:
            x.prev.next = x.next
        else:
            g.first = x.next
        if x.next is not None:
            x.next.prev = x.prev
        else:
            g.last = x.prev
        if self._last is x:
            # Empty non-sentinel groups are unlinked eagerly, so every
            # preceding group is non-empty: the new last item is either x's
            # in-group predecessor or the last item of the previous group.
            if x.prev is not None:
                self._last = x.prev
            else:
                assert g.prev is not None and g.prev.last is not None
                self._last = g.prev.last
        g.size -= 1
        if g.size == 0 and g is not self._sentinel_group:
            # unlink the empty group from the top list
            if g.prev is not None:
                g.prev.next = g.next
            if g.next is not None:
                g.next.prev = g.prev
        x.group = None
        x.prev = None
        x.next = None
        self.size -= 1

    # ------------------------------------------------------------------
    # relabeling
    # ------------------------------------------------------------------
    def _begin_relabel(self) -> None:
        self.relabels_in_progress += 1
        self.version += 1

    def _end_relabel(self) -> None:
        self.relabels_in_progress -= 1
        self.version += 1

    def _relabel_group(self, g: OMGroup) -> None:
        """Uniformly respace the bottom labels of ``g``."""
        self._begin_relabel()
        try:
            step = _BOT_MAX // (g.size + 1)
            # The sentinel item must keep label 0; it is always first in its
            # group, so starting labels at ``step`` and giving the sentinel
            # label 0 explicitly preserves that.  Direct next-pointer walk
            # (group chains are None-terminated) — no generator frames on
            # the relabel hot path.
            label = step
            sentinel = self._sentinel
            it = g.first
            while it is not None:
                if it is sentinel:
                    it.label = 0
                else:
                    it.label = label
                    label += step
                it = it.next
        finally:
            self._end_relabel()

    def _split(self, g: OMGroup) -> None:
        """Split a full group, moving its upper half into a new group after it."""
        self.n_splits += 1
        self._begin_relabel()
        try:
            new = OMGroup(0)
            half = g.size // 2
            # find the first item of the upper half
            it = g.first
            for _ in range(half - 1):
                it = it.next  # type: ignore[union-attr]
            # it = last item staying in g
            move_first = it.next  # type: ignore[union-attr]
            assert move_first is not None
            # detach upper half
            it.next = None  # type: ignore[union-attr]
            g.last = it
            moved = 0
            cur: Optional[OMItem] = move_first
            new.first = move_first
            move_first.prev = None
            while cur is not None:
                cur.group = new
                new.last = cur
                moved += 1
                cur = cur.next
            new.size = moved
            g.size -= moved
            # splice the new group after g in the top list
            self._insert_group_after(g, new)
            # respace bottom labels in both halves (direct walk, as in
            # _relabel_group)
            sentinel = self._sentinel
            for grp in (g, new):
                step = _BOT_MAX // (grp.size + 1)
                label = step
                item = grp.first
                while item is not None:
                    if item is sentinel:
                        item.label = 0
                    else:
                        item.label = label
                        label += step
                    item = item.next
        finally:
            self._end_relabel()

    def _insert_group_after(self, g: OMGroup, new: OMGroup) -> None:
        """Give ``new`` a top label strictly between ``g`` and its successor,
        rebalancing successors per the paper's rule when there is no gap."""
        nxt = g.next
        nxt_label = nxt.label if nxt is not None else _TOP_MAX
        if nxt_label - g.label < 2:
            self._rebalance_after(g)
            nxt = g.next
            nxt_label = nxt.label if nxt is not None else _TOP_MAX
        new.label = g.label + (nxt_label - g.label) // 2
        new.prev = g
        new.next = g.next
        if g.next is not None:
            g.next.prev = new
        g.next = new

    def _rebalance_after(self, g: OMGroup) -> None:
        """Paper's rebalance: walk successors ``g'`` until
        ``L(g') - L(g) > j**2`` (``j`` = groups traversed), then relabel the
        traversed groups with gap ``j``."""
        self.n_rebalances += 1
        j = 1
        cur = g.next
        while cur is not None and cur.label - g.label <= j * j:
            cur = cur.next
            j += 1
        bound = cur.label if cur is not None else _TOP_MAX
        if bound - g.label <= j * j:
            # Label space truly exhausted (only possible after ~2^31
            # groups): respace the whole top list.
            self._relabel_all_groups()
            return
        gap = j
        label = g.label + gap
        walk = g.next
        while walk is not cur:
            assert walk is not None
            walk.label = label
            label += gap
            walk = walk.next

    def _relabel_all_groups(self) -> None:
        # count groups
        count = 0
        cur: Optional[OMGroup] = self._sentinel_group
        while cur is not None:
            count += 1
            cur = cur.next
        step = _TOP_MAX // (count + 1)
        label = 0
        cur = self._sentinel_group
        while cur is not None:
            cur.label = label
            label += step
            cur = cur.next

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal invariants are violated.

        Used by tests and the hypothesis state machine.
        """
        prev_top = -1
        g: Optional[OMGroup] = self._sentinel_group
        last_item = self._sentinel
        while g is not None:
            assert g.label > prev_top or g is self._sentinel_group, "top labels must increase"
            prev_top = g.label
            prev_bot = -1
            n = 0
            it = g.first
            while it is not None:
                assert it.group is g, "item group pointer broken"
                assert it.label > prev_bot or it is self._sentinel, "bottom labels must increase"
                prev_bot = it.label
                n += 1
                last_item = it
                it = it.next
            assert n == g.size, f"group size mismatch: {n} != {g.size}"
            assert g.size <= self.capacity, "group over capacity"
            g = g.next
        count = sum(1 for _ in self)
        assert count == self.size, f"list size mismatch: {count} != {self.size}"
        assert self._last is last_item, "last pointer stale"

    def to_list(self) -> List[Any]:
        """Payloads in order — handy in tests."""
        return [x.payload for x in self]
