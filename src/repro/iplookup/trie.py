"""Uni-bit (binary) trie for longest-prefix match.

The paper maps one trie level to one pipeline stage (Section V-D), so
the trie is the structure from which all per-stage memory statistics
derive.  Nodes are stored in parallel arrays (structure-of-arrays)
rather than linked objects: child links are integer indices, which
keeps builds allocation-light and lets batch lookups run as a few
whole-batch NumPy gathers instead of a Python loop per packet: one
over a 16-bit root jump table, then one per 8-bit expansion window
(at most two for IPv4), each landing on the same unibit node the
bit-by-bit walk reaches, so depth and answer stay exact.

Node index 0 is always the root.  A node is a *leaf* when it has no
children; next-hop information (NHI) may sit on any node in a plain
trie, and only on leaves after :func:`repro.iplookup.leafpush.leaf_push`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TrieError
from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import NO_ROUTE, RoutingTable
from repro.obs.registry import REGISTRY

__all__ = ["UnibitTrie", "TrieStats", "FrozenWalk", "NONE"]

#: sentinel child index meaning "no child"
NONE = -1

#: dtype of the expansion rows and their index: half the bytes of the
#: int64 walk arrays, so a patch copies and a walk gathers less
ROW = np.int32


@dataclass(frozen=True, slots=True)
class FrozenWalk:
    """Immutable structure-of-arrays snapshot of a trie's lookup state.

    Built by :meth:`UnibitTrie._freeze`; every array is laid out so the
    batch walk is a handful of whole-batch gathers with no per-call
    setup:

    * ``childflat`` — child indices indexed ``(node << 1) | bit``;
      a missing child self-loops, so a lane whose walk terminated
      parks on its last real node and needs no masking;
    * ``best`` — per node, the NHI of the nearest ancestor-or-self
      carrying one (the LPM answer for any lane parked there);
    * ``levels`` — per node depth, which doubles as the walk depth of
      a parked lane;
    * ``jump`` — a ``2^jump_stride``-entry direct index over the top
      address bits resolving the first ``jump_stride`` levels in one
      gather (the :class:`~repro.virt.merged.MergedTrie` root jump
      table, generalized to non-leaf-pushed tries);
    * ``windows`` / ``rowof`` / ``rows`` — the expansion windows after
      the jump, ``(start level, bits)`` each: ``[16, 24)`` and
      ``[24, 32)``, the last one cut short at ``depth`` (none for
      tries wider than 32 bits, which walk scalar).  Every internal
      node at a window's start level owns one row of ``2^bits``
      entries in ``rows``; entry ``p`` is the node reached (or parked
      on) after walking pattern ``p`` from it.  ``rowof`` maps every
      walk slot to its row's first entry, or -1 for a node without a
      row, whose lanes stay where they are.

    Rows hold nodes, not answers, so the walk still ends on the exact
    unibit node: ``levels``/``best`` give the same depth (per-stage
    accesses) and LPM result as the bit-by-bit walk.

    A snapshot is never written after construction: every array it
    holds is made read-only here.  An update to the trie leaves it
    answering the table as it was, and the next freeze derives a new
    snapshot from it, copying only the arrays the pending updates
    touch (see :meth:`UnibitTrie.freeze`).
    """

    nhi: np.ndarray
    levels: np.ndarray
    childflat: np.ndarray
    best: np.ndarray
    jump: np.ndarray
    jump_stride: int
    depth: int
    windows: tuple[tuple[int, int], ...] = ()
    rowof: tuple[np.ndarray, ...] = ()
    rows: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        arrays = (self.nhi, self.levels, self.childflat, self.best, self.jump,
                  *self.rowof, *self.rows)
        for array in arrays:
            array.setflags(write=False)

    def final_nodes(self, addresses: np.ndarray, width: int = 32) -> np.ndarray:
        """Per-address node the walk ends on: one gather through the
        root jump table, then one row gather per expansion window."""
        addr64 = np.asarray(addresses, dtype=np.uint32).astype(np.int64)
        stride = self.jump_stride
        if stride:
            node = self.jump[addr64 >> (width - stride)]
        else:
            node = np.zeros(len(addr64), dtype=np.int64)
        for (start, bits), rowof, rows in zip(self.windows, self.rowof, self.rows):
            at = rowof[node]
            # a lane without a row reads a discarded entry (-1 wraps)
            ahead = rows[at + ((addr64 >> (width - start - bits)) & ((1 << bits) - 1))]
            node = np.where(at >= 0, ahead, node)
        return node

    def walk(self, addresses: np.ndarray, width: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Per-address depth reached and LPM result on this snapshot."""
        node = self.final_nodes(addresses, width)
        return self.levels[node], self.best[node]


#: the two child bits a breadth-first walk step appends to each node
_BIT = np.array([0, 1], dtype=np.int64)


def _jump_walk(childflat: np.ndarray, origins, stride: int) -> np.ndarray:
    """For each origin node, the ``2^stride`` nodes reached (or parked
    on) after walking each ``stride``-bit pattern from it, in pattern
    order, concatenated: the root jump table from ``[0]``, one
    expansion row per window-start node.  Breadth first: step ``i``
    gathers the ``2^i`` nodes under each origin, not all ``2^stride``
    lanes."""
    node = np.asarray(origins, dtype=np.int64)
    for _ in range(stride):
        node = childflat[((node << 1)[:, None] | _BIT).ravel()]
    return node


def _window_rows(
    childflat: np.ndarray, owners: np.ndarray, slots: int, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """One window laid out from scratch: ``rowof`` over ``slots`` walk
    slots, and the rows of ``owners`` in order."""
    at = np.full(slots, -1, dtype=ROW)
    at[owners] = np.arange(len(owners)) << bits
    rows = np.empty(len(owners) << bits, dtype=ROW)
    # 2^16 entries at a time: the walk's int64 temporaries stay small
    step = (1 << 16) >> bits
    for lo in range(0, len(owners), step):
        part = owners[lo : lo + step]
        rows[lo << bits : (lo + len(part)) << bits] = _jump_walk(childflat, part, bits)
    return at, rows


@dataclass(frozen=True, slots=True)
class TrieStats:
    """Structural statistics of a trie.

    These are the quantities the paper reports for its reference
    routing table (Section V-E): total node count, and the split into
    pointer (non-leaf) and NHI (leaf) nodes that drives the Fig. 4
    memory accounting.
    """

    total_nodes: int
    internal_nodes: int
    leaf_nodes: int
    depth: int
    prefixes: int
    nodes_per_level: tuple[int, ...]
    internal_per_level: tuple[int, ...]
    leaves_per_level: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.internal_nodes + self.leaf_nodes != self.total_nodes:
            raise TrieError("internal + leaf node counts must equal total")


class UnibitTrie:
    """Array-backed binary trie supporting LPM lookup.

    Parameters
    ----------
    table:
        Optional routing table inserted at construction.
    width:
        Address width in bits: 32 for IPv4 (default), 128 for the
        IPv6 extension.  The vectorized batch lookup requires
        ``width <= 32`` (NumPy word size); wider tries fall back to
        scalar walks.
    """

    #: root-stride of the frozen jump table (capped at the trie depth)
    JUMP_STRIDE = 16
    #: levels one expansion window resolves after the jump (the last
    #: window is cut short at the trie depth)
    WINDOW_BITS = 8

    __slots__ = (
        "_left",
        "_right",
        "_nhi",
        "_level",
        "_level_count",
        "_prefix_count",
        "_frozen",
        "_base",
        "_capacity",
        "_released_rows",
        "_pending",
        "_free",
        "width",
    )

    def __init__(self, table: RoutingTable | None = None, *, width: int = 32):
        if width < 1:
            raise TrieError(f"address width must be positive, got {width}")
        self.width = width
        self._left: list[int] = [NONE]
        self._right: list[int] = [NONE]
        self._nhi: list[int] = [NO_ROUTE]
        self._level: list[int] = [0]
        # live nodes per level, so depth() needs no traversal
        self._level_count: list[int] = [1] + [0] * width
        self._prefix_count = 0
        # the current snapshot, None while updates are pending
        self._frozen: FrozenWalk | None = None
        # the last snapshot built, kept for patching after updates;
        # _capacity is 0 while it has the compact fresh layout
        self._base: FrozenWalk | None = None
        self._capacity = 0
        # per expansion window, the rows a patch released for reuse
        self._released_rows: list[list[int]] = []
        # (prefix, split level, freed slots) per update since _base
        # was built, or None when the next freeze must be a full build
        self._pending: list[tuple[Prefix, int, tuple[int, ...]]] | None = None
        # indices of withdrawn (unlinked) nodes available for reuse —
        # route withdrawal recycles storage instead of compacting
        self._free: list[int] = []
        if table is not None:
            for route in table:
                self.insert(route.prefix, route.next_hop)

    # -- construction --------------------------------------------------

    def _new_node(self, level: int) -> int:
        self._level_count[level] += 1
        if self._free:
            node = self._free.pop()
            self._left[node] = NONE
            self._right[node] = NONE
            self._nhi[node] = NO_ROUTE
            self._level[node] = level
            return node
        self._left.append(NONE)
        self._right.append(NONE)
        self._nhi.append(NO_ROUTE)
        self._level.append(level)
        return len(self._left) - 1

    def _touch(self, prefix: Prefix, split: int, freed: tuple[int, ...] = ()) -> None:
        """Mark the snapshot stale after an update along ``prefix``.

        ``split`` is the level of the node whose children changed (-1
        when only an NHI changed); ``freed`` the slots a withdrawal
        pruned.  The update is queued for the next freeze to patch
        in; past ``16 + slots/32`` queued updates a full build is
        cheaper, so the queue is dropped instead.
        """
        self._frozen = None
        pending = self._pending
        if pending is not None:
            if len(pending) < 16 + (len(self._left) >> 5):
                pending.append((prefix, split, freed))
            else:
                self._pending = None

    def insert(self, prefix: Prefix, next_hop: int) -> bool:
        """Insert ``prefix`` → ``next_hop``; re-insertion overwrites.

        Returns True when the trie actually changed — nodes were
        created or the stored NHI value differs.  Re-announcing an
        identical route is a no-op and leaves the frozen lookup
        arrays (and anything cached on top of them, e.g. the merged
        view in :class:`repro.virt.manager.VirtualRouterManager`)
        valid.
        """
        if next_hop < 0:
            raise TrieError(f"next hop must be non-negative, got {next_hop}")
        if prefix.length > self.width:
            raise TrieError(
                f"prefix length {prefix.length} exceeds trie width {self.width}"
            )
        node = 0
        split = -1
        for level in range(prefix.length):
            bit = prefix.bit(level)
            children = self._right if bit else self._left
            child = children[node]
            if child == NONE:
                child = self._new_node(level + 1)
                children[node] = child
                if split < 0:
                    split = level
            node = child
        if self._nhi[node] == NO_ROUTE:
            self._prefix_count += 1
        changed = split >= 0 or self._nhi[node] != next_hop
        self._nhi[node] = next_hop
        if changed:
            self._touch(prefix, split)
        return changed

    def remove(self, prefix: Prefix) -> bool:
        """Withdraw ``prefix``; prune chain nodes it no longer needs.

        Returns True if the prefix was present.  Pruned nodes are
        recycled by later insertions (BGP churn does not grow the
        structure unboundedly).
        """
        path: list[int] = [0]
        node = 0
        for level in range(prefix.length):
            bit = prefix.bit(level)
            node = self._right[node] if bit else self._left[node]
            if node == NONE:
                return False
            path.append(node)
        if self._nhi[node] == NO_ROUTE:
            return False
        self._nhi[node] = NO_ROUTE
        self._prefix_count -= 1
        # prune upward: drop nodes that are now childless and carry no NHI
        split = -1
        freed = []
        for depth in range(len(path) - 1, 0, -1):
            child = path[depth]
            if not self.is_leaf(child) or self._nhi[child] != NO_ROUTE:
                break
            parent = path[depth - 1]
            if self._left[parent] == child:
                self._left[parent] = NONE
            else:
                self._right[parent] = NONE
            self._free.append(child)
            freed.append(child)
            self._level_count[depth] -= 1
            split = depth - 1
        self._touch(prefix, split, tuple(freed))
        return True

    # -- structure access ----------------------------------------------

    def __len__(self) -> int:
        return len(self._left) - len(self._free)

    @property
    def num_nodes(self) -> int:
        """Live node count including the root."""
        return len(self._left) - len(self._free)

    @property
    def num_prefixes(self) -> int:
        """Number of distinct prefixes inserted."""
        return self._prefix_count

    def left(self, node: int) -> int:
        """Index of the 0-child of ``node`` (``NONE`` if absent)."""
        return self._left[node]

    def right(self, node: int) -> int:
        """Index of the 1-child of ``node`` (``NONE`` if absent)."""
        return self._right[node]

    def nhi(self, node: int) -> int:
        """Next-hop stored at ``node`` (``NO_ROUTE`` if none)."""
        return self._nhi[node]

    def level(self, node: int) -> int:
        """Depth of ``node`` (root = 0)."""
        return self._level[node]

    def is_leaf(self, node: int) -> bool:
        """True if ``node`` has no children."""
        return self._left[node] == NONE and self._right[node] == NONE

    def nodes(self) -> range:
        """All *allocated* node slots (root first; otherwise unordered).

        After withdrawals this range may include recycled-but-free
        slots (unlinked, NHI-less leaves); positional consumers like
        the merged-trie gather arrays rely on the allocated range
        being stable.  Use :meth:`live_nodes` to visit only reachable
        nodes.
        """
        return range(len(self._left))

    def live_nodes(self) -> Iterator[int]:
        """Preorder iterator over nodes reachable from the root."""
        for node, _, _ in self.walk_paths():
            yield node

    def walk_paths(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(node, path_value, level)`` in preorder.

        ``path_value`` is the node's path from the root packed into
        the high bits of a 32-bit word, i.e. the network address of
        the prefix the node represents.  Used by the merge machinery
        to identify structurally common nodes.
        """
        stack: list[tuple[int, int]] = [(0, 0)]
        while stack:
            node, path = stack.pop()
            level = self._level[node]
            yield node, path, level
            right = self._right[node]
            if right != NONE:
                stack.append((right, path | (1 << (self.width - 1 - level))))
            left = self._left[node]
            if left != NONE:
                stack.append((left, path))

    # -- lookup ----------------------------------------------------------

    def lookup(self, address: int) -> int:
        """Longest-prefix-match ``address``, returning the NHI.

        Walks the trie bit by bit remembering the last node that held
        NHI — exactly the traversal a pipeline stage sequence performs.
        """
        return self._walk_scalar(address)[1]

    def _freeze(self) -> FrozenWalk:
        if self._frozen is None:
            frozen = None
            if self._base is not None and self._pending is not None:
                frozen = self._patch(self._base, self._pending)
            kind = "patch"
            if frozen is None:
                frozen = self._build()
                self._capacity = 0
                kind = "full"
            if REGISTRY.enabled:  # one branch per freeze; zero overhead off
                REGISTRY.counter(
                    "repro_trie_freezes_total",
                    "Frozen walk snapshots built: from scratch or patched after updates",
                    labels=("kind",),
                ).labels(kind).inc()
            self._frozen = self._base = frozen
            self._pending = []
        return self._frozen

    def _build(self) -> FrozenWalk:
        """A snapshot from scratch, in the compact layout."""
        left = np.asarray(self._left, dtype=np.int64)
        right = np.asarray(self._right, dtype=np.int64)
        nhi = np.asarray(self._nhi, dtype=np.int64)
        levels = np.asarray(self._level, dtype=np.int64)
        n = len(left)
        identity = np.arange(n, dtype=np.int64)
        # parent pointers (root and freed slots point at themselves)
        parent = identity.copy()
        has_left = left != NONE
        parent[left[has_left]] = identity[has_left]
        has_right = right != NONE
        parent[right[has_right]] = identity[has_right]
        # best[node] = nearest ancestor-or-self NHI, propagated one
        # level at a time (a child's parent is always one level up,
        # so each level's gather reads already-final values).
        depth = self.depth()
        best = nhi.copy()
        order = np.argsort(levels, kind="stable")
        starts = np.searchsorted(levels[order], np.arange(depth + 2))
        for lvl in range(1, depth + 1):
            at = order[starts[lvl] : starts[lvl + 1]]
            own = nhi[at]
            best[at] = np.where(own != NO_ROUTE, own, best[parent[at]])
        # child targets: a childless node self-loops (parking is
        # safe — no bit can leave it), but a node with exactly one
        # child must NOT self-loop on its missing side, or a later
        # address bit would un-park the lane into the live child.
        # Each such slot gets a dedicated parked node carrying the
        # parent's level/best; parked nodes self-loop both ways.
        # A full (leaf-pushed) trie has no such slots, so its
        # childflat is exactly the merged-engine layout.
        childless = (left == NONE) & (right == NONE)
        lx = np.where(left == NONE, identity, left)
        rx = np.where(right == NONE, identity, right)
        miss_left = np.flatnonzero((left == NONE) & ~childless)
        miss_right = np.flatnonzero((right == NONE) & ~childless)
        parked_parents = np.concatenate([miss_left, miss_right])
        m = len(parked_parents)
        parked = n + np.arange(m, dtype=np.int64)
        lx[miss_left] = parked[: len(miss_left)]
        rx[miss_right] = parked[len(miss_left) :]
        childflat = np.empty(2 * (n + m), dtype=np.int64)
        childflat[0 : 2 * n : 2] = lx
        childflat[1 : 2 * n : 2] = rx
        childflat[2 * n :: 2] = parked
        childflat[2 * n + 1 :: 2] = parked
        levels_walk = np.concatenate([levels, levels[parked_parents]])
        best_walk = np.concatenate([best, best[parked_parents]])
        # jump table over the top stride bits: entry p is the node
        # reached (or parked on) after walking bit pattern p.
        stride = min(self.JUMP_STRIDE, depth)
        jump = _jump_walk(childflat, [0], stride)
        # one expansion row per internal node at each window's start
        # (a freed slot is childless, so it never gets one)
        windows = self._windows(stride, depth)
        laid = [
            _window_rows(childflat, np.flatnonzero(~childless & (levels == start)), n + m, bits)
            for start, bits in windows
        ]
        return FrozenWalk(
            nhi=nhi,
            levels=levels_walk,
            childflat=childflat,
            best=best_walk,
            jump=jump,
            jump_stride=stride,
            depth=depth,
            windows=windows,
            rowof=tuple(at for at, _ in laid),
            rows=tuple(table for _, table in laid),
        )

    def _windows(self, stride: int, depth: int) -> tuple[tuple[int, int], ...]:
        """``(start level, bits)`` of each expansion window after a
        ``stride``-level jump: ``WINDOW_BITS`` levels each, the last
        cut short at ``depth``; none for tries wider than 32 bits."""
        if self.width > 32:
            return ()
        step = self.WINDOW_BITS
        return tuple((start, min(step, depth - start)) for start in range(stride, depth, step))

    def _relayout(self, base: FrozenWalk) -> FrozenWalk:
        """``base`` (compact) re-laid out for patching.

        Trie slots get headroom up to a capacity of an eighth above
        the slot count, and every slot ``i`` gets its own parked slot
        at ``capacity + i``, so a node created or newly left with one
        child needs no index shuffling.  Unused slots self-loop.  The
        expansion rows keep their layout (a patch appends a row when
        it needs one and no released row is left).
        """
        n = len(base.nhi)
        cap = n + (n >> 3) + 64
        remap = np.arange(len(base.levels), dtype=np.int64)
        flat = base.childflat[: 2 * n]
        at = np.flatnonzero(flat >= n)
        remap[flat[at]] = cap + (at >> 1)
        childflat = np.repeat(np.arange(2 * cap, dtype=np.int64), 2)
        childflat[: 2 * n] = remap[flat]
        levels = np.zeros(2 * cap, dtype=np.int64)
        levels[:n] = levels[cap : cap + n] = base.levels[:n]
        best = np.full(2 * cap, NO_ROUTE, dtype=np.int64)
        best[:n] = best[cap : cap + n] = base.best[:n]
        nhi = np.full(cap, NO_ROUTE, dtype=np.int64)
        nhi[:n] = base.nhi
        rowof = []
        for owned in base.rowof:
            padded = np.full(2 * cap, -1, dtype=ROW)
            padded[:n] = owned[:n]
            rowof.append(padded)
        self._released_rows = [[] for _ in base.windows]
        self._capacity = cap
        return FrozenWalk(
            nhi=nhi,
            levels=levels,
            childflat=childflat,
            best=best,
            jump=remap[base.jump],
            jump_stride=base.jump_stride,
            depth=base.depth,
            windows=base.windows,
            rowof=tuple(rowof),
            rows=tuple(remap[old].astype(ROW) for old in base.rows),
        )

    def _patch(
        self, base: FrozenWalk, pending: list[tuple[Prefix, int, tuple[int, ...]]]
    ) -> FrozenWalk | None:
        """The next snapshot derived from ``base`` and the ``pending``
        updates, or None when only a full build will do: the jump
        stride or the set of windows changed (a depth-24 table gains
        a /28), or the slots outgrew the capacity.  A depth that only
        drops trailing windows keeps the rest.

        ``base`` is never written: every array a patch changes is
        copied first, the rest are shared with the new snapshot.
        """
        depth = self.depth()
        stride = min(self.JUMP_STRIDE, depth)
        windows = self._windows(stride, depth)
        if stride != base.jump_stride or windows != base.windows[: len(windows)]:
            return None
        if not self._capacity:
            base = self._relayout(base)
        cap = self._capacity
        if len(self._left) > cap:
            return None
        left_of, right_of, nhi_of = self._left, self._right, self._nhi
        window_at = {start: k for k, (start, _) in enumerate(windows)}
        # Every node an update changed lies on the current path of its
        # prefix: the nodes it created, the one that gained or lost a
        # child, the one whose NHI changed.  Walk each path once,
        # carrying the nearest-ancestor NHI (the node's best) down it.
        # A structural change inside a window queues the path's node
        # at the window start for a row recompute; a slot the update
        # freed is queued in every window, to give back any row.
        best_of: dict[int, int] = {}
        owners: list[dict[int, None]] = [{} for _ in windows]
        # (split level, its path bits) of each node above the jump
        # stride whose children changed: the jump entries under it
        ranges: set[tuple[int, int]] = set()
        structural = False
        for prefix, split, freed in pending:
            node = 0
            run = nhi_of[0]
            best_of[0] = run
            for level in range(1, prefix.length + 1):
                node = right_of[node] if prefix.bit(level - 1) else left_of[node]
                if node == NONE:
                    break
                if nhi_of[node] != NO_ROUTE:
                    run = nhi_of[node]
                best_of[node] = run
                k = window_at.get(level)
                if k is not None and 0 <= split < level + windows[k][1]:
                    owners[k][node] = None
            for queued in owners:
                queued.update(dict.fromkeys(freed))
            if split >= 0:
                structural = True
                if split < stride:
                    top = 0
                    for level in range(split):
                        top = (top << 1) | prefix.bit(level)
                    ranges.add((split, top))
        count = len(best_of)
        touched = np.fromiter(best_of, dtype=np.int64, count=count)
        values = np.fromiter(best_of.values(), dtype=np.int64, count=count)
        nhi = base.nhi.copy()
        nhi[touched] = np.fromiter((nhi_of[i] for i in best_of), dtype=np.int64, count=count)
        best = base.best.copy()
        changed = touched[best[touched] != values]
        best[touched] = values
        best[touched + cap] = values
        writes = {"childflat": 0, "best": 2 * count, "jump": 0, "rows": 0}
        levels, childflat, jump = base.levels, base.childflat, base.jump
        kept = len(windows)
        rowof, rows = list(base.rowof[:kept]), list(base.rows[:kept])
        del self._released_rows[kept:]
        if structural:
            lv = np.fromiter((left_of[i] for i in best_of), dtype=np.int64, count=count)
            rv = np.fromiter((right_of[i] for i in best_of), dtype=np.int64, count=count)
            lev = np.fromiter((self._level[i] for i in best_of), dtype=np.int64, count=count)
            levels = levels.copy()
            levels[touched] = lev
            levels[touched + cap] = lev
            # same targets as a fresh build: childless self-loops, a
            # missing side of a one-child node goes to its parked slot
            parked = touched + cap
            childflat = childflat.copy()
            childflat[touched << 1] = np.where(
                lv == NONE, np.where(rv == NONE, touched, parked), lv
            )
            childflat[(touched << 1) | 1] = np.where(
                rv == NONE, np.where(lv == NONE, touched, parked), rv
            )
            writes["childflat"] = 2 * count
            if ranges:
                jump = jump.copy()
                for split, top in ranges:
                    # descend to the node (or park) over the range, and
                    # re-walk the range from there
                    node = 0
                    for level in range(split):
                        node = childflat[(node << 1) | ((top >> (split - 1 - level)) & 1)]
                    lo, span = top << (stride - split), 1 << (stride - split)
                    jump[lo : lo + span] = _jump_walk(childflat, [node], stride - split)
                    writes["jump"] += span
            for k, window in enumerate(windows):
                if owners[k]:
                    writes["rows"] += self._patch_rows(k, window, owners[k], rowof, rows, childflat)
        # a changed best flows down to every descendant without its
        # own NHI, one level per step (a missing child self-loops or
        # parks at or past ``cap``)
        front = changed
        while len(front):
            kids = childflat[np.concatenate([front << 1, (front << 1) | 1])]
            parents = np.concatenate([front, front])
            real = (kids != parents) & (kids < cap)
            kids, parents = kids[real], parents[real]
            inherit = nhi[kids] == NO_ROUTE
            kids = kids[inherit]
            inherited = best[parents[inherit]]
            best[kids] = inherited
            best[kids + cap] = inherited
            writes["best"] += 2 * len(kids)
            front = kids
        if REGISTRY.enabled:  # one branch per patch; zero overhead off
            family = REGISTRY.counter(
                "repro_trie_patch_writes_total",
                "Frozen walk entries a patch wrote, per array",
                labels=("array",),
            )
            for array, written in writes.items():
                family.labels(array).inc(written)
        return FrozenWalk(
            nhi=nhi,
            levels=levels,
            childflat=childflat,
            best=best,
            jump=jump,
            jump_stride=stride,
            depth=depth,
            windows=windows,
            rowof=tuple(rowof),
            rows=tuple(rows),
        )

    def _patch_rows(
        self,
        k: int,
        window: tuple[int, int],
        queued: dict[int, None],
        rowof: list[np.ndarray],
        rows: list[np.ndarray],
        childflat: np.ndarray,
    ) -> int:
        """Bring window ``k``'s rows up to date for the ``queued``
        slots, replacing ``rowof[k]``/``rows[k]`` by patched copies.

        A queued slot that is now an internal node at the window start
        keeps its row, or takes one a patch released, or else a new
        one appended to the rows; the row is recomputed over the
        patched ``childflat``.  Any other queued slot gives its row
        back, so a freed slot reused at another level carries no stale
        row.  Returns the row entries written.
        """
        start, bits = window
        at = rowof[k]
        released = self._released_rows[k]
        used = len(rows[k]) >> bits
        refresh, offsets = [], []
        moved: dict[int, int] = {}  # slot -> its new rowof entry
        for slot in queued:
            offset = int(at[slot])
            if self._level[slot] == start and not self.is_leaf(slot):
                if offset < 0:
                    if released:
                        row = released.pop()
                    else:
                        row, used = used, used + 1
                    offset = moved[slot] = row << bits
                refresh.append(slot)
                offsets.append(offset)
            elif offset >= 0:
                moved[slot] = -1
                released.append(offset >> bits)
        if moved:
            at = at.copy()
            at[list(moved)] = list(moved.values())
            rowof[k] = at
        if refresh:
            span = 1 << bits
            entries = (np.array(offsets, dtype=np.int64)[:, None] + np.arange(span)).ravel()
            # the one copy of the rows this patch makes, appended rows
            # included
            grown = (used << bits) - len(rows[k])
            patched = np.concatenate([rows[k], np.empty(grown, ROW)]) if grown else rows[k].copy()
            patched[entries] = _jump_walk(childflat, refresh, bits)
            rows[k] = patched
        return len(refresh) << bits

    def freeze(self) -> FrozenWalk:
        """Build (or return) the frozen structure-of-arrays walk state.

        The serving layer calls this at service build time so the
        first served batch does not pay the freeze cost.  An
        :meth:`insert`/:meth:`remove` afterwards leaves the returned
        snapshot answering the old table; the next freeze (or batch)
        patches a new snapshot from it copy-on-write, touching only
        the nodes on the updated prefixes' paths, their parked slots,
        the jump entries under a changed node above the jump stride,
        ``best`` down a subtree whose inherited NHI changed, and the
        expansion row of each window-start node on a path whose window
        holds a structural change (an NHI-only update writes no row).
        A node newly internal at a window start takes a released row,
        or a new one appended to the rows; a node no longer internal
        there, or a freed slot, gives its row back.  A full build
        happens instead on the first freeze, after more pending
        updates than ``16 + slots/32``, when the slots outgrow the
        patch capacity, or when the jump stride or the set of windows
        changes (a depth that only drops trailing windows keeps the
        rest).
        """
        return self._freeze()

    def _walk_scalar(self, address: int) -> tuple[int, int]:
        """Scalar walk returning ``(depth, result)`` for one address."""
        node = 0
        best = self._nhi[0]
        level = 0
        while level < self.width:
            bit = (address >> (self.width - 1 - level)) & 1
            node = self._right[node] if bit else self._left[node]
            if node == NONE:
                break
            level += 1
            if self._nhi[node] != NO_ROUTE:
                best = self._nhi[node]
        return level, best

    def walk_batch(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized walk: per-address depth reached and LPM result.

        Runs over the current :class:`FrozenWalk` snapshot (patched
        first if updates are pending, see :meth:`freeze`): the root
        jump table resolves the first ``jump_stride`` levels with a
        single gather, each 8-bit expansion window after it one row
        gather (two at most for IPv4), and the per-lane depth and LPM
        answer come from two final gathers (``levels`` / ``best``) on
        the unibit node the bit-by-bit walk would end on — no per-call
        array setup and no per-level loop.  The depth is the number of
        levels the walk descended — the quantity the pipeline
        simulator converts into per-stage memory accesses.  Tries
        wider than 32 bits (the IPv6 extension) fall back to scalar
        walks — their addresses exceed the NumPy word size.
        """
        if self.width > 32:
            n = len(addresses)
            depths6 = np.zeros(n, dtype=np.int64)
            results6 = np.empty(n, dtype=np.int64)
            for i, a in enumerate(addresses):
                depths6[i], results6[i] = self._walk_scalar(int(a))
            if REGISTRY.enabled:
                REGISTRY.counter(
                    "repro_trie_node_visits_total",
                    "Trie nodes touched by batch walks (root included)",
                    labels=("structure",),
                ).labels("unibit").inc(int(depths6.sum()) + n)
            return depths6, results6
        depths, best = self._freeze().walk(addresses, self.width)
        if REGISTRY.enabled:  # one branch per batch; zero overhead off
            REGISTRY.counter(
                "repro_trie_node_visits_total",
                "Trie nodes touched by batch walks (root included)",
                labels=("structure",),
            ).labels("unibit").inc(int(depths.sum()) + len(depths))
        return depths, best

    def lookup_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized LPM over an array of addresses.

        Shares the snapshot walk of :meth:`walk_batch` (discarding the
        depths).
        """
        return self.walk_batch(addresses)[1]

    # -- statistics ------------------------------------------------------

    def depth(self) -> int:
        """Maximum *reachable* node level."""
        counts = self._level_count
        level = len(counts) - 1
        while not counts[level]:
            level -= 1
        return level

    def stats(self) -> TrieStats:
        """Compute structural statistics over reachable nodes."""
        depth = self.depth()
        nodes_per = [0] * (depth + 1)
        internal_per = [0] * (depth + 1)
        leaves_per = [0] * (depth + 1)
        internal = 0
        total = 0
        for node in self.live_nodes():
            lvl = self._level[node]
            total += 1
            nodes_per[lvl] += 1
            if self.is_leaf(node):
                leaves_per[lvl] += 1
            else:
                internal_per[lvl] += 1
                internal += 1
        return TrieStats(
            total_nodes=total,
            internal_nodes=internal,
            leaf_nodes=total - internal,
            depth=depth,
            prefixes=self._prefix_count,
            nodes_per_level=tuple(nodes_per),
            internal_per_level=tuple(internal_per),
            leaves_per_level=tuple(leaves_per),
        )

    def is_leaf_pushed(self) -> bool:
        """True if NHI only appears on leaves and the trie is full.

        A *full* binary trie (every internal node has both children)
        with NHI confined to leaves is the postcondition of
        :func:`repro.iplookup.leafpush.leaf_push`.
        """
        for node in self.nodes():
            leaf = self.is_leaf(node)
            if leaf:
                continue
            if self._nhi[node] != NO_ROUTE:
                return False
            if self._left[node] == NONE or self._right[node] == NONE:
                return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TrieError` if broken.

        Invariants: child levels are parent level + 1, every reachable
        non-root node is referenced exactly once, no child index is
        out of range, freed slots are never referenced, and the
        per-level live-node counts behind :meth:`depth` are exact.
        """
        n = len(self._left)
        free = set(self._free)
        ref_count = [0] * n
        reachable = set()
        for node in self.live_nodes():
            reachable.add(node)
            for child in (self._left[node], self._right[node]):
                if child == NONE:
                    continue
                if not 0 <= child < n:
                    raise TrieError(f"child index {child} out of range at node {node}")
                if child in free:
                    raise TrieError(f"node {node} references freed slot {child}")
                if self._level[child] != self._level[node] + 1:
                    raise TrieError(
                        f"level mismatch: node {node} (level {self._level[node]}) "
                        f"→ child {child} (level {self._level[child]})"
                    )
                ref_count[child] += 1
        if ref_count[0] != 0:
            raise TrieError("root must not be referenced as a child")
        for node in reachable:
            if node != 0 and ref_count[node] != 1:
                raise TrieError(f"node {node} referenced {ref_count[node]} times")
        if free & reachable:
            raise TrieError(f"freed slots reachable from root: {sorted(free & reachable)}")
        if len(reachable) + len(free) != n:
            raise TrieError(
                f"{n - len(reachable) - len(free)} slots leaked "
                "(neither reachable nor on the free list)"
            )
        per_level = [0] * len(self._level_count)
        for node in reachable:
            per_level[self._level[node]] += 1
        if per_level != self._level_count:
            raise TrieError(
                f"live nodes per level {per_level} disagree with the "
                f"maintained counts {self._level_count}"
            )
