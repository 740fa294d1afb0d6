"""Property tests for the structure-of-arrays batch path.

The SoA refactor replaced the per-engine ``flatnonzero`` scan with one
stable sort plus contiguous slices, and replaced per-batch trie walks
with walks over frozen arrays.  Both are behaviour-preserving
refactors, and Hypothesis pins the contracts:

* ``BatchPartition.engine_indices(i)`` is index-for-index the old
  ``np.flatnonzero(vnids == i)`` partition, and gather/scatter through
  ``order`` is a true inverse pair;
* a frozen engine's ``walk_batch`` equals the scalar ``lookup`` loop,
  and after any mutation the next batch sees the updated table (the
  snapshot is patched copy-on-write; ``test_trie_patch_props.py``
  covers the patching itself).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import UnibitTrie
from repro.virt.distributor import Distributor

prefixes = st.builds(
    Prefix.normalized,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)

route_lists = st.lists(
    st.tuples(prefixes, st.integers(min_value=0, max_value=63)),
    min_size=0,
    max_size=40,
)

address_arrays = st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=60
)


@st.composite
def vnid_batches(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    vnids = draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=0, max_size=120)
    )
    return k, np.array(vnids, dtype=np.int64)


def build_table(routes) -> RoutingTable:
    table = RoutingTable()
    for prefix, nh in routes:
        table.add(prefix, nh)
    return table


@given(vnid_batches())
@settings(max_examples=200, deadline=None)
def test_partition_slices_equal_flatnonzero(batch):
    """Sorted-slice routing is index-for-index the old scan."""
    k, vnids = batch
    part = Distributor(k=k).partition(vnids)
    assert part.k == k
    assert part.n_packets == len(vnids)
    for engine in range(k):
        expected = np.flatnonzero(vnids == engine)
        assert np.array_equal(part.engine_indices(engine), expected)
        assert part.engine_count(engine) == len(expected)


@given(vnid_batches())
@settings(max_examples=200, deadline=None)
def test_partition_offsets_tile_the_batch(batch):
    """Offsets are a monotone exact cover: slices are disjoint and
    complete, and ``order`` is a permutation of the batch."""
    k, vnids = batch
    part = Distributor(k=k).partition(vnids)
    assert part.offsets[0] == 0
    assert part.offsets[-1] == len(vnids)
    assert (np.diff(part.offsets) >= 0).all()
    assert np.array_equal(np.sort(part.order), np.arange(len(vnids)))


@given(vnid_batches(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_gather_scatter_roundtrip(batch, rnd):
    """``scatter(gather(x)) == x``: the out-scatter really inverts the
    in-gather, so per-packet values survive the SoA detour."""
    k, vnids = batch
    part = Distributor(k=k).partition(vnids)
    values = np.array([rnd.randrange(1 << 20) for _ in vnids], dtype=np.int64)
    assert np.array_equal(part.scatter(part.gather(values)), values)


@given(route_lists, address_arrays)
@settings(max_examples=150, deadline=None)
def test_frozen_walk_equals_scalar(routes, addresses):
    """An explicitly frozen engine answers exactly like the scalar
    ``lookup`` loop (the serving layer freezes at build time)."""
    trie = UnibitTrie(build_table(routes))
    trie.freeze()
    addrs = np.array(addresses, dtype=np.uint32)
    expected = np.array([trie.lookup(int(a)) for a in addrs], dtype=np.int64)
    assert np.array_equal(trie.lookup_batch(addrs), expected)


@given(route_lists, address_arrays, prefixes, st.integers(min_value=0, max_value=63))
@settings(max_examples=100, deadline=None)
def test_mutation_invalidates_frozen_snapshot(routes, addresses, extra, nh):
    """freeze -> insert -> batch must see the new route; freeze ->
    remove -> batch must not resurrect the old one (the stale snapshot
    is replaced by a patched one, never read for the new table)."""
    trie = UnibitTrie(build_table(routes))
    addrs = np.array(addresses, dtype=np.uint32)

    trie.freeze()
    trie.insert(extra, nh)
    expected = np.array([trie.lookup(int(a)) for a in addrs], dtype=np.int64)
    assert np.array_equal(trie.lookup_batch(addrs), expected)

    trie.freeze()
    trie.remove(extra)
    expected = np.array([trie.lookup(int(a)) for a in addrs], dtype=np.int64)
    assert np.array_equal(trie.lookup_batch(addrs), expected)
