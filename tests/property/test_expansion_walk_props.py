"""Property tests: the expansion-row walk ends on the unibit node.

After the 16-bit root jump, a frozen walk resolves each 8-bit window
(``[16, 24)``, ``[24, 32)``, the last cut short at the trie depth)
with one row gather instead of one gather per level.  That is only
sound if every lane still ends on the node the bit-by-bit walk
reaches, so per lane

* the depth equals ``_walk_scalar``'s (it drives the per-stage BRAM
  accesses) and the NHI equals ``_walk_scalar``'s and the linear-scan
  oracle's, for plain and leaf-pushed ``UnibitTrie``;
* ``MergedTrie.walk_batch``'s depth equals the scalar walk of the
  merged structure, and its NHI each VN's oracle answer.

Tables are drawn with a deepest prefix of 0–32 bits, so snapshots
with no window, one short window, one full window and two windows
all occur; ``test_each_window_shape`` pins each shape down by fixing
the deepest length.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.iplookup.leafpush import leaf_push
from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import UnibitTrie
from repro.virt.merged import merge_tries


@st.composite
def tables(draw, max_routes: int = 25, deepest=st.integers(min_value=0, max_value=32)):
    """A table whose deepest prefix has a drawn length (0–32 unless
    fixed), with the other prefixes clustered under a few shared roots
    (so windows hold more than one owner and lanes both park and
    pass)."""
    deepest = draw(deepest)
    roots = draw(st.lists(st.integers(0, 0xFFFFFFFF), min_size=1, max_size=3))
    routes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(roots),
                st.integers(0, 0xFFFFFFFF),
                st.integers(min_value=0, max_value=deepest),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=max_routes,
        )
    )
    table = RoutingTable()
    table.add(Prefix.normalized(roots[0], deepest), 0)
    for root, noise, length, nh in routes:
        # the top bits of a shared root, then noise below a drawn cut
        cut = draw(st.integers(min_value=0, max_value=length))
        mask = ((1 << cut) - 1) << (32 - cut)
        table.add(Prefix.normalized((root & mask) | (noise & ~mask & 0xFFFFFFFF), length), nh)
    return table


def probe_addresses(table: RoutingTable, extra: list[int]) -> np.ndarray:
    """Both ends of every prefix and of its sibling, plus ``extra``."""
    probe = [0, 0xFFFFFFFF, *extra]
    for prefix in table.prefixes():
        probe += [prefix.first_address(), prefix.last_address()]
        if prefix.length:
            flip = 1 << (32 - prefix.length)
            probe += [prefix.first_address() ^ flip, prefix.last_address() ^ flip]
    return np.array(probe, dtype=np.uint32)


addresses = st.lists(st.integers(0, 0xFFFFFFFF), max_size=30)


def window_shape(trie: UnibitTrie) -> str:
    windows = trie.freeze().windows
    if not windows:
        return "none"
    if len(windows) == 2:
        return "two"
    return "full" if windows[0][1] == UnibitTrie.WINDOW_BITS else "short"


def check_unibit(trie: UnibitTrie, table: RoutingTable, probe: np.ndarray) -> None:
    depths, answers = trie.walk_batch(probe)
    scalar = [trie._walk_scalar(int(a)) for a in probe]
    assert depths.tolist() == [depth for depth, _ in scalar]
    assert answers.tolist() == [nhi for _, nhi in scalar]
    assert answers.tolist() == [table.lookup_linear(int(a)) for a in probe]


@given(tables(), addresses)
@settings(max_examples=150, deadline=None)
def test_plain_trie_walk_equals_scalar(table, extra):
    trie = UnibitTrie(table)
    windows = trie.freeze().windows
    depth = trie.depth()
    # the windows tile [16, depth) in 8-bit steps
    assert [start for start, _ in windows] == list(range(16, depth, 8))
    assert sum(bits for _, bits in windows) == max(0, depth - 16)
    check_unibit(trie, table, probe_addresses(table, extra))


@given(tables(), addresses)
@settings(max_examples=100, deadline=None)
def test_leaf_pushed_trie_walk_equals_scalar(table, extra):
    pushed = leaf_push(UnibitTrie(table))
    check_unibit(pushed, table, probe_addresses(table, extra))


@given(st.lists(tables(max_routes=12), min_size=1, max_size=3), addresses)
@settings(max_examples=100, deadline=None)
def test_merged_walk_equals_scalar(vn_tables, extra):
    merged = merge_tries([UnibitTrie(t) for t in vn_tables])
    probe = np.concatenate([probe_addresses(t, extra) for t in vn_tables])
    structure = merged.structure
    for vn, table in enumerate(vn_tables):
        depths, answers = merged.walk_batch(probe, np.full(len(probe), vn))
        assert depths.tolist() == [structure._walk_scalar(int(a))[0] for a in probe]
        assert answers.tolist() == [table.lookup_linear(int(a)) for a in probe]
        assert answers.tolist() == [merged.lookup(int(a), vn) for a in probe]


@pytest.mark.parametrize(
    ("deepest", "shape"), [(12, "none"), (16, "none"), (19, "short"), (24, "full"), (29, "two")]
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_each_window_shape(deepest, shape, data):
    """Each window shape, on plain, leaf-pushed and merged walks."""
    table = data.draw(tables(deepest=st.just(deepest)))
    extra = data.draw(addresses)
    trie = UnibitTrie(table)
    assert window_shape(trie) == shape
    probe = probe_addresses(table, extra)
    check_unibit(trie, table, probe)
    check_unibit(leaf_push(trie), table, probe)
    merged = merge_tries([trie])
    depths, answers = merged.walk_batch(probe, np.zeros(len(probe), dtype=np.int64))
    assert depths.tolist() == [merged.structure._walk_scalar(int(a))[0] for a in probe]
    assert answers.tolist() == [table.lookup_linear(int(a)) for a in probe]
