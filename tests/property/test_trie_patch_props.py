"""Property tests: the patched frozen walk snapshot (hypothesis).

An update no longer drops a trie's :class:`FrozenWalk`: the next
freeze derives a new snapshot from the previous one, copy-on-write.
Whatever the interleaving of announces, withdrawals and batch lookups,
after every lookup

* each lane's depth and NHI equal a fresh ``UnibitTrie(table)``
  freeze, and the NHI equals the linear-scan oracle;
* ``trie.validate()`` holds (including the per-level live-node counts
  behind ``depth()``);
* the snapshot taken at the previous lookup still answers the table
  as it was then.

Prefix lengths run 0–32, so changes above level 16 (inside the root
jump table) and withdrawals back down to a bare root both occur.  The
expansion rows get targeted cases: a freed row owner reused at another
level (in the same patch and in the next); the depth crossing 24,
which changes the set of windows and so takes a full build; and new
row owners, which take released rows or rows appended in the patch.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.prefix import Prefix, parse_prefix
from repro.iplookup.rib import RoutingTable
from repro.iplookup.trie import UnibitTrie
from repro.obs.registry import REGISTRY

prefixes = st.builds(
    Prefix.normalized,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    # half the draws inside the jump-table region (shorter than /16)
    st.one_of(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=32)),
)

next_hops = st.integers(min_value=0, max_value=7)


@st.composite
def scenarios(draw):
    """A prefix pool, a starting table over it, and an update/lookup
    stream over it (a small pool makes withdrawals hit and freed slots
    get reused)."""
    pool = draw(st.lists(prefixes, min_size=1, max_size=12, unique=True))
    initial = draw(st.lists(st.tuples(st.sampled_from(pool), next_hops), max_size=len(pool)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("announce", "withdraw", "lookup")),
                st.sampled_from(pool),
                next_hops,
            ),
            max_size=40,
        )
    )
    return pool, initial, ops


def probe_addresses(pool) -> np.ndarray:
    """Both ends of every pool prefix and of its sibling, plus the
    ends of the address space."""
    probe = [0, 0xFFFFFFFF]
    for prefix in pool:
        probe += [prefix.first_address(), prefix.last_address()]
        if prefix.length:
            flip = 1 << (32 - prefix.length)
            probe += [prefix.first_address() ^ flip, prefix.last_address() ^ flip]
    return np.array(probe, dtype=np.uint32)


def check_against_fresh(trie: UnibitTrie, table: RoutingTable, probe: np.ndarray):
    depths, answers = trie.walk_batch(probe)
    fresh_depths, fresh_answers = UnibitTrie(table).walk_batch(probe)
    assert np.array_equal(depths, fresh_depths)
    assert np.array_equal(answers, fresh_answers)
    oracle = np.array([table.lookup_linear(int(a)) for a in probe], dtype=np.int64)
    assert np.array_equal(answers, oracle)
    trie.validate()
    return answers


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_patched_snapshot_equals_fresh_build(scenario):
    pool, initial, ops = scenario
    table = RoutingTable()
    for prefix, nh in initial:
        table.add(prefix, nh)
    trie = UnibitTrie(table)
    probe = probe_addresses(pool)
    snapshot = trie.freeze()
    snapshot_answers = check_against_fresh(trie, table, probe)
    for kind, prefix, nh in [*ops, ("lookup", None, 0)]:
        if kind == "announce":
            trie.insert(prefix, nh)
            table.add(prefix, nh)
        elif kind == "withdraw":
            assert trie.remove(prefix) == (prefix in table)
            if prefix in table:
                table.remove(prefix)
        else:
            answers = check_against_fresh(trie, table, probe)
            # the earlier snapshot still answers the earlier table
            assert np.array_equal(snapshot.walk(probe)[1], snapshot_answers)
            snapshot, snapshot_answers = trie.freeze(), answers


def _live_depth(trie: UnibitTrie) -> int:
    return max(trie.level(node) for node in trie.live_nodes())


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_depth_equals_traversal(scenario):
    """``depth()`` reads per-level counts; it must equal the deepest
    reachable node after any update stream."""
    _pool, initial, ops = scenario
    trie = UnibitTrie()
    for prefix, nh in initial:
        trie.insert(prefix, nh)
    assert trie.depth() == _live_depth(trie)
    for kind, prefix, nh in ops:
        if kind == "announce":
            trie.insert(prefix, nh)
        elif kind == "withdraw":
            trie.remove(prefix)
        assert trie.depth() == _live_depth(trie)


def _freeze_kind(trie: UnibitTrie) -> str | None:
    """Freeze ``trie``; return which kind of freeze that took (None
    when the snapshot was current)."""
    with REGISTRY.enabled_scope():
        family = REGISTRY.get("repro_trie_freezes_total")
        before = {} if family is None else {k[0]: c.value for k, c in family.samples()}
        trie.freeze()
        family = REGISTRY.get("repro_trie_freezes_total")
        after = {} if family is None else {k[0]: c.value for k, c in family.samples()}
    kinds = [kind for kind, value in after.items() if value != before.get(kind, 0)]
    return kinds[0] if kinds else None


def test_growth_past_headroom_falls_back_to_full_build():
    """Slots outgrowing the patch capacity force one full build, after
    which patching resumes on the larger trie."""
    table = RoutingTable.from_strings([("10.0.0.0/8", 1), ("10.1.2.3/32", 2)])
    trie = UnibitTrie(table)
    rng = np.random.default_rng(7)
    probe = rng.integers(0, 1 << 32, size=64, dtype=np.uint64).astype(np.uint32)
    kinds = [_freeze_kind(trie)]
    capacities = set()
    for i in range(40):
        # a fresh /32 under 10/8 adds up to 24 nodes
        prefix = Prefix.normalized((10 << 24) | int(rng.integers(0, 1 << 24)), 32)
        trie.insert(prefix, i % 5)
        table.add(prefix, i % 5)
        kinds.append(_freeze_kind(trie))
        capacities.add(trie._capacity)
        check_against_fresh(trie, table, probe)
    assert kinds[0] == "full"
    assert kinds.count("full") >= 2  # at least one overflow
    assert kinds.count("patch") >= 30
    assert len(capacities - {0}) >= 2  # re-laid out at a larger capacity


def test_withdraw_and_reuse_slots_without_lookups_between():
    """Withdraw every route but one deep anchor (pruning back to the
    root and clearing the root's own /0), then re-announce different
    prefixes into the freed slots: each batch of queued updates is
    one patch, and the first snapshot still answers the first table."""
    routes = [("0.0.0.0/0", 3), ("128.0.0.0/1", 4), ("10.0.0.0/8", 1), ("10.1.2.0/24", 2),
              ("192.168.0.0/16", 5), ("192.168.7.9/32", 6)]
    table = RoutingTable.from_strings([*routes, ("1.2.3.4/32", 0)])
    trie = UnibitTrie(table)
    probe = probe_addresses(table.prefixes())
    old = trie.freeze()
    old_answers = old.walk(probe)[1]
    for text, _ in routes:
        trie.remove(parse_prefix(text))
        table.remove(parse_prefix(text))
    assert _freeze_kind(trie) == "patch"
    check_against_fresh(trie, table, probe)
    allocated = len(trie._left)
    for text, nh in [("172.16.0.0/12", 7), ("10.1.0.0/16", 8)]:
        trie.insert(parse_prefix(text), nh)
        table.add(parse_prefix(text), nh)
    assert len(trie._left) == allocated  # every new node took a freed slot
    assert _freeze_kind(trie) == "patch"
    check_against_fresh(trie, table, probe_addresses(table.prefixes()))
    assert np.array_equal(old.walk(probe)[1], old_answers)


def _row_owners(snapshot) -> list[set[int]]:
    """Per expansion window, the trie slots that own a row."""
    cap = len(snapshot.nhi)
    return [set(np.flatnonzero(at[:cap] >= 0).tolist()) for at in snapshot.rowof]


def test_freed_row_owner_reused_at_another_level():
    """A slot that owned a window-16 row is freed, then reused as a
    level-12 leaf that lanes park on: the patch must drop its row, or
    those lanes would jump through the stale row into the old subtree."""
    table = RoutingTable.from_strings([("1.2.3.4/32", 0), ("10.1.2.0/24", 1)])
    trie = UnibitTrie(table)
    old = trie.freeze()
    old_answers = old.walk(probe_addresses(table.prefixes()))[1]
    owners16 = _row_owners(old)[0]
    for together in (False, True):
        trie.remove(parse_prefix("10.1.2.0/24"))
        table.remove(parse_prefix("10.1.2.0/24"))
        if not together:
            assert _freeze_kind(trie) == "patch"
            gone = parse_prefix("10.1.2.0/24")
            check_against_fresh(trie, table, probe_addresses([*table.prefixes(), gone]))
        # new nodes at levels 1..12 take the freed slots
        trie.insert(parse_prefix("192.160.0.0/12"), 2)
        table.add(parse_prefix("192.160.0.0/12"), 2)
        reused = [slot for slot in owners16 if trie.level(slot) != 16 and trie.level(slot) > 0]
        leaf = [slot for slot in reused if trie.is_leaf(slot) and trie.nhi(slot) == 2]
        assert leaf, "the scenario must reuse a row owner as the new leaf"
        assert _freeze_kind(trie) == "patch"
        snapshot = trie.freeze()
        assert all(snapshot.rowof[0][slot] < 0 for slot in reused)
        check_against_fresh(trie, table, probe_addresses(table.prefixes()))
        # and back again, for the second round
        trie.remove(parse_prefix("192.160.0.0/12"))
        table.remove(parse_prefix("192.160.0.0/12"))
        trie.insert(parse_prefix("10.1.2.0/24"), 1)
        table.add(parse_prefix("10.1.2.0/24"), 1)
        check_against_fresh(trie, table, probe_addresses(table.prefixes()))
        owners16 = _row_owners(trie.freeze())[0]
    assert np.array_equal(old.walk(probe_addresses(table.prefixes()))[1], old_answers)


def test_depth_crossing_24_changes_the_windows():
    """A depth-24 table has one window; a /28 adds a short second one
    and a /30 widens it, each a full build; a second /28 keeps the
    windows, and withdrawing back to depth 24 only drops the second
    window: both patches."""
    table = RoutingTable.from_strings([("10.1.2.0/24", 1), ("10.3.0.0/16", 2)])
    trie = UnibitTrie(table)
    probe = probe_addresses([*table.prefixes(), parse_prefix("10.1.2.16/28"),
                             parse_prefix("10.1.2.40/30")])
    assert trie.freeze().windows == ((16, 8),)
    assert _freeze_kind(trie) is None
    for text, nh, windows, kind in [("10.1.2.16/28", 3, ((16, 8), (24, 4)), "full"),
                                    ("10.1.2.32/28", 4, ((16, 8), (24, 4)), "patch"),
                                    ("10.1.2.40/30", 5, ((16, 8), (24, 6)), "full")]:
        trie.insert(parse_prefix(text), nh)
        table.add(parse_prefix(text), nh)
        assert _freeze_kind(trie) == kind
        assert trie.freeze().windows == windows
        check_against_fresh(trie, table, probe)
    for text in ("10.1.2.16/28", "10.1.2.32/28", "10.1.2.40/30"):
        trie.remove(parse_prefix(text))
        table.remove(parse_prefix(text))
    assert _freeze_kind(trie) == "patch"
    assert trie.freeze().windows == ((16, 8),)
    check_against_fresh(trie, table, probe)


def test_rows_grow_without_a_full_build():
    """Each node that becomes internal at level 16 takes a row appended
    inside the patch; once a withdrawal releases a row, the next new
    owner takes it and the rows stop growing."""
    table = RoutingTable.from_strings([(f"10.0.{i}.0/24", i % 7) for i in range(256)])
    trie = UnibitTrie(table)
    trie.freeze()
    probe = probe_addresses([*table.prefixes(), parse_prefix("11.0.0.0/8")])
    assert _freeze_kind(trie) is None
    for x in range(12):
        prefix = parse_prefix(f"11.{x}.0.0/17")
        trie.insert(prefix, x)
        table.add(prefix, x)
        assert _freeze_kind(trie) == "patch"
        assert len(trie.freeze().rows[0]) >> 8 == x + 2  # 11.0-x/16 and 10.0/16
        check_against_fresh(trie, table, probe_addresses([*table.prefixes(), prefix]))
    gone = parse_prefix("11.0.0.0/17")
    trie.remove(gone)
    table.remove(gone)
    assert _freeze_kind(trie) == "patch"
    check_against_fresh(trie, table, probe_addresses([*table.prefixes(), gone]))
    trie.insert(parse_prefix("12.0.0.0/17"), 5)
    table.add(parse_prefix("12.0.0.0/17"), 5)
    assert _freeze_kind(trie) == "patch"
    assert len(trie.freeze().rows[0]) >> 8 == 13
    check_against_fresh(trie, table, probe_addresses([*table.prefixes(), gone]))
    check_against_fresh(trie, table, probe)
