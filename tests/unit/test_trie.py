"""Uni-bit trie (repro.iplookup.trie)."""

import numpy as np
import pytest

from repro.errors import TrieError
from repro.iplookup.prefix import parse_address, parse_prefix
from repro.iplookup.rib import NO_ROUTE
from repro.iplookup.trie import NONE, UnibitTrie


class TestConstruction:
    def test_empty_trie_is_single_root(self):
        t = UnibitTrie()
        assert t.num_nodes == 1
        assert t.is_leaf(0)
        assert t.nhi(0) == NO_ROUTE

    def test_single_prefix_builds_chain(self):
        t = UnibitTrie()
        t.insert(parse_prefix("128.0.0.0/2"), 7)
        # root + 2 chain nodes
        assert t.num_nodes == 3
        assert t.depth() == 2

    def test_default_route_sits_on_root(self):
        t = UnibitTrie()
        t.insert(parse_prefix("0.0.0.0/0"), 9)
        assert t.num_nodes == 1
        assert t.nhi(0) == 9

    def test_reinsert_overwrites_without_new_nodes(self):
        t = UnibitTrie()
        p = parse_prefix("10.0.0.0/8")
        t.insert(p, 1)
        n = t.num_nodes
        t.insert(p, 2)
        assert t.num_nodes == n
        assert t.num_prefixes == 1
        assert t.lookup(parse_address("10.0.0.1")) == 2

    def test_rejects_negative_next_hop(self):
        with pytest.raises(TrieError):
            UnibitTrie().insert(parse_prefix("10.0.0.0/8"), -1)

    def test_from_table(self, small_table, small_trie):
        assert small_trie.num_prefixes == len(small_table)


class TestLookup:
    def test_matches_oracle(self, small_table, small_trie, random_addresses):
        for addr in random_addresses[:64]:
            assert small_trie.lookup(int(addr)) == small_table.lookup_linear(int(addr))

    def test_batch_matches_scalar(self, small_trie, random_addresses):
        batch = small_trie.lookup_batch(random_addresses)
        scalar = np.array([small_trie.lookup(int(a)) for a in random_addresses])
        assert np.array_equal(batch, scalar)

    def test_empty_trie_returns_no_route(self):
        t = UnibitTrie()
        assert t.lookup(0x12345678) == NO_ROUTE
        assert (t.lookup_batch(np.array([0, 1], dtype=np.uint32)) == NO_ROUTE).all()

    def test_slash32_exact(self):
        t = UnibitTrie()
        t.insert(parse_prefix("1.2.3.4/32"), 5)
        assert t.lookup(parse_address("1.2.3.4")) == 5
        assert t.lookup(parse_address("1.2.3.5")) == NO_ROUTE

    def test_lookup_batch_after_mutation_refreshes(self, small_table):
        t = UnibitTrie(small_table)
        addr = np.array([parse_address("8.8.8.8")], dtype=np.uint32)
        assert t.lookup_batch(addr)[0] == 0  # default route
        t.insert(parse_prefix("8.0.0.0/8"), 42)
        assert t.lookup_batch(addr)[0] == 42


class TestStats:
    def test_node_count_accounting(self, small_trie):
        stats = small_trie.stats()
        assert stats.total_nodes == small_trie.num_nodes
        assert stats.internal_nodes + stats.leaf_nodes == stats.total_nodes
        assert sum(stats.nodes_per_level) == stats.total_nodes

    def test_per_level_split(self, small_trie):
        stats = small_trie.stats()
        for level in range(stats.depth + 1):
            assert (
                stats.internal_per_level[level] + stats.leaves_per_level[level]
                == stats.nodes_per_level[level]
            )

    def test_depth_matches_longest_prefix(self, small_table, small_trie):
        assert small_trie.depth() == small_table.max_length()

    def test_root_level_single_node(self, small_trie):
        assert small_trie.stats().nodes_per_level[0] == 1


class TestWalkPaths:
    def test_paths_cover_all_nodes(self, small_trie):
        seen = {node for node, _, _ in small_trie.walk_paths()}
        assert seen == set(small_trie.nodes())

    def test_path_value_is_prefix_value(self, small_trie):
        # every inserted prefix's node must appear with its own value
        values = {(path, level) for _, path, level in small_trie.walk_paths()}
        assert (parse_prefix("10.1.1.0/24").value, 24) in values


class TestValidate:
    def test_valid_trie_passes(self, small_trie):
        small_trie.validate()

    def test_detects_level_corruption(self, small_table):
        t = UnibitTrie(small_table)
        t._level[3] += 1
        with pytest.raises(TrieError):
            t.validate()

    def test_detects_double_reference(self, small_table):
        t = UnibitTrie(small_table)
        # point some node's unused child at an already-referenced node
        victim = t._left[0]
        for node in t.nodes():
            if t._right[node] == NONE and t._left[node] != NONE and node != 0:
                t._right[node] = victim
                break
        with pytest.raises(TrieError):
            t.validate()


class TestFreezeTelemetry:
    def test_updates_between_lookups_are_patches(self):
        """One build, then 100 updates each followed by a lookup: one
        full freeze, every later freeze a patch."""
        from repro.iplookup.rib import RoutingTable
        from repro.obs.registry import REGISTRY

        pool = [parse_prefix(f"10.{i}.{i * 7 % 256}.0/24") for i in range(10)]
        # the deep anchor keeps the depth (and so the jump stride) fixed
        table = RoutingTable.from_strings([("1.2.3.4/32", 0)])
        for i, prefix in enumerate(pool):
            table.add(prefix, i)
        addresses = np.array([p.value | 5 for p in pool], dtype=np.uint32)
        with REGISTRY.enabled_scope():
            family = REGISTRY.counter(
                "repro_trie_freezes_total",
                "Frozen walk snapshots built: from scratch or patched after updates",
                labels=("kind",),
            )
            full0 = family.labels("full").value
            patch0 = family.labels("patch").value
            trie = UnibitTrie(table)
            trie.lookup_batch(addresses)
            live = set(pool)
            for i in range(100):
                prefix = pool[i % len(pool)]
                if prefix in live:
                    assert trie.remove(prefix)
                    live.discard(prefix)
                else:
                    assert trie.insert(prefix, i)
                    live.add(prefix)
                trie.lookup_batch(addresses)
            assert family.labels("full").value - full0 == 1
            assert family.labels("patch").value - patch0 == 100

    def test_nhi_only_updates_write_no_rows(self):
        """``repro_trie_patch_writes_total``: an NHI-only update writes
        no row, child or jump entry; a structural one inside the
        ``[16, 24)`` window rewrites a whole row."""
        from repro.obs.registry import REGISTRY

        trie = UnibitTrie(_rows_table())
        trie.freeze()
        with REGISTRY.enabled_scope():
            family = REGISTRY.counter(
                "repro_trie_patch_writes_total",
                "Frozen walk entries a patch wrote, per array",
                labels=("array",),
            )

            def written(update) -> dict[str, float]:
                arrays = ("childflat", "best", "jump", "rows")
                before = {a: family.labels(a).value for a in arrays}
                update()
                trie.freeze()
                return {a: family.labels(a).value - before[a] for a in arrays}

            nhi_only = written(lambda: trie.insert(parse_prefix("10.1.2.0/24"), 9))
            assert nhi_only["rows"] == nhi_only["childflat"] == nhi_only["jump"] == 0
            assert nhi_only["best"] > 0
            structural = written(lambda: trie.insert(parse_prefix("10.1.3.0/24"), 4))
            # one level-16 owner re-expanded: a whole 2^8-entry row
            assert structural["rows"] >= 1 << UnibitTrie.WINDOW_BITS
            assert structural["childflat"] > 0


def _rows_table():
    """Two windows (depth 32) with row owners at levels 16 and 24."""
    from repro.iplookup.rib import RoutingTable

    return RoutingTable.from_strings(
        [("1.2.3.4/32", 0), ("10.1.0.0/16", 1), ("10.1.2.0/24", 2), ("10.1.2.128/25", 3)]
    )


class TestSnapshotImmutability:
    def _arrays(self, snapshot):
        return [snapshot.nhi, snapshot.levels, snapshot.childflat, snapshot.best,
                snapshot.jump, *snapshot.rowof, *snapshot.rows]

    def test_every_held_array_is_read_only(self):
        trie = UnibitTrie(_rows_table())
        fresh = trie.freeze()
        trie.insert(parse_prefix("10.1.3.0/24"), 4)
        patched = trie.freeze()
        for snapshot in (fresh, patched):
            assert len(snapshot.rows) == 2
            for array in self._arrays(snapshot):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    def test_patch_leaves_the_previous_snapshot_unchanged(self):
        trie = UnibitTrie(_rows_table())
        addresses = np.array(
            [parse_address(a) for a in ("10.1.2.70", "10.1.2.200", "10.1.3.7", "10.1.9.9")],
            dtype=np.uint32,
        )
        old = trie.freeze()
        held = [array.copy() for array in self._arrays(old)]
        answers = old.walk(addresses)
        # structural updates in both windows
        trie.insert(parse_prefix("10.1.3.0/24"), 4)
        trie.insert(parse_prefix("10.1.2.64/26"), 5)
        trie.remove(parse_prefix("10.1.2.128/25"))
        new = trie.freeze()
        assert not all(
            np.array_equal(a, b) for a, b in zip(self._arrays(new)[5:], held[5:])
        ), "the patch should have rewritten some expansion row"
        for array, copy in zip(self._arrays(old), held):
            assert np.array_equal(array, copy)
        assert all(np.array_equal(a, b) for a, b in zip(old.walk(addresses), answers))
        assert old.walk(addresses)[1].tolist() == [2, 3, 1, 1]
        assert new.walk(addresses)[1].tolist() == [5, 2, 4, 1]
