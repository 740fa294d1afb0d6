"""Property tests: ``RoutingTable``'s linear-scan columns (hypothesis).

``lookup_linear_batch`` scans value/mask/length/next-hop columns that
are built on its first call and then kept in step by ``add`` and
``remove`` through a slot free-list.  The scalar ``lookup_linear``
reads the route dict directly and stays the reference.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.iplookup.prefix import Prefix
from repro.iplookup.rib import RoutingTable

prefixes = st.builds(
    Prefix.normalized,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)

ops = st.lists(
    st.tuples(
        st.sampled_from(("add", "remove", "lookup")),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=60,
)


@given(st.lists(prefixes, min_size=1, max_size=16, unique=True), ops)
@settings(max_examples=150, deadline=None)
def test_columns_track_updates(pool, stream):
    """Random add/remove, then ``lookup_linear_batch`` equals the
    scalar ``lookup_linear`` on every probe."""
    table = RoutingTable()
    probe = np.array(
        [0, 0xFFFFFFFF] + [p.first_address() for p in pool] + [p.last_address() for p in pool],
        dtype=np.uint32,
    )
    for kind, index, nh in [*stream, ("lookup", 0, 0)]:
        prefix = pool[index % len(pool)]
        if kind == "add":
            table.add(prefix, nh)
        elif kind == "remove":
            if prefix in table:
                table.remove(prefix)
        else:
            expected = [table.lookup_linear(int(a)) for a in probe]
            assert table.lookup_linear_batch(probe).tolist() == expected


@given(st.lists(st.tuples(prefixes, st.integers(min_value=0, max_value=63)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_pickle_roundtrip_leaves_columns_behind(routes):
    table = RoutingTable(name="t")
    for prefix, nh in routes:
        table.add(prefix, nh)
    plain = pickle.dumps(table)
    table.lookup_linear_batch(np.array([0], dtype=np.uint32))  # builds the columns
    assert pickle.dumps(table) == plain
    copy = pickle.loads(plain)
    assert copy == table
    assert copy._columns is None
    assert repr(copy) == repr(table)
