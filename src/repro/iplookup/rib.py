"""Routing table (RIB) container and reference longest-prefix match.

The :class:`RoutingTable` is the input to every trie build in the
library.  It also provides a deliberately simple linear-scan LPM,
:meth:`RoutingTable.lookup_linear`, used as the *oracle* against which
trie and pipeline lookups are verified in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.errors import PrefixError
from repro.iplookup.prefix import Prefix, parse_prefix

__all__ = ["Route", "RoutingTable", "NO_ROUTE"]

#: sentinel next-hop index meaning "no matching route"
NO_ROUTE = -1


@dataclass(frozen=True, slots=True)
class Route:
    """A single RIB entry: destination prefix → next-hop index.

    Next hops are small non-negative integers (indices into a
    next-hop/port table), matching the paper's NHI (next-hop
    information) encoding stored at trie leaves.
    """

    prefix: Prefix
    next_hop: int

    def __post_init__(self) -> None:
        if self.next_hop < 0:
            raise PrefixError(f"next hop must be non-negative, got {self.next_hop}")


class _Columns:
    """Per-route value/mask/length/next-hop columns for the vectorized
    linear scan, one slot per route.

    A withdrawn route's slot goes on a free list and is made dead
    (length -1, the score of a miss) until a new route reuses it, so
    an update costs O(1) instead of a rebuild from the dict.
    """

    __slots__ = ("slot", "free", "size", "values", "masks", "lengths", "hops")

    def __init__(self, routes: dict[Prefix, int]):
        self.slot = {prefix: i for i, prefix in enumerate(routes)}
        self.free: list[int] = []
        self.size = len(routes)
        self.values = np.array([p.value for p in routes], dtype=np.uint32)
        self.masks = np.array([p.mask() for p in routes], dtype=np.uint32)
        self.lengths = np.array([p.length for p in routes], dtype=np.int16)
        self.hops = np.array(list(routes.values()), dtype=np.int64)

    def put(self, prefix: Prefix, next_hop: int) -> None:
        i = self.slot.get(prefix)
        if i is None:
            if self.free:
                i = self.free.pop()
            else:
                i = self.size
                self.size += 1
                if i == len(self.values):
                    self._grow()
            self.slot[prefix] = i
            self.values[i] = prefix.value
            self.masks[i] = prefix.mask()
            self.lengths[i] = prefix.length
        self.hops[i] = next_hop

    def drop(self, prefix: Prefix) -> None:
        i = self.slot.pop(prefix)
        self.lengths[i] = -1  # scores as "no match" whatever the address
        self.free.append(i)

    def _grow(self) -> None:
        # slots past ``size`` are never scanned, so their contents do not matter
        extra = max(16, len(self.values))
        for name in ("values", "masks", "lengths", "hops"):
            column = getattr(self, name)
            setattr(self, name, np.concatenate([column, np.zeros(extra, dtype=column.dtype)]))


@dataclass
class RoutingTable:
    """An ordered, duplicate-free collection of routes.

    Inserting the same prefix twice replaces the next hop (last write
    wins), mirroring FIB update semantics.
    """

    name: str = "rib"
    _routes: dict[Prefix, int] = field(default_factory=dict)
    # lookup_linear_batch's columns: built on its first call, kept in
    # step by add/remove, and never compared, printed or pickled
    _columns: _Columns | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_columns"] = None
        return state

    # -- construction -------------------------------------------------

    @classmethod
    def from_routes(cls, routes: Iterable[Route], name: str = "rib") -> "RoutingTable":
        table = cls(name=name)
        for route in routes:
            table.add(route.prefix, route.next_hop)
        return table

    @classmethod
    def from_strings(
        cls, entries: Iterable[tuple[str, int]], name: str = "rib"
    ) -> "RoutingTable":
        """Build from ``[("10.0.0.0/8", 3), ...]`` pairs."""
        table = cls(name=name)
        for text, next_hop in entries:
            table.add(parse_prefix(text), next_hop)
        return table

    @classmethod
    def parse(cls, text: str, name: str = "rib") -> "RoutingTable":
        """Parse a whitespace-separated ``prefix next_hop`` listing.

        Blank lines and ``#`` comments are ignored — the format of the
        snapshot files shipped with the examples.
        """
        table = cls(name=name)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise PrefixError(f"{name}:{lineno}: expected 'prefix next_hop', got {line!r}")
            try:
                next_hop = int(parts[1])
            except ValueError as exc:
                raise PrefixError(f"{name}:{lineno}: bad next hop {parts[1]!r}") from exc
            table.add(parse_prefix(parts[0]), next_hop)
        return table

    # -- mutation ------------------------------------------------------

    def add(self, prefix: Prefix, next_hop: int) -> None:
        """Insert or replace the route for ``prefix``."""
        if next_hop < 0:
            raise PrefixError(f"next hop must be non-negative, got {next_hop}")
        self._routes[prefix] = next_hop
        if self._columns is not None:
            self._columns.put(prefix, next_hop)

    def remove(self, prefix: Prefix) -> None:
        """Withdraw the route for ``prefix`` (KeyError if absent)."""
        del self._routes[prefix]
        if self._columns is not None:
            self._columns.drop(prefix)

    # -- access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Route]:
        for prefix in sorted(self._routes):
            yield Route(prefix, self._routes[prefix])

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def next_hop_of(self, prefix: Prefix) -> int:
        """Exact-match next hop for ``prefix`` (KeyError if absent)."""
        return self._routes[prefix]

    def prefixes(self) -> list[Prefix]:
        """All prefixes in canonical (length, value) order."""
        return sorted(self._routes)

    def routes(self) -> list[Route]:
        """All routes in canonical (length, value) order."""
        return list(self)

    def max_length(self) -> int:
        """Longest mask length present (0 for an empty table)."""
        return max((p.length for p in self._routes), default=0)

    def length_histogram(self) -> np.ndarray:
        """Count of prefixes per mask length.

        Shape ``(33,)`` for IPv4 tables; grows to cover longer masks
        when IPv6 prefixes are present.
        """
        size = max(33, self.max_length() + 1)
        hist = np.zeros(size, dtype=np.int64)
        for prefix in self._routes:
            hist[prefix.length] += 1
        return hist

    def next_hops(self) -> set[int]:
        """The set of distinct next-hop indices used."""
        return set(self._routes.values())

    # -- reference lookup ----------------------------------------------

    def lookup_linear(self, address: int) -> int:
        """Reference longest-prefix match by linear scan.

        O(n) by design: this is the oracle implementation used to
        validate the trie and pipeline engines, so it must stay
        obviously correct rather than fast.
        """
        best_len = -1
        best_nh = NO_ROUTE
        for prefix, next_hop in self._routes.items():
            if prefix.length > best_len and prefix.contains(address):
                best_len = prefix.length
                best_nh = next_hop
        return best_nh

    def lookup_linear_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorized linear-scan LPM over many addresses.

        Evaluates every (address, route) pair with NumPy broadcasting;
        still O(n·m) work but without the Python-level inner loop, so
        property tests can use large batches cheaply.  The route
        columns it scans are kept across calls (see :class:`_Columns`).
        """
        addresses = np.asarray(addresses, dtype=np.uint32)
        if not self._routes:
            return np.full(addresses.shape, NO_ROUTE, dtype=np.int64)
        if self._columns is None:
            self._columns = _Columns(self._routes)
        cols = self._columns
        size = cols.size
        # matches[i, j] — does route slot j contain address i?
        matches = (addresses[:, None] & cols.masks[None, :size]) == cols.values[None, :size]
        # pick the longest matching prefix per address
        scored = np.where(matches, cols.lengths[None, :size], -1)
        best = scored.argmax(axis=1)
        result = cols.hops[best]
        result[scored[np.arange(len(addresses)), best] < 0] = NO_ROUTE
        return result

    # -- serialization ---------------------------------------------------

    def dumps(self) -> str:
        """Serialize to the text format accepted by :meth:`parse`."""
        lines = [f"# routing table {self.name}: {len(self)} prefixes"]
        lines.extend(f"{route.prefix} {route.next_hop}" for route in self)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_file(cls, path: str, name: str | None = None) -> "RoutingTable":
        """Load a table from a ``prefix next_hop`` text file.

        The format matches BGP snapshot exports the paper's potaroo
        tables would be converted to; see ``examples/data/``.
        """
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return cls.parse(text, name=name or path)

    def to_file(self, path: str) -> None:
        """Write the table in the :meth:`from_file` format."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
