"""Corpus: mutations of a frozen structure, direct and laundered.

``MergedTrie`` shares its name with the real frozen structure, so the
FRZ pack's default class list applies: only ``__init__`` may mutate
``self``, and nothing may mutate an instance after construction.
``FrozenWalk`` (a trie's walk snapshot) has no mutating method at all.
"""

from repro.iplookup.trie import FrozenWalk


class MergedTrie:
    """Stand-in with the frozen contract of the real merged trie."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        self.version = 0

    def grow(self, node):
        """FRZ001: self-write outside the allowed constructor set."""
        self.version = self.version + 1
        self.nodes.append(node)
        return self


def rebuild(nodes):
    """FRZ001: attribute write through a constructed binding."""
    trie = MergedTrie(nodes)
    trie.nodes = sorted(trie.nodes)
    return trie


def _push(trie, node):
    """Helper that mutates its parameter (the FRZ002 launderer)."""
    trie.nodes.append(node)


def insert(trie: MergedTrie, node):
    """FRZ002: forwards a frozen instance into a mutating helper."""
    _push(trie, node)
    return trie


def repoint(walk: FrozenWalk, pattern, node):
    """FRZ001: a write through a parameter annotated as a snapshot."""
    walk.jump[pattern] = node
