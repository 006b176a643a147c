"""Longest-prefix-match IP-to-ASN resolution (the PyASN equivalent).

The paper resolves traceroute hops to ASNs with PyASN over a RouteViews
RIB snapshot (section 3.3).  :class:`PyASNResolver` looks addresses up
in a :class:`PrefixArrayTable`, which holds one sorted integer array of
masked prefix bases per prefix length and answers a longest match with
at most one binary search per populated length -- the pure-NumPy
analogue of cidt-public-clouds' compiled graph helper.
:meth:`PrefixArrayTable.match_many` resolves a whole address batch with
one ``np.searchsorted`` per length.  :class:`PrefixTrie` is a binary
radix trie: the Team Cymru stand-in uses it, and the per-address
reference in ``tests/oracles/lpm.py`` walks it to check the array table
match for match, duplicate inserts included.

Like a real RIB snapshot, the table may be incomplete -- the loader can
drop a configurable fraction of announcements, which is what exercises
the Team Cymru fallback path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.ip import IPv4Prefix


class _TrieNode:
    __slots__ = ("children", "asn")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.asn: Optional[int] = None


class PrefixTrie:
    """A binary radix trie mapping IPv4 prefixes to ASNs."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def insert(self, prefix: IPv4Prefix, asn: int) -> None:
        """Insert an announcement; later inserts overwrite equal prefixes."""
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.base >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if node.asn is None:
            self._size += 1
        node.asn = asn

    def longest_match(self, address: int) -> Optional[Tuple[int, int]]:
        """(asn, prefix_length) of the most specific covering prefix."""
        node = self._root
        best: Optional[Tuple[int, int]] = None
        if node.asn is not None:
            best = (node.asn, 0)
        for depth in range(32):
            bit = (address >> (31 - depth)) & 1
            node = node.children[bit]
            if node is None:
                break
            if node.asn is not None:
                best = (node.asn, depth + 1)
        return best


class PrefixArrayTable:
    """Sorted-array longest-prefix-match over (prefix, ASN) announcements.

    One sorted array of masked prefix bases per populated prefix length;
    a longest match probes lengths most-specific first with a binary
    search each, and :meth:`lookup_many` vectorizes the same probe order
    over a whole address batch with ``np.searchsorted``.  Later inserts
    of an equal prefix overwrite earlier ones, matching
    :meth:`PrefixTrie.insert`.
    """

    def __init__(
        self, announcements: Iterable[Tuple[IPv4Prefix, int]] = ()
    ) -> None:
        # (length, masked base) -> asn; insertion order irrelevant, the
        # dict keeps the last insert per prefix like the trie does.
        self._pending: Dict[Tuple[int, int], int] = {}
        self._lengths: List[int] = []
        self._bases: Dict[int, np.ndarray] = {}
        self._base_lists: Dict[int, List[int]] = {}
        self._asns: Dict[int, np.ndarray] = {}
        self._dirty = False
        for prefix, asn in announcements:
            self.insert(prefix, asn)

    def __len__(self) -> int:
        self._compile()
        return sum(len(bases) for bases in self._bases.values())

    def insert(self, prefix: IPv4Prefix, asn: int) -> None:
        """Insert an announcement; later inserts overwrite equal prefixes."""
        mask = 0xFFFFFFFF ^ ((1 << (32 - prefix.length)) - 1)
        self._pending[(prefix.length, prefix.base & mask)] = asn
        self._dirty = True

    def _compile(self) -> None:
        if not self._dirty:
            return
        by_length: Dict[int, List[Tuple[int, int]]] = {}
        for (length, base), asn in self._pending.items():
            by_length.setdefault(length, []).append((base, asn))
        self._lengths = sorted(by_length, reverse=True)
        self._bases, self._base_lists, self._asns = {}, {}, {}
        for length, rows in by_length.items():
            rows.sort()
            self._bases[length] = np.asarray([r[0] for r in rows], dtype=np.int64)
            self._base_lists[length] = [r[0] for r in rows]
            self._asns[length] = np.asarray([r[1] for r in rows], dtype=np.int64)
        self._dirty = False

    def longest_match(self, address: int) -> Optional[Tuple[int, int]]:
        """(asn, prefix_length) of the most specific covering prefix."""
        self._compile()
        for length in self._lengths:
            masked = address & (0xFFFFFFFF ^ ((1 << (32 - length)) - 1))
            bases = self._base_lists[length]
            idx = bisect_right(bases, masked) - 1
            if idx >= 0 and bases[idx] == masked:
                return int(self._asns[length][idx]), length
        return None

    def match_many(
        self, addresses: "np.ndarray | Sequence[int]"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`longest_match` over an address batch.

        Returns parallel ``(asns, lengths)`` arrays with ``-1`` marking
        addresses no announcement covers.
        """
        self._compile()
        addresses = np.asarray(addresses, dtype=np.int64)
        asns = np.full(addresses.shape, -1, dtype=np.int64)
        lengths = np.full(addresses.shape, -1, dtype=np.int64)
        unresolved = np.ones(addresses.shape, dtype=bool)
        for length in self._lengths:
            if not np.any(unresolved):
                break
            mask = 0xFFFFFFFF ^ ((1 << (32 - length)) - 1)
            masked = addresses & mask
            bases = self._bases[length]
            idx = np.searchsorted(bases, masked, side="right") - 1
            hit = unresolved & (idx >= 0) & (bases[np.maximum(idx, 0)] == masked)
            asns[hit] = self._asns[length][idx[hit]]
            lengths[hit] = length
            unresolved &= ~hit
        return asns, lengths


class PyASNResolver:
    """IP-to-ASN resolver over a (possibly incomplete) RIB snapshot."""

    def __init__(
        self,
        announcements: Iterable[Tuple[IPv4Prefix, int]],
        coverage: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        """``coverage`` < 1 drops a random share of announcements,
        simulating an incomplete RIB snapshot."""
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        if coverage < 1.0 and rng is None:
            raise ValueError("an rng is required when coverage < 1")
        self._table = PrefixArrayTable()
        self._dropped = 0
        for prefix, asn in announcements:
            if coverage < 1.0 and rng.random() >= coverage:
                self._dropped += 1
                continue
            self._table.insert(prefix, asn)

    @property
    def announcement_count(self) -> int:
        return len(self._table)

    @property
    def dropped_count(self) -> int:
        return self._dropped

    def lookup(self, address: int) -> Optional[int]:
        """ASN announcing ``address``, or ``None`` if not in the table."""
        match = self._table.longest_match(address)
        return None if match is None else match[0]

    def lookup_many(
        self, addresses: "np.ndarray | Sequence[int]"
    ) -> np.ndarray:
        """ASNs announcing each address (``-1`` = not in the table), in
        one vectorized pass."""
        return self._table.match_many(addresses)[0]
