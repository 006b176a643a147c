"""Per-address reference for :class:`repro.resolve.pyasn.PyASNResolver`.

This is longest-prefix matching as it ran before the resolver looked
addresses up in sorted per-length arrays: announcements go into a binary
radix trie (:class:`~repro.resolve.pyasn.PrefixTrie`), and each address
walks it bit by bit.  Parity tests assert that ``PyASNResolver`` returns
the same ASN for every address, and the full-scale benchmark times it as
the pre-optimization baseline.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.net.ip import IPv4Prefix
from repro.resolve.pyasn import PrefixTrie


class ReferencePyASN:
    """Resolves one address at a time on a :class:`PrefixTrie`.

    Takes a full RIB (no coverage drop); later announcements of an equal
    prefix overwrite earlier ones, as in ``PyASNResolver``.
    """

    def __init__(self, announcements: Iterable[Tuple[IPv4Prefix, int]]):
        self._trie = PrefixTrie()
        for prefix, asn in announcements:
            self._trie.insert(prefix, asn)

    @property
    def announcement_count(self) -> int:
        return len(self._trie)

    def lookup(self, address: int) -> Optional[int]:
        match = self._trie.longest_match(address)
        return None if match is None else match[0]

    def lookup_many(self, addresses: "np.ndarray | Sequence[int]") -> np.ndarray:
        results = np.full(len(addresses), -1, dtype=np.int64)
        for i, address in enumerate(addresses):
            asn = self.lookup(int(address))
            if asn is not None:
                results[i] = asn
        return results
