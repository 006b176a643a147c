"""IPv4 addresses, prefixes, and a sequential prefix allocator.

Addresses are plain ``int`` values (0..2^32-1) throughout the simulator;
this module provides parsing/formatting, private-range checks, and the
prefix machinery used both by the address allocator and by the
longest-prefix-match resolver in :mod:`repro.resolve.pyasn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

MAX_IPV4 = 2**32 - 1

#: RFC 1918 private ranges plus RFC 6598 CGN space, as (base, prefix_len).
_PRIVATE_RANGES: Tuple[Tuple[int, int], ...] = (
    (0x0A000000, 8),   # 10.0.0.0/8
    (0xAC100000, 12),  # 172.16.0.0/12
    (0xC0A80000, 16),  # 192.168.0.0/16
    (0x64400000, 10),  # 100.64.0.0/10 (carrier-grade NAT)
)


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"malformed IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(address: int) -> str:
    """Format an integer address as dotted-quad notation."""
    if not 0 <= address <= MAX_IPV4:
        raise ValueError(f"address out of range: {address}")
    return ".".join(
        str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def is_private_ip(address: int) -> bool:
    """True if the address lies in RFC 1918 or CGN (RFC 6598) space."""
    for base, length in _PRIVATE_RANGES:
        mask = ((1 << length) - 1) << (32 - length)
        if (address & mask) == base:
            return True
    return False


def private_mask(addresses: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Vectorized :func:`is_private_ip`: one boolean per address."""
    addresses = np.asarray(addresses, dtype=np.int64)
    private = np.zeros(addresses.shape, dtype=bool)
    for base, length in _PRIVATE_RANGES:
        mask = ((1 << length) - 1) << (32 - length)
        private |= (addresses & mask) == base
    return private


@dataclass(frozen=True)
class IPv4Prefix:
    """An IPv4 prefix ``base/length`` with canonical (masked) base."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.base <= MAX_IPV4:
            raise ValueError(f"prefix base out of range: {self.base}")
        if self.base & ~self.mask:
            raise ValueError(
                f"prefix base {format_ip(self.base)} has host bits set for /{self.length}"
            )

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (32 - self.length)

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    def contains(self, address: int) -> bool:
        return (address & self.mask) == self.base

    def contains_prefix(self, other: "IPv4Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains(other.base)

    def address_at(self, offset: int) -> int:
        """The ``offset``-th address inside the prefix."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside /{self.length}")
        return self.base + offset

    def hosts(self) -> Iterator[int]:
        """All addresses in the prefix (use only for small prefixes)."""
        return iter(range(self.base, self.base + self.size))

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        try:
            addr_text, len_text = text.split("/")
        except ValueError:
            raise ValueError(f"malformed prefix {text!r}") from None
        return cls(parse_ip(addr_text), int(len_text))

    def __str__(self) -> str:
        return f"{format_ip(self.base)}/{self.length}"


class PrefixAllocator:
    """Sequentially allocates disjoint prefixes out of a public supernet.

    The simulator gives every AS one or more prefixes from this pool so
    that the IP-to-ASN resolver can be exercised with a realistic,
    non-overlapping address plan.
    """

    def __init__(self, supernet: IPv4Prefix = IPv4Prefix.parse("11.0.0.0/8")):
        if is_private_ip(supernet.base):
            raise ValueError("supernet must not be private address space")
        self._supernet = supernet
        self._cursor = supernet.base
        self._allocated: List[IPv4Prefix] = []

    @property
    def supernet(self) -> IPv4Prefix:
        return self._supernet

    @property
    def allocated(self) -> List[IPv4Prefix]:
        """All prefixes handed out so far, in allocation order."""
        return list(self._allocated)

    def allocate(self, length: int) -> IPv4Prefix:
        """Allocate the next free prefix of the given length."""
        if length < self._supernet.length:
            raise ValueError(
                f"cannot allocate /{length} out of {self._supernet}"
            )
        size = 1 << (32 - length)
        # Align the cursor to the prefix size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        end = self._supernet.base + self._supernet.size
        if aligned + size > end:
            raise RuntimeError(
                f"address pool {self._supernet} exhausted allocating /{length}"
            )
        prefix = IPv4Prefix(aligned, length)
        self._cursor = aligned + size
        self._allocated.append(prefix)
        return prefix
