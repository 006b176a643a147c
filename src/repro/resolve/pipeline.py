"""The traceroute-resolution pipeline (paper sections 3.3 and 6.1).

For every raw traceroute the pipeline:

1. resolves each responding hop to an ASN with the PyASN-equivalent
   longest-prefix-match table, falling back to the Cymru-style service
   for unresolved public addresses;
2. tags private-address hops (home LANs, CGN) and IXP peering-LAN hops
   (CAIDA-style dataset);
3. collapses the hop sequence into an AS-level path with IXPs and
   private hops removed, recording where IXPs appeared;
4. infers the last-mile: probes whose first hop is a private address are
   *home* (WiFi) probes; probes whose first hop is already inside the
   serving ISP are *cell* probes -- including the VPN/CGN false positives
   the paper warns about;
5. extracts the last-mile RTT segments (USR-ISP and RTR-ISP).

Steps 1 and 2 depend only on the hop address, so the resolver classifies
each distinct address once in its lifetime, in NumPy, and keeps the
result in a sorted address table.  Steps 3 to 5 are array passes over a
whole :class:`~repro.measure.results.TraceBlock`, so resolution makes no
Python object per trace or per hop.  The per-record reference
implementation the block path must match lives with the tests
(``tests/oracles/resolver.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from repro.measure.results import TraceBlock, join_offsets
from repro.net.asn import ASRegistry
from repro.net.ip import private_mask
from repro.net.ixp import IXPRegistry
from repro.resolve.cymru import CymruResolver
from repro.resolve.pyasn import PyASNResolver

#: Seed of the resolver's own RIB-coverage stream when the caller does
#: not thread a generator.  Fixed (and independent of the campaign's
#: master seed) so that *which* addresses fall outside the simulated RIB
#: snapshot stays identical across runs and across campaign seeds --
#: resolution noise must never vary between otherwise-identical
#: longitudinal datasets.
DEFAULT_RESOLVER_SEED = 0

#: ASN column value of a hop without one: unresponsive, private, on an
#: IXP peering LAN, or unresolved.
NO_ASN = -1

#: Labels of the :attr:`ResolvedTraceBlock.inferred_access` codes; ``-1``
#: means the first responding hop was neither private nor inside the
#: serving ISP, or no hop responded.
INFERRED_ACCESS = ("home", "cell")
HOME, CELL = range(len(INFERRED_ACCESS))


@dataclass(frozen=True, eq=False)
class ResolvedTraceBlock:
    """Resolved traceroutes in columnar form, one row per trace of
    :attr:`traces`.

    Hop columns run parallel to ``traces.hop_addresses``; the AS path and
    the IXP sightings are ragged columns indexed by per-trace offsets,
    like the hops.  RTT columns hold ``NaN`` where a trace has no such
    RTT.
    """

    #: The raw traceroutes: probe/region tables, per-trace identity
    #: columns and the hop columns.
    traces: TraceBlock
    #: Per hop: the resolved ASN, or :data:`NO_ASN`.
    hop_asns: np.ndarray
    #: Per hop: the address is private (home LAN, CGN).
    hop_private: np.ndarray
    #: Per hop: the id of the IXP whose peering LAN holds the address,
    #: or ``-1``.
    hop_ixp_ids: np.ndarray
    #: The AS path of trace ``i`` is ``as_path_asns[o[i]:o[i + 1]]``:
    #: private, IXP and unresolved hops dropped, repeats collapsed.
    as_path_offsets: np.ndarray
    as_path_asns: np.ndarray
    #: IXP sightings of trace ``i`` are rows ``o[i]:o[i + 1]`` of
    #: ``ixp_positions`` (the index in the trace's AS path *after* which
    #: the IXP hop appeared) and ``ixp_ids``.
    ixp_offsets: np.ndarray
    ixp_positions: np.ndarray
    ixp_ids: np.ndarray
    #: Codes into :data:`INFERRED_ACCESS`, ``-1`` when not inferred.
    inferred_access: np.ndarray
    #: RTT to the home router (home probes only).
    router_rtts: np.ndarray
    #: RTT to the first hop inside the serving ISP's AS.
    usr_isp_rtts: np.ndarray
    #: RTT of the destination hop, when the trace reached it.
    end_to_end_rtts: np.ndarray

    def __len__(self) -> int:
        return len(self.traces)

    def probe_column(self, attribute: str) -> np.ndarray:
        """Per-trace values of one probe attribute (enums as values)."""
        return _table_column(self.traces.probes, attribute)[self.traces.probe_codes]

    def region_column(self, attribute: str) -> np.ndarray:
        """Per-trace values of one target-region attribute."""
        return _table_column(self.traces.regions, attribute)[
            self.traces.region_codes
        ]

    def hop_traces(self) -> np.ndarray:
        """The trace row of every hop."""
        return _owners(self.traces.hop_offsets)

    def path_traces(self) -> np.ndarray:
        """The trace row of every AS path entry."""
        return _owners(self.as_path_offsets)

    @classmethod
    def concatenate(
        cls, blocks: Sequence["ResolvedTraceBlock"]
    ) -> "ResolvedTraceBlock":
        """One block holding ``blocks``' rows in order; the traces are
        joined by :meth:`~repro.measure.results.Block.concatenate`."""
        if len(blocks) == 1:
            return blocks[0]
        columns = {}
        for column in fields(cls)[1:]:
            join = join_offsets if column.name.endswith("_offsets") else np.concatenate
            columns[column.name] = join([getattr(b, column.name) for b in blocks])
        return cls(traces=TraceBlock.concatenate([b.traces for b in blocks]), **columns)

    def __repr__(self) -> str:
        return (
            f"ResolvedTraceBlock(traces={len(self)}, "
            f"hops={self.traces.hop_count})"
        )


def _table_column(table: Sequence, attribute: str) -> np.ndarray:
    values = [getattr(row, attribute) for row in table]
    return np.asarray([v.value if isinstance(v, Enum) else v for v in values])


def _owners(offsets: np.ndarray) -> np.ndarray:
    """The row owning each entry of a ragged column."""
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([np.zeros(1, np.int64), np.cumsum(counts, dtype=np.int64)])


def first_per_row(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The first of ``values`` for each of ``n`` rows, ``-1`` where a row
    has none; ``rows`` must be nondecreasing."""
    out = np.full(n, -1, np.int64)
    head = np.ones(len(rows), bool)
    head[1:] = rows[1:] != rows[:-1]
    out[rows[head]] = values[head]
    return out


def last_per_row(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The last of ``values`` for each of ``n`` rows, ``-1`` where a row
    has none; ``rows`` must be nondecreasing."""
    out = np.full(n, -1, np.int64)
    tail = np.ones(len(rows), bool)
    tail[:-1] = rows[1:] != rows[:-1]
    out[rows[tail]] = values[tail]
    return out


def _at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]``, ``NaN`` where ``index`` is ``-1``."""
    out = np.full(len(index), np.nan)
    found = index >= 0
    out[found] = values[index[found]]
    return out


class TracerouteResolver:
    """Resolves raw traceroutes using the full pipeline.

    Classifications are cached per address for the resolver's lifetime,
    so the AS and IXP registries must not change after construction.
    """

    def __init__(
        self,
        registry: ASRegistry,
        ixps: IXPRegistry,
        rib_coverage: float = 0.97,
        rng: Optional[np.random.Generator] = None,
        seed: int = DEFAULT_RESOLVER_SEED,
    ):
        if rib_coverage < 1.0 and rng is None:
            rng = np.random.default_rng(seed)
        self._pyasn = PyASNResolver(
            registry.prefix_table(), coverage=rib_coverage, rng=rng
        )
        self._cymru = CymruResolver(registry)
        self._ixps = ixps
        # The classified addresses, sorted, with their classification.
        self._addresses = np.empty(0, np.int64)
        self._asns = np.empty(0, np.int64)
        self._private = np.empty(0, bool)
        self._ixp_ids = np.empty(0, np.int64)

    @property
    def cymru_query_count(self) -> int:
        return self._cymru.query_count

    def resolve_many(self, block: TraceBlock) -> ResolvedTraceBlock:
        """Run the pipeline over a traceroute block, in array passes.

        Hop addresses the resolver has not seen before are classified
        first (:meth:`_learn`); every hop then reads its classification
        from the address table.  The first responding hop decides the
        last mile: private -> *home* (its RTT is the router RTT), inside
        the serving ISP -> *cell*.  The USR-ISP RTT is that of the first
        hop inside the serving ISP.  The AS path drops private, IXP and
        unresolved hops and collapses repeats; an IXP hop is recorded
        after the AS it followed.
        """
        n = len(block)
        addresses = block.hop_addresses
        rtts = block.hop_rtts
        responded = np.flatnonzero(addresses != TraceBlock.NO_ADDRESS)
        self._learn(np.unique(addresses[responded]))
        where = np.searchsorted(self._addresses, addresses[responded])
        hop_asns = np.full(len(addresses), NO_ASN, np.int64)
        hop_asns[responded] = self._asns[where]
        hop_private = np.zeros(len(addresses), bool)
        hop_private[responded] = self._private[where]
        hop_ixp_ids = np.full(len(addresses), -1, np.int64)
        hop_ixp_ids[responded] = self._ixp_ids[where]

        owner = _owners(block.hop_offsets)
        isp = np.asarray([p.isp_asn for p in block.probes], np.int64)[
            block.probe_codes
        ]

        first = first_per_row(owner[responded], responded, n)
        has_first = np.flatnonzero(first >= 0)
        first = first[has_first]
        home = hop_private[first]
        cell = ~home & (hop_asns[first] == isp[has_first])
        inferred_access = np.full(n, -1, np.int8)
        inferred_access[has_first[home]] = HOME
        inferred_access[has_first[cell]] = CELL
        router_rtts = np.full(n, np.nan)
        router_rtts[has_first[home]] = rtts[first[home]]

        in_isp = np.flatnonzero(hop_asns == isp[owner])
        usr_isp_rtts = _at(rtts, first_per_row(owner[in_isp], in_isp, n))

        lengths = np.diff(block.hop_offsets)
        last = np.where(lengths > 0, block.hop_offsets[1:] - 1, -1)
        reached = last >= 0
        reached[reached] = addresses[last[reached]] == block.dest_addresses[reached]
        end_to_end_rtts = _at(rtts, np.where(reached, last, -1))

        on_path = np.flatnonzero(hop_asns != NO_ASN)
        path_owner = owner[on_path]
        path_asns = hop_asns[on_path]
        keep = np.ones(len(on_path), bool)
        keep[1:] = (path_owner[1:] != path_owner[:-1]) | (
            path_asns[1:] != path_asns[:-1]
        )
        path_hops = on_path[keep]
        as_path_offsets = _offsets(np.bincount(path_owner[keep], minlength=n))

        ixp_hops = np.flatnonzero(hop_ixp_ids >= 0)
        ixp_owner = owner[ixp_hops]
        path_so_far = np.searchsorted(path_hops, ixp_hops) - as_path_offsets[ixp_owner]
        seen = path_so_far > 0

        return ResolvedTraceBlock(
            traces=block,
            hop_asns=hop_asns,
            hop_private=hop_private,
            hop_ixp_ids=hop_ixp_ids,
            as_path_offsets=as_path_offsets,
            as_path_asns=path_asns[keep],
            ixp_offsets=_offsets(np.bincount(ixp_owner[seen], minlength=n)),
            ixp_positions=path_so_far[seen] - 1,
            ixp_ids=hop_ixp_ids[ixp_hops[seen]],
            inferred_access=inferred_access,
            router_rtts=router_rtts,
            usr_isp_rtts=usr_isp_rtts,
            end_to_end_rtts=end_to_end_rtts,
        )

    def resolve_dataset(self, dataset) -> ResolvedTraceBlock:
        """Every traceroute of a dataset, resolved block by block in the
        dataset's traceroute order."""
        resolved = [self.resolve_many(block) for block in dataset.trace_blocks()]
        if not resolved:
            resolved.append(self.resolve_many(TraceBlock.concatenate([])))
        return ResolvedTraceBlock.concatenate(resolved)

    def _learn(self, distinct: np.ndarray) -> None:
        """Classify the addresses of ``distinct`` (sorted, unique) that
        the table lacks, and add them to it.

        Private space wins over an IXP LAN, and an IXP LAN over the
        RIB, so only public non-IXP addresses reach the table lookup,
        and only its misses reach Cymru.
        """
        at = np.searchsorted(self._addresses, distinct)
        known = np.zeros(len(distinct), bool)
        inside = at < len(self._addresses)
        known[inside] = self._addresses[at[inside]] == distinct[inside]
        fresh = distinct[~known]
        if not fresh.size:
            return
        private = private_mask(fresh)
        ixp_ids = np.where(private, -1, self._ixps.ixp_ids_for(fresh))
        public = ~private & (ixp_ids < 0)
        asns = np.full(fresh.shape, NO_ASN, np.int64)
        if public.any():
            asns[public] = self._pyasn.lookup_many(fresh[public])
        for index in np.flatnonzero(public & (asns == NO_ASN)).tolist():
            fallback = self._cymru.lookup(int(fresh[index]))
            if fallback is not None:
                asns[index] = fallback
        at = at[~known]
        self._addresses = np.insert(self._addresses, at, fresh)
        self._asns = np.insert(self._asns, at, asns)
        self._private = np.insert(self._private, at, private)
        self._ixp_ids = np.insert(self._ixp_ids, at, ixp_ids)
