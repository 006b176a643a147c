"""A lazy, dataset-compatible read view over a :class:`DatasetStore`.

:class:`StoredDataset` duck-types the :class:`MeasurementDataset` read
API -- ``pings()``, ``traceroutes()``, the count properties, and the
columnar accessors used by the JSONL fast path.  Iteration holds one
decoded shard at a time.  Analyses (:class:`StudyContext`, the
experiment modules, :func:`repro.measure.io.save_dataset`) consume it
unchanged.  Export streams shard by shard; the analyses join the shards'
columns (:func:`repro.measure.results.dataset_pings`, trace resolution)
and never build a record.  The joined ping columns are kept, once,
until the store's journal changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.measure.results import (
    PingBlock,
    PingMeasurement,
    PingsView,
    Protocol,
    TraceBlock,
    TracerouteMeasurement,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore


class StoredDataset:
    """Read-only :class:`MeasurementDataset` facade over a store.

    Shards are decoded lazily on every iteration pass: each ``pings()``
    call walks the journal, maps one shard, yields its records, and lets
    the block (and its page cache) go before touching the next.  Counts
    come straight from the journal, so ``len``-style queries read no
    shard bytes at all.  The one thing kept is the
    :func:`~repro.measure.results.dataset_pings` view, which joins every
    ping shard's columns: the ping figures share it until the journal's
    digest changes.
    """

    def __init__(self, store: "DatasetStore") -> None:
        self._store = store
        #: The shared :func:`~repro.measure.results.dataset_pings` view.
        self.pings_view = PingsView()

    @property
    def store(self) -> "DatasetStore":
        return self._store

    @property
    def revision(self) -> str:
        """The journal's digest: it changes whenever the store does."""
        return self._store.journal.digest()

    # -- counts (journal-only, no shard I/O) -------------------------------

    @property
    def ping_count(self) -> int:
        return self._store.ping_count

    @property
    def ping_sample_count(self) -> int:
        return self._store.ping_sample_count

    @property
    def traceroute_count(self) -> int:
        return self._store.traceroute_count

    # -- record iteration --------------------------------------------------

    def pings(
        self,
        platform: Optional[str] = None,
        protocol: Optional[Protocol] = None,
        predicate: Optional[Callable[[PingMeasurement], bool]] = None,
    ) -> Iterator[PingMeasurement]:
        """Iterate ping records, one shard resident at a time."""
        for block in self._store.iter_ping_blocks():
            for index in range(len(block)):
                measurement = block.record(index)
                if (
                    platform is not None
                    and measurement.meta.platform != platform
                ):
                    continue
                if protocol is not None and measurement.protocol is not Protocol(
                    protocol
                ):
                    continue
                if predicate is not None and not predicate(measurement):
                    continue
                yield measurement

    def traceroutes(
        self,
        platform: Optional[str] = None,
        protocol: Optional[Protocol] = None,
        predicate: Optional[Callable[[TracerouteMeasurement], bool]] = None,
    ) -> Iterator[TracerouteMeasurement]:
        """Iterate traceroute records, one shard resident at a time."""
        for block in self._store.iter_trace_blocks():
            for index in range(len(block)):
                measurement = block.record(index)
                if (
                    platform is not None
                    and measurement.meta.platform != platform
                ):
                    continue
                if protocol is not None and measurement.protocol is not Protocol(
                    protocol
                ):
                    continue
                if predicate is not None and not predicate(measurement):
                    continue
                yield measurement

    # -- columnar accessors (JSONL fast path compatibility) ----------------

    def iter_scalar_pings(self) -> Iterator[PingMeasurement]:
        """A store holds columnar blocks only; there are no scalar records."""
        return iter(())

    def iter_scalar_traceroutes(self) -> Iterator[TracerouteMeasurement]:
        return iter(())

    def iter_ping_blocks(self) -> Iterator[PingBlock]:
        """Yield ping blocks lazily, one decoded shard at a time.

        Shard-at-a-time consumers (JSONL export, columnar analyses)
        should iterate this instead of :meth:`ping_blocks` so only one
        block object is resident at a time.
        """
        yield from self._store.iter_ping_blocks()

    def iter_trace_blocks(self) -> Iterator[TraceBlock]:
        """Yield trace blocks lazily, one decoded shard at a time."""
        yield from self._store.iter_trace_blocks()

    def ping_blocks(self) -> List[PingBlock]:
        """All ping blocks.

        Note: this materializes every block *object* (columns stay
        memmapped).  Prefer :meth:`iter_ping_blocks` when streaming.
        """
        return list(self._store.iter_ping_blocks())

    def trace_blocks(self) -> List[TraceBlock]:
        return list(self._store.iter_trace_blocks())

    def __repr__(self) -> str:
        return (
            f"StoredDataset(pings={self.ping_count}, "
            f"traceroutes={self.traceroute_count})"
        )
