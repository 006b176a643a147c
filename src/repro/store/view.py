"""A lazy, dataset-compatible read view over a :class:`DatasetStore`.

:class:`StoredDataset` has the block interface of
:class:`MeasurementDataset`: ``ping_blocks()`` and ``trace_blocks()``,
the count properties, ``revision`` and ``pings_view``.  The block
iterators hold one decoded shard at a time.  Analyses
(:class:`StudyContext`, the experiment modules,
:func:`repro.measure.io.save_dataset`) consume it unchanged.  Export
streams shard by shard; the analyses join the shards' columns
(:func:`repro.measure.results.dataset_pings`, trace resolution) and
never build a record.  The joined ping columns are kept, once, until the
store's journal changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.measure.results import PingBlock, PingsView, TraceBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.warehouse import DatasetStore


class StoredDataset:
    """Read-only :class:`MeasurementDataset` facade over a store.

    Shards are decoded lazily on every pass: each ``ping_blocks()`` call
    walks the journal and maps one shard at a time, letting the block
    (and its page cache) go before touching the next.  Counts come
    straight from the journal, so ``len``-style queries read no shard
    bytes at all.  The one thing kept is the
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

    # -- blocks, one decoded shard at a time -------------------------------

    def ping_blocks(self) -> Iterator[PingBlock]:
        """The ping blocks, one memmapped shard at a time."""
        return self._store.iter_ping_blocks()

    def trace_blocks(self) -> Iterator[TraceBlock]:
        """The trace blocks, one memmapped shard at a time."""
        return self._store.iter_trace_blocks()

    def __repr__(self) -> str:
        return (
            f"StoredDataset(pings={self.ping_count}, "
            f"traceroutes={self.traceroute_count})"
        )
