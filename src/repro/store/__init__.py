"""repro.store: the binary columnar dataset warehouse.

Persists campaign measurements as memmap-friendly binary shards (one
per campaign unit) under a journaled run directory, and serves them back
lazily -- see ``docs/STORAGE.md`` for the format and the resume
semantics, and ``python -m repro.store --help`` for the CLI.
"""

from repro.store.fileops import DEFAULT_FILEOPS, FileOps
from repro.store.format import (
    ShardFormatError,
    read_columns,
    verify_shard,
    verify_shard_report,
    write_shard,
)
from repro.store.journal import (
    JournalError,
    JournalSnapshot,
    JournalTailer,
    RunJournal,
)
from repro.store.shards import (
    column_zone,
    compute_zones,
    header_zones,
    read_block_shard,
    write_block_shard,
    zone_problems,
)
from repro.store.view import StoredDataset
from repro.store.warehouse import (
    Coverage,
    DatasetStore,
    ShardEntry,
    StoreError,
    report_problems,
)

__all__ = [
    "Coverage",
    "DEFAULT_FILEOPS",
    "DatasetStore",
    "FileOps",
    "JournalError",
    "JournalSnapshot",
    "JournalTailer",
    "RunJournal",
    "ShardEntry",
    "ShardFormatError",
    "StoreError",
    "StoredDataset",
    "column_zone",
    "compute_zones",
    "header_zones",
    "read_block_shard",
    "read_columns",
    "report_problems",
    "verify_shard",
    "verify_shard_report",
    "write_block_shard",
    "write_shard",
    "zone_problems",
]
