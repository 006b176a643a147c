"""The on-disk dataset warehouse.

A *store* is one run directory:

.. code-block:: text

    run_dir/
        manifest.json        static run metadata (format, seed, config hash)
        journal.jsonl        append-only completion journal (source of truth)
        shards/
            speedchecker-000-pings.shard
            speedchecker-000-traces.shard
            atlas-000-pings.shard
            ...

One *unit* -- a (platform, day) slice of a campaign, or one import
batch -- maps to at most one ping shard and one trace shard.  Shards are
written and fsynced **before** the unit's journal entry, so the journal
never references bytes the OS could still lose; conversely, any shard
without a journal entry is a crash leftover that the next resume
overwrites.

Reads are lazy: :meth:`DatasetStore.iter_ping_blocks` decodes one shard
at a time as memmap-backed blocks, so analyses stream a dataset far
larger than RAM.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.measure.results import (
    MeasurementDataset,
    PingBlock,
    TraceBlock,
)
from repro.store.fileops import FileOps
from repro.store.format import (
    ShardFormatError,
    read_columns,
    verify_shard_report,
)
from repro.store.journal import BEGIN_ENTRY, SKIP_ENTRY, UNIT_ENTRY, RunJournal
from repro.store.shards import (
    PING_SHARD_KIND,
    TRACE_SHARD_KIND,
    read_block_shard,
    write_block_shard,
    zone_problems,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.view import StoredDataset

PathLike = Union[str, Path]

#: Store layout file names.
MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
SHARD_DIR = "shards"

#: Manifest format tag and version.
STORE_FORMAT = "repro-store"
STORE_VERSION = 1


class StoreError(RuntimeError):
    """A store directory is missing, malformed, or inconsistent."""


def unit_file_stem(unit: str) -> str:
    """The shard file stem for a unit id (``speedchecker:003`` ->
    ``speedchecker-003``; colons are not portable in file names)."""
    return unit.replace(":", "-")


@dataclass(frozen=True)
class Coverage:
    """Unit-level coverage accounting for one store.

    ``planned`` comes from the ``begin`` entry's unit list (falling back
    to the journaled unit count for imported stores); ``completed``
    counts fully-populated units, ``partial`` those journaled with
    degraded results (quota ran out, probes disconnected), ``skipped``
    those the resilient runner gave up on.
    """

    planned: int
    completed: int
    partial: int
    skipped: int

    @property
    def pending(self) -> int:
        """Planned units not yet journaled either way."""
        return max(0, self.planned - self.completed - self.partial - self.skipped)

    @property
    def measured_fraction(self) -> float:
        """Fraction of planned units holding data (complete or partial)."""
        if self.planned <= 0:
            return 1.0
        return (self.completed + self.partial) / self.planned

    def as_dict(self) -> Dict[str, Any]:
        return {
            "planned": self.planned,
            "completed": self.completed,
            "partial": self.partial,
            "skipped": self.skipped,
            "pending": self.pending,
            "measured_fraction": round(self.measured_fraction, 6),
        }


def report_problems(report: Dict[str, Any]) -> List[str]:
    """Flatten a :meth:`DatasetStore.verify_report` into problem strings.

    Each string is ``"{unit}: {problem}"`` -- the exact format
    :meth:`DatasetStore.verify` has always returned.
    """
    problems: List[str] = []
    for unit_report in report["units"]:
        unit = unit_report["unit"]
        for shard_report in unit_report["shards"]:
            for problem in shard_report["problems"]:
                problems.append(f"{unit}: {problem}")
        for problem in unit_report["problems"]:
            problems.append(f"{unit}: {problem}")
    return problems


def _check_shard(task: Tuple[str, str]) -> Dict[str, Any]:
    """Verify one shard file: existence, CRCs, decodability, counts,
    and zone-map consistency.

    The unit of work of :meth:`DatasetStore.verify_report` -- a
    top-level function so the parallel verifier can fan shard checks
    out to worker processes (see :func:`repro.exec.parallel_map`).
    Returns the shard report plus the decoded record counts the caller
    cross-checks against the journal.
    """
    path_str, name = task
    path = Path(path_str)
    counts = {"pings": 0, "ping_samples": 0, "traceroutes": 0}
    if not path.exists():
        return {
            "name": name,
            "status": "missing",
            "problems": [f"missing shard {name}"],
            "counts": counts,
        }
    problems = verify_shard_report(path)
    if not problems:
        try:
            if name.endswith("-pings.shard"):
                block = read_block_shard(path, PingBlock)
                counts["pings"] = len(block)
                counts["ping_samples"] = block.sample_count
            else:
                trace_block = read_block_shard(path, TraceBlock)
                counts["traceroutes"] = len(trace_block)
        except (ShardFormatError, TypeError, ValueError) as exc:
            problems.append(f"{name} fails to decode: {exc}")
        else:
            # The zone map the query planner prunes by must agree with
            # the column contents it summarizes.
            header, columns = read_columns(path)
            problems.extend(zone_problems(path, header, columns))
    return {
        "name": name,
        "status": "corrupt" if problems else "ok",
        "problems": problems,
        "counts": counts,
    }


@dataclass(frozen=True)
class ShardEntry:
    """One journaled shard in canonical (journal) order.

    The scan planner's unit of work: ``kind`` is the shard's record
    family (``pings``/``traces``), ``ordinal`` its position in the
    canonical shard sequence of that kind -- the merge order every
    parallel scan must reproduce.
    """

    unit: str
    name: str
    kind: str
    ordinal: int
    path: Path


class DatasetStore:
    """One on-disk measurement dataset: manifest + journal + shards."""

    def __init__(self, run_dir: Path, journal: RunJournal, manifest: Dict[str, Any]) -> None:
        self._run_dir = run_dir
        self._journal = journal
        self._manifest = manifest

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        run_dir: PathLike,
        seed: Optional[int] = None,
        config_hash: Optional[str] = None,
        scale: Optional[float] = None,
        source: str = "campaign",
    ) -> "DatasetStore":
        """Initialise a new store; refuses a directory that already holds one."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(f"{run_dir}: already contains a store manifest")
        (run_dir / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Any] = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "seed": seed,
            "config_hash": config_hash,
            "scale": scale,
            "source": source,
        }
        # Atomic publish: a crash mid-write leaves no manifest, and open()
        # then correctly reports "not a store" instead of half a file.
        tmp_path = manifest_path.with_suffix(".json.tmp")
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, manifest_path)
        return cls(run_dir, RunJournal(run_dir / JOURNAL_NAME), manifest)

    @classmethod
    def open(cls, run_dir: PathLike) -> "DatasetStore":
        """Open an existing store directory."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"{run_dir}: no store manifest found")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(f"{run_dir}: not a {STORE_FORMAT} directory")
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"{run_dir}: unsupported store version {manifest.get('version')}"
            )
        return cls(run_dir, RunJournal(run_dir / JOURNAL_NAME), manifest)

    @classmethod
    def open_or_create(
        cls,
        run_dir: PathLike,
        seed: Optional[int] = None,
        config_hash: Optional[str] = None,
        scale: Optional[float] = None,
        source: str = "campaign",
    ) -> "DatasetStore":
        """Open ``run_dir`` if it already holds a store, else create one."""
        if (Path(run_dir) / MANIFEST_NAME).exists():
            return cls.open(run_dir)
        return cls.create(
            run_dir,
            seed=seed,
            config_hash=config_hash,
            scale=scale,
            source=source,
        )

    # -- identity ----------------------------------------------------------

    @property
    def run_dir(self) -> Path:
        return self._run_dir

    @property
    def manifest(self) -> Dict[str, Any]:
        return dict(self._manifest)

    @property
    def journal(self) -> RunJournal:
        return self._journal

    @property
    def shard_dir(self) -> Path:
        return self._run_dir / SHARD_DIR

    # -- write side --------------------------------------------------------

    def begin_run(self, plan: Dict[str, Any]) -> None:
        """Journal a campaign's ``begin`` entry (once per store)."""
        if self._journal.begin_entry() is not None:
            raise StoreError(f"{self._run_dir}: run already begun")
        entry = dict(plan)
        entry["type"] = BEGIN_ENTRY
        self._journal.append(entry)

    def write_unit_shards(
        self,
        unit: str,
        ping_block: Optional[PingBlock] = None,
        trace_block: Optional[TraceBlock] = None,
        fileops: Optional[FileOps] = None,
    ) -> Dict[str, Any]:
        """Write (and fsync) one unit's shards; returns the journal entry
        *without appending it*.

        The write half of :meth:`flush_unit`.  The resilient runner
        splits the two so it can verify the shards (and retry a faulted
        write) before anything is journaled.  ``fileops`` substitutes
        the shard file primitives (the storage fault-injection hook).
        """
        if unit in self.completed_units():
            raise StoreError(f"{self._run_dir}: unit {unit!r} already completed")
        stem = unit_file_stem(unit)
        entry: Dict[str, Any] = {
            "type": UNIT_ENTRY,
            "unit": unit,
            "pings": 0,
            "ping_samples": 0,
            "traceroutes": 0,
            "shards": [],
        }
        if ping_block is not None and len(ping_block):
            name = f"{stem}-pings.shard"
            write_block_shard(
                self.shard_dir / name, ping_block, unit, fileops=fileops
            )
            entry["pings"] = len(ping_block)
            entry["ping_samples"] = ping_block.sample_count
            entry["shards"].append(name)
        if trace_block is not None and len(trace_block):
            name = f"{stem}-traces.shard"
            write_block_shard(
                self.shard_dir / name, trace_block, unit, fileops=fileops
            )
            entry["traceroutes"] = len(trace_block)
            entry["shards"].append(name)
        return entry

    def verify_unit_shards(self, entry: Dict[str, Any]) -> None:
        """Re-checksum the shards named by a pending unit entry.

        Raises :class:`~repro.store.format.ShardFormatError` on the
        first problem.  The resilient runner calls this between a
        fault-injected write and the journal append, so a silently
        corrupted shard is caught while the unit can still be retried.
        The error names the shard by file name only, because the runner
        journals it as the unit's skip reason, and the store's location
        (or a worker's staging copy) must not change journal bytes.
        """
        for name in entry["shards"]:
            path = self.shard_dir / name
            problems = verify_shard_report(path)
            if problems:
                raise ShardFormatError(problems[0].replace(str(path), name))

    def _require_open(self, unit: str) -> None:
        """Raise unless ``unit`` is neither completed nor skipped, from one
        read of the journal."""
        kinds = {
            entry["type"]
            for entry in self._journal.entries()
            if entry.get("unit") == unit
        }
        if UNIT_ENTRY in kinds:
            raise StoreError(f"{self._run_dir}: unit {unit!r} already completed")
        if SKIP_ENTRY in kinds:
            raise StoreError(f"{self._run_dir}: unit {unit!r} already skipped")

    def journal_unit(
        self, entry: Dict[str, Any], extra: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Append a pending unit entry (from :meth:`write_unit_shards`).

        ``extra`` merges additional accounting into the entry before the
        append -- attempt counts, virtual backoff, fault events, and the
        ``"status": "partial"`` marker for degraded units.
        """
        self._require_open(entry["unit"])
        if extra:
            entry = {**entry, **extra}
        self._journal.append(entry)
        return entry

    def flush_unit(
        self,
        unit: str,
        ping_block: Optional[PingBlock] = None,
        trace_block: Optional[TraceBlock] = None,
    ) -> Dict[str, Any]:
        """Durably persist one completed unit and journal it.

        Shards are written (and fsynced) first; the journal entry is
        appended only afterwards, so a crash at any point leaves the
        store consistent.  Returns the journal entry.
        """
        entry = self.write_unit_shards(unit, ping_block, trace_block)
        return self.journal_unit(entry)

    def journal_skip(
        self,
        unit: str,
        reason: str,
        attempts: int,
        backoff_ms: float = 0.0,
        faults: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        """Journal a unit the resilient runner gave up on.

        A skipped unit is closed: it counts against coverage and resume
        will not re-run it (use store repair to re-open units).  It also
        holds no data: shard files its failed write attempts left behind
        (torn, corrupt or unsynced) are removed before the skip is
        journaled, so a serial run leaves the same files as a parallel
        one, whose workers' failed writes stay in discarded staging.
        """
        self._require_open(unit)
        stem = unit_file_stem(unit)
        for suffix in ("-pings.shard", "-traces.shard"):
            (self.shard_dir / f"{stem}{suffix}").unlink(missing_ok=True)
        entry: Dict[str, Any] = {
            "type": SKIP_ENTRY,
            "unit": unit,
            "reason": reason,
            "attempts": attempts,
        }
        if backoff_ms:
            entry["backoff_ms"] = round(backoff_ms, 3)
        if faults:
            entry["faults"] = list(faults)
        self._journal.append(entry)
        return entry

    # -- read side ---------------------------------------------------------

    def completed_units(self) -> List[str]:
        """Ids of journaled units, in completion order."""
        return self._journal.completed_units()

    def unit_entries(self) -> List[Dict[str, Any]]:
        return self._journal.unit_entries()

    def skipped_units(self) -> List[str]:
        """Ids of units the resilient runner journaled as skipped."""
        return self._journal.skipped_units()

    def skip_entries(self) -> List[Dict[str, Any]]:
        return self._journal.skip_entries()

    def coverage(self) -> Coverage:
        """Unit-level coverage accounting (planned/completed/partial/skipped)."""
        unit_entries = self.unit_entries()
        partial = sum(
            1 for entry in unit_entries if entry.get("status") == "partial"
        )
        completed = len(self._journal.completed_units()) - partial
        skipped = len(self.skipped_units())
        begin = self._journal.begin_entry()
        if begin is not None and "units" in begin:
            planned = len(begin["units"])
        else:
            planned = completed + partial + skipped
        return Coverage(
            planned=planned,
            completed=completed,
            partial=partial,
            skipped=skipped,
        )

    def _shard_paths(self, suffix: str) -> List[Path]:
        paths = []
        for entry in self.unit_entries():
            for name in entry["shards"]:
                if name.endswith(suffix):
                    paths.append(self.shard_dir / name)
        return paths

    def shard_entries(self, kind: Optional[str] = None) -> List[ShardEntry]:
        """Every journaled shard in canonical journal order.

        ``kind`` restricts the listing to one record family
        (:data:`~repro.store.shards.PING_SHARD_KIND` or
        :data:`~repro.store.shards.TRACE_SHARD_KIND`).  Ordinals number
        the shards *within* their family, so the canonical merge order
        of a ping scan is independent of interleaved trace shards.
        """
        entries: List[ShardEntry] = []
        ordinals = {PING_SHARD_KIND: 0, TRACE_SHARD_KIND: 0}
        for entry in self.unit_entries():
            for name in entry["shards"]:
                shard_kind = (
                    PING_SHARD_KIND
                    if name.endswith("-pings.shard")
                    else TRACE_SHARD_KIND
                )
                if kind is not None and shard_kind != kind:
                    continue
                entries.append(
                    ShardEntry(
                        unit=entry["unit"],
                        name=name,
                        kind=shard_kind,
                        ordinal=ordinals[shard_kind],
                        path=self.shard_dir / name,
                    )
                )
                ordinals[shard_kind] += 1
        return entries

    def manifest_digest(self) -> str:
        """sha256 over the manifest file -- the store's static identity."""
        return hashlib.sha256(
            (self._run_dir / MANIFEST_NAME).read_bytes()
        ).hexdigest()

    def journal_digest(self) -> str:
        """sha256 over the journal's well-formed prefix.

        The query-result cache keys on this: any appended unit (or a
        repair rewrite) changes the digest, so cached results are
        invalidated exactly when the set of journaled shards changes.
        A complete journal ends with a newline, so for quiescent stores
        this is the whole-file digest; on a live store an in-flight torn
        tail is excluded, matching what the entry accessors return.
        """
        return self._journal.digest()

    def snapshot(self) -> "DatasetStore":
        """A read view of this store pinned to one journal prefix.

        Every journal-derived accessor of the returned store (units,
        coverage, digests, verify) answers from a single consistent read
        taken now, so inspecting a store *while a campaign is writing to
        it* can never mix two commit states.  Shards are write-ahead
        (durable before their journal entry), so every shard the pinned
        journal references exists on disk.
        """
        return DatasetStore(self._run_dir, self._journal.pin(), self._manifest)

    def iter_ping_blocks(self, mmap: bool = True) -> Iterator[PingBlock]:
        """Decode journaled ping shards lazily, one block at a time."""
        for path in self._shard_paths("-pings.shard"):
            yield read_block_shard(path, PingBlock, mmap=mmap)

    def iter_trace_blocks(self, mmap: bool = True) -> Iterator[TraceBlock]:
        """Decode journaled trace shards lazily, one block at a time."""
        for path in self._shard_paths("-traces.shard"):
            yield read_block_shard(path, TraceBlock, mmap=mmap)

    @property
    def ping_count(self) -> int:
        """Total journaled ping requests (no shard reads needed)."""
        return sum(entry["pings"] for entry in self.unit_entries())

    @property
    def ping_sample_count(self) -> int:
        return sum(entry["ping_samples"] for entry in self.unit_entries())

    @property
    def traceroute_count(self) -> int:
        return sum(entry["traceroutes"] for entry in self.unit_entries())

    def dataset(self) -> "StoredDataset":
        """The lazy, dataset-compatible read view (shard-at-a-time)."""
        from repro.store.view import StoredDataset

        return StoredDataset(self)

    def materialize(self) -> MeasurementDataset:
        """Load the whole store into an in-memory dataset.

        Blocks are decoded without memmaps so the result stays valid if
        the run directory is later deleted.
        """
        dataset = MeasurementDataset()
        for ping_block in self.iter_ping_blocks(mmap=False):
            dataset.add_ping_block(ping_block)
        for trace_block in self.iter_trace_blocks(mmap=False):
            dataset.add_trace_block(trace_block)
        return dataset

    # -- integrity ---------------------------------------------------------

    def verify_report(self, workers: int = 1) -> Dict[str, Any]:
        """Check the whole store; returns a structured per-shard report.

        Every journaled shard is checked -- existence, per-column CRC32s,
        decodability, and journal/shard count agreement -- and *all*
        problems are collected, never just the first.  The report shape::

            {"ok": bool,
             "units": [{"unit": ..., "status": "ok"|"corrupt",
                        "problems": [...],          # count mismatches
                        "shards": [{"name": ..., "status":
                                    "ok"|"missing"|"corrupt",
                                    "problems": [...]}]}],
             "coverage": {...}}

        ``workers`` > 1 fans the per-shard checks out to that many
        forked worker processes (:func:`repro.exec.parallel_map`); the
        report -- unit order, shard order, every problem string -- is
        identical to the serial result by construction.
        """
        entries = self.unit_entries()
        tasks: List[Tuple[str, str]] = [
            (str(self.shard_dir / name), name)
            for entry in entries
            for name in entry["shards"]
        ]
        if workers > 1 and len(tasks) > 1:
            from repro.exec.pool import parallel_map

            checks = parallel_map(_check_shard, tasks, workers)
        else:
            checks = [_check_shard(task) for task in tasks]
        check_iter = iter(checks)

        units: List[Dict[str, Any]] = []
        for entry in entries:
            unit = entry["unit"]
            counted_pings = 0
            counted_samples = 0
            counted_traces = 0
            shard_reports: List[Dict[str, Any]] = []
            for name in entry["shards"]:
                check = next(check_iter)
                counted_pings += check["counts"]["pings"]
                counted_samples += check["counts"]["ping_samples"]
                counted_traces += check["counts"]["traceroutes"]
                shard_reports.append(
                    {
                        "name": check["name"],
                        "status": check["status"],
                        "problems": check["problems"],
                    }
                )
            unit_problems: List[str] = []
            if counted_pings != entry["pings"]:
                unit_problems.append(
                    f"journal records {entry['pings']} pings, "
                    f"shards hold {counted_pings}"
                )
            if counted_samples != entry["ping_samples"]:
                unit_problems.append(
                    f"journal records {entry['ping_samples']} ping "
                    f"samples, shards hold {counted_samples}"
                )
            if counted_traces != entry["traceroutes"]:
                unit_problems.append(
                    f"journal records {entry['traceroutes']} "
                    f"traceroutes, shards hold {counted_traces}"
                )
            clean = not unit_problems and all(
                shard["status"] == "ok" for shard in shard_reports
            )
            units.append(
                {
                    "unit": unit,
                    "status": "ok" if clean else "corrupt",
                    "problems": unit_problems,
                    "shards": shard_reports,
                }
            )
        return {
            "ok": all(unit["status"] == "ok" for unit in units),
            "units": units,
            "coverage": self.coverage().as_dict(),
        }

    def verify(self, workers: int = 1) -> List[str]:
        """Check the whole store; returns a list of problems (empty = ok).

        The flat-string view of :meth:`verify_report`: every journaled
        shard's existence, per-column CRC32s, decodability, and
        journal/shard count agreement.  ``workers`` > 1 parallelizes the
        shard checks without changing the problem list.
        """
        return report_problems(self.verify_report(workers=workers))

    def quarantine_units(self, units: List[str]) -> List[str]:
        """Drop the journal entries and shard files of corrupt units.

        The journal is rewritten (atomically) *first*, then the orphaned
        shard files are unlinked -- the same write-ahead discipline as
        the forward path, so a crash mid-quarantine leaves at worst
        unjournaled shard leftovers that the re-run overwrites.  Returns
        the unit ids actually dropped.
        """
        doomed = set(units)
        if not doomed:
            return []
        dropped: List[str] = []
        kept: List[Dict[str, Any]] = []
        shard_names: List[str] = []
        for entry in self._journal.entries():
            if (
                entry["type"] in (UNIT_ENTRY, SKIP_ENTRY)
                and entry["unit"] in doomed
            ):
                if entry["unit"] not in dropped:
                    dropped.append(entry["unit"])
                shard_names.extend(entry.get("shards", []))
                continue
            kept.append(entry)
        if not dropped:
            return []
        self._journal.rewrite(kept)
        for name in shard_names:
            path = self.shard_dir / name
            if path.exists():
                path.unlink()
        return dropped

    def __repr__(self) -> str:
        return (
            f"DatasetStore({str(self._run_dir)!r}, "
            f"units={len(self.completed_units())}, "
            f"pings={self.ping_count}, traceroutes={self.traceroute_count})"
        )
