"""The warehouse command-line interface.

Subcommands::

    python -m repro.store info <run_dir>
    python -m repro.store verify <run_dir>
    python -m repro.store export-jsonl <run_dir> <out.jsonl[.gz]>
    python -m repro.store import-jsonl <in.jsonl[.gz]> <run_dir>

``export-jsonl`` streams the store shard-at-a-time through the columnar
JSONL writer, so arbitrarily large stores export in bounded memory.
``import-jsonl`` columnarizes a JSONL dataset into one store unit per
(platform, day), which both shrinks it and makes subsequent loads
memmap-fast.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.measure.io import load_dataset, save_dataset
from repro.measure.results import Block, PingBlock, TraceBlock
from repro.store.format import read_header
from repro.store.shards import header_zones
from repro.store.warehouse import DatasetStore, StoreError, report_problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.store",
        description="Inspect, verify and convert binary dataset stores",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="print a store's inventory")
    info.add_argument("run_dir", help="store run directory")
    info.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit a machine-readable inventory including each shard's "
        "per-column zone map (row count, value min/max)",
    )

    verify = subparsers.add_parser(
        "verify", help="checksum every shard and cross-check the journal"
    )
    verify.add_argument("run_dir", help="store run directory")
    verify.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit the full per-shard report as JSON",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for shard checks (default 1; the report "
        "is identical at any worker count)",
    )

    export = subparsers.add_parser(
        "export-jsonl", help="export a store as line-delimited JSON"
    )
    export.add_argument("run_dir", help="store run directory")
    export.add_argument("output", help="output path (.jsonl or .jsonl.gz)")

    imp = subparsers.add_parser(
        "import-jsonl", help="columnarize a JSONL dataset into a new store"
    )
    imp.add_argument("input", help="input path (.jsonl or .jsonl.gz)")
    imp.add_argument("run_dir", help="new store run directory")

    return parser


def _info_json(store: DatasetStore) -> Dict[str, object]:
    """The machine-readable inventory: manifest, counts, per-shard zones.

    The planner-facing part is ``shards[*].zones``: each shard's
    per-column zone map straight from its header, so operators can see
    exactly what ``repro.query`` pruning has to work with.  Shards
    written before zone maps existed report ``zones: null``.
    """
    shards = []
    for entry in store.shard_entries():
        header, _ = read_header(entry.path)
        shards.append(
            {
                "unit": entry.unit,
                "name": entry.name,
                "kind": entry.kind,
                "ordinal": entry.ordinal,
                "bytes": entry.path.stat().st_size,
                "zones": header_zones(header),
            }
        )
    return {
        "run_dir": str(store.run_dir),
        "manifest": store.manifest,
        "units": len(store.unit_entries()),
        "coverage": store.coverage().as_dict(),
        "pings": store.ping_count,
        "ping_samples": store.ping_sample_count,
        "traceroutes": store.traceroute_count,
        "manifest_digest": store.manifest_digest(),
        "journal_digest": store.journal_digest(),
        "shards": shards,
    }


def _command_info(args: argparse.Namespace) -> int:
    # Pin one journal prefix up front: info touches the journal through
    # many accessors, and a live campaign appending between them would
    # otherwise yield a mixed-commit-state inventory (counts from one
    # prefix, digest from another).
    store = DatasetStore.open(args.run_dir).snapshot()
    if args.as_json:
        print(json.dumps(_info_json(store), indent=2, sort_keys=True))
        return 0
    manifest = store.manifest
    print(f"store:       {store.run_dir}")
    print(f"format:      {manifest['format']} v{manifest['version']}")
    print(f"source:      {manifest.get('source')}")
    print(f"seed:        {manifest.get('seed')}")
    print(f"scale:       {manifest.get('scale')}")
    print(f"config_hash: {manifest.get('config_hash')}")
    entries = store.unit_entries()
    shard_files = [name for entry in entries for name in entry["shards"]]
    total_bytes = sum(
        (store.shard_dir / name).stat().st_size
        for name in shard_files
        if (store.shard_dir / name).exists()
    )
    begin = store.journal.begin_entry()
    if begin is not None:
        planned = len(begin.get("units", []))
        print(f"plan:        {begin['days']} days x {begin['platforms']}")
        print(f"progress:    {len(entries)}/{planned} units complete")
    else:
        print(f"units:       {len(entries)}")
    coverage = store.coverage()
    if coverage.partial or coverage.skipped:
        print(
            f"coverage:    {coverage.completed} complete, "
            f"{coverage.partial} partial, {coverage.skipped} skipped"
        )
    print(f"shards:      {len(shard_files)} files, {total_bytes} bytes")
    print(
        f"contents:    {store.ping_count} pings "
        f"({store.ping_sample_count} samples), "
        f"{store.traceroute_count} traceroutes"
    )
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    # Same pinning as info: shards are write-ahead, so every shard the
    # pinned journal references is durable even mid-campaign.
    store = DatasetStore.open(args.run_dir).snapshot()
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    report = store.verify_report(workers=args.workers)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    problems = report_problems(report)
    units = len(store.unit_entries())
    if problems:
        for problem in problems:
            print(f"FAIL {problem}")
        print(f"{len(problems)} problem(s) across {units} unit(s)")
        return 1
    print(
        f"OK {units} unit(s), {store.ping_count} pings, "
        f"{store.traceroute_count} traceroutes"
    )
    coverage = store.coverage()
    if coverage.partial or coverage.skipped or coverage.pending:
        print(
            f"coverage: {coverage.completed} complete, "
            f"{coverage.partial} partial, {coverage.skipped} skipped, "
            f"{coverage.pending} pending of {coverage.planned} planned"
        )
    return 0


def _command_export(args: argparse.Namespace) -> int:
    # Pinned like info: the header's counts and the blocks after it
    # must come from one journal prefix.
    store = DatasetStore.open(args.run_dir).snapshot()
    lines = save_dataset(store.dataset(), args.output)
    print(f"Wrote {lines} measurements to {args.output}", file=sys.stderr)
    return 0


def _unit_rows(block: Block) -> Dict[Tuple[str, int], List[int]]:
    """The rows of each (platform, day) of ``block``, in first-seen order."""
    platforms = [probe.platform for probe in block.probes]
    units: Dict[Tuple[str, int], List[int]] = {}
    for row, (code, day) in enumerate(
        zip(block.probe_codes.tolist(), block.days.tolist())
    ):
        units.setdefault((platforms[code], day), []).append(row)
    return units


def _command_import(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.input)
    pings = PingBlock.concatenate(list(dataset.ping_blocks()))
    traces = TraceBlock.concatenate(list(dataset.trace_blocks()))
    ping_units = _unit_rows(pings)
    trace_units = _unit_rows(traces)

    store = DatasetStore.create(Path(args.run_dir), source="import")
    # Units keep the input's first-seen order, so exporting the imported
    # store reproduces the original file byte-for-byte.
    units = list(dict.fromkeys([*ping_units, *trace_units]))
    for unit in units:
        platform, day = unit
        store.flush_unit(
            f"{platform}:{day:03d}",
            ping_block=pings.take(np.array(ping_units.get(unit, []), np.int64)),
            trace_block=traces.take(np.array(trace_units.get(unit, []), np.int64)),
        )
    print(
        f"Imported {store.ping_count} pings and {store.traceroute_count} "
        f"traceroutes into {store.run_dir} ({len(units)} units)",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "info": _command_info,
    "verify": _command_verify,
    "export-jsonl": _command_export,
    "import-jsonl": _command_import,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
