"""Command-line interface.

Subcommands::

    python -m repro summary                     # world inventory
    python -m repro list                        # registered experiments
    python -m repro campaign --days 14 -o d.jsonl.gz
    python -m repro experiment fig4 [--dataset d.jsonl.gz]
    python -m repro reproduce [--days 21] [--dataset d.jsonl.gz]
                                                # every artifact

All subcommands accept ``--seed`` and ``--scale``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import build_world, run_campaign, run_campaign_checkpointed
from repro.experiments import (
    EXPERIMENT_IDS,
    StudyContext,
    evaluate_takeaways,
    experiment_info,
    render_takeaways,
    run_experiment,
)
from repro.faults import RetryPolicy, load_fault_config
from repro.measure.io import load_dataset, save_dataset
from repro.netfaults import load_netfault_config
from repro.store import DatasetStore, StoreError


def _load_any_dataset(path: str):
    """Load a dataset argument: a JSONL file or a store run directory."""
    if Path(path).is_dir():
        return DatasetStore.open(path).dataset()
    return load_dataset(path)


def _scale_argument(text: str) -> float:
    """Parse ``--scale``, rejecting values outside (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"scale must be a number, got {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1], got {value}; 1.0 is the paper's "
            "full 115k-probe deployment"
        )
    return value


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="master RNG seed")
    parser.add_argument(
        "--scale",
        type=_scale_argument,
        default=0.02,
        help="fleet scale factor in (0, 1]; 1.0 = the paper's 115k probes",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Cloudy with a Chance of Short RTTs' (IMC 2021)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser("summary", help="print the world inventory")
    _add_world_arguments(summary)

    subparsers.add_parser("list", help="list registered experiments")

    campaign = subparsers.add_parser(
        "campaign", help="run a measurement campaign and save the dataset"
    )
    _add_world_arguments(campaign)
    campaign.add_argument("--days", type=int, default=14)
    output_group = campaign.add_mutually_exclusive_group(required=True)
    output_group.add_argument(
        "-o", "--output", help="output path (.jsonl or .jsonl.gz)"
    )
    output_group.add_argument(
        "--store",
        help=(
            "checkpointed run directory: each completed (platform, day) "
            "unit is journaled as binary shards; re-running with the same "
            "directory resumes an interrupted campaign"
        ),
    )
    campaign.add_argument(
        "--fault-config",
        default=None,
        help=(
            "JSON file of fault-injection rates (see docs/ROBUSTNESS.md); "
            "requires --store"
        ),
    )
    campaign.add_argument(
        "--netfault-config",
        default=None,
        help=(
            "JSON file of network event rates (see docs/DYNAMIC_TOPOLOGY.md): "
            "seeded link failures, peering flaps, and regional outages on a "
            "virtual-time timeline; requires --store"
        ),
    )
    campaign.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help=(
            "retry budget per unit under fault injection (default 3); "
            "requires --store"
        ),
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for unit execution (default 1 = serial); "
            "the resulting store is byte-identical at any worker count; "
            "requires --store (see docs/PARALLELISM.md)"
        ),
    )

    experiment = subparsers.add_parser(
        "experiment", help="run one experiment by its paper artifact id"
    )
    _add_world_arguments(experiment)
    experiment.add_argument("experiment_id", choices=sorted(EXPERIMENT_IDS))
    experiment.add_argument(
        "--dataset",
        default=None,
        help=(
            "dataset file or store run directory from 'repro campaign' "
            "(collected fresh if omitted)"
        ),
    )
    experiment.add_argument("--days", type=int, default=14)

    reproduce = subparsers.add_parser(
        "reproduce", help="regenerate every table and figure"
    )
    _add_world_arguments(reproduce)
    reproduce.add_argument("--days", type=int, default=21)
    reproduce.add_argument(
        "--dataset",
        default=None,
        help=(
            "dataset file or store run directory from 'repro campaign' "
            "(collected fresh if omitted)"
        ),
    )

    takeaways = subparsers.add_parser(
        "takeaways", help="check the paper's takeaway boxes against a study"
    )
    _add_world_arguments(takeaways)
    takeaways.add_argument("--days", type=int, default=14)
    takeaways.add_argument(
        "--dataset",
        default=None,
        help="dataset file or store run directory from 'repro campaign'",
    )

    service = subparsers.add_parser(
        "service",
        help=(
            "run the live measurement service: HTTP/JSON campaign "
            "submission, NDJSON streaming, warehouse queries "
            "(see docs/SERVICE.md)"
        ),
        add_help=False,
    )
    service.add_argument(
        "service_args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS
    )

    return parser


def _command_summary(args) -> int:
    world = build_world(seed=args.seed, scale=args.scale)
    print(world.summary())
    return 0


def _command_list(args) -> int:
    for experiment_id in EXPERIMENT_IDS:
        info = experiment_info(experiment_id)
        needs = "dataset" if info.needs_dataset else "world-only"
        print(f"{experiment_id:8s}  {info.paper_artifact:24s}  [{needs}]")
    return 0


def _command_campaign(args) -> int:
    if (
        args.fault_config
        or args.netfault_config
        or args.max_attempts is not None
        or args.workers != 1
    ) and not args.store:
        print(
            "error: --fault-config/--netfault-config/--max-attempts/--workers "
            "require --store",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(
            f"error: --workers must be >= 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    world = build_world(seed=args.seed, scale=args.scale)
    print(world.summary(), file=sys.stderr)
    started = time.time()
    if args.store:
        try:
            faults = (
                load_fault_config(args.fault_config)
                if args.fault_config
                else None
            )
            netfaults = (
                load_netfault_config(args.netfault_config)
                if args.netfault_config
                else None
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        retry = (
            RetryPolicy(max_attempts=args.max_attempts)
            if args.max_attempts is not None
            else None
        )
        store = run_campaign_checkpointed(
            world,
            args.store,
            days=args.days,
            faults=faults,
            netfaults=netfaults,
            retry=retry,
            workers=args.workers,
        )
        print(
            f"Store {store.run_dir} complete: {store.ping_count} pings "
            f"({store.ping_sample_count} samples), "
            f"{store.traceroute_count} traceroutes across "
            f"{len(store.completed_units())} units "
            f"in {time.time() - started:.1f}s",
            file=sys.stderr,
        )
        coverage = store.coverage()
        if coverage.partial or coverage.skipped:
            print(
                f"coverage: {coverage.completed} complete, "
                f"{coverage.partial} partial, {coverage.skipped} skipped "
                f"of {coverage.planned} planned units",
                file=sys.stderr,
            )
        return 0
    dataset = run_campaign(world, days=args.days)
    lines = save_dataset(dataset, args.output)
    print(
        f"Wrote {lines} measurements ({dataset.ping_sample_count} ping "
        f"samples, {dataset.traceroute_count} traceroutes) to "
        f"{args.output} in {time.time() - started:.1f}s",
        file=sys.stderr,
    )
    return 0


def _command_experiment(args) -> int:
    world = build_world(seed=args.seed, scale=args.scale)
    info = experiment_info(args.experiment_id)
    dataset = None
    # A given dataset reaches world-only experiments too (``stats`` then
    # reports how many countries clear its bar), as in ``reproduce``.
    if args.dataset:
        dataset = _load_any_dataset(args.dataset)
    elif info.needs_dataset:
        print(f"Collecting a fresh {args.days}-day dataset ...", file=sys.stderr)
        dataset = run_campaign(world, days=args.days)
    result = run_experiment(args.experiment_id, world, dataset)
    print(result.render())
    return 0


def _command_reproduce(args) -> int:
    world = build_world(seed=args.seed, scale=args.scale)
    print(world.summary(), file=sys.stderr)
    if args.dataset:
        dataset = _load_any_dataset(args.dataset)
    else:
        dataset = run_campaign(world, days=args.days)
    context = StudyContext(world, dataset)
    for experiment_id in EXPERIMENT_IDS:
        print()
        result = run_experiment(experiment_id, world, dataset, context=context)
        print(result.render())
    return 0


def _command_takeaways(args) -> int:
    world = build_world(seed=args.seed, scale=args.scale)
    if args.dataset:
        dataset = _load_any_dataset(args.dataset)
    else:
        print(f"Collecting a fresh {args.days}-day dataset ...", file=sys.stderr)
        dataset = run_campaign(world, days=args.days)
    checks = evaluate_takeaways(world, dataset)
    print(render_takeaways(checks))
    return 0 if all(check.holds for check in checks) else 1


def _command_service(args) -> int:
    # Delegates to the service's own parser so `python -m repro service`
    # and `python -m repro.service` accept identical arguments.
    from repro.service.__main__ import main as service_main

    return service_main(args.service_args)


_COMMANDS = {
    "summary": _command_summary,
    "list": _command_list,
    "campaign": _command_campaign,
    "experiment": _command_experiment,
    "reproduce": _command_reproduce,
    "takeaways": _command_takeaways,
    "service": _command_service,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["service"]:
        # The service owns its flags; argparse.REMAINDER cannot capture
        # a leading option token, so hand everything over before the
        # top-level parser sees (and rejects) it.
        from repro.service.__main__ import main as service_main

        return service_main(arguments[1:])
    args = _build_parser().parse_args(arguments)
    try:
        return _COMMANDS[args.command](args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
