"""One repetition of one workload, in a fresh process.

    python3 perfbench/repetition.py --workload NAME --seed N --workdir DIR \
        --out FILE [--trace] [--setup-only]

Set-up is timed from the start of this process, imports included, to
the start of the timed phase.  ``--setup-only`` stops there (the extra
set-up samples ``run.py`` takes); ``--trace`` wraps the layer boundaries
for the whole repetition and adds per-layer metrics.  The result is
written to ``--out`` as JSON; ``run.py`` aggregates repetitions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    from tracer import Tracer
    from workloads import WORKLOAD_CLASSES, Repetition, layer_metrics

    tracer = Tracer(args.workdir / "spans") if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.workdir)
    rep = Repetition()
    workload.setup()
    rep.setup_s = time.perf_counter() - START
    try:
        if not args.setup_only:
            workload.run(rep, tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
    result = dataclasses.asdict(rep)
    if tracer is not None:
        tracer.collect_spills()
        result["layers"] = layer_metrics(tracer, rep)
        tracer.dump(args.workdir / "spans.ndjson")
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
