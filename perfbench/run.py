"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--record FILE]

Run from anywhere inside a checkout; the program is imported from its
``src/`` tree.  Repetitions run in fresh processes (``repetition.py``)
for as long as another one would end nearer to ``--seconds`` than
stopping does (at least one), so a run does the same number of them
whether the machine is a little faster or slower that minute; then
set-up-only processes top the set-up samples up to
:data:`SETUP_SAMPLES`.  Throughputs and set-up times are medians over
repetitions, latency percentiles are taken over the pooled samples and
peak RSS is the highest seen.  Every timing is scaled to the reference
machine speed by its repetition's ``slowness``, which ``sampler.py``
measures alongside the whole run; the table also prints the gated
timings as measured.

With ``--trace 1`` repetitions alternate untraced and traced (at least
one of each); the per-layer metrics come from the traced ones, and the
``overhead.*`` metrics are traced minus untraced end-to-end medians.

The workloads and the gated metrics are those ``BENCHMARK.json`` at the
root of the checkout declares.  A table of every metric -- name, value,
unit, sample count -- goes to standard output, then one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check failed or a repetition crashed or overran,
2 when the program cannot be run at all.
``--record FILE`` also writes the full result, stamped with the git
SHA, CPU count and Python and NumPy versions.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import sampler  # noqa: E402
from summary import median, timing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, spans and repetition results (gitignored).
WORK = Path(".perfbench-work")
#: Set-up samples per run, taken by set-up-only processes when the
#: full repetitions did not provide enough.
SETUP_SAMPLES = 5
#: Seconds after start by which every repetition has ended (a run must
#: end within 180 s); a repetition still running then is killed.
RUN_DEADLINE_S = 170.0

#: (name, unit, workload) -- metrics defined on one workload only, so
#: printed and recorded but not gated (a gated metric comes from every
#: workload).
WORKLOAD_ONLY: List[Tuple[str, str, str]] = [
    ("analysis_s", "s", "reproduce"),
    ("first_commit_ms", "ms", "service"),
    ("query_rps", "1/s", "service"),
    ("query_hit_p50_ms", "ms", "service"),
    ("query_hit_p99_ms", "ms", "service"),
    ("query_scan_p50_ms", "ms", "service"),
    ("query_scan_p90_ms", "ms", "service"),
]

#: Timing series -> (metric, wanted percentile).
LATENCIES = {
    "query_hit_p50_ms": ("query_hit_ms", 50.0),
    "query_hit_p99_ms": ("query_hit_ms", 99.0),
    "query_scan_p50_ms": ("query_scan_ms", 50.0),
    "query_scan_p90_ms": ("query_scan_ms", 90.0),
}


def repetition(
    workload: str, seed: int, traced: bool, setup_only: bool
) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one repetition process; (result or None, error text)."""
    timeout = START + RUN_DEADLINE_S - time.perf_counter()
    if timeout <= 0:
        return None, "no time left for another repetition"
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "result.json"
    began = time.monotonic()
    command = [
        sys.executable,
        str(Path("perfbench") / "repetition.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str((WORK / "tmp").resolve())
    # The string-hash seed is an input too: one seed, one set iteration
    # order (see defect (c) in NOTES.md).
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # Its own session, so a repetition that overruns is killed together
    # with the exec workers it forked.
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"repetition still running {RUN_DEADLINE_S:.0f} s after the run started"
    finally:
        if proc.poll() is None:  # this run was interrupted: the repetition goes too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        return None, stderr[-2000:]
    result = json.loads(out.read_text(encoding="utf-8"))
    result["window"] = [began, time.monotonic()]
    if traced:
        # Keep the latest traced repetition's spans past the clean-up.
        (workdir / "spans.ndjson").replace(WORK / f"{workload}-spans.ndjson")
    shutil.rmtree(workdir, ignore_errors=True)
    return result, ""


#: Per-repetition rates; every other timing of a repetition is a duration.
RATES = ("measurements_per_s", "query_rps")


def aggregate(reps: List[Dict[str, Any]], setups: List[Dict[str, Any]], scaled: bool = True) -> Dict[str, Dict[str, Any]]:
    """End-to-end (and workload-only) metrics over untraced repetitions.

    ``setups`` are the repetitions that give set-up samples.  With
    ``scaled`` every timing is taken to the reference machine speed: a
    rate is multiplied by its repetition's ``slowness`` and a duration
    divided by it.
    """

    def slowness(rep: Dict[str, Any]) -> float:
        return rep["slowness"] if scaled else 1.0

    out: Dict[str, Dict[str, Any]] = {
        "setup_s": {"value": median([rep["setup_s"] / slowness(rep) for rep in setups]), "samples": len(setups)},
    }
    for name in ("measurements_per_s", "first_commit_ms", "analysis_s", "query_rps"):
        values = [
            rep["metrics"][name] * (slowness(rep) if name in RATES else 1.0 / slowness(rep))
            for rep in reps
            if name in rep["metrics"]
        ]
        if values:
            out[name] = {"value": median(values), "samples": len(values)}
    rss = [rep["metrics"]["peak_rss_mb"] for rep in reps if "peak_rss_mb" in rep["metrics"]]
    if rss:
        out["peak_rss_mb"] = {"value": max(rss), "samples": len(rss)}
    for name, (series, want) in LATENCIES.items():
        pooled = [x / slowness(rep) for rep in reps for x in rep["samples"].get(series, [])]
        if pooled:
            out[name] = timing(pooled, want)
    return out


def _differing(first: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    return sorted(key for key in set(first) | set(other) if first.get(key) != other.get(key))


def tally(reps: List[Dict[str, Any]], errors: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over a run's repetitions.

    Adds to each repetition's own checks one comparison of its
    fingerprint with the first repetition's, and counts a repetition
    that crashed or overran as one failed operation.
    """
    attempted = sum(rep["attempted"] for rep in reps) + len(errors)
    failed = sum(rep["failed"] for rep in reps) + len(errors)
    problems = [p for rep in reps for p in rep["problems"]] + errors
    for rep in reps[1:]:
        attempted += 1
        differing = _differing(reps[0]["fingerprint"], rep["fingerprint"])
        if differing:
            failed += 1
            problems.append(f"outputs differ between repetitions of one seed: {', '.join(differing)}")
    return attempted, failed, problems


def stamp() -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0))}


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in benchmark["per_layer"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    record_path = args.record.resolve() if args.record is not None else None

    os.chdir(ROOT)
    if not (Path("src") / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    errors: List[str] = []
    durations: List[float] = []
    WORK.mkdir(parents=True, exist_ok=True)
    speed = sampler.start(WORK / "sampler.txt")
    try:
        while True:
            trace_this = bool(args.trace) and len(untraced) > len(traced)
            began = time.perf_counter()
            result, error = repetition(args.workload, args.seed, trace_this, setup_only=False)
            durations.append(time.perf_counter() - began)
            if result is None:
                errors.append(error)
            elif trace_this:
                traced.append(result)
            else:
                untraced.append(result)
                setups.append(result)
            elapsed = time.perf_counter() - START
            missing_side = bool(args.trace) and not (untraced and traced)
            if errors or (elapsed + median(durations) / 2 > args.seconds and not missing_side):
                break
        while untraced and not errors and len(setups) < SETUP_SAMPLES:
            result, error = repetition(args.workload, args.seed, False, setup_only=True)
            if result is None:
                errors.append(error)
                break
            setups.append(result)
    finally:
        speed.terminate()
        speed.wait()
    if not untraced or (args.trace and not traced):
        print("perfbench: a repetition did not complete:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    rounds = sampler.read(WORK / "sampler.txt")
    if not rounds:
        print("perfbench: the speed sampler recorded nothing", file=sys.stderr)
        return 1
    for result in untraced + traced + setups:
        result["slowness"] = sampler.slowness(rounds, *result["window"])

    attempted, failed, problems = tally(untraced + traced, errors)

    e2e = aggregate(untraced, setups)
    measured = aggregate(untraced, setups, scaled=False)
    rows: List[Tuple[str, Any, str, Any]] = [
        (name, e2e[name]["value"], unit, e2e[name]["samples"]) for name, unit in end_to_end
    ]
    for name, unit, workload in WORKLOAD_ONLY:
        if workload == args.workload:
            entry = e2e[name]
            label = name
            if "percentile" in entry and not entry["supported"]:
                label = f"{name} (only p{entry['percentile']:g} supported)"
            rows.append((label, entry["value"], unit, entry["samples"]))
    rows.append(("failed_frac", failed / attempted if attempted else 0.0, "ratio", attempted))
    rows.append(("slowness", median([rep["slowness"] for rep in untraced]), "ratio", len(rounds)))
    rows += [(f"{name} (as measured)", measured[name]["value"], unit, measured[name]["samples"])
             for name, unit in end_to_end if name in ("setup_s", "measurements_per_s")]

    metrics: Dict[str, Dict[str, Any]]
    if args.trace:
        # A layer that does not run in this workload reports 0.
        layers = {
            name: median([rep["layers"].get(name, 0.0) for rep in traced]) for name, _ in per_layer
        }
        traced_e2e = aggregate(traced, traced)
        for name, _ in end_to_end:
            layers[f"overhead.{name}"] = traced_e2e[name]["value"] - e2e[name]["value"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer}
        rows += [(name, layers[name], unit, len(traced)) for name, unit in per_layer]
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in end_to_end}

    info = {**stamp(), **untraced[0]["versions"], "workload": args.workload, "seed": args.seed,
            "repetitions": len(untraced), "traced_repetitions": len(traced)}
    if traced:
        info["spans"] = str(WORK / f"{args.workload}-spans.ndjson")
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{'metric':<44} {'value':>16} {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"{name:<44} {value:>16.6g} {unit:<6} {samples}")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0
    if record_path is not None:
        record = {**info, "correct": correct, "attempted": attempted, "failed": failed,
                  "problems": problems, "end_to_end": e2e, "end_to_end_as_measured": measured,
                  "metrics": metrics}
        record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
