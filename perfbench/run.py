"""Benchmark entry point: a closed loop of federation runs for one workload.

    python3 perfbench/run.py --workload fvlfp-synth --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``fedfairprompt`` from
that checkout's ``src`` and nowhere else. Each run is one call of
``harness.run_experiment`` in a fresh worker process with one BLAS
thread; the next starts when the previous has ended, for as long as
another run still fits in ``--seconds``. Every run's outputs are
checked, and all runs of one invocation must write byte-identical
``rounds.csv``, ``summary.md`` and ``config.txt``.

With ``--trace 0`` the last line of standard output is the end-to-end
result. With ``--trace 1`` untraced and traced runs alternate and the
last line carries the per-layer numbers of the traced runs, the trace
overhead and span coverage. The line before it is a detail record:
sample counts, the ``rounds.csv`` sha256, versions and load averages.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, expected_spans  # noqa: E402

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 170.0  # the whole invocation, whatever --seconds says


def call_worker(spec: dict, timeout: float) -> tuple[dict, float]:
    """Run one worker process to completion; (result, wall seconds)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **PINNED_THREADS)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["worker timed out"]}, time.perf_counter() - started
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    return result, wall


def end_to_end(runs: list[dict]) -> dict:
    """Medians over the good untraced runs of one invocation."""
    median = statistics.median
    values = {
        "run_s": (median([r["run_s"] for r in runs]), "s"),
        "round_s": (median([s for r in runs for s in r["round_s"]]), "s"),
        "setup_s": (median([r["setup_s"] for r in runs]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB"),
        # identical in every run of one seed; the hash check makes sure
        "a_b_mean": (runs[0]["a_b_mean"], "fraction"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced runs, plus the tracing overhead."""
    median = statistics.median
    metrics = {
        name: {"value": median([r["layers"][name][0] for r in traced]), "unit": unit}
        for name, (_, unit) in traced[0]["layers"].items()
    }
    plain_s = median([r["run_s"] for r in plain])
    traced_s = median([r["run_s"] for r in traced])
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": (traced_s - plain_s) / plain_s, "unit": "fraction"}
    return metrics


def measure(args, work: Path) -> dict[str, list[dict]]:
    """Worker results by kind, "plain" and, with --trace 1, "traced"."""
    spec = WORKLOADS[args.workload]
    base = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "src": str(SRC), "out_dir": str(work / "out"), "data_dir": str(work / "data"),
    }
    started = time.perf_counter()
    budget_end = started + args.seconds
    hard_end = started + HARD_LIMIT_S
    if spec["ingest"]:
        fixture, _ = call_worker(dict(base, mode="fixture"), hard_end - time.perf_counter())
        if fixture["problems"]:
            raise SystemExit(f"fixture failed: {fixture['problems']}")

    kinds = ["plain", "traced"] if args.trace else ["plain"]
    runs: dict[str, list[dict]] = {k: [] for k in kinds}
    last_wall: dict[str, float] = {}
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        # two runs at least, so byte identity is always checked
        if i >= 2 and last_wall[kind] > budget_end - time.perf_counter():
            break
        result, last_wall[kind] = call_worker(
            dict(base, mode="run", traced=kind == "traced"),
            hard_end - time.perf_counter(),
        )
        runs[kind].append(result)
        if time.perf_counter() >= hard_end:
            break
    return runs


def verdict(args, runs: dict[str, list[dict]]) -> tuple[list[str], dict[str, list[dict]]]:
    """Problems found across the invocation, and the good runs by kind."""
    problems = []
    good = {k: [r for r in rs if not r["problems"]] for k, rs in runs.items()}
    for kind, rs in runs.items():
        for i, r in enumerate(rs):
            problems += [f"{kind} run {i}: {p}" for p in r["problems"]]
    hashes = {json.dumps(r["hashes"], sort_keys=True) for rs in good.values() for r in rs}
    if len(hashes) > 1:
        problems.append(f"outputs differ between runs of one seed: {sorted(hashes)}")
    if args.trace:
        required, forbidden = expected_spans(args.workload)
        for r in good.get("traced", []):
            seen = set(r["spans"])
            if required - seen:
                problems.append(f"traced run recorded no spans for {sorted(required - seen)}")
            if forbidden & seen:
                problems.append(f"traced run recorded unexpected spans {sorted(forbidden & seen)}")
    for kind, rs in good.items():
        if not rs:
            problems.append(f"no good {kind} run")
    return problems, good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data and one round, to try the benchmark quickly")
    args = parser.parse_args(argv)
    if not (SRC / "fedfairprompt" / "__init__.py").is_file():
        print(f"error: no fedfairprompt sources under {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runs = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation is still using it
            pass
    problems, good = verdict(args, runs)

    everything = [r for rs in runs.values() for r in rs]
    failed = sum(bool(r["problems"]) for r in everything)
    some = (good["plain"] or [{}])[0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": {k: len(rs) for k, rs in runs.items()},
        "samples": {
            "setup_s": [r["setup_s"] for r in good["plain"]],
            "run_s": [r["run_s"] for r in good["plain"]],
            "round_s": [s for r in good["plain"] for s in r["round_s"]],
        },
        "error_rate": failed / len(everything),
        "hashes": some.get("hashes"),
        "summary": some.get("summary"),
        "environment": dict(some.get("environment", {}), nproc=os.cpu_count()),
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "measured_s": time.perf_counter() - started,
        "problems": problems,
    }
    print(json.dumps({"detail": detail}))
    metrics = {}
    if good["plain"]:
        metrics = end_to_end(good["plain"])
        if args.trace and good.get("traced"):
            metrics = per_layer(good["plain"], good["traced"])
    print(json.dumps({
        "correct": not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
