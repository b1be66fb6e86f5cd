"""Run-to-run spread of the end-to-end metrics, over seeds 1 to 10.

    python3 perfbench/spread.py --out set1.json
    python3 perfbench/spread.py --against set1.json

Runs ``run.py`` once per (seed, workload), one process at a time,
reversing the workload order on every other seed so that no workload
always runs first. For each workload and metric it prints the median
and the distance between the first and third quartile as a share of
the median, next to the metric's bound in ``BENCHMARK.json``. With
``--against`` it also prints how much worse each median is than the
saved set's, which is how two commits, or two sets of runs of one
commit, are compared. Both sets use the same seeds, so it also
compares each seed's ``rounds.csv`` sha256: a change in the numerics
shows there, however small, and fails the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """End-to-end metrics of one untraced invocation, and its rounds.csv sha256."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run failed")
    detail = json.loads(lines[-2])["detail"]
    return {name: m["value"] for name, m in result["metrics"].items()}, detail["hashes"]["rounds.csv"]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else float("inf")


def worse_by(now: float, before: float, better: str) -> float:
    """How much worse ``now`` is than ``before``, as a share of ``before``."""
    change = (now - before) / before
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path, help="save every value here as JSON")
    parser.add_argument("--against", type=Path, help="a set saved with --out to compare with")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    hashes: dict[str, list[str]] = {w: [] for w in workloads}
    for i, seed in enumerate(SEEDS):
        for workload in workloads if i % 2 == 0 else workloads[::-1]:
            metrics, digest = run_once(bench["command"], workload, seed, bench["run_seconds"])
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
            hashes[workload].append(digest)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={v:.4g}" for n, v in metrics.items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps({"metrics": values, "rounds_csv": hashes}, indent=1))
    before = json.loads(args.against.read_text()) if args.against else None

    ok = True
    print(f"\n{'workload':14} {'metric':12} {'median':>10} {'spread':>7} {'bound':>6}"
          + (f" {'worse':>7}" if before else ""))
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            mid, share = spread(values[workload][name])
            line = f"{workload:14} {name:12} {mid:10.4f} {share:7.3f} {bound:6.2f}"
            notes = []
            if share > bound:
                notes.append("spread over bound")
                ok = False
            elif share > bound / 3:
                notes.append("spread over a third of bound")
            if before:
                then = statistics.median(before["metrics"][workload][name])
                worse = worse_by(mid, then, metric["better"])
                line += f" {worse:7.3f}"
                if worse > bound:
                    notes.append("worse than bound")
                    ok = False
            print(line + "".join(f"  {n}" for n in notes))
    if before:
        for workload in workloads:
            changed = [seed for seed, now, then in
                       zip(SEEDS, hashes[workload], before["rounds_csv"][workload]) if now != then]
            if changed:
                print(f"{workload}: rounds.csv differs from the saved set on seeds {changed}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
