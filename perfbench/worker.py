"""One benchmark run in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py '<json spec>'

The spec names the mode (``fixture`` or ``run``), the workload, the
seed, the checkout's ``src`` directory and the directories to use. The
thread-count variables must already be set in the environment, because
numpy reads them when it is first imported. The last line of standard
output is one JSON object with the result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace

from workloads import SMOKE, TUNING, WORKLOADS

# files whose bytes must repeat exactly; report.json embeds wall-clock
# timestamps and is left out
DETERMINISTIC_FILES = ("rounds.csv", "summary.md", "config.txt")
SUMMARY_METRICS = ("a_b", "phi_a", "phi_demo", "phi_eq", "f_global")


def import_package(src: str):
    """Import fedfairprompt from ``src`` and nowhere else."""
    sys.path.insert(0, src)
    import fedfairprompt

    where = os.path.realpath(fedfairprompt.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"fedfairprompt imported from {where}, not from {src}")
    return fedfairprompt


def build_config(pkg, spec: dict):
    workload = WORKLOADS[spec["workload"]]
    values = dict(TUNING, method=workload["method"], rounds=workload["rounds"])
    if spec["smoke"]:
        values.update(SMOKE)
    return pkg.Config(master_seed=spec["seed"], out_dir=spec["out_dir"], **values)


def fresh_encoder(pkg, config):
    return pkg.VisionEncoder(
        pkg.EncoderConfig(
            seed=config.encoder_seed,
            mlp_ratio=config.mlp_ratio,
            prompt_tokens=config.prompt_tokens,
        )
    )


def write_fixture(pkg, config, data_dir: str) -> None:
    """The three embedding files ``fedfairprompt gen-data`` writes.

    One frozen-encoder feature row per image, the mean patch embedding,
    through the same public calls the CLI makes.
    """
    encoder = fresh_encoder(pkg, config)
    os.makedirs(data_dir, exist_ok=True)
    for name, split in zip(("train", "val", "test"), pkg.load_splits(config)):
        rows = encoder.embed_patches(split.features)
        pkg.save_embeddings(
            pkg.Dataset(
                features=rows.mean(axis=1, keepdims=True),
                labels=split.labels,
                groups=split.groups,
                kind="features",
            ),
            os.path.join(data_dir, f"{name}.emb"),
        )


class RoundClock:
    """Timestamps at the round boundaries of one run.

    A round starts when its first ``client_update`` starts; the last
    round ends when ``run_federation`` returns. Wraps the bindings the
    callers use: ``federation.client_update`` and ``harness.run_federation``.
    """

    def __init__(self, patches):
        from fedfairprompt import federation, harness

        self.starts: list[float] = []
        self.end: float | None = None
        client_update, run_federation = federation.client_update, harness.run_federation

        def timed_client_update(state, *args, **kwargs):
            if state.client_id == 0:
                self.starts.append(time.perf_counter())
            return client_update(state, *args, **kwargs)

        def timed_run_federation(config):
            try:
                return run_federation(config)
            finally:
                self.end = time.perf_counter()

        patches.set(federation, "client_update", timed_client_update)
        patches.set(harness, "run_federation", timed_run_federation)

    def rounds(self) -> list[float]:
        bounds = self.starts + [self.end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


def check_report(pkg, config, report) -> list[str]:
    """Why a finished run is not a correct one; empty when it is."""
    problems = []
    summary = report.summary()
    if report.incomplete:
        problems.append(f"incomplete run: {report.failure}")
    if summary["rounds_completed"] != config.rounds:
        problems.append(
            f"{summary['rounds_completed']} of {config.rounds} rounds completed"
        )
    for name in SUMMARY_METRICS:
        value = summary[name]
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"summary {name}={value!r} is not a finite value in [0, 1]")
    if report.backbone_hash != fresh_encoder(pkg, config).backbone_hash():
        problems.append("backbone hash differs from a fresh encoder's")
    for name in DETERMINISTIC_FILES:
        if not os.path.isfile(os.path.join(config.out_dir, name)):
            problems.append(f"{name} was not written")
    return problems


def mean_balanced_accuracy(report) -> float:
    """Mean A_B over every evaluation of trained prompts in the run: each
    client's validation score and the global test score, every round."""
    scores = [
        record.a_b
        for rec in report.rounds[1:]
        for record in (*rec.client_records, rec.global_record)
    ]
    return sum(scores) / len(scores)


def file_hashes(out_dir: str) -> dict[str, str]:
    hashes = {}
    for name in DETERMINISTIC_FILES:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(pkg, spec: dict) -> dict:
    from fedfairprompt import harness
    from spans import Patches, Tracer

    config = build_config(pkg, spec)
    # every run of an invocation writes to the same path, so that
    # config.txt repeats; clear it so each run's files are its own
    shutil.rmtree(config.out_dir, ignore_errors=True)
    if WORKLOADS[spec["workload"]]["ingest"]:
        config = replace(config, data_dir=spec["data_dir"])
    tracer = Tracer() if spec["traced"] else None
    patches = Patches()
    if tracer is not None:
        tracer.install(pkg)
    clock = RoundClock(patches)
    try:
        t0 = time.perf_counter()
        report = harness.run_experiment(config)
        t1 = time.perf_counter()
    finally:
        patches.restore()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check_report(pkg, config, report)
    if len(clock.starts) != config.rounds:
        problems.append(f"saw {len(clock.starts)} round starts for {config.rounds} rounds")
    rounds = clock.rounds()
    summary = report.summary()
    result = {
        "problems": problems,
        "run_s": t1 - t0,
        "setup_s": clock.starts[0] - t0 if clock.starts else None,
        "round_s": rounds,
        "peak_rss_mb": peak_rss_mb,
        "summary": {k: summary[k] for k in SUMMARY_METRICS},
        "a_b_mean": mean_balanced_accuracy(report),
        "hashes": file_hashes(config.out_dir),
        "environment": environment(),
    }
    if tracer is not None:
        result["spans"] = sorted(tracer.span_names())
        result["layers"] = tracer.layer_metrics(
            rounds=len(rounds),
            round_time_s=sum(rounds),
            failed_rounds=config.rounds - summary["rounds_completed"],
        )
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        pkg = import_package(spec["src"])
        if spec["mode"] == "fixture":
            write_fixture(pkg, build_config(pkg, spec), spec["data_dir"])
            result = {"problems": []}
        else:
            result = run(pkg, spec)
    except Exception:  # the parent counts the run as failed and goes on
        result = {"problems": ["raised:\n" + traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
