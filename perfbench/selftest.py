"""Checks that the benchmark's correctness gate accepts and rejects what it should.

    python3 perfbench/selftest.py

Runs at smoke size, in about half a minute: a healthy run passes the
gate; a run that fails in its second round, a report whose backbone
hash was altered, and an invocation whose repeats wrote different
bytes are rejected; and ``run.py --trace 1`` passes end to end on the
workload where the fvlfp-only spans must be absent.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Patches  # noqa: E402
from worker import build_config, check_report, import_package  # noqa: E402


def smoke_config(pkg, out_dir: str, rounds: int = 1):
    spec = {"workload": "fvlfp-synth", "seed": 3, "smoke": True, "out_dir": out_dir}
    return replace(build_config(pkg, spec), rounds=rounds)


def main() -> int:
    pkg = import_package(str(run.SRC))
    from fedfairprompt import federation, harness

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.WORK)
    try:
        config = smoke_config(pkg, os.path.join(work, "good"))
        report = harness.run_experiment(config)
        expect(check_report(pkg, config, report) == [], "a healthy run passes the gate")

        tampered = replace(report, backbone_hash="0" * 64)
        expect(any("backbone" in p for p in check_report(pkg, config, tampered)),
               "an altered backbone hash is rejected")

        config = smoke_config(pkg, os.path.join(work, "broken"), rounds=2)
        patches = Patches()
        client_update = federation.client_update

        calls = []

        def failing_client_update(state, *args, **kwargs):
            calls.append(state.client_id)
            if len(calls) > config.clients:
                raise federation.FederationError("injected failure in round 2")
            return client_update(state, *args, **kwargs)

        patches.set(federation, "client_update", failing_client_update)
        try:
            broken = harness.run_experiment(config)
        finally:
            patches.restore()
        problems = check_report(pkg, config, broken)
        expect(broken.incomplete and any("incomplete" in p for p in problems)
               and any("1 of 2 rounds" in p for p in problems),
               "a run that stops after one of two rounds is rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    args = argparse.Namespace(trace=0, workload="fvlfp-synth")
    same = {"problems": [], "hashes": {"rounds.csv": "a"}}
    other = {"problems": [], "hashes": {"rounds.csv": "b"}}
    problems, _ = run.verdict(args, {"plain": [same, other]})
    expect(any("differ" in p for p in problems), "repeats with different bytes are rejected")
    failed = {"problems": ["incomplete run: injected"], "hashes": {}}
    problems, good = run.verdict(args, {"plain": [same, failed]})
    expect(bool(problems) and good["plain"] == [same], "a failed repeat is counted, not dropped")

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fedavg-synth", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    zero = ("crosslayer.apply_cross_layer_calls", "debias.fairness_loss_s",
            "federation.server_refine_s")
    expect(proc.returncode == 0 and result["correct"]
           and all(result["metrics"][n]["value"] == 0 for n in zero),
           "a traced fedavg-synth run passes with crosslayer, fairness loss and refine at zero")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
