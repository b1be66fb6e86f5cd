"""The benchmark's span contract, held by the tier-1 suite.

A traced ``perfbench/run.py`` run must record the spans that
``perfbench/workloads.py`` requires of its workload and none that it
forbids. ``tensor.gelu`` and ``tensor.softmax`` are among the required
ones, so this contract decides which kernels may be fused away. Each
workload runs here at smoke size under the benchmark's own ``Tracer``;
the ingest fixture is written as the benchmark writes it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fedfairprompt
from fedfairprompt import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench():
    # Read-only, as perfbench/selftest.py imports its siblings: no
    # bytecode is written next to them.
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import spans
        import worker
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return spans, worker, workloads


spans, worker, workloads = _import_perfbench()


@pytest.mark.parametrize("name", ["fvlfp-synth", "fvlfp-ingest", "fedavg-synth"])
def test_traced_smoke_run_records_the_spans_the_benchmark_requires(name, tmp_path):
    spec = {"workload": name, "seed": 1, "smoke": True, "out_dir": str(tmp_path / "out")}
    config = worker.build_config(fedfairprompt, spec)
    if workloads.WORKLOADS[name]["ingest"]:
        worker.write_fixture(fedfairprompt, config, str(tmp_path / "data"))
        config = replace(config, data_dir=str(tmp_path / "data"))
    tracer = spans.Tracer()
    tracer.install(fedfairprompt)
    try:
        report = harness.run_experiment(config)
    finally:
        tracer.uninstall()
    assert not report.incomplete, report.failure
    required, forbidden = workloads.expected_spans(name)
    recorded = tracer.span_names()
    assert sorted(required - recorded) == []
    assert sorted(forbidden & recorded) == []
