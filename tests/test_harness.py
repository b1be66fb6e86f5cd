"""Sweep mechanics: pairing, isolation, emission. Preset registry shape.

Real preset scales belong to the acceptance suite; everything here runs
on tiny configurations.
"""

import os
import subprocess
import sys

import pytest

from fedfairprompt import federation
from fedfairprompt.config import Config
from fedfairprompt.harness import (
    PRESETS,
    SWEEP_AXES,
    PresetResult,
    run_experiment,
    run_preset,
    sweep,
)


def _tiny(out_dir, **over):
    base = dict(
        method="fedavg_baseline", rounds=1, clients=2, n_train=160,
        n_test=48, n_val=48, out_dir=str(out_dir),
    )
    base.update(over)
    return Config(**base)


# Runs with scipy made unimportable: a smoke-size fvlfp run on synthetic
# pixels, then one on gen-data files. Prints the scipy modules loaded and
# the modules each run_experiment loaded that the imports had not.
_NO_SCIPY_RUNS = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises
from fedfairprompt import Config, run_experiment
from fedfairprompt.cli import main

cfg, data_dir, out = sys.argv[1:]
tiny = dict(method="fvlfp", rounds=1, clients=2, n_train=160, n_val=48, n_test=48,
            refine_steps=2)
gained = []
for data in ("", data_dir):
    if data:
        assert main(["gen-data", "--config", cfg, "--out", data]) == 0
    before = set(sys.modules)
    report = run_experiment(Config(out_dir=out, data_dir=data, **tiny))
    assert not report.incomplete, report.failure
    gained += sorted(set(sys.modules) - before)
print([m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None], gained)
"""


def test_runs_never_import_scipy_or_load_a_module(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n_train=160\nn_val=48\nn_test=48\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUNS, str(cfg), str(tmp_path / "emb"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] []"


def test_run_experiment_writes_outputs(tmp_path):
    report = run_experiment(_tiny(tmp_path / "run"))
    assert not report.incomplete
    for name in ("rounds.csv", "summary.md", "config.txt", "report.json"):
        assert (tmp_path / "run" / name).exists(), name


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ValueError, match="axis"):
        sweep(_tiny(tmp_path), "learning_rate", (0.1,))


def test_sweep_rejects_empty_values(tmp_path):
    with pytest.raises(ValueError, match="at least one"):
        sweep(_tiny(tmp_path), "alpha", ())


def test_sweep_cells_are_paired_across_values(tmp_path):
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (0.5, 100.0), replicates=2)
    assert len(result.cells) == 4
    by_rep = {}
    for cell in result.cells:
        assert not cell.failed
        by_rep.setdefault(cell.replicate, set()).add(
            cell.report.config.master_seed
        )
    # same replicate -> same derived master seed at every swept value
    for rep_index, seeds in by_rep.items():
        assert len(seeds) == 1, rep_index
    # different replicates -> different seeds
    assert by_rep[0] != by_rep[1]


def test_sweep_cell_outputs_live_in_disjoint_directories(tmp_path):
    sweep(_tiny(tmp_path / "sw"), "clients", (2, 4), replicates=1)
    assert (tmp_path / "sw" / "clients=2" / "rep0" / "rounds.csv").exists()
    assert (tmp_path / "sw" / "clients=4" / "rep0" / "rounds.csv").exists()
    assert (tmp_path / "sw" / "sweep_clients.md").exists()


def test_failed_cell_does_not_abort_siblings(tmp_path):
    # alpha=-1 fails config validation inside its own cell
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (-1.0, 0.5), replicates=1)
    assert result.failed
    bad = [c for c in result.cells if c.value == -1.0][0]
    good = [c for c in result.cells if c.value == 0.5][0]
    assert bad.failed and "alpha" in bad.error
    assert not good.failed
    table = result.table()
    assert "failed" in table
    assert "alpha=0.5" in table


def test_mean_summary_errors_when_value_has_no_completed_cells(tmp_path):
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (-1.0,), replicates=1)
    with pytest.raises(ValueError, match="no completed cells"):
        result.mean_summary(-1.0)


def test_runs_that_fail_part_way_are_left_out_of_the_means(tmp_path, monkeypatch):
    # Refinement raises in round 1, so each cell keeps its round-0
    # evaluation in an incomplete report.
    def broken_refine(*args, **kwargs):
        raise ValueError("refinement broke")

    monkeypatch.setattr(federation, "server_refine", broken_refine)
    cfg = _tiny(tmp_path / "sw", method="fvlfp", rounds=2)
    result = sweep(cfg, "method", ("fvlfp",), replicates=1)
    cell = result.cells[0]
    assert cell.report is not None and cell.report.incomplete and cell.failed
    with pytest.raises(ValueError, match="no completed cells"):
        result.mean_summary("fvlfp")
    assert "| a_b | failed |" in result.table()
    preset_table = PresetResult(name="table1", sweeps={"fvlfp": result}).table()
    assert "| fvlfp | method=fvlfp | " + " | ".join(["failed"] * 5) + " |" in preset_table


def test_single_value_sweep_matches_direct_run(tmp_path):
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (0.5,), replicates=1)
    cell = result.cells[0]
    rerun = run_experiment(cell.report.config)
    assert rerun.summary() == cell.report.summary()


def test_preset_registry_shape():
    assert set(PRESETS) == {"table1", "table2", "table3_4", "table5"}
    assert PRESETS["table1"]["methods"] == ("fedavg_baseline", "fvlfp")
    assert set(PRESETS["table2"]["methods"]) == {
        "fvlfp", "wo-cdfp", "wo-dsop", "wo-fpf"
    }
    assert PRESETS["table3_4"]["axis"] == "alpha"
    assert PRESETS["table3_4"]["values"] == (100.0, 1.0, 0.1)
    assert PRESETS["table5"]["axis"] == "clients"
    assert set(PRESETS["table5"]["values"]) == {5, 20}


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown preset"):
        run_preset("table9", Config(out_dir=str(tmp_path)))


def test_axes_cover_spec_set():
    for axis in ("alpha", "clients", "method"):
        assert axis in SWEEP_AXES
