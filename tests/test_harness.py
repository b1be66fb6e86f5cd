"""Sweep mechanics: pairing, isolation, emission. Preset registry shape.

Real preset scales belong to the acceptance suite; everything here runs
on tiny configurations.
"""

import os

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
