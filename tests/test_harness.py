"""Sweep mechanics: pairing, isolation, emission. Preset registry shape.

Real preset scales belong to the acceptance suite; everything here runs
on tiny configurations.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys

import numpy as np

import pytest

from fedfairprompt import federation
from fedfairprompt.cli import main
from fedfairprompt.config import Config, parse_config
from fedfairprompt.data import load_embeddings, save_embeddings
from fedfairprompt.harness import (
    PRESETS,
    SWEEP_AXES,
    grid_table,
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


def test_sweep_rejects_a_repeated_value_before_any_run(tmp_path):
    # 0.5 and 0.50 are one cell: both runs would write alpha=0.5/rep0
    with pytest.raises(ValueError, match=re.escape("repeated grid cell ['alpha=0.5']")):
        sweep(_tiny(tmp_path / "sw"), "alpha", [0.5, 0.50], replicates=1)
    assert not (tmp_path / "sw").exists()


def test_sweep_cells_are_paired_across_values(tmp_path):
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (0.5, 100.0), replicates=2)
    assert len(result) == 4
    by_rep = {}
    for cell in result:
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
    bad, good = result
    assert bad.label == "alpha=-1.0" and bad.failed and "alpha" in bad.error
    assert good.label == "alpha=0.5" and not good.failed
    rows = grid_table(result).splitlines()[2:]
    assert rows[0] == "| fedavg_baseline | alpha=-1.0 | " + " | ".join(["failed"] * 5) + " |"
    assert rows[1].startswith("| fedavg_baseline | alpha=0.5 | 0.")
    assert (tmp_path / "sw" / "sweep_alpha.md").read_text() == grid_table(result)


def test_runs_that_fail_part_way_are_left_out_of_the_means(tmp_path, monkeypatch):
    # Refinement raises in round 1, so each cell keeps its round-0
    # evaluation in an incomplete report.
    def broken_refine(*args, **kwargs):
        raise ValueError("refinement broke")

    monkeypatch.setattr(federation, "server_refine", broken_refine)
    cfg = _tiny(tmp_path / "sw", method="fvlfp", rounds=2)
    result = sweep(cfg, "method", ("fvlfp",), replicates=1)
    cell = result[0]
    assert cell.report is not None and cell.report.incomplete and cell.failed
    assert "| fvlfp | method=fvlfp | " + " | ".join(["failed"] * 5) + " |" in grid_table(result)


def test_single_value_sweep_matches_direct_run(tmp_path):
    result = sweep(_tiny(tmp_path / "sw"), "alpha", (0.5,), replicates=1)
    cell = result[0]
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


# (cell directory under out, master_seed in its config.txt) of every
# preset at smoke size with two replicates, as first written. Replicate
# r draws one sub-seed for all of a preset's methods and swept values;
# table1 and table2 draw the same ones. A regrouping of the grid that
# moved a cell or re-drew a seed breaks the pairing, and shows here.
_PRESET_CELLS = {
    "table1": [
        ("table1/fedavg_baseline/method=fedavg_baseline/rep0", 286917177),
        ("table1/fedavg_baseline/method=fedavg_baseline/rep1", 2706538929),
        ("table1/fvlfp/method=fvlfp/rep0", 286917177),
        ("table1/fvlfp/method=fvlfp/rep1", 2706538929),
    ],
    "table2": [
        ("table2/fvlfp/method=fvlfp/rep0", 286917177),
        ("table2/fvlfp/method=fvlfp/rep1", 2706538929),
        ("table2/wo-cdfp/method=wo-cdfp/rep0", 286917177),
        ("table2/wo-cdfp/method=wo-cdfp/rep1", 2706538929),
        ("table2/wo-dsop/method=wo-dsop/rep0", 286917177),
        ("table2/wo-dsop/method=wo-dsop/rep1", 2706538929),
        ("table2/wo-fpf/method=wo-fpf/rep0", 286917177),
        ("table2/wo-fpf/method=wo-fpf/rep1", 2706538929),
    ],
    "table3_4": [
        ("table3_4/fedavg_baseline/alpha=0.1/rep0", 3619698374),
        ("table3_4/fedavg_baseline/alpha=0.1/rep1", 3382909886),
        ("table3_4/fedavg_baseline/alpha=1.0/rep0", 3619698374),
        ("table3_4/fedavg_baseline/alpha=1.0/rep1", 3382909886),
        ("table3_4/fedavg_baseline/alpha=100.0/rep0", 3619698374),
        ("table3_4/fedavg_baseline/alpha=100.0/rep1", 3382909886),
        ("table3_4/fvlfp/alpha=0.1/rep0", 3619698374),
        ("table3_4/fvlfp/alpha=0.1/rep1", 3382909886),
        ("table3_4/fvlfp/alpha=1.0/rep0", 3619698374),
        ("table3_4/fvlfp/alpha=1.0/rep1", 3382909886),
        ("table3_4/fvlfp/alpha=100.0/rep0", 3619698374),
        ("table3_4/fvlfp/alpha=100.0/rep1", 3382909886),
    ],
    "table5": [
        ("table5/fvlfp/clients=20/rep0", 1349218077),
        ("table5/fvlfp/clients=20/rep1", 2823444498),
        ("table5/fvlfp/clients=5/rep0", 1349218077),
        ("table5/fvlfp/clients=5/rep1", 2823444498),
    ],
}


@pytest.mark.parametrize("name", sorted(_PRESET_CELLS))
def test_preset_cells_keep_their_directories_and_sub_seeds(tmp_path, name):
    smoke = Config(n_train=160, n_val=48, n_test=48, rounds=1, refine_steps=2,
                   out_dir=str(tmp_path))
    run_preset(name, smoke, replicates=2)
    cells = [
        (path.parent.relative_to(tmp_path).as_posix(), parse_config(str(path)).master_seed)
        for path in tmp_path.rglob("config.txt")
    ]
    assert sorted(cells) == _PRESET_CELLS[name]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# Relations between runs. Each holds exactly; one that fails is a
# finding about how the pipeline composes, never a tolerance to widen.


def _one_client(out_dir, **over):
    return _tiny(out_dir, clients=1, rounds=2, lr=2e-3, master_seed=3, **over)


def test_fpf_reduces_to_its_ablation_with_one_client_and_no_refinement(tmp_path):
    # One client's score-weighted fusion is that client's prompts, and
    # zero refinement steps leave them as they are: fvlfp is wo-fpf.
    hashes = set()
    for method in ("fvlfp", "wo-fpf"):
        out = tmp_path / method
        run_experiment(_one_client(out, method=method, refine_steps=0))
        hashes.add((_sha256(out / "rounds.csv"), _sha256(out / "prompts.npz")))
    assert len(hashes) == 1


def test_heterogeneity_is_unreachable_with_one_client(tmp_path):
    # The Dirichlet draw splits the rows among clients; one client gets
    # them all, whatever alpha.
    sweep(_one_client(tmp_path, method="fvlfp", refine_steps=2), "alpha", (0.1, 0.5, 100.0),
          replicates=1)
    hashes = {_sha256(tmp_path / f"alpha={a}" / "rep0" / "rounds.csv")
              for a in (0.1, 0.5, 100.0)}
    assert len(hashes) == 1


@pytest.fixture(scope="module")
def gen_data(tmp_path_factory):
    """gen-data's three embedding files at 240/80/80 rows."""
    root = tmp_path_factory.mktemp("gen")
    (root / "sizes.cfg").write_text("n_train=240\nn_val=80\nn_test=80\n")
    assert main(["gen-data", "--config", str(root / "sizes.cfg"), "--out", str(root / "emb")]) == 0
    return root / "emb"


def _shuffled(data_dir, split, out_dir):
    """A copy of ``data_dir`` with the rows of ``<split>.emb`` in a seeded order."""
    shutil.copytree(data_dir, out_dir)
    rows = load_embeddings(str(data_dir / f"{split}.emb"))
    order = np.random.default_rng(0).permutation(len(rows))
    save_embeddings(rows.subset(order), str(out_dir / f"{split}.emb"))
    return out_dir


def _ingested_run(out_dir, data_dir, method):
    run_experiment(Config(method=method, clients=3, rounds=2, master_seed=3, lr=2e-3,
                          refine_steps=5, data_dir=str(data_dir), out_dir=str(out_dir)))
    return _sha256(out_dir / "rounds.csv"), _sha256(out_dir / "prompts.npz")


def test_evaluation_ignores_the_order_of_test_rows(tmp_path, gen_data):
    # The test eval predicts each row on its own and counts the
    # predictions per (label, group) cell, so row order cannot reach
    # the metrics, and nothing else reads the test split.
    shuffled = _shuffled(gen_data, "test", tmp_path / "emb")
    assert (_ingested_run(tmp_path / "given", gen_data, "fvlfp")
            == _ingested_run(tmp_path / "shuffled", shuffled, "fvlfp"))


def test_only_refinement_reads_val_rows_by_position(tmp_path, gen_data):
    # Without FPF the val split feeds only the clients' evals, which
    # count predictions per cell. Known result, not a test: under fvlfp
    # shuffling val.emb changes both files, because refinement draws its
    # batches by row position.
    shuffled = _shuffled(gen_data, "val", tmp_path / "emb")
    assert (_ingested_run(tmp_path / "given", gen_data, "wo-fpf")
            == _ingested_run(tmp_path / "shuffled", shuffled, "wo-fpf"))
