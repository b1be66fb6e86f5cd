"""CLI subcommands exercised in-process through main()."""

import os

import numpy as np
import pytest

from fedfairprompt.cli import main
from fedfairprompt.config import parse_config
from fedfairprompt.data import Dataset, load_embeddings, save_embeddings
from fedfairprompt.encoder import VisionEncoder
from fedfairprompt.federation import encoder_config, load_splits
from fedfairprompt.harness import run_experiment

_TINY = [
    "--rounds", "1", "--clients", "2",
]
_TINY_DATA = [
    # small synthetic splits keep each invocation around a second
]


def _tiny_flags(out):
    return [
        "--rounds", "1", "--clients", "2", "--out", str(out),
    ]


def _cfg_file(tmp_path, **extra):
    lines = {"n_train": 160, "n_test": 48, "n_val": 48, "refine_steps": 2}
    lines.update(extra)
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return str(path)


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    rc = main(["run", "--config", _cfg_file(tmp_path), "--method",
               "fedavg_baseline", *_tiny_flags(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "out" / "rounds.csv").exists()
    assert "phi_eq:" in out
    assert "a_b:" in out


def test_bad_flag_value_exits_two(tmp_path, capsys):
    rc = main(["run", "--alpha", "-1", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "alpha" in err


@pytest.mark.parametrize("flag,value,field", [
    ("--alpha", "inf", "alpha"),
    ("--mu", "nan", "mu"),
    ("--k", "3", "subspace_rank"),
])
def test_out_of_range_flag_names_the_field_and_exits_two(tmp_path, capsys, flag, value, field):
    rc = main(["run", flag, value, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("learning_rate=0.5\n")
    rc = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "learning_rate" in err


def test_empty_out_dir_exits_two_before_any_round(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("fedfairprompt.cli.run_experiment", no_run)
    rc = main(["run", "--out", ""])
    assert rc == 2
    assert "config field 'out_dir' must not be empty" in capsys.readouterr().err


def test_failed_run_exits_one(tmp_path, capsys):
    # lr this size overflows the layernorm variance on the next forward
    rc = main(["run", "--config", _cfg_file(tmp_path, lr=1e200),
               "--method", "fedavg_baseline", *_tiny_flags(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "failed" in captured.err


def test_gen_data_roundtrips_through_run(tmp_path, capsys):
    data_dir = tmp_path / "emb"
    rc = main(["gen-data", "--config", _cfg_file(tmp_path),
               "--out", str(data_dir)])
    assert rc == 0
    for name in ("train", "val", "test"):
        ds = load_embeddings(str(data_dir / f"{name}.emb"))
        assert ds.kind == "features"
        assert ds.features.shape[1] == 1
    assert load_embeddings(str(data_dir / "train.emb")).features.shape[0] == 160

    cfg = _cfg_file(tmp_path, data_dir=str(data_dir))
    rc = main(["run", "--config", cfg, "--method", "fedavg_baseline",
               *_tiny_flags(tmp_path / "out2")])
    assert rc == 0
    assert (tmp_path / "out2" / "summary.md").exists()


def test_gen_data_balances_eval_splits(tmp_path):
    data_dir = tmp_path / "emb"
    main(["gen-data", "--config", _cfg_file(tmp_path), "--out", str(data_dir)])
    test_ds = load_embeddings(str(data_dir / "test.emb"))
    for y in (0, 1):
        for g in (0, 1):
            cell = np.sum((test_ds.labels == y) & (test_ds.groups == g))
            assert cell == 12  # 48 / 4


def test_gen_data_files_equal_the_pixel_path(tmp_path):
    # gen-data embeds each block of pixels as it is drawn; the files must
    # equal those of embedding the whole pixel splits, which is how the
    # benchmark writes its ingest fixture. 600 samples span three blocks.
    cfg = _cfg_file(tmp_path, n_train=600)
    main(["gen-data", "--config", cfg, "--out", str(tmp_path / "streamed")])
    config = parse_config(cfg, {})
    encoder = VisionEncoder(encoder_config(config))
    ref = tmp_path / "pixels"
    ref.mkdir()
    for name, split in zip(("train", "val", "test"), load_splits(config)):
        rows = encoder.embed_patches(split.features)
        save_embeddings(Dataset(rows.mean(axis=1, keepdims=True), split.labels, split.groups,
                                kind="features"), str(ref / f"{name}.emb"))
    for name in ("train", "val", "test"):
        streamed = (tmp_path / "streamed" / f"{name}.emb").read_bytes()
        assert streamed == (ref / f"{name}.emb").read_bytes(), name


def test_report_prints_finished_summary(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", _cfg_file(tmp_path), "--method",
          "fedavg_baseline", *_tiny_flags(out)])
    capsys.readouterr()
    rc = main(["report", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "Federation run summary" in printed


def test_report_of_a_failed_run_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    config = parse_config(_cfg_file(tmp_path, lr=1e200), {
        "method": "fedavg_baseline", "rounds": "1", "clients": "2", "out_dir": str(out)})
    report = run_experiment(config)
    assert report.failure.startswith("round 1: ")
    capsys.readouterr()
    rc = main(["report", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "Federation run summary" in captured.out
    assert captured.err == f"run failed: {report.failure}\n"


def test_report_missing_dir_exits_two(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "nope")])
    assert rc == 2
    assert "summary.md" in capsys.readouterr().err


def test_report_rejects_run_flags(tmp_path, capsys):
    # report only reads a finished run; a run flag would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["report", "--alpha", "7", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--alpha" in capsys.readouterr().err


def test_sweep_axis_prints_comparison_table(tmp_path, capsys):
    rc = main(["sweep", "--config", _cfg_file(tmp_path), "--method",
               "fedavg_baseline", "--axis", "clients", "--values", "2,3",
               "--replicates", "1", *_tiny_flags(tmp_path / "sw")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clients=2" in out and "clients=3" in out
    assert "phi_eq" in out


def test_sweep_axis_with_a_failed_cell_exits_one(tmp_path, capsys):
    # alpha=-1 fails validation inside its cell; the alpha=0.5 cell runs,
    # and stderr names the failed cell and its cause
    rc = main(["sweep", "--config", _cfg_file(tmp_path), "--method", "fedavg_baseline",
               "--axis", "alpha", "--values=-1,0.5", "--replicates", "1",
               *_tiny_flags(tmp_path / "sw")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        "alpha=-1.0 replicate 0: ValueError: config field 'alpha' must be > 0, got -1.0",
        "sweep over alpha had failed cells",
    ]
    failed_row, done_row = captured.out.splitlines()[2:]
    assert failed_row == "| fedavg_baseline | alpha=-1.0 | " + " | ".join(["failed"] * 5) + " |"
    assert done_row.startswith("| fedavg_baseline | alpha=0.5 | 0.")


def test_sweep_names_the_failure_of_a_flagged_run(tmp_path, capsys):
    # each run ends flagged (see test_failed_run_exits_one); the cause is
    # the report's failure, one line per replicate
    rc = main(["sweep", "--config", _cfg_file(tmp_path, lr=1e200), "--method",
               "fedavg_baseline", "--axis", "mu", "--values", "0.1", "--replicates", "2",
               *_tiny_flags(tmp_path / "sw")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert [line.split(": round 1: ")[0] for line in err[:2]] == [
        "mu=0.1 replicate 0", "mu=0.1 replicate 1"]
    assert err[2:] == ["sweep over mu had failed cells"]


def test_sweep_values_starting_with_a_negative_number_need_the_equals_form(tmp_path, capsys):
    # After a space, argparse reads "-1,-2" as a flag and exits 2 itself.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "alpha", "--values", "-1,-2", "--out", str(tmp_path / "sw")])
    assert exc.value.code == 2
    assert "--values: expected one argument" in capsys.readouterr().err
    # Written with "=", each value reaches Config's field check in its own
    # cell; the failed cells make the sweep exit 1.
    rc = main(["sweep", "--axis", "alpha", "--values=-1,-2", "--replicates", "1",
               "--out", str(tmp_path / "sw")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[:2] == [
        f"alpha={v} replicate 0: ValueError: config field 'alpha' must be > 0, got {v}"
        for v in (-1.0, -2.0)]


def test_sweep_rejects_a_repeated_value_before_any_run(tmp_path, capsys):
    rc = main(["sweep", "--axis", "alpha", "--values", "0.5,0.50", "--replicates", "1",
               "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: repeated grid cell ['alpha=0.5']: its runs would share one directory\n")
    assert not (tmp_path / "sw").exists()


def test_sweep_axis_needs_values(tmp_path, capsys):
    rc = main(["sweep", "--axis", "alpha", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "--axis needs --values" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("mode", [["--axis", "alpha", "--values", "0.5"],
                                  ["--preset", "table1"]])
def test_sweep_needs_a_replicate(tmp_path, capsys, mode):
    rc = main(["sweep", *mode, "--replicates", "0", "--out", str(tmp_path / "sw")])
    assert rc == 2
    assert "replicates must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_needs_exactly_one_mode(tmp_path, capsys):
    rc = main(["sweep", "--out", str(tmp_path)])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err


def test_sweep_preset_rejects_values_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the preset ran")

    monkeypatch.setattr("fedfairprompt.cli.run_preset", no_run)
    rc = main(["sweep", "--preset", "table1", "--values", "1,2", "--out", str(tmp_path / "pre")])
    assert rc == 2
    assert "--values" in capsys.readouterr().err
    assert not (tmp_path / "pre").exists()


def test_sweep_preset_honours_config_and_flags(tmp_path, capsys):
    out = tmp_path / "pre"
    rc = main(["sweep", "--preset", "table1", "--config", _cfg_file(tmp_path),
               "--rounds", "1", "--clients", "3", "--replicates", "1", "--out", str(out)])
    assert rc == 0
    assert "fvlfp" in capsys.readouterr().out
    cell = out / "table1" / "fvlfp" / "method=fvlfp" / "rep0" / "config.txt"
    lines = cell.read_text().splitlines()
    assert "clients=3" in lines  # flag
    assert "n_train=160" in lines  # config file
    assert "lr=0.002" in lines  # the preset's own override


def test_sweep_preset_over_an_axis_exits_one_on_a_failed_cell(tmp_path, capsys):
    # table5 sweeps clients over 5 and 20; 16 training rows cover 5
    # clients but not 20, so that cell fails and its siblings still run
    out = tmp_path / "pre"
    rc = main(["sweep", "--preset", "table5", "--config", _cfg_file(tmp_path, n_train=16),
               "--rounds", "1", "--replicates", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "preset table5 had failed cells" in captured.err
    rows = [line for line in captured.out.splitlines() if line.startswith("| fvlfp |")]
    assert rows[0].startswith("| fvlfp | clients=5 | 0.")
    assert rows[1] == "| fvlfp | clients=20 | " + " | ".join(["failed"] * 5) + " |"
    assert (out / "table5" / "fvlfp" / "clients=5" / "rep0" / "rounds.csv").exists()
    assert not (out / "table5" / "fvlfp" / "clients=20").exists()


def test_sweep_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--preset", "table9", "--out", str(tmp_path)])
