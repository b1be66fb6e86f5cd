"""Config parsing, validation, precedence, and round-trip stability."""

import dataclasses

import pytest

from fedfairprompt.config import (
    METHODS,
    Config,
    config_hash,
    config_lines,
    parse_config,
)
from fedfairprompt.encoder import GROUP_TEMPLATES


# ---------------------------------------------------------------------------
# defaults and precedence


def test_empty_file_gives_full_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(str(path))
    assert cfg == Config()
    assert cfg.clients == 5
    assert cfg.batch_size == 16
    assert cfg.lr == 2e-4
    assert cfg.alpha == 0.5
    assert cfg.mu == 0.3
    assert cfg.lambda1 == 1.0


def test_no_file_gives_defaults():
    assert parse_config() == Config()


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rounds=50\n")
    cfg = parse_config(str(path), {"rounds": "10"})
    assert cfg.rounds == 10


def test_file_overrides_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rounds=50\nalpha=0.1\n")
    cfg = parse_config(str(path))
    assert cfg.rounds == 50
    assert cfg.alpha == 0.1


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# full comment\n\nclients=7  # trailing comment\n")
    assert parse_config(str(path)).clients == 7


def test_typed_overrides_accepted():
    cfg = parse_config(None, {"alpha": 2.0, "clients": 3})
    assert cfg.alpha == 2.0
    assert cfg.clients == 3


# ---------------------------------------------------------------------------
# rejection paths


def test_negative_alpha_names_field_and_constraint():
    with pytest.raises(ValueError) as err:
        parse_config(None, {"alpha": "-1"})
    assert "alpha" in str(err.value)
    assert "> 0" in str(err.value)


def test_unknown_key_rejected_in_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate=0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        parse_config(str(path))


def test_unknown_key_rejected_in_overrides():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(None, {"nope": "1"})


def test_malformed_line_carries_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("clients=5\nthis is not a pair\n")
    with pytest.raises(ValueError, match=r":2:"):
        parse_config(str(path))


def test_type_error_carries_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\nclients=five\n")
    with pytest.raises(ValueError, match=r":2:.*expects int"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "field,value",
    [
        ("method", "fedprox"),
        ("method", "w/o-cdfp"),
        ("master_seed", -1),
        ("clients", 0),
        ("rounds", -1),
        ("alpha", 0.0),
        ("batch_size", 0),
        ("lr", 0.0),
        ("mu", 1.0),
        ("lambda1", -0.5),
        ("subspace_rank", 0),
        ("subspace_rank", len(GROUP_TEMPLATES) + 1),
        ("refine_batch", 1),
        ("n_test", 402),
        ("n_val", 0),
        ("label_signal", 0.0),
        ("noise_sigma", -0.1),
        ("spurious_strength", 1.5),
        ("minority_attenuation", 1.0),
        ("prompt_tokens", 0),
    ],
)
def test_invalid_field_rejected_with_name(field, value):
    with pytest.raises(ValueError, match=f"config field '{field}'"):
        dataclasses.replace(Config(), **{field: value})


@pytest.mark.parametrize("field,raw", [
    ("alpha", "inf"), ("label_signal", "nan"), ("group_signal", "-inf"),
])
def test_non_finite_float_rejected_from_a_config_line(tmp_path, field, raw):
    # alpha=inf used to keep 8 of 160 training rows and report the run complete
    path = tmp_path / "run.cfg"
    path.write_text(f"{field}={raw}\n")
    with pytest.raises(ValueError, match=f"config field '{field}' must be finite"):
        parse_config(str(path))


def test_every_float_field_must_be_finite():
    floats = [f.name for f in dataclasses.fields(Config) if f.type == "float"]
    assert "alpha" in floats and "minority_attenuation" in floats
    for name in floats:
        with pytest.raises(ValueError, match=f"config field '{name}' must be finite"):
            dataclasses.replace(Config(), **{name: float("inf")})


def test_train_count_must_cover_clients():
    with pytest.raises(ValueError, match="n_train"):
        dataclasses.replace(Config(), n_train=3, clients=5)


# ---------------------------------------------------------------------------
# method dispatch


@pytest.mark.parametrize(
    "method,cdfp,dsop,fpf",
    [
        ("fvlfp", True, True, True),
        ("fedavg_baseline", False, False, False),
        ("wo-cdfp", False, True, True),
        ("wo-dsop", True, False, True),
        ("wo-fpf", True, True, False),
    ],
)
def test_method_stage_dispatch(method, cdfp, dsop, fpf):
    cfg = dataclasses.replace(Config(), method=method)
    assert cfg.cdfp_enabled is cdfp
    assert cfg.dsop_enabled is dsop
    assert cfg.fpf_enabled is fpf


def test_method_names_are_the_full_set():
    assert set(METHODS) == {"fvlfp", "fedavg_baseline", "wo-cdfp", "wo-dsop", "wo-fpf"}


# ---------------------------------------------------------------------------
# serialization round trip


def _variant_configs():
    yield Config()
    yield dataclasses.replace(Config(), method="wo-dsop", alpha=100.0, clients=20)
    yield dataclasses.replace(Config(), method="wo-fpf", data_dir="some/dir",
                              lr=5e-3, rounds=1)
    yield dataclasses.replace(Config(), lambda2=0.5, minority_attenuation=0.0,
                              out_dir="elsewhere")


def test_config_lines_reparse_to_equal_config(tmp_path):
    for i, cfg in enumerate(_variant_configs()):
        path = tmp_path / f"roundtrip{i}.cfg"
        path.write_text(config_lines(cfg))
        back = parse_config(str(path))
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)


def test_config_hash_separates_configs():
    a = config_hash(Config())
    b = config_hash(dataclasses.replace(Config(), lr=3e-4))
    assert a != b
    assert len(a) == 16
    assert config_hash(Config()) == a
