"""Report containers and byte-deterministic file emission."""

import json
import os

import numpy as np
import pytest

from fedfairprompt.config import Config, config_hash, parse_config
from fedfairprompt.metrics import MetricRecord
from fedfairprompt.report import (
    CSV_HEADER,
    SUMMARY_WINDOW,
    FairnessReport,
    RoundRecord,
    emit_report,
)


def _record(a_b=0.75, phi_a=0.1, phi_demo=0.2, phi_eq=0.3, f_global=0.25):
    return MetricRecord(a_b=a_b, phi_a=phi_a, phi_demo=phi_demo, phi_eq=phi_eq,
                        f_global=f_global)


def _round(i, n_clients=2, phi_eq=0.3):
    g = _record(phi_eq=phi_eq)
    if i == 0:
        return RoundRecord(round=0, client_records=[], scores=[], weights=[],
                           global_record=g)
    return RoundRecord(
        round=i,
        client_records=[_record() for _ in range(n_clients)],
        scores=[0.4, 0.6],
        weights=[0.4, 0.6],
        global_record=g,
    )


def _report(n_rounds=3, phi_eqs=None):
    rounds = [
        _round(i, phi_eq=0.3 if phi_eqs is None else phi_eqs[i])
        for i in range(n_rounds + 1)
    ]
    return FairnessReport(
        config=Config(),
        backbone_hash="cafe" * 4,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# container invariants


def test_config_hash_property_matches_function():
    rep = _report()
    assert rep.config_hash == config_hash(rep.config)


# ---------------------------------------------------------------------------
# headline summary window


def test_summary_averages_trailing_window():
    # rounds 0..8; window covers rounds 4..8
    phi = [0.9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    rep = _report(n_rounds=8, phi_eqs=phi)
    expected = float(np.mean(phi[-SUMMARY_WINDOW:]))
    assert rep.summary()["phi_eq"] == pytest.approx(expected, abs=1e-15)
    assert len(rep.summary_records()) == SUMMARY_WINDOW


def test_summary_window_excludes_round_zero():
    # only two trained rounds: window = rounds 1..2, never the snapshot
    phi = [0.9, 0.2, 0.4]
    rep = _report(n_rounds=2, phi_eqs=phi)
    assert rep.summary()["phi_eq"] == pytest.approx(0.3, abs=1e-15)


def test_summary_of_snapshot_only_run_uses_round_zero():
    rep = _report(n_rounds=0, phi_eqs=[0.9])
    assert rep.summary()["phi_eq"] == pytest.approx(0.9)
    assert rep.summary()["rounds_completed"] == 0


# ---------------------------------------------------------------------------
# file emission


def test_emit_writes_all_four_files(tmp_path):
    paths = emit_report(_report(), str(tmp_path))
    for key in ("csv", "markdown", "config", "json"):
        assert os.path.exists(paths[key]), key


def test_csv_header_is_the_fixed_contract(tmp_path):
    paths = emit_report(_report(), str(tmp_path))
    with open(paths["csv"], "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    assert first == CSV_HEADER
    assert CSV_HEADER == "round,client,a_b,phi_a,phi_demo,phi_eq,f_global,score,weight"


def test_csv_rows_per_round(tmp_path):
    paths = emit_report(_report(n_rounds=2), str(tmp_path))
    with open(paths["csv"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # header + round0 global + 2 rounds x (2 clients + global)
    assert len(lines) == 1 + 1 + 2 * 3
    global_rows = [l for l in lines[1:] if l.split(",")[1] == "global"]
    assert len(global_rows) == 3
    # global rows leave score and weight empty
    assert all(row.endswith(",,") for row in global_rows)


def test_snapshot_only_report_is_header_plus_one_row(tmp_path):
    paths = emit_report(_report(n_rounds=0), str(tmp_path))
    with open(paths["csv"], "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "global"


def test_emit_twice_identical_bytes(tmp_path):
    rep = _report()
    a = emit_report(rep, str(tmp_path / "a"))
    b = emit_report(rep, str(tmp_path / "b"))
    for key in ("csv", "markdown", "config"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read(), key


def test_prompts_npz_holds_the_report_prompts_and_repeats_its_bytes(tmp_path):
    rng = np.random.default_rng(0)
    rep = _report()
    rep.prompts = {"tokens0": rng.standard_normal((2, 4)), "query1": rng.standard_normal(4)}
    a = emit_report(rep, str(tmp_path / "a"))["prompts"]
    b = emit_report(rep, str(tmp_path / "b"))["prompts"]
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    with np.load(a) as loaded:
        assert sorted(loaded.files) == sorted(rep.prompts)
        for name, arr in rep.prompts.items():
            assert loaded[name].tobytes() == arr.tobytes()


def test_emitted_config_reparses_to_recorded_hash(tmp_path):
    rep = _report()
    paths = emit_report(rep, str(tmp_path))
    back = parse_config(paths["config"])
    assert config_hash(back) == rep.config_hash


def test_json_payload_carries_rounds_and_summary(tmp_path):
    rep = _report(n_rounds=2)
    paths = emit_report(rep, str(tmp_path))
    with open(paths["json"], "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["backbone_hash"] == rep.backbone_hash
    assert payload["config_hash"] == rep.config_hash
    assert len(payload["rounds"]) == 3
    assert payload["summary"]["method"] == "fvlfp"
    assert payload["incomplete"] is False


def test_markdown_mentions_failure_when_incomplete(tmp_path):
    rep = _report()
    rep.incomplete = True
    rep.failure = "client 3: non-finite loss"
    paths = emit_report(rep, str(tmp_path))
    with open(paths["markdown"], "r", encoding="utf-8") as fh:
        text = fh.read()
    assert "non-finite loss" in text
    assert "incomplete" in text.lower()
