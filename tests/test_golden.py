"""Golden determinism: every method's four artifacts hash to pinned values.

A tiny fixed config per method runs end to end and its emitted files
are compared byte for byte, through sha256, with the values below. A
refactor that claims to keep behaviour must keep every hash; a change
that moves the numbers must update them and say why. ``out_dir`` is a
fixed string, never the temporary path the files land in, so
``config.txt`` carries no machine-specific path.

The config trains at ``lr=2e-3``: at the default ``lr=2e-4`` two of the
methods still predict a single class after two rounds and write the
same ``rounds.csv``, so their hashes would pin nothing method-specific.
"""

import hashlib
import os
from itertools import combinations

import pytest

from fedfairprompt.config import METHODS, Config
from fedfairprompt.federation import run_federation
from fedfairprompt.report import emit_report

GOLDEN = {
    "fvlfp": {
        "rounds.csv": "c8b8ba8b4b43d0cd14653803080e9bea9ca0029651ff06ff1924fd8fb639ab63",
        "summary.md": "e60d04e92892aaa9af603389ae4111c6205e189b90e02e5e759dee983044c587",
        "config.txt": "72f1d3fdc71f84c7e6212eea286181f087e8fdc26899943806bed4bff9aacc75",
        "report.json": "27c271464bb04fa6fa9b35d022b1e9b0354e74ab75777dac156ff99946a49524",
    },
    "fedavg_baseline": {
        "rounds.csv": "c2c631c9524a45e7d8428273d7c2c59f68cea7dd23b7e3d3c7773d946c63726a",
        "summary.md": "e0b7231da9d16a5b8f90a3af802149a20179c9de910cdd59c489d2c047660d0c",
        "config.txt": "8522b908ac6b9ae270d2a05d33321340bbe8a74ecdf5964046092cc7909f951c",
        "report.json": "37ff73db062cf5a8e9e05e2f053a64a2b21603f3db9cd9c4e8a54a2028785a74",
    },
    "wo-cdfp": {
        "rounds.csv": "ec7ebc2a835e181429ba891976d8bf60f1c37e4f37fb491464327db466d135e1",
        "summary.md": "195fbba4e09b8da68316d3a5e8536e5e851da459d98b06a72c333956751d187a",
        "config.txt": "18b82341f8e0e8cd2ed378811a61809cafb6b1733c6583c13849eaaf882be4f9",
        "report.json": "fea8461550c92d5a1ae465ef63f02a42acaffbe2cdf6169a521f6e8c8df4d2f4",
    },
    "wo-dsop": {
        "rounds.csv": "93c63162b41eca99e5a612912d803b0ba13495ad674d568d2c055e98ab06bacb",
        "summary.md": "dec2ccdd1f1a116086091c08b1e27d784103b51d11bcf270955c77e178dea852",
        "config.txt": "181a9fa8cda38409859fb4b302f9ca56126c3dd4df0dbfe2396a2853d239e6f3",
        "report.json": "ecb50fcb271ae3327ba01d4760c961f464a2ca05724919c6b794bb20b5a07922",
    },
    "wo-fpf": {
        "rounds.csv": "ec236734c6a9df75310edec3ff4f25c2f563413e59a1e17acc75767b16fe23d9",
        "summary.md": "dc55304f33c5c1533aec89c04faa9fbc79c80bb1d2f5af5b4cb4bf707bd4eafa",
        "config.txt": "20cf368b6221dc50cde00fb0ab7e9078faab4e7dbb80c5aebf4c87d593248158",
        "report.json": "24147066d842ff24290b7b874487100ba3d97e7ebd54b1ea4880aac03e448dc8",
    },
}


def _golden_config(method: str) -> Config:
    return Config(
        method=method, master_seed=0, rounds=2, clients=3, n_train=240,
        n_val=48, n_test=48, refine_steps=4, refine_batch=16, lr=2e-3,
        out_dir="golden",
    )


def _artifact_hashes(method: str, out_dir) -> dict[str, str]:
    emit_report(run_federation(_golden_config(method)), str(out_dir))
    hashes = {}
    for name in GOLDEN[method]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return {
        method: _artifact_hashes(method, tmp_path_factory.mktemp(method))
        for method in METHODS
    }


def test_golden_covers_every_method():
    assert sorted(GOLDEN) == sorted(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_artifacts_match_golden_hashes(produced, method):
    assert produced[method] == GOLDEN[method]


def test_golden_rounds_differ_between_methods():
    # identical rounds.csv for two methods would mean the config cannot
    # tell their pipelines apart
    for a, b in combinations(METHODS, 2):
        assert GOLDEN[a]["rounds.csv"] != GOLDEN[b]["rounds.csv"], (a, b)
