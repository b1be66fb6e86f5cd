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
        "summary.md": "8a03f47d3159f61fcb30cd06b3778d974d9fce8708084d01cebd770830f30bb3",
        "config.txt": "b07b4e4b8425d695afd2e0e2cc2450749694589032418142490ed33fde47f265",
        "report.json": "438fdc0389cf62e10d68431d32db3e1b373f6e4a7d30e2bce810c52e3cb4c754",
    },
    "fedavg_baseline": {
        "rounds.csv": "c2c631c9524a45e7d8428273d7c2c59f68cea7dd23b7e3d3c7773d946c63726a",
        "summary.md": "6ca0ef3bb42aad9f0dfa6081c1c1e094ea041074d44ee66af1ef7646c865fc0c",
        "config.txt": "6d4b25808c0923b0470588e1212fda7ad4cd8f3e4a3e60f5a026e8fc3e9737a9",
        "report.json": "0327dd519cd300bf27a27f99c8fe207a97e67db9283e3ab44dfaf7c42b27b440",
    },
    "wo-cdfp": {
        "rounds.csv": "ec7ebc2a835e181429ba891976d8bf60f1c37e4f37fb491464327db466d135e1",
        "summary.md": "d183ce1cbdd9b0e16e9284b334b7fb86e51057660a0b7212e056249cd8549e92",
        "config.txt": "89b1db1c39f4b0e426df765a57258ebf2cd36ba8c6ea96ee139c3c6e68fb15ff",
        "report.json": "605ae5522b68b24a064f628766e05992d3e4570139a81f8579605432fef8bff1",
    },
    "wo-dsop": {
        "rounds.csv": "93c63162b41eca99e5a612912d803b0ba13495ad674d568d2c055e98ab06bacb",
        "summary.md": "5bdb5e801223731b006df377132a6a7d6afbc3e1808b0768388f27c796323063",
        "config.txt": "04defee451d744e5efc91e0385385ba72c1d1f647f06dd53ae0ed2ccf38a42ba",
        "report.json": "7f9086d0608712af995cedd832cfcf39d2b00d2b49a50b09d92342c933824db3",
    },
    "wo-fpf": {
        "rounds.csv": "ec236734c6a9df75310edec3ff4f25c2f563413e59a1e17acc75767b16fe23d9",
        "summary.md": "901ea940252f945794e49c2919857d76f7aeea35eb38758023b82cecf2708593",
        "config.txt": "329cb253689730e73f9e94ec65b002398b065441997dc67f214d28f5673e1bab",
        "report.json": "012800d746464f71f82cd9712acc365c94d47df52a54e45e31fa21d6a547781d",
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
