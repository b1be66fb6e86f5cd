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

``rounds.csv`` derives from confusion counts, so it cannot see a change
of a few ulps in the arithmetic. The final prompts can: each config's
``prompts.npz`` is compared with ``golden_prompts.npz`` at 1e-12
absolute. That tolerates numpy's SIMD dispatch level, which moved the
prompts by at most 2.5e-15, but not a change in the arithmetic. A
change that moves the prompts on purpose rewrites the file with
``python tests/test_golden.py`` and says why.
"""

import hashlib
import os
from itertools import combinations

import numpy as np
import pytest

from fedfairprompt.config import METHODS, Config
from fedfairprompt.federation import run_federation
from fedfairprompt.report import emit_report

GOLDEN = {
    "fvlfp": {
        "rounds.csv": "c8b8ba8b4b43d0cd14653803080e9bea9ca0029651ff06ff1924fd8fb639ab63",
        "summary.md": "0d0746a01e7e719c0a2dda93a34826b4ff2f9c6340518f30d57a38f079af3578",
        "config.txt": "b07b4e4b8425d695afd2e0e2cc2450749694589032418142490ed33fde47f265",
        "report.json": "7673784a5cd90fb8aabbac180858ca6a852b50b5117f2aadafe05780dd76f8c5",
    },
    "fedavg_baseline": {
        "rounds.csv": "c2c631c9524a45e7d8428273d7c2c59f68cea7dd23b7e3d3c7773d946c63726a",
        "summary.md": "825b255924ef15b766c9dab8d436c60a9c727b358c349e84e2bc3bc6c3d3ea6b",
        "config.txt": "6d4b25808c0923b0470588e1212fda7ad4cd8f3e4a3e60f5a026e8fc3e9737a9",
        "report.json": "fe00841345ba8adf62332d6775dd8075c0d0bac454cca67a5877c1e8b7f7c583",
    },
    "wo-cdfp": {
        "rounds.csv": "ec7ebc2a835e181429ba891976d8bf60f1c37e4f37fb491464327db466d135e1",
        "summary.md": "a57eea6c97dcf429f84000a4f0a6fdfd6b9dcbc14b2a288ffbdbba1a9c23641e",
        "config.txt": "89b1db1c39f4b0e426df765a57258ebf2cd36ba8c6ea96ee139c3c6e68fb15ff",
        "report.json": "ed8b7703b97e73a4d8b01b484100ba6cc8dddaa2e8d95cb76cc3c1dfea59b6a8",
    },
    "wo-dsop": {
        "rounds.csv": "93c63162b41eca99e5a612912d803b0ba13495ad674d568d2c055e98ab06bacb",
        "summary.md": "7633e99af776b203db5e54825c2f92bdb789cf109fb7b590ab591e9f681084c1",
        "config.txt": "04defee451d744e5efc91e0385385ba72c1d1f647f06dd53ae0ed2ccf38a42ba",
        "report.json": "8e35686f23761676b63a2f968af037bd7082c9ded9422f0386d8d35e8d1fc66e",
    },
    "wo-fpf": {
        "rounds.csv": "ec236734c6a9df75310edec3ff4f25c2f563413e59a1e17acc75767b16fe23d9",
        "summary.md": "7ccecf7570ca3f2f417c42ea750383b2aecb785f91aa9bee7262c13be9dbe3c6",
        "config.txt": "329cb253689730e73f9e94ec65b002398b065441997dc67f214d28f5673e1bab",
        "report.json": "f8f71c7c7e24924fb376cd6c7d48b082557c77febd487759909bcea411af90ab",
    },
}


def _golden_config(method: str) -> Config:
    return Config(
        method=method, master_seed=0, rounds=2, clients=3, n_train=240,
        n_val=48, n_test=48, refine_steps=4, refine_batch=16, lr=2e-3,
        out_dir="golden",
    )


GOLDEN_PROMPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_prompts.npz")
PROMPT_TOLERANCE = 1e-12


def write_golden_prompts(path: str = GOLDEN_PROMPTS) -> None:
    """Each config's final prompts, as ``<method>.<name>`` arrays."""
    arrays = {}
    for method in METHODS:
        for name, arr in run_federation(_golden_config(method)).prompts.items():
            arrays[f"{method}.{name}"] = arr
    np.savez(path, **arrays)


@pytest.fixture(scope="module")
def out_dirs(tmp_path_factory):
    dirs = {method: tmp_path_factory.mktemp(method) for method in METHODS}
    for method, out_dir in dirs.items():
        emit_report(run_federation(_golden_config(method)), str(out_dir))
    return dirs


@pytest.fixture(scope="module")
def produced(out_dirs):
    hashes = {}
    for method, out_dir in out_dirs.items():
        hashes[method] = {}
        for name in GOLDEN[method]:
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[method][name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def test_golden_covers_every_method():
    assert sorted(GOLDEN) == sorted(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_artifacts_match_golden_hashes(produced, method):
    got = produced[method]
    assert sorted(got) == sorted(GOLDEN[method])
    moved = [
        f"{name}: pinned {want}, produced {got[name]}"
        for name, want in GOLDEN[method].items()
        if got[name] != want
    ]
    assert not moved, f"{method} artifacts moved:\n" + "\n".join(moved)


def test_golden_rounds_differ_between_methods():
    # identical rounds.csv for two methods would mean the config cannot
    # tell their pipelines apart
    for a, b in combinations(METHODS, 2):
        assert GOLDEN[a]["rounds.csv"] != GOLDEN[b]["rounds.csv"], (a, b)


@pytest.mark.parametrize("method", METHODS)
def test_final_prompts_match_golden_prompts(out_dirs, method):
    with np.load(GOLDEN_PROMPTS) as golden:
        want = {key.split(".", 1)[1]: golden[key] for key in golden.files
                if key.split(".", 1)[0] == method}
    with np.load(os.path.join(out_dirs[method], "prompts.npz")) as produced_prompts:
        got = {name: produced_prompts[name] for name in produced_prompts.files}
    assert want and sorted(got) == sorted(want)
    moved = {name: float(np.abs(got[name] - arr).max()) for name, arr in want.items()}
    assert max(moved.values()) <= PROMPT_TOLERANCE, f"{method} prompts moved: {moved}"


if __name__ == "__main__":
    write_golden_prompts()
