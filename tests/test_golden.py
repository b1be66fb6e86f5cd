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
``prompts.npz`` is compared with ``golden_prompts.npz``. On the machine
that wrote the file, as ``golden_machine.json`` describes it (numpy
version, the C library whose ``erfc`` builds GELU's table, BLAS build,
the CPU features numpy dispatches on), the comparison is exact, so it
sees a one-ulp change. Elsewhere it allows 1e-12 absolute: numpy's SIMD
dispatch level alone moved the prompts by up to 2.5e-15. The
description includes the kernel family OpenBLAS picked at load time,
which ``OPENBLAS_CORETYPE`` can override on the same CPU. A change that moves the prompts on purpose rewrites both
files with ``python tests/test_golden.py`` and says why.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from fedfairprompt.config import METHODS, Config
from fedfairprompt.encoder import PromptSet
from fedfairprompt.federation import (
    PromptedModel,
    evaluate_prompts,
    load_splits,
    predict,
    run_federation,
)
from fedfairprompt.metrics import METRIC_NAMES
from fedfairprompt.report import emit_report

GOLDEN = {
    "fvlfp": {
        "rounds.csv": "c8b8ba8b4b43d0cd14653803080e9bea9ca0029651ff06ff1924fd8fb639ab63",
        "summary.md": "70721156e0e535454595d726f5a6845a5769bda3a4c878f2af0f13a386aa31eb",
        "config.txt": "274103400c056ccfdc3b8191387a22414bb074f1e41946cb9e15fadb45242d0d",
        "report.json": "69359036be62a73ad061ffe39fb0e22c4feb41785e0e7cff41b904cf3997d93b",
    },
    "fedavg_baseline": {
        "rounds.csv": "c2c631c9524a45e7d8428273d7c2c59f68cea7dd23b7e3d3c7773d946c63726a",
        "summary.md": "656969f4f547162a8daa51ccb974aebd736a24925a676d1c6fd16297dc409e05",
        "config.txt": "fed3ec0ee670a37a241573b4e5969e0c8edc16f7223955b006bbf08d6ace16e8",
        "report.json": "204d80f4ae33f4e08391646ca90e03f29fdc23d6cc3c22c2a9f3ab1360c6a050",
    },
    "wo-cdfp": {
        "rounds.csv": "ec7ebc2a835e181429ba891976d8bf60f1c37e4f37fb491464327db466d135e1",
        "summary.md": "d7cc006f9c9f30798932bd3b63e6c76b056b29966e410779957e730f4bd8d65e",
        "config.txt": "be14f258707493a18dd36902527233df681565e73c9bf5c22616b2569b7fd61d",
        "report.json": "7b58054f7118bbb82afedefca76516e52c0b6b6660ab20279f8c56b8aeb608d3",
    },
    "wo-dsop": {
        "rounds.csv": "93c63162b41eca99e5a612912d803b0ba13495ad674d568d2c055e98ab06bacb",
        "summary.md": "4b476ac2f9b37559d445844465099be6253ce72ccb4881975f3a022c82b8b44d",
        "config.txt": "bd54dbfae87c9c42e76dcf499a6bbe6c66fd91051c2989988d630eeae9f74ad2",
        "report.json": "2bd74797e3c45e7f73d2442ee2d6d3a186231d7b33f138ebf7098fdc9e80852f",
    },
    "wo-fpf": {
        "rounds.csv": "ec236734c6a9df75310edec3ff4f25c2f563413e59a1e17acc75767b16fe23d9",
        "summary.md": "ea553bcbe1a6adaa9ae55d4b0b9609dcae43e04430fe2bdf5bf8ec5273c4cf97",
        "config.txt": "75ea92e78aca9777d04dd3da70be217d601d8d15cefd83a27731f8ba6ee49953",
        "report.json": "b5164dc9f852afe3d3b1b1893b0fb3c6a569182d59fecb6ac8c10ab2006b6e6d",
    },
}


def _golden_config(method: str) -> Config:
    return Config(
        method=method, master_seed=0, rounds=2, clients=3, n_train=240,
        n_val=48, n_test=48, refine_steps=4, refine_batch=16, lr=2e-3,
        out_dir="golden",
    )


HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PROMPTS = os.path.join(HERE, "golden_prompts.npz")
GOLDEN_MACHINE = os.path.join(HERE, "golden_machine.json")
PROMPT_TOLERANCE = 1e-12


def openblas_core() -> str | None:
    """The kernel family numpy's bundled OpenBLAS runs (``SkylakeX``,
    ``Haswell``, ...), or None when numpy bundles no such library."""
    here = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "libscipy_openblas*"))
                       + glob.glob(os.path.join(here, ".dylibs", "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = (), ctypes.c_char_p
        return corename().decode()
    return None


def machine() -> dict:
    """What sets the last bits of the prompts: numpy's version, the C
    library (its ``erfc`` builds GELU's normal-CDF table), the BLAS build
    and kernel, and the CPU features numpy dispatches on (a private name,
    so a numpy without it never counts as the same machine)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu_features
    except ImportError:
        cpu_features = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "libc": " ".join(platform.libc_ver()),
            "blas": f"{blas.get('name')} {blas.get('version')}", "openblas_core": openblas_core(),
            "cpu_features": cpu_features}


def write_golden_prompts(path: str = GOLDEN_PROMPTS) -> None:
    """Each config's final prompts, as ``<method>.<name>`` arrays, and the
    machine that computed them."""
    arrays = {}
    for method in METHODS:
        for name, arr in run_federation(_golden_config(method)).prompts.items():
            arrays[f"{method}.{name}"] = arr
    np.savez(path, **arrays)
    with open(GOLDEN_MACHINE, "w", encoding="utf-8") as fh:
        json.dump(machine(), fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def compare_prompts(method: str, got: dict) -> str:
    """Check one config's final prompts against the golden file: exactly on
    the golden machine, within ``PROMPT_TOLERANCE`` elsewhere. Returns
    which comparison ran, ``"exact"`` or ``"1e-12"``."""
    with np.load(GOLDEN_PROMPTS) as golden:
        want = {key.split(".", 1)[1]: golden[key] for key in golden.files
                if key.split(".", 1)[0] == method}
    assert want and sorted(got) == sorted(want)
    moved = {name: float(np.abs(got[name] - arr).max()) for name, arr in want.items()}
    with open(GOLDEN_MACHINE, encoding="utf-8") as fh:
        exact = json.load(fh) == machine()
    if exact:
        assert all(np.array_equal(got[name], arr) for name, arr in want.items()), (
            f"{method} prompts moved on the golden machine: {moved}")
    assert max(moved.values()) <= PROMPT_TOLERANCE, f"{method} prompts moved: {moved}"
    return "exact" if exact else f"{PROMPT_TOLERANCE:g}"


@pytest.mark.parametrize("method", METHODS)
def test_final_prompts_match_golden_prompts(out_dirs, method):
    with np.load(os.path.join(out_dirs[method], "prompts.npz")) as produced_prompts:
        got = {name: produced_prompts[name] for name in produced_prompts.files}
    compare_prompts(method, got)


def test_another_blas_kernel_compares_at_the_tolerance():
    # OPENBLAS_CORETYPE swaps the kernel on the same CPU and moves the
    # last bits of the prompts; the fingerprint must see it and fall
    # back to the tolerance rather than fail the exact comparison.
    if openblas_core() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    code = ("import test_golden as g\n"
            "from fedfairprompt.federation import run_federation\n"
            "prompts = run_federation(g._golden_config('fvlfp')).prompts\n"
            "print(g.openblas_core(), g.compare_prompts('fvlfp', prompts))\n")
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join([src, HERE]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Haswell", "1e-12"]


# The golden fedavg_baseline run predicts one class on every test row,
# so any prompts would reproduce its record. Its re-scoring runs the same
# config for 3 rounds, the fewest whose test predictions take both
# classes (6 and 42 of 48).
RESCORE_ROUNDS = {"fedavg_baseline": 3}


@pytest.mark.parametrize("method", METHODS)
def test_saved_prompts_reproduce_the_last_global_record(out_dirs, tmp_path, method):
    # The run's final prompts, read back from prompts.npz into a rebuilt
    # model, score the test split exactly as the last round recorded,
    # and predict both classes there, so other prompts would not match.
    # f_global is left out: the round records the cross-client value.
    config, run_dir = _golden_config(method), out_dirs[method]
    if method in RESCORE_ROUNDS:
        config, run_dir = replace(config, rounds=RESCORE_ROUNDS[method]), tmp_path
        emit_report(run_federation(config), str(run_dir))
    model = PromptedModel.for_config(config)
    prompts = PromptSet.initialize(model.encoder.config)
    with np.load(os.path.join(run_dir, "prompts.npz")) as saved:
        prompts.load_arrays({name: saved[name] for name in saved.files})
    test = load_splits(config, model.encoder)[2]
    assert np.unique(predict(model, prompts, test.features)).tolist() == [0, 1]
    record, _ = evaluate_prompts(model, prompts, test)
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        last = json.load(fh)["rounds"][-1]
    assert last["round"] == config.rounds
    for name in METRIC_NAMES:
        if name != "f_global":
            assert getattr(record, name) == last["global"][name], name


if __name__ == "__main__":
    write_golden_prompts()
