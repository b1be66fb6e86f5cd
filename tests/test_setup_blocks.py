"""Set-up in blocks of samples: pinned bytes, block boundaries, memory bound.

``generate_synthetic`` and ``embed_patches`` fill their outputs a block
of samples at a time, so no full-size temporary is made; given an
encoder, ``load_splits`` embeds each block of pixels as it is drawn, so
no split's pixels are held whole. The bytes must be those of the
one-shot formulas in ``plumbing``. The golden configs draw only a few
blocks of samples, so the full-size default set-up is pinned here: the
digests were taken from the one-shot code.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from fedfairprompt import data, encoder
from fedfairprompt.config import Config
from fedfairprompt.data import SyntheticSpec, generate_synthetic
from fedfairprompt.encoder import EncoderConfig, VisionEncoder
from fedfairprompt.federation import encoder_config, load_splits
from plumbing import one_shot_embed, one_shot_synthetic

# sha256 of (pixels, labels, groups, embed_patches output) per split of
# load_splits(Config()): n_train 4000, n_val = n_test = 400, seed 0
FULL_SIZE = {
    "train": (
        "c0cce18efe3f79658b2d24ba7c36df50bd92816d033411ecd0166592b2f0809c",
        "39bfe4ada485736ba20f9c8cf24a7baa50ec9bd9799fc65ff21e8219fef4d699",
        "00d961f3ae43620fb3f77dfb440181e250228eedcda47a40f7a52e191e39507f",
        "9ddadca4fe508066577c4ebe5821ffb2a9fce1bfff0049604a83f3e883363c5e",
    ),
    "val": (
        "a518983110ab12928414d7a8ca1a65df31f7ce4e668e848d8a1f219a4a4e39d8",
        "6b955a1cf487004e06e7a39d3a5c7e0b9e4515c88b52db46a23510975f7e1c95",
        "fbb8d0236ae44df6893f06814ea7d91d74c2a725000953625c025c2a4068baf4",
        "0b68622f399ff8792888945d398b304fa58c3effa783b0c363c5f1e0877ea71d",
    ),
    "test": (
        "4622333b76d23dbce33c71ac228dd600dd24e1650c993515495ce8096f70760f",
        "3c1a75996e49172025111f7e6daa0ad25527b0e9c430b03805b35a1a8984f929",
        "b05714431f1ebbc81e50e5d2c1d8bb49cdad7b5c8c4c6ca7f524803acb003044",
        "677e65c44794fb8a6cba8c4bbef142049d6bdba6a083bb5afaeae58d116cea8a",
    ),
}

B_DATA = data._BLOCK
B_ENC = encoder._BLOCK
# sample counts a few blocks in, one short of, on and one past a block
# boundary, and three into a later block
N_DATA = [1, 4 * B_DATA - 1, 4 * B_DATA, 4 * B_DATA + 1, 8 * B_DATA + 3]


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_full_size_splits_and_embeddings_are_pinned():
    config = Config()
    enc = VisionEncoder(encoder_config(config))
    splits = load_splits(config)
    for name, split in zip(("train", "val", "test"), splits):
        got = (_sha(split.features), _sha(split.labels), _sha(split.groups),
               _sha(enc.embed_patches(split.features)))
        assert got == FULL_SIZE[name], name


@pytest.mark.parametrize("sigma", [0.3, 0.0])
@pytest.mark.parametrize("n", N_DATA)
def test_generate_synthetic_matches_one_shot_across_blocks(n, sigma):
    spec = SyntheticSpec(n=n, noise_sigma=sigma, seed=5)
    pixels, labels, groups = one_shot_synthetic(spec)
    ds = generate_synthetic(spec)
    assert np.array_equal(ds.features, pixels)
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.groups, groups)


@pytest.mark.parametrize("size", [32])
@pytest.mark.parametrize("n", [0, 1, B_ENC, B_ENC + 1])
def test_embed_patches_matches_one_shot_across_blocks(n, size):
    enc = VisionEncoder(EncoderConfig(seed=4))
    images = np.random.default_rng(n).random((n, size, size))
    out = enc.embed_patches(images)
    assert out.shape == (n, enc.config.patch_count, enc.config.embed_dim)
    assert np.array_equal(out, one_shot_embed(enc, images))


def _traced_peak(fn) -> tuple[int, object]:
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_embed_patches_temporaries_do_not_grow_with_n():
    # numpy reports its buffers to tracemalloc, so the peaks are exact;
    # the 64 KiB slack covers Python bookkeeping, not a block (2.1 MB)
    enc = VisionEncoder(EncoderConfig())
    rng = np.random.default_rng(0)
    enc.embed_patches(rng.random((2, 32, 32)))
    extra = {}
    for n in (1000, 4000):
        images = rng.random((n, 32, 32))
        peak, out = _traced_peak(lambda: enc.embed_patches(images))
        extra[n] = peak - out.nbytes
    assert extra[4000] <= extra[1000] + 2**16, extra


def test_generate_synthetic_peak_stays_near_its_pixels():
    # the pixels, plus one eighth for Dataset's isfinite mask, plus one
    # block's temporaries; a full-size noise draw would double the peak
    generate_synthetic(SyntheticSpec(n=2))
    peak, ds = _traced_peak(lambda: generate_synthetic(SyntheticSpec(n=4000)))
    ratio = peak / ds.features.nbytes
    assert ratio <= 1.2, ratio


def test_streamed_splits_reproduce_the_pinned_embeddings():
    config = Config()
    enc = VisionEncoder(encoder_config(config))
    for name, split in zip(("train", "val", "test"), load_splits(config, enc)):
        assert split.kind == "features"
        got = (_sha(split.labels), _sha(split.groups), _sha(split.features))
        assert got == FULL_SIZE[name][1:], name


@pytest.mark.parametrize("n", [0, *N_DATA])
def test_streamed_rows_match_one_shot_embedding(n):
    enc = VisionEncoder(EncoderConfig(seed=4))
    spec = SyntheticSpec(n=n, seed=5)
    pixels, labels, groups = one_shot_synthetic(spec)
    ds = generate_synthetic(spec, enc.embed_patches)
    assert ds.kind == "features"
    assert np.array_equal(ds.features, one_shot_embed(enc, pixels))
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.groups, groups)


def test_streamed_split_peak_stays_near_its_rows():
    # the rows, plus one block's pixels, noise, patch copy and rows, plus
    # Dataset's isfinite mask: 1.14x at 64 samples a block, 1.40x at 256;
    # drawing the pixels first and then calling embed_patches peaks at
    # 3.1x the rows (51.3 MB)
    enc = VisionEncoder(EncoderConfig())
    generate_synthetic(SyntheticSpec(n=2), enc.embed_patches)
    peak, ds = _traced_peak(lambda: generate_synthetic(SyntheticSpec(n=4000), enc.embed_patches))
    ratio = peak / ds.features.nbytes
    assert ratio <= 1.2, ratio
