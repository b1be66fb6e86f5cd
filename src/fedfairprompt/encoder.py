"""Frozen toy vision-language encoder with trainable prompt blocks.

A seeded, never-trained ViT-style image tower and a hash-embedding text
tower stand in for a pretrained dual encoder so the pipeline around
them stays cheap and exactly reproducible. The only trainable state is
a :class:`PromptSet`: one (K, d) prompt block per transformer layer
plus the per-layer mixing queries. Each layer's input prompt slice is
its own block (the blocks written by the transformer itself are not
re-fed); with cross-layer mixing on, it is first refined by a residual
read-out of the mixed blocks that fed the layers below.

Each block reads its prompt block and the CLS and patch rows the block
below wrote. The prompt rows act as key/value prefixes: they never
depend on the image, so their LN1 and key/value projections run once
on the (K, d) block and are broadcast over the batch. Queries, the
output projection and the MLP run only for the rows the next step
reads: CLS and the patch rows, or CLS alone in the last block. A
block's whole attention sublayer is one tape node
(``tensor.prompted_attention``), its MLP sublayer one more (``_mlp``),
and the head after the last block one more (``_head``). No node keeps
its input, so ``encode_image`` releases each stage's input once the
stage has read it, and the tape holds only what the VJPs read.

The backbone holds only the weights the forward reads, as frozen
arrays: its layer norms have no affine terms and its MLP has no biases.
Each encoder embeds ``CLASS_TEMPLATES`` once, as read-only class rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor as T
from .crosslayer import apply_cross_layer
from .data import _IMAGE_SIZE, _PATCH
from .tensor import (Tensor, _ensure_finite, _gelu_slope, _ln_vjp, _node, _release, _unit,
                     _unit_vjp)


@dataclass(frozen=True)
class EncoderConfig:
    """The frozen encoder: a fixed shape, and the three values a run sets.

    The shape is one set of class constants: four blocks of width 32
    with four heads, over the 32-pixel images ``data`` draws, cut into
    sixteen 8-pixel patches. A run sets only the weight ``seed``, the
    MLP's ``mlp_ratio`` and the ``prompt_tokens`` per block, which
    ``Config`` checks.
    """

    embed_dim: ClassVar[int] = 32
    layers: ClassVar[int] = 4
    heads: ClassVar[int] = 4
    image_size: ClassVar[int] = _IMAGE_SIZE
    patch_size: ClassVar[int] = _PATCH
    patch_count: ClassVar[int] = (_IMAGE_SIZE // _PATCH) ** 2
    patch_pixels: ClassVar[int] = _PATCH * _PATCH

    prompt_tokens: int = 2
    seed: int = 7
    mlp_ratio: int = 2


class FrozenBackbone:
    """Seeded weight bank for the image and text towers; never trained."""

    def __init__(self, config: EncoderConfig):
        d = config.embed_dim
        rng = np.random.Generator(np.random.PCG64(config.seed))
        scale = d**-0.5
        self.cls = rng.standard_normal(d) * scale
        self.pos = rng.standard_normal((1 + config.patch_count, d)) * 0.02
        self.patch_w = rng.standard_normal((config.patch_pixels, d)) * config.patch_pixels**-0.5
        self.patch_b = rng.standard_normal(d) * 0.02
        self.layers: list[dict[str, np.ndarray]] = []
        hidden = d * config.mlp_ratio
        for _ in range(config.layers):
            self.layers.append(
                {
                    "wq": rng.standard_normal((d, d)) * scale,
                    "wk": rng.standard_normal((d, d)) * scale,
                    "wv": rng.standard_normal((d, d)) * scale,
                    "wo": rng.standard_normal((d, d)) * scale,
                    "w1": rng.standard_normal((d, hidden)) * scale,
                    "w2": rng.standard_normal((hidden, d)) * hidden**-0.5,
                }
            )
        self.out_proj = rng.standard_normal((d, d)) * scale
        self.text_proj = rng.standard_normal((d, d)) * scale
        for arr in self._iter_arrays():
            arr.setflags(write=False)

    def _iter_arrays(self):
        yield self.cls
        yield self.pos
        yield self.patch_w
        yield self.patch_b
        for layer in self.layers:
            for key in sorted(layer):
                yield layer[key]
        yield self.out_proj
        yield self.text_proj

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for arr in self._iter_arrays():
            h.update(arr.tobytes())
        return h.hexdigest()


class PromptSet:
    """Trainable prompt state: one float64 vector, read as per-layer
    token blocks and mixing queries.

    ``flat`` is (P,), or (C, P) for C clients in lockstep, with
    P = 4·K·d + 3·d: the four (K, d) token blocks, then the three (d,)
    queries, in the order ``to_arrays`` names them. ``tokens[l]`` is
    the block inserted into the sequence feeding layer l+1;
    ``queries[l-1]`` scores the blocks below layer l. Each is a
    ``Tensor`` that views its span of ``flat``, so the optimizer and
    fusion act on ``flat`` whole; a leaf's ``data`` is written through,
    and rebinding it raises. These leaves are the only trainable state
    of the pipeline; ``trainable=False`` makes them constants.
    """

    def __init__(self, flat: np.ndarray, trainable: bool = True):
        flat = np.asarray(flat, dtype=np.float64)
        depth, d = EncoderConfig.layers, EncoderConfig.embed_dim
        size = flat.shape[-1] if flat.ndim in (1, 2) else 0
        k, rest = divmod(size - (depth - 1) * d, depth * d)
        if k < 1 or rest:
            raise ValueError(f"prompt vector of shape {flat.shape} does not fit the encoder: "
                             f"it needs (P,) or (C, P), P = {depth}·K·{d} + {depth - 1}·{d}, K >= 1")
        self.flat, self.token_count = flat, k
        tokens_end = depth * k * d
        spans = np.split(flat, [*range(k * d, tokens_end + 1, k * d),
                                *range(tokens_end + d, flat.shape[-1], d)], axis=-1)
        self.tokens = [Tensor(s.reshape(flat.shape[:-1] + (k, d)), trainable, f"tokens{l}")
                       for l, s in enumerate(spans[:depth])]
        self.queries = [Tensor(s, trainable, f"query{l}") for l, s in enumerate(spans[depth:], 1)]
        self.leaves = self.tokens + self.queries  # in flat order

    @staticmethod
    def initialize(config: EncoderConfig, seed: int = 0, sigma: float = 0.02) -> "PromptSet":
        """Seeded normal token blocks; zero queries (uniform mixing)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        d = config.embed_dim
        tokens = rng.standard_normal(config.layers * config.prompt_tokens * d) * sigma
        return PromptSet(np.concatenate([tokens, np.zeros((config.layers - 1) * d)]))

    def gradient(self, grads: dict[Tensor, np.ndarray]) -> np.ndarray:
        """The gradient of the leading span of ``flat`` whose leaves
        ``grads`` holds, as ``tensor.backward`` returns it: their
        entries, flattened and joined in flat order. Tokens lead, so a
        loss that mixes no layers, and so reaches no query, trains the
        token blocks alone. A leaf missing inside the span raises."""
        lead = self.flat.shape[:-1]
        return np.concatenate([grads[t].reshape(lead + (-1,)) for t in self.leaves[: len(grads)]],
                              axis=-1)

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {t.name: t.data.copy() for t in self.leaves}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in one finite array of each leaf's shape, under exactly its names."""
        names = {t.name for t in self.leaves}
        missing, unexpected = names - arrays.keys(), arrays.keys() - names
        if missing or unexpected:
            raise ValueError(f"prompts missing {sorted(missing)}, unexpected {sorted(unexpected)}")
        # check every array before the first write, so a bad one changes no leaf
        new = [np.asarray(arrays[t.name], dtype=np.float64) for t in self.leaves]
        for t, a in zip(self.leaves, new):
            if a.shape != t.shape:
                raise ValueError(f"array for '{t.name}' has shape {a.shape}, expected {t.shape}")
            _ensure_finite(a, f"array for '{t.name}'")
        for t, a in zip(self.leaves, new):
            t.data[...] = a

    def map(self, fn) -> "PromptSet":
        """A trainable set on ``fn(flat)``."""
        return PromptSet(fn(self.flat))

    def copy(self) -> "PromptSet":
        return self.map(np.copy)


# Fixed template text; class or group index i reads entry i.
CLASS_TEMPLATES = (
    "a photo of a person who is smiling",
    "a photo of a person who is not smiling",
)
GROUP_TEMPLATES = ("a photo of a man", "a photo of a woman")
# Logit temperature of image-text similarities, CLIP's initial value.
TEMPERATURE = 0.07


# Images per gemm in ``embed_patches``: 4,000 images peak at 18.5 MB of
# tracemalloc (16.4 of it the output) against 65.6 MB in one shot, with
# the same bytes; 64 to 4,000 ran within host noise (14-21 ms).
_BLOCK = 256


class VisionEncoder:
    """Frozen dual encoder plus the prompt-threading forward pass."""

    def __init__(self, config: EncoderConfig, backbone: FrozenBackbone | None = None):
        self.config = config
        self.backbone = FrozenBackbone(config) if backbone is None else backbone
        b = self.backbone
        # Frozen arrays reused across forward passes. Per layer: the
        # attention weights, with the attention scale folded into the
        # query weights once, then the MLP weights.
        head_dim = config.embed_dim // config.heads
        self._cls_row = (b.cls + b.pos[0]).reshape(1, -1)
        self._patch_pos = b.pos[1:]
        self._layer_consts = [
            ((w["wq"] * head_dim**-0.5, w["wk"], w["wv"], w["wo"]), w["w1"], w["w2"])
            for w in b.layers
        ]
        self._out_proj = b.out_proj
        self.class_text = np.stack([self.encode_text(s) for s in CLASS_TEMPLATES])  # class i: row i
        for arr in [self._cls_row, self.class_text, *(a[0] for a, _, _ in self._layer_consts)]:
            arr.setflags(write=False)

    # -- frozen towers ------------------------------------------------

    def backbone_hash(self) -> str:
        return self.backbone.content_hash()

    def embed_patches(self, images: np.ndarray) -> np.ndarray:
        """Affine patch embedding: (B, H, W) pixels -> (B, J, d) rows, in blocks."""
        imgs = np.asarray(images, dtype=np.float64)
        size, patch = self.config.image_size, self.config.patch_size
        if imgs.ndim != 3 or imgs.shape[1:] != (size, size):
            raise ValueError(f"expected (B, {size}, {size}) images, got {imgs.shape}")
        grid, count, pixels = size // patch, self.config.patch_count, self.config.patch_pixels
        out = np.empty((imgs.shape[0], count, self.config.embed_dim))
        for lo in range(0, imgs.shape[0], _BLOCK):
            block, dest = imgs[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
            rows = block.reshape(-1, grid, patch, grid, patch).transpose(0, 1, 3, 2, 4)
            np.matmul(rows.reshape(-1, count, pixels), self.backbone.patch_w, out=dest)
            dest += self.backbone.patch_b
        return out

    def _token_vector(self, token: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.config.seed}:{token}".encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        return rng.standard_normal(self.config.embed_dim) * self.config.embed_dim**-0.5

    def encode_text(self, text: str) -> np.ndarray:
        """Deterministic unit-norm text embedding (frozen, gradient-free)."""
        tokens = text.lower().split()
        if not tokens:
            raise ValueError("cannot encode empty text")
        pooled = np.mean([self._token_vector(t) for t in tokens], axis=0)
        out = pooled @ self.backbone.text_proj
        return out / np.linalg.norm(out)

    # -- prompt-threaded image forward ---------------------------------

    def encode_image(
        self,
        e0: np.ndarray,
        prompts: PromptSet,
        cdfp_enabled: bool = True,
    ) -> Tensor:
        """Embed patch rows with prompt blocks threaded through every layer.

        ``e0`` is (B, J, d), or (C, B, J, d) for prompts stacked over C
        clients. Patch position rows are added only when the row count
        matches the configured patch grid; ingested single-row feature
        datasets carry no spatial layout. Returns the unit-norm image
        embeddings, (B, d) or (C, B, d).

        Block l reads ``prompts.tokens[l - 1]`` as its key/value prefix
        rows, and the CLS and patch rows the previous block wrote. With
        ``cdfp_enabled`` each block from the second on is first mixed
        with the blocks used below it, and the history holds those mixed
        blocks.
        """
        cfg = self.config
        data, lead = np.asarray(e0, dtype=np.float64), prompts.tokens[0].shape[:-2]
        if data.ndim != len(lead) + 3 or data.shape[:-3] != lead or data.shape[-1] != cfg.embed_dim:
            raise ValueError(f"expected ({'C, ' * len(lead)}B, J, {cfg.embed_dim}) patch rows, "
                             f"got {data.shape}")
        if data.shape[-2] == cfg.patch_count:
            data = data + self._patch_pos

        # The CLS and patch rows: everything but the prompt block. Each
        # stage's input is released once the stage has read it.
        cls_rows = np.broadcast_to(self._cls_row, data.shape[:-2] + (1, cfg.embed_dim))
        state = Tensor(np.concatenate([cls_rows, data], axis=-2))
        del data
        used = prompts.tokens[0]
        history = [used]
        for layer in range(1, cfg.layers + 1):
            last = layer == cfg.layers
            attention, w1, w2 = self._layer_consts[layer - 1]
            rows = T.prompted_attention(used, state, *attention, cfg.heads, cls_only=last)
            _release(state)
            state = _mlp(rows, w1, w2)
            _release(rows)
            if last:
                break
            used = prompts.tokens[layer]
            if cdfp_enabled:
                used = apply_cross_layer(used, history, prompts.queries[layer - 1])
            history.append(used)

        z = _head(state, self._out_proj)
        _release(state)
        return z


def _mlp(rows: Tensor, w1: np.ndarray, w2: np.ndarray) -> Tensor:
    """A pre-LN MLP sublayer with its residual, as one node:
    ``rows + gelu(layernorm(rows) @ w1) @ w2``, bit-identical to the
    layernorm, matmul, GELU, matmul and add kernels it fuses. The tape
    keeps GELU's slope, not its input and CDF."""
    h, inv = T.layernorm(rows.data)
    u = T.matmul(h, w1)
    a, cdf = T.gelu(u)
    out = rows.data + T.matmul(a, w2)
    slope = _gelu_slope(u, cdf) if rows.needs_grad else None

    def vjp(g):
        # The residual's ``g`` reaches ``rows`` before the LN2 branch's.
        g_u = (g @ w2.T) * slope
        return (g + _ln_vjp(g_u @ w1.T, h, inv),)

    return _node(out, (rows,), vjp, "encoder_mlp")


def _head(state: Tensor, out_proj: np.ndarray) -> Tensor:
    """The (..., B, 1, d) CLS rows, layer-normed, times ``out_proj`` and
    scaled to unit norm, as one node: (..., B, d) unit rows, bit-identical
    to the reshape, layernorm, matmul and L2 kernels it fuses."""
    shape = state.shape
    rows, inv = T.layernorm(state.data.reshape(shape[:-2] + shape[-1:]))
    out, norm = _unit(rows @ out_proj)

    def vjp(g):
        g_rows = _unit_vjp(g, out, norm) @ out_proj.swapaxes(-1, -2)
        return (_ln_vjp(g_rows, rows, inv).reshape(shape),)

    return _node(out, (state,), vjp, "encoder_head")
