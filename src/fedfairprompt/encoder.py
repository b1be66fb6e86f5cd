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
and the head after the last block one more (``_head``).

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
from .tensor import Tensor, _ensure_finite, _gelu_slope, _ln_vjp, _node, _unit, _unit_vjp


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


@dataclass
class PromptSet:
    """Trainable prompt state: per-layer token blocks and mixing queries.

    ``tokens[l]`` is the (K, d) block inserted into the sequence feeding
    layer l+1; ``queries[l-1]`` scores the blocks below layer l. These
    tensors are exactly the trainable leaves of the whole pipeline.
    Clients in lockstep stack theirs: (C, K, d) blocks, (C, d) queries.
    A set holds one block per ``EncoderConfig.layers`` of width
    ``EncoderConfig.embed_dim``, so it fits the one frozen encoder.
    """

    tokens: list[Tensor]
    queries: list[Tensor]

    def __post_init__(self):
        depth, shape = len(self.tokens), self.tokens[0].shape if self.tokens else ()
        if depth != EncoderConfig.layers or shape[-1:] != (EncoderConfig.embed_dim,):
            raise ValueError(
                f"prompt set ({depth} blocks of shape {shape}) does not match the encoder "
                f"({EncoderConfig.layers} layers, d={EncoderConfig.embed_dim})"
            )
        if len(shape) not in (2, 3) or shape[-2] < 1:
            raise ValueError(f"token blocks must be (K, d) or (C, K, d) with K >= 1, got {shape}")
        for t in self.tokens:
            if t.shape != shape:
                raise ValueError("all token blocks must share one shape")
        if len(self.queries) != depth - 1:
            raise ValueError(f"{depth} blocks need {depth - 1} queries, got {len(self.queries)}")
        for q in self.queries:
            if q.shape != shape[:-2] + shape[-1:]:
                raise ValueError(f"query shape {q.shape} != {shape[:-2] + shape[-1:]}")

    @property
    def token_count(self) -> int:
        return self.tokens[0].shape[-2]

    @staticmethod
    def initialize(config: EncoderConfig, seed: int = 0, sigma: float = 0.02) -> "PromptSet":
        """Seeded normal token blocks; zero queries (uniform mixing)."""
        k, d = config.prompt_tokens, config.embed_dim
        rng = np.random.Generator(np.random.PCG64(seed))
        tokens = [
            Tensor(rng.standard_normal((k, d)) * sigma, trainable=True, name=f"tokens{l}")
            for l in range(config.layers)
        ]
        queries = [
            Tensor(np.zeros(d), trainable=True, name=f"query{l}")
            for l in range(1, config.layers)
        ]
        return PromptSet(tokens=tokens, queries=queries)

    def parameters(self) -> dict[str, Tensor]:
        named = {f"tokens{l}": t for l, t in enumerate(self.tokens)}
        named.update({f"query{l + 1}": q for l, q in enumerate(self.queries)})
        return named

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.parameters().items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in one finite array of each leaf's shape, under exactly its names."""
        named = self.parameters()
        missing, unexpected = named.keys() - arrays.keys(), arrays.keys() - named.keys()
        if missing or unexpected:
            raise ValueError(f"prompts missing {sorted(missing)}, unexpected {sorted(unexpected)}")
        # check every array before the first write, so a bad one changes no leaf
        new = {name: np.asarray(arrays[name], dtype=np.float64).copy() for name in named}
        for name, t in named.items():
            if new[name].shape != t.shape:
                raise ValueError(f"array for '{name}' has shape {new[name].shape}, expected {t.shape}")
            _ensure_finite(new[name], f"array for '{name}'")
        for name, t in named.items():
            t.data = new[name]

    def map(self, fn) -> "PromptSet":
        """Fresh trainable leaves holding ``fn`` of each array."""
        return PromptSet(*[[Tensor(fn(t.data), True, t.name) for t in ts]
                           for ts in (self.tokens, self.queries)])

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

    def _block(self, prompt: Tensor, state: Tensor, idx: int, cls_only: bool) -> Tensor:
        """One pre-LN block over the shared (K, d) ``prompt`` rows and the
        (B, n, d) ``state`` rows, returning the new state rows (CLS alone
        when ``cls_only``). The attention sublayer is one
        ``prompted_attention`` node: keys and values come from every
        row, queries only from the returned ones. The MLP sublayer is
        one ``_mlp`` node on the returned rows."""
        attention, w1, w2 = self._layer_consts[idx]
        rows = T.prompted_attention(prompt, state, *attention, self.config.heads, cls_only)
        return _mlp(rows, w1, w2)

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

        # The CLS and patch rows: everything but the prompt block.
        cls_rows = np.broadcast_to(self._cls_row, data.shape[:-2] + (1, cfg.embed_dim))
        state = Tensor(np.concatenate([cls_rows, data], axis=-2))
        used = prompts.tokens[0]
        history = [used]
        for layer in range(1, cfg.layers + 1):
            last = layer == cfg.layers
            state = self._block(used, state, layer - 1, cls_only=last)
            if last:
                break
            used = prompts.tokens[layer]
            if cdfp_enabled:
                used = apply_cross_layer(used, history, prompts.queries[layer - 1])
            history.append(used)

        return _head(state, self._out_proj)


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
    rows, inv = T.layernorm(state.data.reshape(state.shape[:-2] + state.shape[-1:]))
    out, norm = _unit(rows @ out_proj)

    def vjp(g):
        g_rows = _unit_vjp(g, out, norm) @ out_proj.swapaxes(-1, -2)
        return (_ln_vjp(g_rows, rows, inv).reshape(state.shape),)

    return _node(out, (state,), vjp, "encoder_head")
