"""Frozen toy vision-language encoder with trainable prompt blocks.

A seeded, never-trained ViT-style image tower and a hash-embedding text
tower stand in for a pretrained dual encoder so the pipeline around
them stays cheap and exactly reproducible. The only trainable state is
a :class:`PromptSet`: one (K, d) prompt block per transformer layer
plus the per-layer mixing queries. Each layer's input prompt slice is
its own block (the blocks written by the transformer itself are not
re-fed), optionally refined by the cross-layer residual before entry.

A block's input sequence is laid out as [K prompt rows, CLS, J patch
rows]. Keys and values come from every row, but each block computes
queries, the output projection and the MLP only for the rows the next
step reads: CLS and the patch rows in blocks 1..L-1, CLS alone in the
last block. The prompt rows a block would write are never computed,
so the splice into the next block is one concat of the new prompt
block onto the kept rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .crosslayer import apply_cross_layer
from .tensor import Tensor

__all__ = [
    "EncoderConfig",
    "FrozenBackbone",
    "PromptSet",
    "PromptTemplates",
    "VisionEncoder",
    "build_prompt_templates",
]


@dataclass(frozen=True)
class EncoderConfig:
    """Shapes and constants of the frozen encoder."""

    embed_dim: int = 32
    layers: int = 4
    heads: int = 4
    image_size: int = 32
    patch_size: int = 8
    prompt_tokens: int = 2
    temperature: float = 0.07
    seed: int = 7
    mlp_ratio: int = 2

    def __post_init__(self):
        if self.embed_dim < 1 or self.layers < 1 or self.heads < 1:
            raise ValueError("embed_dim, layers and heads must be positive")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"patch size {self.patch_size} does not tile image size {self.image_size}"
            )
        if self.prompt_tokens < 0:
            raise ValueError("prompt_tokens must be >= 0")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def patch_count(self) -> int:
        side = self.image_size // self.patch_size
        return side * side

    @property
    def patch_pixels(self) -> int:
        return self.patch_size * self.patch_size


class FrozenBackbone:
    """Seeded weight bank for the image and text towers; never trained."""

    def __init__(self, config: EncoderConfig):
        self.config = config
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
                    "ln1_g": np.ones(d),
                    "ln1_b": np.zeros(d),
                    "wq": rng.standard_normal((d, d)) * scale,
                    "wk": rng.standard_normal((d, d)) * scale,
                    "wv": rng.standard_normal((d, d)) * scale,
                    "wo": rng.standard_normal((d, d)) * scale,
                    "ln2_g": np.ones(d),
                    "ln2_b": np.zeros(d),
                    "w1": rng.standard_normal((d, hidden)) * scale,
                    "b1": np.zeros(hidden),
                    "w2": rng.standard_normal((hidden, d)) * hidden**-0.5,
                    "b2": np.zeros(d),
                }
            )
        self.lnf_g = np.ones(d)
        self.lnf_b = np.zeros(d)
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
        yield self.lnf_g
        yield self.lnf_b
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
    """

    tokens: list[Tensor]
    queries: list[Tensor]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("PromptSet needs at least one token block")
        shape = self.tokens[0].shape
        if len(shape) != 2:
            raise ValueError(f"token blocks must be (K, d), got {shape}")
        for t in self.tokens:
            if t.shape != shape:
                raise ValueError("all token blocks must share one shape")
        if len(self.queries) != len(self.tokens) - 1:
            raise ValueError(
                f"{len(self.tokens)} blocks need {len(self.tokens) - 1} queries, "
                f"got {len(self.queries)}"
            )
        for q in self.queries:
            if q.shape != (shape[1],):
                raise ValueError(f"query shape {q.shape} != ({shape[1]},)")

    @property
    def token_count(self) -> int:
        return self.tokens[0].shape[0]

    @property
    def dim(self) -> int:
        return self.tokens[0].shape[1]

    @property
    def depth(self) -> int:
        return len(self.tokens)

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
        for name, t in self.parameters().items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"array for '{name}' has shape {arr.shape}, expected {t.shape}")
            t.data = arr.copy()

    def copy(self) -> "PromptSet":
        return PromptSet(
            tokens=[Tensor(t.data.copy(), trainable=True, name=t.name) for t in self.tokens],
            queries=[Tensor(q.data.copy(), trainable=True, name=q.name) for q in self.queries],
        )


@dataclass(frozen=True)
class PromptTemplates:
    """Natural-language templates for task classes and demographic groups."""

    class_templates: list[str]
    group_templates: list[str]


_TASK_TEMPLATES = {
    "smiling": [
        "a photo of a person who is smiling",
        "a photo of a person who is not smiling",
    ],
    "age": [
        "a photo of a young person",
        "a photo of a older person",
    ],
}

_ATTRIBUTE_TEMPLATES = {
    "gender": ["a photo of a man", "a photo of a woman"],
    "age": ["a photo of a young person", "a photo of a older person"],
}


def build_prompt_templates(task: str, attribute: str) -> PromptTemplates:
    """Fixed template strings; class/group index i maps to list entry i."""
    if task not in _TASK_TEMPLATES:
        raise ValueError(f"unknown task '{task}'; expected one of {sorted(_TASK_TEMPLATES)}")
    if attribute not in _ATTRIBUTE_TEMPLATES:
        raise ValueError(
            f"unknown attribute '{attribute}'; expected one of {sorted(_ATTRIBUTE_TEMPLATES)}"
        )
    return PromptTemplates(
        class_templates=list(_TASK_TEMPLATES[task]),
        group_templates=list(_ATTRIBUTE_TEMPLATES[attribute]),
    )


class VisionEncoder:
    """Frozen dual encoder plus the prompt-threading forward pass."""

    def __init__(self, config: EncoderConfig, backbone: FrozenBackbone | None = None):
        self.config = config
        self.backbone = FrozenBackbone(config) if backbone is None else backbone
        b = self.backbone
        # Pre-wrapped frozen constants reused across forward passes. The
        # attention scale is folded into the query weights once, and
        # all-zero bias vectors are marked so their adds can be skipped.
        head_dim = config.embed_dim // config.heads
        self._cls_row = (b.cls + b.pos[0]).reshape(1, -1)
        self._patch_pos = b.pos[1:]
        self._layer_consts = []
        self._bias_nonzero = []
        for layer in b.layers:
            consts = {k: Tensor(v) for k, v in layer.items()}
            consts["wq_scaled"] = Tensor(layer["wq"] * head_dim**-0.5)
            self._layer_consts.append(consts)
            self._bias_nonzero.append(
                (bool(np.any(layer["b1"])), bool(np.any(layer["b2"])))
            )
        self._lnf_g = Tensor(b.lnf_g)
        self._lnf_b = Tensor(b.lnf_b)
        self._out_proj = Tensor(b.out_proj)

    # -- frozen towers ------------------------------------------------

    def backbone_hash(self) -> str:
        return self.backbone.content_hash()

    def embed_patches(self, images: np.ndarray) -> np.ndarray:
        """Affine patch embedding: (B, H, W) pixels -> (B, J, d) rows."""
        imgs = np.asarray(images, dtype=np.float64)
        size, patch = self.config.image_size, self.config.patch_size
        if imgs.ndim != 3 or imgs.shape[1:] != (size, size):
            raise ValueError(f"expected (B, {size}, {size}) images, got {imgs.shape}")
        grid = size // patch
        n = imgs.shape[0]
        rows = (
            imgs.reshape(n, grid, patch, grid, patch)
            .transpose(0, 1, 3, 2, 4)
            .reshape(n, self.config.patch_count, self.config.patch_pixels)
        )
        return rows @ self.backbone.patch_w + self.backbone.patch_b

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
        norm = np.linalg.norm(out)
        if norm <= 1e-30:
            raise ValueError(f"degenerate text embedding for {text!r}")
        return out / norm

    # -- prompt-threaded image forward ---------------------------------

    def _block(self, seq: Tensor, idx: int, start: int, stop: int) -> Tensor:
        """One pre-LN transformer block that returns only rows [start, stop).

        Keys and values come from every row of ``seq``; the queries, the
        output projection with its residual, LN2 and the MLP are
        computed for the returned rows alone.
        """
        w = self._layer_consts[idx]
        heads = self.config.heads
        h = T.layernorm(seq, w["ln1_g"], w["ln1_b"])
        k4 = T.project_heads(h, w["wk"], heads)
        v4 = T.project_heads(h, w["wv"], heads)
        # The attention scale is pre-folded into the query weights.
        q4 = T.project_heads(T.slice_axis(h, 1, start, stop), w["wq_scaled"], heads)
        attn = T.softmax(T.matmul(q4, T.swap_axes(k4, 2, 3)), axis=-1)
        rows = T.add(T.slice_axis(seq, 1, start, stop), T.merge_heads(T.matmul(attn, v4), w["wo"]))

        b1_nonzero, b2_nonzero = self._bias_nonzero[idx]
        inner = T.matmul(T.layernorm(rows, w["ln2_g"], w["ln2_b"]), w["w1"])
        if b1_nonzero:
            inner = T.add(inner, w["b1"])
        mlp = T.matmul(T.gelu(inner), w["w2"])
        if b2_nonzero:
            mlp = T.add(mlp, w["b2"])
        return T.add(rows, mlp)

    def encode_image(
        self,
        e0: np.ndarray,
        prompts: PromptSet,
        cdfp_enabled: bool = True,
        compound: bool = True,
    ) -> Tensor:
        """Embed patch rows with prompt blocks threaded through every layer.

        ``e0`` is (B, J, d). Patch position rows are added only when the
        row count matches the configured patch grid; ingested single-row
        feature datasets carry no spatial layout. Returns the (B, d)
        unit-norm image embeddings.

        Block l reads [K prompt rows, CLS, J patch rows]: its prompt
        rows are ``prompts.tokens[l - 1]`` (mixed across layers when
        CDFP is on), and the rest is the previous block's output. Keys
        and values come from all K + 1 + J rows. Queries and the MLP
        run only on the rows the next step reads: CLS and the patch
        rows in blocks 1..L-1, CLS alone in block L.
        """
        cfg = self.config
        data = np.asarray(e0, dtype=np.float64)
        if data.ndim != 3 or data.shape[-1] != cfg.embed_dim:
            raise ValueError(f"expected (B, J, {cfg.embed_dim}) patch rows, got {data.shape}")
        if prompts.depth != cfg.layers or prompts.dim != cfg.embed_dim:
            raise ValueError(
                f"prompt set ({prompts.depth} layers, d={prompts.dim}) does not match "
                f"encoder ({cfg.layers} layers, d={cfg.embed_dim})"
            )
        batch, width = data.shape[0], data.shape[1]
        if width == cfg.patch_count:
            data = data + self._patch_pos
        k = prompts.token_count
        mix = cdfp_enabled and k > 0

        # The CLS and patch rows: everything but the prompt block.
        cls_rows = np.broadcast_to(self._cls_row, (batch, 1, cfg.embed_dim))
        state = Tensor(np.concatenate([cls_rows, data], axis=1))
        used = prompts.tokens[0]
        history = [used]
        for layer in range(1, cfg.layers + 1):
            seq = T.concat([T.tile_leading(used, batch), state], axis=1)
            last = layer == cfg.layers
            state = self._block(seq, layer - 1, k, k + 1 if last else k + 1 + width)
            if last:
                break
            base = prompts.tokens[layer]
            used = apply_cross_layer(base, history, prompts.queries[layer - 1]) if mix else base
            history.append(used if compound else base)

        cls_final = T.reshape(state, (batch, cfg.embed_dim))
        return T.l2_normalize(T.matmul(T.layernorm(cls_final, self._lnf_g, self._lnf_b), self._out_proj))
