"""Walk one image through the frozen encoder with learnable prompts.

The backbone never trains. All adaptation lives in a small stack of
prompt tokens, one block per transformer layer, plus per-layer query
vectors that mix the current block with an attention-weighted pool of
every earlier layer's prompts. That pooling is the cross-layer part:
deep layers get to re-read what shallow prompts expressed.
"""

import numpy as np

from fedfairprompt import (
    CLASS_TEMPLATES,
    EncoderConfig,
    PromptSet,
    SyntheticSpec,
    VisionEncoder,
    generate_synthetic,
)

cfg = EncoderConfig(seed=7)
enc = VisionEncoder(cfg)
print(f"backbone: {cfg.layers} layers, dim {cfg.embed_dim}, hash {enc.backbone_hash()[:16]}...")

data = generate_synthetic(SyntheticSpec(n=4, seed=0))
rows = enc.embed_patches(data.features)
print("patch rows:", rows.shape, "(batch, tokens, dim)")

prompts = PromptSet.initialize(cfg, seed=42)
print(f"prompt stack: {len(prompts.tokens)} layers x {prompts.token_count} tokens,"
      f" {sum(t.data.size for t in prompts.tokens) + sum(q.data.size for q in prompts.queries)} trainable floats")

# Forward pass returns one embedding per image: the final CLS row,
# layer-normed and projected into the shared text space.
emb = enc.encode_image(rows, prompts)
print("image embedding:", emb.shape, "(batch, dim)")

# The embedding is unit length: similarity against text rows is cosine.
print("embedding norms:", np.linalg.norm(emb.data, axis=-1).round(6))

# Text side: each class name becomes one fixed unit row.
class_rows = np.stack([enc.encode_text(t) for t in CLASS_TEMPLATES])
logits = emb.data @ class_rows.T
print("\ncosine logits vs class rows:")
for i, row in enumerate(logits):
    print(f"  image {i}: {row.round(4)}  label={data.labels[i]}")

# Prompts are the only thing that moves. Nudge one shallow token and
# watch the embedding respond; the backbone weights are untouched.
# (The nudge must vary across dims: every layer opens with a layernorm,
# so a row-constant shift would be invisible downstream.)
before = emb.data.copy()
prompts.tokens[0].data[0] += np.random.Generator(np.random.PCG64(1)).standard_normal(cfg.embed_dim)
after = enc.encode_image(rows, prompts)
print("\nembedding shift after editing one layer-0 token:",
      float(np.abs(after.data - before).max()))
print("backbone hash unchanged:", enc.backbone_hash()[:16] + "...")

# cdfp_enabled=False switches the pooling off: each layer reads only
# its own block.
no_pool = enc.encode_image(rows, prompts, cdfp_enabled=False)
print("pooled vs unpooled differ:",
      bool(np.abs(after.data - no_pool.data).max() > 1e-9))
