"""Strip the demographic direction out of image embeddings.

The group watermark is so salient that image embeddings carry a strong
"which group is this" component, and any classifier reading them
inherits it. The countermeasure is geometric: embed the demographic
text prompts, keep the top directions of that small matrix, and project
every image embedding onto the orthogonal complement before scoring.
"""

import numpy as np

from fedfairprompt import (
    GROUP_TEMPLATES,
    EncoderConfig,
    PromptSet,
    SyntheticSpec,
    VisionEncoder,
    build_subspace,
    generate_synthetic,
    project_out,
)

enc = VisionEncoder(EncoderConfig(seed=7))
print("group templates:", GROUP_TEMPLATES)

sub = build_subspace(enc, GROUP_TEMPLATES, k=1)
# the share of the template rows' energy the basis captures
energy = np.linalg.norm(sub.templates @ sub.basis.T) ** 2 / np.linalg.norm(sub.templates) ** 2
print(f"subspace: rank {sub.basis.shape[0]}, dim {sub.basis.shape[1]},"
      f" retained energy {energy:.3f}")

# The basis rows are orthonormal.
gram = sub.basis @ sub.basis.T
print("basis gram matrix:\n", gram.round(12))

# Project a batch of real image embeddings.
data = generate_synthetic(SyntheticSpec(n=400, seed=3))
rows = enc.embed_patches(data.features)
prompts = PromptSet.initialize(EncoderConfig(seed=7), seed=0)
emb = enc.encode_image(rows, prompts)
clean = project_out(emb, sub)
# the part it removed: the orthogonal projection onto the basis rows
removed = (emb.data @ sub.basis.T) @ sub.basis

# Three invariants: the result is orthogonal to every basis row, the
# projector is idempotent, and the pieces add back up.
print("\nmax |basis . clean|:", float(np.abs(clean.data @ sub.basis.T).max()))
again = project_out(clean, sub)
print("idempotence gap:", float(np.abs(again.data - clean.data).max()))
print("decomposition gap:", float(np.abs((clean.data + removed) - emb.data).max()))

# The payoff: how well does a linear probe of the embedding read the
# group, before and after? Use the demographic axis itself as probe.
axis = sub.basis[0]
for name, z in (("raw", emb.data), ("projected", clean.data)):
    score = z @ axis
    g0, g1 = score[data.groups == 0], score[data.groups == 1]
    sep = abs(g0.mean() - g1.mean()) / (score.std() + 1e-12)
    print(f"{name:>9} embeddings: group separation along axis = {sep:.4f}")
