"""The benchmark's workloads: fixed federation configs, keyed by name.

Plain data, so the parent process can read it without importing numpy.
Every workload uses table1's tuning (``lr=2e-3``) and the default data
sizes (5 clients, n_train=4000, alpha=0.5, batch 16, 50 refinement
steps at batch 32, n_val = n_test = 400); the workload seed becomes
``master_seed``.
"""

from __future__ import annotations

TUNING = {"lr": 2e-3}

WORKLOADS = {
    # The paper's headline table1 cell and the only workload on which
    # every layer does real work: 19-row sequences, arithmetic-bound.
    "fvlfp-synth": {"method": "fvlfp", "rounds": 1, "ingest": False},
    # table1's other cell on the same data. Crosslayer, the debias
    # projection and fairness loss, scored fusion and refinement never
    # run, so an optimisation of those layers must show no change here.
    "fedavg-synth": {"method": "fedavg_baseline", "rounds": 1, "ingest": False},
    # fvlfp on gen-data embedding files: one feature row per sample, so
    # 4-row sequences, the same tape-node count and per-kernel Python
    # overhead dominating; set-up parses text instead of drawing pixels.
    "fvlfp-ingest": {"method": "fvlfp", "rounds": 2, "ingest": True},
}

# A tiny configuration for trying the benchmark by hand in seconds.
SMOKE = {"rounds": 1, "n_train": 200, "n_val": 40, "n_test": 40, "refine_steps": 5}

# Span names a traced run must record on every workload ...
REQUIRED_SPANS = (
    "harness.run_experiment",
    "federation.run_federation",
    "federation.load_splits",
    "federation.client_update",
    "federation.evaluate_prompts",
    "tensor.backward",
    "tensor.matmul",
    "tensor.softmax",
    "tensor.layernorm",
    "tensor.gelu",
    "encoder.encode_image",
    "debias.task_loss",
    "optim.adamw_step",
    "metrics.confusion_by_group",
    "data.dirichlet_partition",
    "report.emit_report",
)
# ... those only the fvlfp pipeline runs ...
FVLFP_SPANS = (
    "crosslayer.apply_cross_layer",
    "debias.project_out",
    "debias.fairness_loss",
    "svd.top_right_singular_vectors",
    "federation.server_refine",
    "federation.refinement_loss",
)
# ... and those the data source decides.
SYNTH_SPANS = ("encoder.embed_patches", "data.generate_synthetic")
INGEST_SPANS = ("data.load_embeddings",)


def expected_spans(name: str) -> tuple[set[str], set[str]]:
    """(spans that must appear, spans that must not) in a traced run."""
    spec = WORKLOADS[name]
    required = set(REQUIRED_SPANS)
    forbidden: set[str] = set()
    if spec["method"] == "fvlfp":
        required.update(FVLFP_SPANS)
    else:
        forbidden.update(FVLFP_SPANS)
    if spec["ingest"]:
        required.update(INGEST_SPANS)
        forbidden.update(SYNTH_SPANS)
    else:
        required.update(SYNTH_SPANS)
        forbidden.update(INGEST_SPANS)
    return required, forbidden
