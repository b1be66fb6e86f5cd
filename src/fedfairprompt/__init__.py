"""Deterministic desk-scale simulator for fairness-aware federated
prompt tuning of a frozen toy vision-language encoder.

The pipeline couples three pieces: prompt tokens threaded through every
encoder layer with attention-weighted pooling of their history, a
demographic text subspace that embeddings are projected away from, and
validation-scored prompt fusion with a short fairness-regularized
server refinement. Everything downstream of a master seed is
reproducible bit for bit.
"""

from __future__ import annotations

# numpy loads numpy.random on first use; load it here so that a run's
# set-up never pays for the import.
import numpy.random  # noqa: F401

from .config import (
    METHODS,
    Config,
    config_hash,
    config_lines,
    parse_config,
)
from .data import (
    Dataset,
    SyntheticSpec,
    balanced_test_sample,
    dirichlet_partition,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)
from .debias import (
    DemographicSubspace,
    build_subspace,
    fairness_loss,
    joint_loss,
    project_out,
    task_loss,
)
from .encoder import (
    CLASS_TEMPLATES,
    GROUP_TEMPLATES,
    EncoderConfig,
    PromptSet,
    VisionEncoder,
)
from .federation import (
    ClientShard,
    FederationError,
    PromptedModel,
    client_update,
    evaluate_prompts,
    fuse_prompts,
    fusion_weights,
    load_splits,
    refinement_loss,
    run_federation,
    server_refine,
)
from .harness import PRESETS, grid_table, run_experiment, run_preset, sweep
from .metrics import (
    GroupConfusion,
    MetricRecord,
    accuracy_gap,
    balanced_accuracy,
    confusion_by_group,
    demographic_parity,
    eod_global,
    equalized_odds,
)
from .report import FairnessReport, RoundRecord, emit_report

__version__ = "0.1.0"
