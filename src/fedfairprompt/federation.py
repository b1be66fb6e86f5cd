"""Federated round orchestration.

One round: broadcast the global prompt set, run local prompt tuning on
every client shard, evaluate each client's result on the server's
balanced validation split, fuse the client prompts (fairness-score
weighted under FPF, equal weights otherwise), refine the fused prompts
on the server under FPF, then evaluate the new global prompts on the
held-out test set.

The frozen half of the pipeline is one :class:`PromptedModel`: the
encoder, the class text rows, and the method's CDFP and DSOP switches.
Every stage takes that object plus the prompt set it adapts.

All randomness is derived from (master_seed, purpose, round, client),
so any execution order of the per-client work produces identical
results. The frozen backbone is hashed at the start and checked every
round; prompt training must never touch it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import NonFiniteError, Tensor, no_grad
from .config import Config
from .data import (
    Dataset,
    SyntheticSpec,
    balanced_test_sample,
    dirichlet_partition,
    generate_synthetic,
    load_embeddings,
)
from .debias import (
    DemographicSubspace,
    build_subspace,
    fairness_loss,
    joint_loss,
    project_out,
    task_loss,
)
from .encoder import EncoderConfig, PromptSet, VisionEncoder, build_prompt_templates
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
from .optim import adamw_init, adamw_step
from .report import FairnessReport, RoundRecord

__all__ = [
    "FederationError",
    "PromptedModel",
    "ClientShard",
    "client_update",
    "evaluate_prompts",
    "predict",
    "score_from_record",
    "fusion_weights",
    "fuse_prompts",
    "refinement_loss",
    "server_refine",
    "run_federation",
    "encoder_config",
    "load_splits",
    "derive_seed",
    "client_stream",
]

_EVAL_CHUNK = 64  # per-sample cost rises again past ~64 rows (cache pressure)

# purpose tags for seed derivation; never reuse a number
_SEED_TRAIN = 1
_SEED_TEST_POOL = 2
_SEED_VAL_POOL = 3
_SEED_TEST_PICK = 4
_SEED_VAL_PICK = 5
_SEED_PARTITION = 6
_SEED_PROMPTS = 7
_SEED_CLIENT = 8
_SEED_REFINE = 9


class FederationError(RuntimeError):
    """A round aborted; the message is the diagnostic."""


def derive_seed(master_seed: int, *tags: int) -> int:
    """Collision-resistant child seed for (master, purpose, ...) tuples."""
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint32)[0])


def _stream(master_seed: int, *tags: int) -> np.random.Generator:
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(t) for t in tags))
    return np.random.Generator(np.random.PCG64(ss))


def client_stream(master_seed: int, round_index: int, client_id: int) -> np.random.Generator:
    return _stream(master_seed, _SEED_CLIENT, round_index, client_id)


@dataclass(frozen=True)
class ClientShard:
    """One client's embedded training rows and their annotations."""

    client_id: int
    features: np.ndarray  # (n, rows, d)
    labels: np.ndarray
    groups: np.ndarray


@dataclass(frozen=True)
class PromptedModel:
    """The frozen pipeline a prompt set adapts.

    ``cdfp_enabled`` turns on cross-layer prompt mixing and ``compound``
    feeds the mixed blocks into the history; ``subspace`` is the
    demographic subspace embeddings are debiased against, or None when
    DSOP is off. Nothing here is ever trained.
    """

    encoder: VisionEncoder
    class_text: np.ndarray  # (C, d) unit rows, class index = row index
    temperature: float
    subspace: DemographicSubspace | None = None
    cdfp_enabled: bool = True
    compound: bool = True

    def embed(self, prompts: PromptSet, rows: np.ndarray) -> tuple[Tensor, Tensor]:
        """Unit image embeddings and their debiased part, (z, z_debiased).

        Without a subspace ``z_debiased`` is ``z`` itself.
        """
        z = self.encoder.encode_image(
            rows, prompts, cdfp_enabled=self.cdfp_enabled, compound=self.compound
        )
        if self.subspace is None:
            return z, z
        return z, project_out(z, self.subspace)[0]

    def local_loss(self, prompts: PromptSet, rows: np.ndarray, targets: np.ndarray,
                   mu: float, lam1: float) -> Tensor:
        """Client objective: the contrastive task loss, plus ``lam1``
        times the fairness hinge when a subspace is set."""
        z, z_debiased = self.embed(prompts, rows)
        task = task_loss(z_debiased, z, targets, self.temperature)
        if self.subspace is None:
            return task
        return joint_loss(task, fairness_loss(z_debiased, self.subspace, mu), lam1)

    def trainable(self, prompts: PromptSet) -> dict[str, Tensor]:
        """The prompt parameters that receive gradient under this model."""
        # mixing queries only receive gradient when cross-layer mixing runs
        return {
            name: p
            for name, p in prompts.parameters().items()
            if self.cdfp_enabled or name.startswith("tokens")
        }


def predict(model: PromptedModel, prompts: PromptSet, features: np.ndarray) -> np.ndarray:
    """Class predictions by nearest class template in embedding space.

    Prediction runs on the same debiased embedding the training loss
    sees. The argmax over fixed unit text rows is scale invariant, so
    the debiased embedding needs no re-normalization.
    """
    preds = []
    with no_grad():
        for lo in range(0, features.shape[0], _EVAL_CHUNK):
            _, z = model.embed(prompts, features[lo : lo + _EVAL_CHUNK])
            preds.append(np.argmax(z.data @ model.class_text.T, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def evaluate_prompts(
    model: PromptedModel, prompts: PromptSet, split: Dataset
) -> tuple[MetricRecord, GroupConfusion]:
    """All five report metrics of one prompt set on one embedded split.

    ``f_global`` here is the single-confusion specialization of the
    cross-client recall-parity aggregate (one participant).
    """
    preds = predict(model, prompts, split.features)
    conf = confusion_by_group(preds, split.labels, split.groups)
    record = MetricRecord(
        a_b=balanced_accuracy(conf),
        phi_a=accuracy_gap(conf),
        phi_demo=demographic_parity(conf),
        phi_eq=equalized_odds(conf),
        f_global=eod_global([conf])[0],
    )
    return record, conf


def score_from_record(record: MetricRecord, bias_metric: str = "eq") -> float:
    """Fusion score: balanced accuracy discounted by validation bias.

    The accuracy-gap bias lives in [0, 2], so its discount is floored
    at zero to keep scores in [0, 1].
    """
    bias = {"eq": record.phi_eq, "demo": record.phi_demo, "a": record.phi_a}[bias_metric]
    return record.a_b * max(0.0, 1.0 - bias)


def _fit(model: PromptedModel, prompts: PromptSet, steps, lr: float, who: str) -> None:
    """AdamW on ``prompts`` in place, one step per ``(where, loss_fn)``.

    ``steps`` is read lazily: each ``loss_fn`` runs before the next item
    is drawn, so a generator may draw its batches from a stream in step
    order. Moments start fresh. A non-finite value in the loss or its
    gradient raises a FederationError naming ``who`` and ``where``.
    """
    trainable = model.trainable(prompts)
    opt_state = adamw_init({k: p.data for k, p in trainable.items()})
    # Diverging prompts overflow inside the kernels; their finiteness
    # checks raise, so numpy's overflow warnings would only be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for where, loss_fn in steps:
            try:
                reached = T.backward(loss_fn())
            except NonFiniteError as exc:
                raise FederationError(f"{who}: {exc} {where}") from None
            arrays, opt_state = adamw_step(
                {k: p.data for k, p in trainable.items()},
                {k: reached[p] for k, p in trainable.items()}, opt_state, lr=lr,
            )
            for name, p in trainable.items():
                p.data = arrays[name]


def client_update(
    shard: ClientShard,
    model: PromptedModel,
    prompts: PromptSet,
    val: Dataset,
    rng: np.random.Generator,
    config: Config,
) -> tuple[PromptSet, MetricRecord, GroupConfusion]:
    """Local prompt tuning from the broadcast global prompts.

    Copies the prompts, runs ``config.local_epochs`` shuffled mini-batch
    passes of AdamW on the joint objective, then evaluates the result
    on the shared validation split. Returns the tuned prompts with
    their validation record and confusion. Optimizer moments start
    fresh each round: they describe the previous local trajectory,
    which fusion has invalidated. A non-finite value in the loss or its
    gradient aborts the round.
    """
    prompts = prompts.copy()
    targets = model.class_text[shard.labels]
    n, size = shard.labels.shape[0], config.batch_size

    def steps():
        for epoch in range(config.local_epochs):
            order = rng.permutation(n)
            for lo in range(0, n, size):
                rows = order[lo : lo + size]
                yield f"(epoch {epoch}, batch offset {lo})", lambda: model.local_loss(
                    prompts, shard.features[rows], targets[rows], config.mu, config.lambda1
                )

    _fit(model, prompts, steps(), config.lr, f"client {shard.client_id}")
    record, conf = evaluate_prompts(model, prompts, val)
    return prompts, record, conf


def fusion_weights(scores) -> np.ndarray:
    """Normalize non-negative scores to fusion weights (sum exactly 1)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if not np.isfinite(s).all() or (s < 0.0).any():
        raise ValueError("scores must be finite and >= 0")
    total = float(s.sum())
    if total <= 0.0:
        raise ValueError("degenerate federation: every client score is zero")
    return s / total


def fuse_prompts(prompt_sets: list[PromptSet], weights) -> PromptSet:
    """Weighted elementwise sum of client prompt sets.

    ``weights`` come from :func:`fusion_weights` and are used as given.
    """
    if not prompt_sets:
        raise ValueError("no prompt sets to fuse")
    if len(weights) != len(prompt_sets):
        raise ValueError(f"{len(prompt_sets)} prompt sets but {len(weights)} weights")
    fused = {name: weights[0] * arr for name, arr in prompt_sets[0].to_arrays().items()}
    for w, ps in zip(weights[1:], prompt_sets[1:]):
        for name, arr in ps.to_arrays().items():
            fused[name] = fused[name] + w * arr
    out = prompt_sets[0].copy()
    out.load_arrays(fused)
    return out


def refinement_loss(
    model: PromptedModel,
    prompts: PromptSet,
    features: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    lam2: float,
) -> Tensor:
    """Differentiable server objective on one batch.

    Classification cross-entropy against the class templates plus
    ``lam2`` times the absolute gap between the groups' mean
    correct-class probabilities (the differentiable stand-in for the
    hard accuracy gap; reports always show the hard metric). The batch
    must contain both groups or the gap term is undefined.
    """
    groups = np.asarray(groups)
    masks = []
    for g in (0, 1):
        sel = (groups == g).astype(np.float64)
        count = float(sel.sum())
        if count == 0.0:
            raise ValueError("refinement batch needs both groups")
        masks.append(Tensor(sel / count))
    z, z_debiased = model.embed(prompts, features)
    emb = z if z_debiased is z else T.l2_normalize(z_debiased)
    logits = T.scale(
        T.matmul(emb, Tensor(model.class_text.T)), 1.0 / float(model.temperature)
    )
    nll = T.scale(
        T.reduce_mean(T.take_per_row(T.log_softmax(logits, axis=1), labels)), -1.0
    )
    correct_prob = T.take_per_row(T.softmax(logits, axis=1), labels)
    group_means = [T.reduce_sum(T.mul(correct_prob, m)) for m in masks]
    gap = T.abs_value(T.sub(group_means[0], group_means[1]))
    return T.add(nll, T.scale(gap, float(lam2)))


def server_refine(
    model: PromptedModel,
    prompts: PromptSet,
    val: Dataset,
    rng: np.random.Generator,
    config: Config,
) -> PromptSet:
    """Polish fused prompts on the validation split.

    Runs ``config.refine_steps`` AdamW steps on ``refinement_loss`` over
    group-balanced batches of ``config.refine_batch`` rows, so the gap
    term is always defined.
    """
    refined = prompts.copy()
    group_rows = [np.flatnonzero(val.groups == g) for g in (0, 1)]
    if not group_rows[0].size or not group_rows[1].size:
        raise ValueError("refinement needs both groups in the validation split")
    per = min(config.refine_batch // 2, group_rows[0].size, group_rows[1].size)
    batch_groups = np.repeat(np.array([0, 1]), per)

    def steps():
        for step in range(config.refine_steps):
            idx = np.concatenate(
                [rng.choice(rows, size=per, replace=False) for rows in group_rows]
            )
            yield f"at step {step}", lambda: refinement_loss(
                model, refined, val.features[idx], val.labels[idx], batch_groups,
                config.lambda2,
            )

    _fit(model, refined, steps(), config.refine_lr, "server refinement")
    return refined


def encoder_config(config: Config) -> EncoderConfig:
    """The frozen encoder's shape and seed under ``config``."""
    return EncoderConfig(seed=config.encoder_seed, mlp_ratio=config.mlp_ratio,
                         prompt_tokens=config.prompt_tokens)


def _embedded(encoder: VisionEncoder, dataset: Dataset) -> Dataset:
    """The split as encoder-ready feature rows; feature splits pass through."""
    if dataset.kind == "features":
        return dataset
    return Dataset(encoder.embed_patches(dataset.features), dataset.labels, dataset.groups,
                   kind="features")


def _load_split(config: Config, name: str) -> Dataset:
    """One ingested split, rejected up front if no run could use it."""
    path = os.path.join(config.data_dir, f"{name}.emb")
    data = load_embeddings(path)
    dim, want = data.features.shape[2], encoder_config(config).embed_dim
    if dim != want:
        raise ValueError(f"{path}: embedding dim {dim} != encoder embed_dim {want}")
    if name == "train" and len(data) < config.clients:
        raise ValueError(f"{path}: {len(data)} rows cannot cover {config.clients} clients")
    empty = [(y, g) for y in (0, 1) for g in (0, 1) if not data.cell_indices(y, g).size]
    if name != "train" and empty:
        raise ValueError(f"{path}: no rows in (label, group) cells {empty}")
    return data


def load_splits(config: Config) -> tuple[Dataset, Dataset, Dataset]:
    """Resolve (train, val, test) from data_dir files or synthetic draws.

    Ingested files are checked before any run starts: the embedding dim
    must match the encoder, train must cover the clients, and val and
    test must hold every (label, group) cell. The error names the file.
    """
    if config.data_dir:
        return tuple(_load_split(config, name) for name in ("train", "val", "test"))
    master = config.master_seed
    spec = SyntheticSpec(
        n=config.n_train,
        label_signal=config.label_signal,
        group_signal=config.group_signal,
        noise_sigma=config.noise_sigma,
        spurious_strength=config.spurious_strength,
        minority_attenuation=config.minority_attenuation,
        group_cue_rotation=config.group_cue_rotation,
        seed=derive_seed(master, _SEED_TRAIN),
    )
    train = generate_synthetic(spec)
    # evaluation pools are generated unbiased (rho=0): pixel content given
    # (y, g) does not depend on rho, and a biased pool starves the
    # minority cells that balanced sampling needs
    splits = []
    for n, pool_tag, pick_tag in (
        (config.n_val, _SEED_VAL_POOL, _SEED_VAL_PICK),
        (config.n_test, _SEED_TEST_POOL, _SEED_TEST_PICK),
    ):
        pool = generate_synthetic(
            replace(spec, n=2 * n, spurious_strength=0.0, seed=derive_seed(master, pool_tag))
        )
        picked = balanced_test_sample(pool, n, seed=derive_seed(master, pick_tag))
        splits.append(pool.subset(picked))
    val, test = splits
    return train, val, test


def run_federation(config: Config) -> FairnessReport:
    """Full multi-round run; returns the complete (or flagged) report."""
    enc_cfg = encoder_config(config)
    encoder = VisionEncoder(enc_cfg)
    backbone_hash = encoder.backbone_hash()
    templates = build_prompt_templates(config.task, config.attribute)
    model = PromptedModel(
        encoder=encoder,
        class_text=np.stack([encoder.encode_text(s) for s in templates.class_templates]),
        temperature=enc_cfg.temperature,
        subspace=(build_subspace(encoder, templates.group_templates, k=config.subspace_rank)
                  if config.dsop_enabled else None),
        cdfp_enabled=config.cdfp_enabled,
        compound=config.cdfp_compound,
    )

    train, val, test = (_embedded(encoder, split) for split in load_splits(config))
    partition = dirichlet_partition(
        train, config.clients, config.alpha, seed=derive_seed(config.master_seed, _SEED_PARTITION)
    )
    shards = [
        ClientShard(i, train.features[idx], train.labels[idx], train.groups[idx])
        for i, idx in enumerate(partition.shards)
    ]

    global_prompts = PromptSet.initialize(
        enc_cfg, seed=derive_seed(config.master_seed, _SEED_PROMPTS)
    )
    initial_record, _ = evaluate_prompts(model, global_prompts, test)
    rounds = [RoundRecord(0, [], [], [], initial_record)]
    failure = ""
    try:
        for round_index in range(1, config.rounds + 1):
            updates = [
                client_update(shard, model, global_prompts, val,
                              client_stream(config.master_seed, round_index, shard.client_id),
                              config)
                for shard in shards
            ]
            client_prompts, client_records, client_confs = map(list, zip(*updates))
            scores = [
                score_from_record(rec, config.bias_metric) for rec in client_records
            ]
            weights = fusion_weights(scores if config.fpf_enabled else [1.0] * len(shards))
            global_prompts = fuse_prompts(client_prompts, weights)
            if config.fpf_enabled:
                rng = _stream(config.master_seed, _SEED_REFINE, round_index)
                global_prompts = server_refine(model, global_prompts, val, rng, config)
            global_eval, _ = evaluate_prompts(model, global_prompts, test)
            cross_f, excluded = eod_global(client_confs)
            if encoder.backbone_hash() != backbone_hash:
                raise FederationError("frozen backbone hash changed")
            rounds.append(
                RoundRecord(
                    round=round_index,
                    client_records=client_records,
                    scores=scores,
                    weights=[float(w) for w in weights],
                    global_record=replace(global_eval, f_global=cross_f),
                    f_global_excluded=excluded,
                )
            )
    except (FederationError, NonFiniteError, ValueError) as exc:
        # every in-round failure ends the run with the finished rounds kept
        failure = f"round {round_index}: {exc}"
    return FairnessReport(
        config=config,
        backbone_hash=backbone_hash,
        rounds=rounds,
        incomplete=bool(failure),
        failure=failure,
    )
