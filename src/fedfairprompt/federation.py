"""Federated round orchestration.

One round: broadcast the global prompt set, run local prompt tuning on
every client shard, evaluate each client's result on the server's
balanced validation split, fuse the client prompts (fairness-score
weighted under FPF, equal weights otherwise), refine the fused prompts
on the server under FPF, then evaluate the new global prompts on the
held-out test set.

The frozen half of the pipeline is one :class:`PromptedModel`, built
from a config by ``PromptedModel.for_config``: the encoder (with its
class text rows), the demographic subspace under DSOP, and the CDFP
switch. Every stage takes that object plus the prompt set it adapts.

All randomness is derived from (master_seed, purpose, round, client),
so any execution order of the per-client work produces identical
results.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from . import tensor as T
from .tensor import (NonFiniteError, Tensor, _ensure_finite, _log_softmax, _log_softmax_vjp,
                     _node, _softmax_vjp, _unit, _unit_vjp)
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
from .encoder import GROUP_TEMPLATES, TEMPERATURE, EncoderConfig, PromptSet, VisionEncoder
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
from .optim import adamw_step
from .report import FairnessReport, RoundRecord

# Samples per eval chunk. On one BLAS thread a 400-sample eval took as
# long at 64 as at 400 samples per chunk, on 16 patch rows and on one
# feature row; 16-sample chunks of feature rows took 1.8x as long, and
# one 400-sample chunk of them raised peak RSS by 3 MB (5%).
_EVAL_CHUNK = 64

# Sequence rows (CLS, prompt, patch) in one stacked walk: 2 synth clients,
# 10 ingest. At 13 KB of tape a row, the walks set fvlfp-synth's peak
# RSS: 84.9 MB at 2 synth clients, 88.6 at 3 and 95.7 at 5.
_STACK_ROWS = 640

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
    """One client's rows of the embedded training split.

    Every shard of a run holds the same read-only ``features`` (n, rows,
    d), ``labels`` and ``groups`` arrays of the one split, and its own
    sorted ``index`` into them, so the split's rows are never copied.
    """

    client_id: int
    features: np.ndarray
    labels: np.ndarray
    groups: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class PromptedModel:
    """The frozen pipeline a prompt set adapts.

    ``cdfp_enabled`` turns on cross-layer prompt mixing; ``subspace`` is
    the demographic subspace embeddings are debiased against, or None
    when DSOP is off. Nothing here is ever trained.
    """

    encoder: VisionEncoder
    subspace: DemographicSubspace | None = None
    cdfp_enabled: bool = True

    @classmethod
    def for_config(cls, config: Config) -> "PromptedModel":
        """The frozen model a run of ``config`` adapts."""
        encoder = VisionEncoder(encoder_config(config))
        subspace = (build_subspace(encoder, GROUP_TEMPLATES, k=config.subspace_rank)
                    if config.dsop_enabled else None)
        return cls(encoder, subspace, config.cdfp_enabled)

    def embed(self, prompts: PromptSet, rows: np.ndarray) -> tuple[Tensor, Tensor]:
        """Unit image embeddings and their debiased part, (z, z_debiased).

        Without a subspace ``z_debiased`` is ``z`` itself.
        """
        z = self.encoder.encode_image(rows, prompts, cdfp_enabled=self.cdfp_enabled)
        if self.subspace is None:
            return z, z
        return z, project_out(z, self.subspace)

    def local_loss(self, prompts: PromptSet, rows: np.ndarray, targets: np.ndarray,
                   mu: float, lam1: float) -> Tensor:
        """Client objective: the contrastive task loss, plus ``lam1``
        times the fairness hinge when a subspace is set."""
        z, z_debiased = self.embed(prompts, rows)
        task = task_loss(z_debiased, z, targets, TEMPERATURE)
        if self.subspace is None:
            return task
        return joint_loss(task, fairness_loss(z_debiased, self.subspace, mu), lam1)

    def trainable(self, prompts: PromptSet) -> list[Tensor]:
        """The prompt leaves that receive gradient under this model: the
        token blocks, then the mixing queries when cross-layer mixing runs."""
        return prompts.tokens + (prompts.queries if self.cdfp_enabled else [])


def predict(model: PromptedModel, prompts: PromptSet, features: np.ndarray) -> np.ndarray:
    """Class predictions by nearest class template in embedding space.

    Prediction runs on the same debiased embedding the training loss
    sees. The argmax over fixed unit text rows is scale invariant, so
    the debiased embedding needs no re-normalization. Raises
    NonFiniteError on a non-finite embedding, or on an overflow on the
    way to it, which layernorm would otherwise turn into finite zeros.
    """
    # Constant views of the prompts, so the forward records no tape.
    frozen = PromptSet([Tensor(t.data, name=t.name) for t in prompts.tokens],
                       [Tensor(q.data, name=q.name) for q in prompts.queries])
    preds = []
    with np.errstate(over="raise"):
        for lo in range(0, features.shape[0], _EVAL_CHUNK):
            try:
                _, z = model.embed(frozen, features[lo : lo + _EVAL_CHUNK])
            except FloatingPointError as exc:
                raise NonFiniteError(f"eval embeddings: {exc}") from None
            _ensure_finite(z.data, "eval embeddings")
            preds.append(np.argmax(z.data @ model.encoder.class_text.T, axis=1))
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
        f_global=eod_global([conf]),
    )
    return record, conf


def score_from_record(record: MetricRecord) -> float:
    """Fusion score: balanced accuracy times one minus the equalized-odds
    gap. Both factors lie in [0, 1], so the score does too."""
    return record.a_b * (1.0 - record.phi_eq)


def _fit(model: PromptedModel, prompts: PromptSet, loss, schedules, lr: float,
         who: list[str], per_walk: int = 1) -> dict[int, str]:
    """AdamW in place, from fresh moments, on one prompt set or on one per
    schedule stacked on a leading axis. Member i takes a step per ``(where,
    batch)`` of ``schedules[i]``; at each step, runs of consecutive members
    whose batches share a shape go in groups of at most ``per_walk``
    through one ``loss(group_prompts, [(member, batch), ...])`` on a slice
    of the stack, one backward from its sum and one ``adamw_step`` on views
    of the slice's leaves and their moments. A member whose forward
    overflows, or whose loss or gradient is not finite, stops: a failed
    group replays the step member by member, so each error names
    ``who[i]`` and ``where`` as a lone run would. Returns those errors.
    """
    params = [p.data for p in model.trainable(prompts)]
    m, v = [np.zeros_like(a) for a in params], [np.zeros_like(a) for a in params]
    errors: dict[int, str] = {}

    def run(step: int, group: list[int]) -> None:
        sel = ... if len(group) == len(schedules) else slice(group[0], group[-1] + 1)
        ps = prompts if sel is ... else prompts.map(lambda a: a[sel])
        try:
            with np.errstate(over="raise"):
                value = loss(ps, [(i, schedules[i][step][1]) for i in group])
            reached = T.backward(value)
        except FloatingPointError as exc:  # NonFiniteError included
            if len(group) > 1:
                for i in group:
                    run(step, [i])
            else:
                errors[group[0]] = f"{who[group[0]]}: {exc} {schedules[group[0]][step][0]}"
            return
        adamw_step([a[sel] for a in params], [reached[p] for p in model.trainable(ps)],
                   [a[sel] for a in m], [a[sel] for a in v], step + 1, lr)

    # An overflow in the forward raises: layernorm would turn it into
    # finite zeros. backward rejects a diverging gradient by name.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max(map(len, schedules))):
            shapes = [np.shape(s[step][1]) if i not in errors and step < len(s) else None
                      for i, s in enumerate(schedules)]
            for shape, run_of in groupby(range(len(schedules)), key=shapes.__getitem__):
                members = list(run_of) if shape is not None else []
                for lo in range(0, len(members), per_walk):
                    run(step, members[lo : lo + per_walk])
    return errors


def client_update(
    *shards: ClientShard,
    model: PromptedModel,
    prompts: PromptSet,
    val: Dataset,
    round_index: int,
    config: Config,
) -> list[tuple[PromptSet, MetricRecord, GroupConfusion]]:
    """Local prompt tuning of every shard from the broadcast prompts, in
    lockstep (see ``_fit``): one pass of AdamW on the joint objective over
    each shard, shuffled by ``client_stream(master_seed, round_index,
    client_id)``, from fresh moments (fusion invalidated the old ones),
    then an eval on ``val``. Returns (prompts, record, confusion) per
    shard, in order, each bit-identical to a call with that shard alone.
    A failure raises the error a serial pass over the shards would raise.
    """
    # largest first; a stable sort keeps equal shards in order
    ranked = sorted(shards, key=lambda shard: -shard.index.size)
    stacked = prompts.map(lambda a: np.stack([a] * len(ranked)))
    size = config.batch_size
    # each batch's shard positions, mapped to rows of the shared split
    orders = [s.index[client_stream(config.master_seed, round_index, s.client_id).permutation(
        s.index.size)] for s in ranked]
    schedules = [[(f"(batch offset {lo})", o[lo : lo + size]) for lo in range(0, o.size, size)]
                 for o in orders]

    def loss(ps, picks):
        rows = np.stack([ranked[i].features[b] for i, b in picks])
        targets = model.encoder.class_text[np.stack([ranked[i].labels[b] for i, b in picks])]
        return model.local_loss(ps, rows, targets, config.mu, config.lambda1)

    seq_rows = size * (1 + prompts.token_count + shards[0].features.shape[1])
    who = [f"client {s.client_id}" for s in ranked]
    errors = _fit(model, stacked, loss, schedules, config.lr, who, max(1, _STACK_ROWS // seq_rows))
    updates = []
    for shard in shards:
        i = [s is shard for s in ranked].index(True)
        if i in errors:  # a serial pass stops here, after the clients before
            raise FederationError(errors[i])
        tuned = stacked.map(lambda a: a[i])
        updates.append((tuned, *evaluate_prompts(model, tuned, val)))
    return updates


def fusion_weights(scores) -> np.ndarray:
    """Normalize non-negative scores to fusion weights, which sum to 1
    up to rounding (0.3, 0.3, 0.3, 0.1 gives 1.0000000000000002). Takes
    one or more scores, each finite and in [0, 1]; all zero raises."""
    s = np.asarray(scores, dtype=np.float64)
    total = float(s.sum())
    if total <= 0.0:
        raise ValueError("degenerate federation: every client score is zero")
    return s / total


def fuse_prompts(prompt_sets: list[PromptSet], weights) -> PromptSet:
    """Weighted elementwise sum of client prompt sets.

    ``weights`` come from :func:`fusion_weights`, one per set, used as given.
    """
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
    must contain both groups or the gap term is undefined. Under DSOP
    the debiased rows are re-normalized to unit norm inside the node.
    """
    groups = np.asarray(groups)
    masks = []
    for g in (0, 1):
        sel = (groups == g).astype(np.float64)
        masks.append(sel / float(sel.sum()))
    z, z_debiased = model.embed(prompts, features)
    emb, norm = (z.data, None) if z_debiased is z else _unit(z_debiased.data)
    inv_t, lam2, class_text = 1.0 / TEMPERATURE, float(lam2), model.encoder.class_text
    rows, labels = np.arange(emb.shape[0]), np.asarray(labels, dtype=np.int64)
    logits = (emb @ class_text.T) * inv_t
    logp = _log_softmax(logits, 1)
    probs = T.softmax(logits)
    correct = probs[rows, labels]
    gap = np.add.reduce(correct * masks[0]) - np.add.reduce(correct * masks[1])
    nll = -(np.add.reduce(logp[rows, labels]) / rows.size)

    def vjp(g):
        g_gap = g * lam2 * np.sign(gap)
        g_probs, g_logp = np.zeros_like(probs), np.zeros_like(logp)
        g_probs[rows, labels] = g_gap * masks[0] + (-g_gap) * masks[1]
        g_logp[rows, labels] = -g * (1.0 / rows.size)
        g_logits = _log_softmax_vjp(g_logp, logp, 1) + _softmax_vjp(g_probs, probs)
        g_emb = (g_logits * inv_t) @ class_text
        return (g_emb if norm is None else _unit_vjp(g_emb, emb, norm),)

    return _node(nll + np.abs(gap) * lam2, (z_debiased,), vjp, "refinement_loss")


def server_refine(
    model: PromptedModel,
    prompts: PromptSet,
    val: Dataset,
    rng: np.random.Generator,
    config: Config,
) -> PromptSet:
    """Polish fused prompts on the validation split.

    Runs ``config.refine_steps`` AdamW steps on ``refinement_loss`` over
    group-balanced batches, so the gap term is always defined: each
    draws ``refine_batch // 2`` rows per group (one row fewer in all for
    an odd value), or fewer if a group of ``val`` is smaller.
    ``load_splits`` puts both groups in ``val``.
    """
    refined = prompts.copy()
    group_rows = [np.flatnonzero(val.groups == g) for g in (0, 1)]
    per = min(config.refine_batch // 2, group_rows[0].size, group_rows[1].size)

    def loss(ps, picks):
        idx = picks[0][1]
        return refinement_loss(model, ps, val.features[idx], val.labels[idx], val.groups[idx],
                               config.lambda2)

    batches = [
        (f"at step {step}",
         np.concatenate([rng.choice(rows, size=per, replace=False) for rows in group_rows]))
        for step in range(config.refine_steps)
    ]
    errors = _fit(model, refined, loss, [batches], config.refine_lr, ["server refinement"])
    if errors:
        raise FederationError(errors[0])
    return refined


def encoder_config(config: Config) -> EncoderConfig:
    """The frozen encoder's seed, MLP ratio and prompt count under ``config``."""
    return EncoderConfig(seed=config.encoder_seed, mlp_ratio=config.mlp_ratio,
                         prompt_tokens=config.prompt_tokens)


def _load_split(config: Config, name: str) -> Dataset:
    """One ingested split, rejected up front if no run could use it."""
    path = os.path.join(config.data_dir, f"{name}.emb")
    data = load_embeddings(path)
    dim, want = data.features.shape[2], EncoderConfig.embed_dim
    if dim != want:
        raise ValueError(f"{path}: embedding dim {dim} != encoder embed_dim {want}")
    if name == "train" and len(data) < config.clients:
        raise ValueError(f"{path}: {len(data)} rows cannot cover {config.clients} clients")
    empty = [(y, g) for y in (0, 1) for g in (0, 1) if not data.cell_indices(y, g).size]
    if name != "train" and empty:
        raise ValueError(f"{path}: no rows in (label, group) cells {empty}")
    return data


def load_splits(config: Config, encoder: VisionEncoder | None = None
                ) -> tuple[Dataset, Dataset, Dataset]:
    """Resolve (train, val, test) from data_dir files or synthetic draws.

    Ingested files are checked before any run starts: the embedding dim
    must match the encoder, train must cover the clients, and val and
    test must hold every (label, group) cell. The error names the file.
    With an ``encoder``, synthetic splits come back as patch rows,
    embedded block by block as they are drawn; without one, as pixels.
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
        seed=derive_seed(master, _SEED_TRAIN),
    )
    embed = None if encoder is None else encoder.embed_patches
    train = generate_synthetic(spec, embed)
    # evaluation pools are generated unbiased (rho=0): pixel content given
    # (y, g) does not depend on rho, and a biased pool starves the
    # minority cells that balanced sampling needs
    splits = []
    for n, pool_tag, pick_tag in (
        (config.n_val, _SEED_VAL_POOL, _SEED_VAL_PICK),
        (config.n_test, _SEED_TEST_POOL, _SEED_TEST_PICK),
    ):
        pool = generate_synthetic(
            replace(spec, n=2 * n, spurious_strength=0.0, seed=derive_seed(master, pool_tag)),
            embed,
        )
        picked = balanced_test_sample(pool, n, seed=derive_seed(master, pick_tag))
        splits.append(pool.subset(picked))
    val, test = splits
    return train, val, test


# glibc's mallopt parameter numbers (malloc.h), and the value both get
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_PINNED_THRESHOLD = 32 * 2**20


def pin_allocator() -> None:
    """Fix the C allocator's mmap and trim thresholds at 32 MiB.

    glibc raises both on the fly when the process frees a large mmapped
    chunk, and that decides whether each walk's temporaries go back to
    the kernel and fault in again. Pinned, a run allocates the same way
    whatever set-up happened to free before it. A silent no-op where
    the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _PINNED_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _PINNED_THRESHOLD)


def run_federation(config: Config) -> FairnessReport:
    """Full multi-round run; returns the complete (or flagged) report."""
    pin_allocator()
    model = PromptedModel.for_config(config)
    backbone_hash = model.encoder.backbone_hash()
    train, val, test = load_splits(config, model.encoder)
    partition = dirichlet_partition(
        train, config.clients, config.alpha, seed=derive_seed(config.master_seed, _SEED_PARTITION)
    )
    shards = [ClientShard(i, train.features, train.labels, train.groups, idx)
              for i, idx in enumerate(partition)]

    global_prompts = PromptSet.initialize(
        model.encoder.config, seed=derive_seed(config.master_seed, _SEED_PROMPTS)
    )
    initial_record, _ = evaluate_prompts(model, global_prompts, test)
    rounds = [RoundRecord(0, [], [], [], initial_record)]
    failure = ""
    try:
        for round_index in range(1, config.rounds + 1):
            updates = client_update(*shards, model=model, prompts=global_prompts, val=val,
                                    round_index=round_index, config=config)
            client_prompts, client_records, client_confs = map(list, zip(*updates))
            scores = [score_from_record(rec) for rec in client_records]
            weights = fusion_weights(scores if config.fpf_enabled else [1.0] * len(shards))
            fused = fuse_prompts(client_prompts, weights)
            if config.fpf_enabled:
                rng = _stream(config.master_seed, _SEED_REFINE, round_index)
                fused = server_refine(model, fused, val, rng, config)
            global_eval, _ = evaluate_prompts(model, fused, test)
            cross_f = eod_global(client_confs)
            rounds.append(
                RoundRecord(
                    round=round_index,
                    client_records=client_records,
                    scores=scores,
                    weights=[float(w) for w in weights],
                    global_record=replace(global_eval, f_global=cross_f),
                )
            )
            global_prompts = fused
    except (FederationError, NonFiniteError, ValueError) as exc:
        # every in-round failure ends the run with the finished rounds kept
        failure = f"round {round_index}: {exc}"
    return FairnessReport(
        config=config,
        backbone_hash=backbone_hash,
        rounds=rounds,
        prompts=global_prompts.to_arrays(),
        failure=failure,
    )
