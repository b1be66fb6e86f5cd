"""Federated loop: seed streams, fusion oracles, local updates, refinement.

Fusion is checked against a hand-rolled weighted-sum oracle over the
raw parameter arrays, never against fuse_prompts itself. Gradient flow
through the server refinement objective goes to the shared
finite-difference oracle.
"""

import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fedfairprompt import federation
from fedfairprompt import tensor as T
from fedfairprompt.config import METHODS, Config
from fedfairprompt.data import Dataset, SyntheticSpec, generate_synthetic, save_embeddings
from fedfairprompt.debias import build_subspace, project_out
from fedfairprompt.encoder import (
    GROUP_TEMPLATES,
    EncoderConfig,
    PromptSet,
    VisionEncoder,
)
from fedfairprompt.federation import (
    ClientShard,
    FederationError,
    PromptedModel,
    client_stream,
    client_update,
    derive_seed,
    evaluate_prompts,
    fuse_prompts,
    fusion_weights,
    load_splits,
    predict,
    refinement_loss,
    run_federation,
    score_from_record,
    server_refine,
)
from fedfairprompt.metrics import MetricRecord, eod_global
from fedfairprompt.tensor import NonFiniteError, Tensor, backward

from gradcheck import assert_grads_match
import plumbing as P


@pytest.fixture(scope="module")
def enc_cfg():
    return EncoderConfig()


@pytest.fixture(scope="module")
def encoder(enc_cfg):
    return VisionEncoder(enc_cfg)


@pytest.fixture(scope="module")
def model(encoder):
    return PromptedModel(encoder)


@pytest.fixture(scope="module")
def val_split(encoder):
    data = generate_synthetic(SyntheticSpec(n=48, seed=11, spurious_strength=0.0))
    return Dataset(encoder.embed_patches(data.features), data.labels, data.groups,
                   kind="features")


def _prompt_sets(enc_cfg, n, base_seed=100):
    return [PromptSet.initialize(enc_cfg, seed=base_seed + i) for i in range(n)]


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_is_deterministic():
    assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)


def test_derive_seed_separates_tags():
    seen = {derive_seed(0, tag) for tag in range(1, 10)}
    assert len(seen) == 9
    assert derive_seed(0, 1) != derive_seed(1, 1)


def test_client_stream_reproducible_and_distinct():
    a = client_stream(7, 3, 0).permutation(20)
    b = client_stream(7, 3, 0).permutation(20)
    c = client_stream(7, 3, 1).permutation(20)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# fusion weights


def test_fusion_weights_match_normalization_oracle():
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        scores = rng.uniform(0.0, 3.0, size=rng.integers(1, 8))
        scores[0] = max(scores[0], 1e-3)  # keep the sum positive
        w = fusion_weights(scores)
        oracle = np.asarray(scores, dtype=np.float64) / np.sum(scores)
        assert np.max(np.abs(w - oracle)) <= 1e-15
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert float(w.min()) >= 0.0


def test_fusion_weights_scale_invariant():
    scores = np.array([0.2, 1.7, 0.0, 0.6])
    a = fusion_weights(scores)
    b = fusion_weights(scores * 7.3)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_fusion_weights_reject_all_zero_scores():
    with pytest.raises(ValueError, match="degenerate"):
        fusion_weights([0.0, 0.0])


# ---------------------------------------------------------------------------
# prompt fusion


def test_fuse_prompts_matches_weighted_sum_oracle(enc_cfg):
    sets = _prompt_sets(enc_cfg, 3)
    scores = [2.0, 1.0, 1.0]
    fused = fuse_prompts(sets, fusion_weights(scores)).to_arrays()
    weights = np.asarray(scores) / 4.0
    for name in sets[0].to_arrays():
        oracle = sum(w * ps.to_arrays()[name] for w, ps in zip(weights, sets))
        assert np.max(np.abs(fused[name] - oracle)) <= 1e-12, name


def test_fused_prompts_stay_in_client_envelope(enc_cfg):
    sets = _prompt_sets(enc_cfg, 4)
    rng = np.random.Generator(np.random.PCG64(9))
    fused = fuse_prompts(sets, fusion_weights(rng.uniform(0.1, 2.0, size=4))).to_arrays()
    for name in fused:
        stack = np.stack([ps.to_arrays()[name] for ps in sets])
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        assert np.all(fused[name] >= lo - 1e-12), name
        assert np.all(fused[name] <= hi + 1e-12), name


def test_fuse_prompts_rejects_a_wrong_shape(enc_cfg):
    sets = _prompt_sets(enc_cfg, 2)
    other = PromptSet.initialize(
        dataclasses.replace(enc_cfg, prompt_tokens=3), seed=0
    )
    with pytest.raises(ValueError, match="shape"):
        fuse_prompts([sets[0], other], [0.5, 0.5])


def test_fuse_prompts_leaves_inputs_untouched(enc_cfg):
    sets = _prompt_sets(enc_cfg, 2)
    before = [ps.to_arrays() for ps in sets]
    fuse_prompts(sets, [0.25, 0.75])
    for ps, snap in zip(sets, before):
        after = ps.to_arrays()
        assert all(np.array_equal(after[k], snap[k]) for k in snap)


# ---------------------------------------------------------------------------
# scoring


def test_score_from_record_product_rule():
    rec = MetricRecord(a_b=0.8, phi_a=0.1, phi_demo=0.3, phi_eq=0.5, f_global=0.2)
    assert score_from_record(rec) == pytest.approx(0.8 * 0.5)


def test_score_from_record_floors_at_zero():
    # the largest equalized-odds gap, 1, zeroes the score
    rec = MetricRecord(a_b=0.9, phi_a=0.0, phi_demo=0.0, phi_eq=1.0, f_global=0.0)
    assert score_from_record(rec) == 0.0


def test_evaluate_prompts_f_global_is_single_client_aggregate(model, val_split, enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=4)
    record, conf = evaluate_prompts(model, prompts, val_split)
    assert record.f_global == eod_global([conf])


@pytest.mark.parametrize("rows", [1, 16])
def test_predict_is_independent_of_the_eval_chunk_size(monkeypatch, model, enc_cfg, rows):
    features = np.random.default_rng(12).standard_normal((40, rows, enc_cfg.embed_dim))
    prompts = PromptSet.initialize(enc_cfg, seed=13, sigma=0.5)
    per_chunk = []
    for samples in (1, 7, 16, 40):
        monkeypatch.setattr(federation, "_EVAL_CHUNK", samples)
        per_chunk.append(predict(model, prompts, features))
    assert per_chunk[0].shape == (40,)
    assert len(set(per_chunk[0].tolist())) == 2  # both classes occur
    assert all(np.array_equal(preds, per_chunk[0]) for preds in per_chunk[1:])


# ---------------------------------------------------------------------------
# local update


def _shard(model, client_id, n, seed):
    # a shard of all n rows of its own split
    data = generate_synthetic(SyntheticSpec(n=n, seed=seed), model.encoder.embed_patches)
    return ClientShard(client_id, data.features, data.labels, data.groups, np.arange(n))


def test_client_update_is_pure_and_deterministic(model, val_split, enc_cfg):
    shards = [_shard(model, 0, 13, 30), _shard(model, 2, 24, 31)]
    prompts = PromptSet.initialize(enc_cfg, seed=6)
    before = prompts.to_arrays()
    config = Config(batch_size=8, lr=2e-3)

    def go():
        return client_update(*shards, model=model, prompts=prompts, val=val_split,
                             round_index=1, config=config)

    first, second = go(), go()
    assert len(first) == 2
    for (tuned, record, conf), (again, _, _) in zip(first, second):
        a, b = tuned.to_arrays(), again.to_arrays()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], before[k]) for k in a)
        oracle_record, oracle_conf = evaluate_prompts(model, tuned, val_split)
        assert record == oracle_record
        assert np.array_equal(conf.counts, oracle_conf.counts)
    assert all(np.array_equal(prompts.to_arrays()[k], before[k]) for k in before)


@pytest.mark.parametrize("batch_size", [1, 8, 16])
@pytest.mark.parametrize("method", METHODS)
def test_lockstep_client_update_matches_one_call_per_shard(
        enc_cfg, val_split, method, batch_size):
    # 5, 19 and 33 rows: different step counts and, at batch 8 and 16,
    # short last batches that run in their own group
    model = PromptedModel.for_config(Config(method=method))
    shards = [_shard(model, i, n, 40 + i) for i, n in enumerate((5, 19, 33))]
    prompts = PromptSet.initialize(enc_cfg, seed=41, sigma=0.5)
    config = Config(method=method, batch_size=batch_size, lr=2e-2, master_seed=3)
    common = dict(model=model, prompts=prompts, val=val_split, round_index=2, config=config)
    together = client_update(*shards, **common)
    for shard, (tuned, record, conf) in zip(shards, together):
        [(alone, alone_record, alone_conf)] = client_update(shard, **common)
        a, b = tuned.to_arrays(), alone.to_arrays()
        assert all(np.array_equal(a[k], b[k]) for k in a), (method, shard.client_id)
        assert record == alone_record
        assert np.array_equal(conf.counts, alone_conf.counts)


def test_an_index_view_trains_like_a_copy_of_its_rows(model, val_split, enc_cfg):
    # the batches read the split's rows through the shard's index, in the
    # order a copy of those rows would give them
    data = generate_synthetic(SyntheticSpec(n=40, seed=45), model.encoder.embed_patches)
    idx = np.sort(np.random.default_rng(45).choice(40, size=19, replace=False))
    view = ClientShard(1, data.features, data.labels, data.groups, idx)
    copy = ClientShard(1, data.features[idx], data.labels[idx], data.groups[idx], np.arange(19))
    common = dict(model=model, prompts=PromptSet.initialize(enc_cfg, seed=45, sigma=0.5),
                  val=val_split, round_index=1, config=Config(batch_size=8, lr=2e-2))
    [(a, a_record, _)] = client_update(view, **common)
    [(b, b_record, _)] = client_update(copy, **common)
    a, b = a.to_arrays(), b.to_arrays()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert a_record == b_record


# ---------------------------------------------------------------------------
# refinement objective


def _tiny_refine_setup():
    cfg = EncoderConfig(prompt_tokens=1)
    encoder = VisionEncoder(cfg)
    data = generate_synthetic(SyntheticSpec(n=6, seed=21, spurious_strength=0.0))
    features = encoder.embed_patches(data.features)
    groups = np.array([0, 0, 0, 1, 1, 1])
    return cfg, encoder, features, data.labels, groups


def test_refinement_loss_gradients_reach_all_prompt_parameters():
    cfg, encoder, features, labels, groups = _tiny_refine_setup()
    prompts = PromptSet.initialize(cfg, seed=8)
    subspace = build_subspace(encoder, GROUP_TEMPLATES, k=1)

    model = PromptedModel(encoder, subspace)

    def loss():
        return refinement_loss(model, prompts, features, labels, groups, lam2=0.7)

    # tau=0.07 softmax is stiff: a smaller step keeps truncation under tol
    assert_grads_match(loss, prompts.leaves, step=1e-4)


@pytest.mark.parametrize("dsop", [True, False])
def test_refinement_loss_equals_its_composition_bit_for_bit(encoder, enc_cfg, dsop):
    # The head alone, on unit-scale (B, d) rows standing in for the
    # encoder's output; refinement runs on one batch, so nothing is stacked.
    rng = np.random.default_rng(60)
    z = rng.normal(size=(12, enc_cfg.embed_dim))
    leaf = Tensor(z / np.linalg.norm(z, axis=-1, keepdims=True), trainable=True)
    subspace = build_subspace(encoder, GROUP_TEMPLATES, k=1) if dsop else None
    model = SimpleNamespace(
        encoder=encoder,
        embed=lambda _ps, _rows: (leaf, project_out(leaf, subspace) if dsop else leaf))
    labels, groups = rng.integers(0, 2, size=12), np.repeat([0, 1], 6)
    fused = refinement_loss(model, None, None, labels, groups, lam2=0.7)
    composed = P.composed_refinement_loss(model, None, None, labels, groups, lam2=0.7)
    assert np.array_equal(fused.data, composed.data)
    assert np.array_equal(backward(fused)[leaf], backward(composed)[leaf])


def _refine_config(**over):
    base = dict(lambda2=1.0, refine_lr=1e-3, refine_batch=32)
    base.update(over)
    return Config(**base)


def test_server_refine_zero_steps_is_copy(model, val_split, enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=5)
    out = server_refine(
        model, prompts, val_split, np.random.Generator(np.random.PCG64(0)),
        _refine_config(refine_steps=0),
    )
    assert out is not prompts
    a, b = prompts.to_arrays(), out.to_arrays()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_server_refine_deterministic_and_moves_prompts(model, val_split, enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=5)

    def go():
        return server_refine(
            model, prompts, val_split, np.random.Generator(np.random.PCG64(42)),
            _refine_config(refine_steps=3, refine_batch=16),
        ).to_arrays()

    first, second = go(), go()
    assert all(np.array_equal(first[k], second[k]) for k in first)
    original = prompts.to_arrays()
    assert any(not np.array_equal(first[k], original[k]) for k in first)


def test_server_refine_reduces_its_objective(model, val_split, enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=5)

    def objective(ps):
        return float(
            refinement_loss(
                model, ps, val_split.features, val_split.labels, val_split.groups,
                lam2=1.0,
            ).data
        )

    refined = server_refine(
        model, prompts, val_split, np.random.Generator(np.random.PCG64(7)),
        _refine_config(refine_steps=25, refine_lr=5e-3, refine_batch=48),
    )
    assert objective(refined) < objective(prompts)


def test_wo_cdfp_returns_every_query_byte_identical(enc_cfg, val_split):
    # Without cross-layer mixing no query gets a gradient, so none gets a
    # step or weight decay: nonzero queries come back exactly as given.
    model = PromptedModel.for_config(Config(method="wo-cdfp"))
    prompts = PromptSet.initialize(enc_cfg, seed=7)
    rng = np.random.default_rng(7)
    for q in prompts.queries:
        q.data[...] = rng.standard_normal(q.shape)
    shards = [_shard(model, i, n, 60 + i) for i, n in enumerate((9, 17))]
    tuned = [t for t, _, _ in client_update(
        *shards, model=model, prompts=prompts, val=val_split, round_index=0,
        config=Config(method="wo-cdfp", batch_size=8, lr=2e-2))]
    refined = server_refine(model, prompts, val_split, np.random.Generator(np.random.PCG64(0)),
                            _refine_config(method="wo-cdfp", refine_steps=3, refine_batch=16))
    for out in tuned + [refined]:
        assert all(np.array_equal(a.data, b.data) for a, b in zip(out.queries, prompts.queries))
        assert not np.array_equal(out.tokens[0].data, prompts.tokens[0].data)


def test_one_adamw_step_per_walk_and_per_refinement_step(monkeypatch, model, val_split, enc_cfg):
    # The benchmark ends a training or refinement step at each adamw_step
    # call, so the lockstep makes one per walk: two equal 16-row shards at
    # batch 8 take two walks of both clients, and refinement one per step.
    calls = []
    real = federation.adamw_step

    def counted(p, g, m, v, step, lr):
        calls.append((p.shape, step))
        real(p, g, m, v, step, lr)

    monkeypatch.setattr(federation, "adamw_step", counted)
    prompts = PromptSet.initialize(enc_cfg, seed=6)
    shards = [_shard(model, 0, 16, 70), _shard(model, 1, 16, 71)]
    client_update(*shards, model=model, prompts=prompts, val=val_split, round_index=0,
                  config=Config(batch_size=8, lr=2e-3))
    span = (2, prompts.flat.size)  # the model mixes layers, so every float trains
    assert calls == [(span, 1), (span, 2)]
    calls.clear()
    server_refine(model, prompts, val_split, np.random.Generator(np.random.PCG64(0)),
                  _refine_config(refine_steps=3, refine_batch=16))
    assert calls == [(span[1:], 1), (span[1:], 2), (span[1:], 3)]


# ---------------------------------------------------------------------------
# end-to-end federation


def _tiny_config(**over):
    base = dict(
        method="fvlfp", master_seed=0, rounds=2, clients=3, n_train=240,
        n_test=48, n_val=48, refine_steps=4, refine_batch=16, out_dir="unused",
    )
    base.update(over)
    return Config(**base)


def test_run_federation_completes_and_shapes_hold():
    rep = run_federation(_tiny_config())
    assert not rep.incomplete
    assert [r.round for r in rep.rounds] == [0, 1, 2]
    assert rep.rounds[0].client_records == []
    for rec in rep.rounds[1:]:
        assert len(rec.client_records) == 3
        assert abs(sum(rec.weights) - 1.0) <= 1e-12
    assert len(rep.backbone_hash) == 64


def test_run_federation_is_deterministic():
    a = run_federation(_tiny_config())
    b = run_federation(_tiny_config())
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra.global_record == rb.global_record
        assert ra.scores == rb.scores
        assert ra.weights == rb.weights
    assert a.backbone_hash == b.backbone_hash


def test_baseline_uses_uniform_weights():
    rep = run_federation(_tiny_config(method="fedavg_baseline"))
    for rec in rep.rounds[1:]:
        assert rec.weights == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_methods_disagree_once_trained():
    full = run_federation(_tiny_config())
    base = run_federation(_tiny_config(method="fedavg_baseline"))
    assert full.rounds[-1].global_record != base.rounds[-1].global_record


def _record_train_split(monkeypatch) -> dict:
    """Make run_federation's ``load_splits`` also keep its training split
    in the returned dict, under ``"train"``."""
    seen = {}
    real_load = federation.load_splits

    def load(*args, **kwargs):
        splits = real_load(*args, **kwargs)
        seen["train"] = splits[0]
        return splits

    monkeypatch.setattr(federation, "load_splits", load)
    return seen


def test_every_shard_indexes_the_one_training_split(monkeypatch):
    seen = _record_train_split(monkeypatch)
    real_update = federation.client_update

    def update(*shards, **kwargs):
        seen["shards"] = shards
        return real_update(*shards, **kwargs)

    monkeypatch.setattr(federation, "client_update", update)
    assert not run_federation(_tiny_config(rounds=1)).incomplete
    train, shards = seen["train"], seen["shards"]
    assert [s.client_id for s in shards] == [0, 1, 2]
    for s in shards:
        for mine, split in ((s.features, train.features), (s.labels, train.labels),
                            (s.groups, train.groups)):
            assert np.shares_memory(mine, split)
        assert np.array_equal(s.index, np.sort(s.index))
    assert np.array_equal(np.sort(np.concatenate([s.index for s in shards])),
                          np.arange(len(train)))


def test_set_up_peak_stays_near_the_training_rows(monkeypatch):
    # A default-size run with no rounds holds the embedded training rows
    # once; one evaluation pool at a time, Dataset's finiteness masks and
    # one block's temporaries come on top. It measures 1.50x. Shards copied
    # out of the live split peaked at 2.47x, and holding the val pool
    # while the test pool was drawn at 1.63x.
    seen = _record_train_split(monkeypatch)
    run_federation(Config(rounds=0, n_train=8, n_val=8, n_test=8))  # warm the caches
    tracemalloc.start()
    try:
        run_federation(Config(rounds=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / seen["train"].features.nbytes
    assert ratio <= 1.6, ratio


def test_pin_allocator_fixes_both_thresholds(monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(federation.ctypes, "CDLL", lambda name: libc)
    federation.pin_allocator()
    assert calls == [(-3, 32 * 2**20), (-1, 32 * 2**20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: SimpleNamespace(), _no_c_library],
                         ids=["no-mallopt", "no-libc"])
def test_pin_allocator_without_mallopt_is_a_silent_no_op(monkeypatch, cdll):
    pinned = run_federation(_tiny_config(rounds=1))
    monkeypatch.setattr(federation.ctypes, "CDLL", cdll)
    assert federation.pin_allocator() is None
    unpinned = run_federation(_tiny_config(rounds=1))
    assert not unpinned.incomplete
    assert unpinned.rounds == pinned.rounds
    assert all(np.array_equal(unpinned.prompts[k], a) for k, a in pinned.prompts.items())


def test_non_finite_loss_becomes_flagged_failure():
    rep = run_federation(_tiny_config(lr=1e18, rounds=3))
    assert rep.incomplete
    assert rep.failure.startswith("round ") and "client " in rep.failure
    # partial rounds are kept, contiguous from 0
    assert [r.round for r in rep.rounds] == list(range(len(rep.rounds)))


@pytest.mark.parametrize("batch_size, failure, rounds", [
    (16, "round 2: client 0: overflow encountered in multiply (batch offset 48)", [0, 1]),
    # two 7-sample batches share one walk, and the overflow is client 1's
    (7, "round 1: client 1: overflow encountered in multiply (batch offset 70)", [0]),
], ids=["batch16", "batch7"])
@pytest.mark.parametrize("method", METHODS)
def test_forward_overflow_becomes_flagged_failure(method, batch_size, failure, rounds):
    # AdamW drives the prompts to about 1e114-1e225; layernorm's variance
    # overflows and, left alone, turns the rows into finite zeros, so the
    # run used to end complete with a_b 0.5 and every gap 0
    rep = run_federation(Config(method=method, lr=1e18, rounds=2, clients=2, batch_size=batch_size,
                                n_train=160, n_val=48, n_test=48))
    assert rep.incomplete
    assert rep.failure == failure
    assert [r.round for r in rep.rounds] == rounds


def test_non_finite_gradient_names_client_and_step(enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=0)

    def loss(ps, _picks):
        # finite forward (about leaf * 1e100); backward overflows to 1e400
        return P.reduce_sum(P.scale(P.scale(P.mul(ps.tokens[0], 1e-300), 1e200), 1e200))

    errors = federation._fit(prompts, loss, [[("at step 3", None)]], 1e-3, ["client 7"])
    assert list(errors) == [0]
    assert re.match(r"^client 7: .*gradient.* at step 3$", errors[0])


@pytest.mark.parametrize("factor, error", [
    (1e-300, r"^client 1: .*gradient.* at step 0$"),
    (np.nan, r"^client 1: non-finite loss; first non-finite output is from 'mul' at step 0$"),
], ids=["gradient-overflow", "nan-loss"])
def test_a_failing_stacked_step_is_replayed_client_by_client(enc_cfg, factor, error):
    # Two stacked members; only the second one's step fails, by a
    # gradient overflow or a NaN in its loss. The group's forward
    # overflows, and one replay runs each member alone and checked: it
    # keeps the first member's step, bit for bit, and stops the second
    # with the error a lone run gives.
    base = PromptSet.initialize(enc_cfg, seed=0)
    stacked = base.map(lambda a: np.stack([a, a]))
    factors = np.array([1.0, factor])
    calls = []

    def loss(ps, picks):
        members = [i for i, _ in picks]
        calls.append((members, T._checking))
        scaled = P.mul(ps.tokens[0], Tensor(factors[members].reshape(-1, 1, 1)))
        return P.reduce_sum(P.scale(P.scale(scaled, 1e200), 1e200)) if 1 in members else \
            P.reduce_sum(scaled)

    schedules = [[("at step 0", None)], [("at step 0", None)]]
    errors = federation._fit(stacked, loss, schedules, 1e-3, ["client 0", "client 1"],
                             per_walk=2)
    assert calls == [([0, 1], False), ([0], True), ([1], True)]
    assert list(errors) == [1]
    assert re.match(error, errors[1]), errors[1]
    assert np.array_equal(stacked.tokens[0].data[1], base.tokens[0].data)
    lone = base.copy()
    assert federation._fit(lone, loss, schedules[:1], 1e-3, ["client 0"]) == {}
    assert not np.array_equal(lone.tokens[0].data, base.tokens[0].data)
    assert np.array_equal(stacked.tokens[0].data[0], lone.tokens[0].data)


def test_a_failing_client_is_named_after_the_clients_before_it_train(model, val_split, enc_cfg):
    # Client 1's shard holds an infinite row, so its stacked step fails;
    # client 0 trains and is evaluated, and the round names client 1 with
    # the batch that read the row, as a serial pass would.
    shards = [_shard(model, 0, 24, 50), _shard(model, 1, 24, 51)]
    features = shards[1].features.copy()
    features[shards[1].index[5], 0, 0] = np.inf
    shards[1] = dataclasses.replace(shards[1], features=features)
    config = Config(batch_size=8, lr=2e-3)
    with pytest.raises(FederationError,
                       match=r"^client 1: non-finite loss; first non-finite output is from "
                             r"'prompted_attention' \(batch offset \d+\)$"):
        client_update(*shards, model=model, prompts=PromptSet.initialize(enc_cfg, seed=6),
                      val=val_split, round_index=1, config=config)


@pytest.mark.parametrize("method", ["fvlfp", "wo-cdfp"])
@pytest.mark.parametrize("leaf", ["tokens0", "tokens2"])
def test_a_non_finite_broadcast_prompt_block_is_named(val_split, enc_cfg, method, leaf):
    # The first non-finite value is the leaf itself, whether it feeds an
    # attention sublayer directly or through the cross-layer mixing first.
    config = Config(method=method, batch_size=8, lr=2e-3)
    model = PromptedModel.for_config(config)
    shards = [_shard(model, 0, 24, 50), _shard(model, 1, 24, 51)]
    prompts = PromptSet.initialize(enc_cfg, seed=6)
    next(t for t in prompts.leaves if t.name == leaf).data[0, 0] = np.nan
    with pytest.raises(FederationError,
                       match=rf"^client 0: non-finite loss; first non-finite output is from "
                             rf"'{leaf}' \(batch offset 0\)$"):
        client_update(*shards, model=model, prompts=prompts, val=val_split, round_index=1,
                      config=config)


def test_predict_rejects_non_finite_eval_embeddings(model, enc_cfg, val_split):
    prompts = PromptSet.initialize(enc_cfg, seed=0)
    prompts.tokens[1].data[...] = np.nan
    with pytest.raises(NonFiniteError, match="eval embeddings"):
        predict(model, prompts, val_split.features)


def test_predict_records_no_tape(model, enc_cfg, val_split, monkeypatch):
    # a recorded eval chunk would keep its VJP closures alive
    embedded = []
    embed = PromptedModel.embed

    def spy(self, prompts, rows):
        out = embed(self, prompts, rows)
        embedded.extend(out)
        return out

    monkeypatch.setattr(PromptedModel, "embed", spy)
    dsop = dataclasses.replace(model, subspace=build_subspace(model.encoder, GROUP_TEMPLATES))
    prompts = PromptSet.initialize(enc_cfg, seed=0)
    for m in (model, dsop):
        predict(m, prompts, val_split.features)
    assert len(embedded) == 4
    assert not any(z.needs_grad or z.parents for z in embedded)
    assert all(p.trainable for p in prompts.leaves)


def test_predict_rejects_an_overflow_on_the_way_to_the_embeddings(model, enc_cfg, val_split):
    prompts = PromptSet.initialize(enc_cfg, seed=0)
    prompts.tokens[1].data[...] = (np.random.default_rng(0).normal(size=prompts.tokens[1].shape)
                                   * 1e200)
    with pytest.raises(NonFiniteError, match="eval embeddings: overflow encountered"):
        predict(model, prompts, val_split.features)


def test_non_finite_evaluation_becomes_flagged_failure(monkeypatch):
    calls = []
    refine = federation.server_refine

    def poisoned_refine(*args):
        calls.append(1)
        refined = refine(*args)
        if len(calls) == 2:
            refined.tokens[2].data[...] = np.nan
        return refined

    monkeypatch.setattr(federation, "server_refine", poisoned_refine)
    rep = run_federation(_tiny_config(rounds=3))
    assert rep.incomplete
    assert [r.round for r in rep.rounds] == [0, 1]
    assert rep.failure == "round 2: non-finite values in eval embeddings"


def test_failed_refinement_becomes_flagged_failure():
    # a refinement step this size overflows the layernorm on the next forward
    rep = run_federation(_tiny_config(refine_lr=1e200))
    assert rep.incomplete and [r.round for r in rep.rounds] == [0]
    assert re.match(r"^round 1: server refinement: overflow encountered in \w+ at step 1$",
                    rep.failure), rep.failure


def test_report_prompts_are_the_last_recorded_rounds(monkeypatch):
    refined_arrays = []
    refine = federation.server_refine

    def poisoned_refine(*args):
        refined = refine(*args)
        refined_arrays.append(refined.to_arrays())
        if len(refined_arrays) == 2:
            refined.tokens[2].data[...] = np.nan
        return refined

    monkeypatch.setattr(federation, "server_refine", poisoned_refine)
    rep = run_federation(_tiny_config(rounds=3))
    assert rep.incomplete and [r.round for r in rep.rounds] == [0, 1]
    assert sorted(rep.prompts) == sorted(refined_arrays[0])
    for name, arr in refined_arrays[0].items():
        assert np.array_equal(rep.prompts[name], arr), name


def test_any_in_round_error_keeps_finished_rounds(monkeypatch):
    calls = []
    refine = federation.server_refine

    def failing_refine(*args):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("injected")
        return refine(*args)

    monkeypatch.setattr(federation, "server_refine", failing_refine)
    rep = run_federation(_tiny_config(rounds=3))
    assert rep.incomplete
    assert [r.round for r in rep.rounds] == [0, 1]
    assert rep.failure == "round 2: injected"


# ---------------------------------------------------------------------------
# ingested splits


def _write_split(path, labels, groups, dim=32):
    rng = np.random.Generator(np.random.PCG64(len(labels)))
    save_embeddings(
        Dataset(features=rng.standard_normal((len(labels), 1, dim)), labels=labels,
                groups=groups, kind="features"),
        str(path),
    )


def _write_splits(data_dir, train_rows=12, val_groups=(0, 1, 0, 1), val_dim=32):
    data_dir.mkdir()
    _write_split(data_dir / "train.emb", np.arange(train_rows) % 2, np.arange(train_rows) // 2 % 2)
    _write_split(data_dir / "val.emb", [0, 0, 1, 1], list(val_groups), dim=val_dim)
    _write_split(data_dir / "test.emb", [0, 0, 1, 1], [0, 1, 0, 1])
    return _tiny_config(data_dir=str(data_dir))


def test_load_splits_rejects_wrong_embedding_dim(tmp_path):
    config = _write_splits(tmp_path / "emb", val_dim=16)
    with pytest.raises(ValueError, match=r"val\.emb: embedding dim 16 != encoder embed_dim 32"):
        load_splits(config)


def test_load_splits_rejects_missing_eval_cell(tmp_path):
    config = _write_splits(tmp_path / "emb", val_groups=(0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"val\.emb: no rows in \(label, group\) cells \[\(0, 1\), \(1, 1\)\]"):
        load_splits(config)
    # rejected before any round runs, not as a failure inside one
    with pytest.raises(ValueError, match=r"val\.emb"):
        run_federation(config)


def test_load_splits_rejects_train_smaller_than_clients(tmp_path):
    config = _write_splits(tmp_path / "emb", train_rows=2)
    with pytest.raises(ValueError, match=r"train\.emb: 2 rows cannot cover 3 clients"):
        load_splits(config)
