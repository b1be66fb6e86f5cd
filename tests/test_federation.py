"""Federated loop: seed streams, fusion oracles, local updates, refinement.

Fusion is checked against a hand-rolled weighted-sum oracle over the
raw parameter arrays, never against fuse_prompts itself. Gradient flow
through the server refinement objective goes to the shared
finite-difference oracle.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from fedfairprompt import federation
from fedfairprompt import tensor as T
from fedfairprompt.config import Config
from fedfairprompt.data import Dataset, SyntheticSpec, generate_synthetic, save_embeddings
from fedfairprompt.debias import build_subspace
from fedfairprompt.encoder import (
    EncoderConfig,
    PromptSet,
    VisionEncoder,
    build_prompt_templates,
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
    refinement_loss,
    run_federation,
    score_from_record,
    server_refine,
)
from fedfairprompt.metrics import MetricRecord, eod_global

from gradcheck import assert_grads_match


@pytest.fixture(scope="module")
def enc_cfg():
    return EncoderConfig()


@pytest.fixture(scope="module")
def encoder(enc_cfg):
    return VisionEncoder(enc_cfg)


@pytest.fixture(scope="module")
def class_text(encoder):
    templates = build_prompt_templates("smiling", "gender")
    return np.stack([encoder.encode_text(s) for s in templates.class_templates])


@pytest.fixture(scope="module")
def model(encoder, class_text, enc_cfg):
    return PromptedModel(encoder, class_text, enc_cfg.temperature)


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


def test_fusion_weights_degenerate_and_invalid():
    with pytest.raises(ValueError, match="degenerate"):
        fusion_weights([0.0, 0.0])
    with pytest.raises(ValueError):
        fusion_weights([0.5, -0.1])
    with pytest.raises(ValueError):
        fusion_weights([np.nan, 1.0])
    with pytest.raises(ValueError):
        fusion_weights([])


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


def test_fuse_prompts_validates_inputs(enc_cfg):
    sets = _prompt_sets(enc_cfg, 2)
    with pytest.raises(ValueError, match="no prompt sets"):
        fuse_prompts([], [])
    with pytest.raises(ValueError, match="weights"):
        fuse_prompts(sets, [1.0])
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
    assert score_from_record(rec, "eq") == pytest.approx(0.8 * 0.5)
    assert score_from_record(rec, "demo") == pytest.approx(0.8 * 0.7)
    assert score_from_record(rec, "a") == pytest.approx(0.8 * 0.9)


def test_score_from_record_floors_at_zero():
    rec = MetricRecord(a_b=0.9, phi_a=0.0, phi_demo=0.0, phi_eq=1.0, f_global=0.0)
    assert score_from_record(rec, "eq") == 0.0


def test_evaluate_prompts_f_global_is_single_client_aggregate(model, val_split, enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=4)
    record, conf = evaluate_prompts(model, prompts, val_split)
    value, excluded = eod_global([conf])
    assert record.f_global == value
    assert excluded == []


# ---------------------------------------------------------------------------
# local update


def test_client_update_is_pure_and_deterministic(model, val_split, enc_cfg):
    data = generate_synthetic(SyntheticSpec(n=24, seed=31))
    shard = ClientShard(2, model.encoder.embed_patches(data.features), data.labels, data.groups)
    prompts = PromptSet.initialize(enc_cfg, seed=6)
    before = prompts.to_arrays()
    config = Config(batch_size=8, lr=2e-3)

    def go():
        return client_update(
            shard, model, prompts, val_split, client_stream(0, 1, shard.client_id), config
        )

    (first, record, conf), (second, _, _) = go(), go()
    a, b = first.to_arrays(), second.to_arrays()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert all(np.array_equal(prompts.to_arrays()[k], before[k]) for k in before)
    assert any(not np.array_equal(a[k], before[k]) for k in a)
    oracle_record, oracle_conf = evaluate_prompts(model, first, val_split)
    assert record == oracle_record
    assert np.array_equal(conf.counts, oracle_conf.counts)


# ---------------------------------------------------------------------------
# refinement objective


def _tiny_refine_setup():
    cfg = EncoderConfig(layers=2, prompt_tokens=1, heads=2)
    encoder = VisionEncoder(cfg)
    templates = build_prompt_templates("smiling", "gender")
    class_text = np.stack([encoder.encode_text(s) for s in templates.class_templates])
    data = generate_synthetic(SyntheticSpec(n=6, seed=21, spurious_strength=0.0))
    features = encoder.embed_patches(data.features)
    groups = np.array([0, 0, 0, 1, 1, 1])
    return cfg, encoder, class_text, features, data.labels, groups


def test_refinement_loss_gradients_reach_all_prompt_parameters():
    cfg, encoder, class_text, features, labels, groups = _tiny_refine_setup()
    prompts = PromptSet.initialize(cfg, seed=8)
    subspace = build_subspace(
        encoder, build_prompt_templates("smiling", "gender").group_templates,
        k=1,
    )

    model = PromptedModel(encoder, class_text, cfg.temperature, subspace=subspace)

    def loss():
        return refinement_loss(model, prompts, features, labels, groups, lam2=0.7)

    # tau=0.07 softmax is stiff: a smaller step keeps truncation under tol
    assert_grads_match(loss, prompts.parameters().values(), step=1e-4)


def test_refinement_loss_needs_both_groups():
    cfg, encoder, class_text, features, labels, _ = _tiny_refine_setup()
    prompts = PromptSet.initialize(cfg, seed=8)
    model = PromptedModel(encoder, class_text, cfg.temperature)
    with pytest.raises(ValueError, match="both groups"):
        refinement_loss(
            model, prompts, features, labels, np.zeros(6, dtype=np.int64), lam2=1.0
        )


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


def test_non_finite_loss_becomes_flagged_failure():
    rep = run_federation(_tiny_config(lr=1e18, rounds=3))
    assert rep.incomplete
    assert rep.failure.startswith("round ") and "client " in rep.failure
    # partial rounds are kept, contiguous from 0
    assert [r.round for r in rep.rounds] == list(range(len(rep.rounds)))


def test_non_finite_gradient_names_client_and_step(enc_cfg):
    prompts = PromptSet.initialize(enc_cfg, seed=0)
    stub = SimpleNamespace(trainable=lambda ps: ps.parameters())
    leaf = prompts.tokens[0]

    def loss():
        # finite forward (about leaf * 1e100); backward overflows to 1e400
        return T.reduce_sum(T.scale(T.scale(T.mul(leaf, 1e-300), 1e200), 1e200))

    with pytest.raises(FederationError, match=r"^client 7: .*gradient.* at step 3$"):
        federation._fit(stub, prompts, [("at step 3", loss)], 1e-3, "client 7")


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
