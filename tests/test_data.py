"""Synthetic data, partitioning and embedding-format contracts."""

import numpy as np
import pytest

from fedfairprompt.data import (
    Dataset,
    SyntheticSpec,
    balanced_test_sample,
    dirichlet_partition,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)


def _corner_mean(images):
    blocks = [images[:, :8, :8], images[:, :8, 24:], images[:, 24:, :8], images[:, 24:, 24:]]
    return np.mean([b.mean(axis=(1, 2)) for b in blocks], axis=0)


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic():
    spec = SyntheticSpec(n=200, seed=9)
    a, b = generate_synthetic(spec), generate_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.groups, b.groups)


def test_marginals_exactly_balanced():
    ds = generate_synthetic(SyntheticSpec(n=2000, seed=1))
    assert int(ds.labels.sum()) == 1000
    assert int(ds.groups.sum()) == 1000
    assert abs(float(np.mean(ds.labels)) - 0.5) <= 0.02
    assert abs(float(np.mean(ds.groups)) - 0.5) <= 0.02


def test_rho_one_group_copies_label():
    ds = generate_synthetic(SyntheticSpec(n=500, spurious_strength=1.0, seed=3))
    np.testing.assert_array_equal(ds.groups, ds.labels)


def test_rho_zero_group_uncorrelated():
    ds = generate_synthetic(SyntheticSpec(n=2000, spurious_strength=0.0, seed=5))
    corr = np.corrcoef(ds.groups, ds.labels)[0, 1]
    assert abs(corr) <= 0.05


def test_rho_sets_alignment_rate_exactly():
    n = 1000
    ds = generate_synthetic(SyntheticSpec(n=n, spurious_strength=0.8, seed=7))
    aligned = float(np.mean(ds.groups == ds.labels))
    # quota construction: rho + (1 - rho)/2 = 0.9 exactly
    assert abs(aligned - 0.9) < 1e-12


def test_patterns_land_in_designated_patches():
    spec = SyntheticSpec(n=40, noise_sigma=0.0, seed=2, spurious_strength=0.5)
    ds = generate_synthetic(spec)
    imgs = ds.features
    # group marker brightens the corners for g=1 only
    corner = _corner_mean(imgs)
    assert np.all(corner[ds.groups == 1] > corner[ds.groups == 0])
    # label flips the checkerboard sign in the center; off-pattern pixels stay 0.5
    center = imgs[:, 8:24, 8:24]
    border_row = imgs[:, 0, 8:24]  # top edge strip, outside both patterns
    np.testing.assert_allclose(border_row, 0.5, atol=1e-12)
    checker_sign = np.sign(center - 0.5)
    y1 = checker_sign[ds.labels == 1]
    y0 = checker_sign[ds.labels == 0]
    np.testing.assert_array_equal(y1[0], -y0[0])


def test_pixels_stay_in_unit_range_and_finite():
    ds = generate_synthetic(SyntheticSpec(n=300, noise_sigma=0.8, seed=11))
    assert float(ds.features.min()) >= 0.0
    assert float(ds.features.max()) <= 1.0
    assert np.isfinite(ds.features).all()


# ---------------------------------------------------------------------------
# partitioning


def test_single_client_gets_everything():
    ds = generate_synthetic(SyntheticSpec(n=50, seed=0))
    part = dirichlet_partition(ds, 1, alpha=1.0, seed=0)
    assert len(part.shards) == 1
    np.testing.assert_array_equal(part.shards[0], np.arange(50))


def test_partition_disjoint_and_covering():
    ds = generate_synthetic(SyntheticSpec(n=400, seed=1))
    for n_clients, alpha, seed in [(3, 0.1, 0), (5, 1.0, 1), (7, 100.0, 2), (10, 0.5, 3)]:
        part = dirichlet_partition(ds, n_clients, alpha, seed)
        np.testing.assert_array_equal(np.sort(np.concatenate(part.shards)), np.arange(400))
        assert all(s.size > 0 for s in part.shards)


def test_high_concentration_gives_even_shards():
    ds = generate_synthetic(SyntheticSpec(n=5000, seed=2))
    part = dirichlet_partition(ds, 5, alpha=100.0, seed=4)
    sizes = np.array([s.size for s in part.shards])
    assert np.all(np.abs(sizes - 1000) <= 150)  # within +/-15%


def test_heterogeneity_monotone_in_alpha():
    ds = generate_synthetic(SyntheticSpec(n=1000, seed=3))

    def mean_imbalance(alpha):
        ratios = []
        for seed in range(20):
            part = dirichlet_partition(ds, 5, alpha, seed)
            sizes = np.array([s.size for s in part.shards])
            ratios.append(sizes.max() / sizes.min())
        return float(np.mean(ratios))

    assert mean_imbalance(0.1) > mean_imbalance(100.0)


def test_empty_shard_repair():
    ds = generate_synthetic(SyntheticSpec(n=24, seed=4))
    # extreme skew over many clients forces empty draws that must be repaired
    for seed in range(10):
        part = dirichlet_partition(ds, 8, alpha=0.01, seed=seed)
        assert all(s.size >= 1 for s in part.shards)
        np.testing.assert_array_equal(np.sort(np.concatenate(part.shards)), np.arange(24))


def test_partition_determinism_and_errors():
    ds = generate_synthetic(SyntheticSpec(n=100, seed=5))
    a = dirichlet_partition(ds, 4, 0.5, seed=9)
    b = dirichlet_partition(ds, 4, 0.5, seed=9)
    for sa, sb in zip(a.shards, b.shards):
        np.testing.assert_array_equal(sa, sb)


# ---------------------------------------------------------------------------
# balanced sampling


def test_balanced_sample_equal_cells():
    ds = generate_synthetic(SyntheticSpec(n=2000, seed=6))
    idx = balanced_test_sample(ds, 400, seed=1)
    sub = ds.subset(idx)
    assert len(sub) == 400
    for y in (0, 1):
        for g in (0, 1):
            assert sub.cell_indices(y, g).size == 100
    assert np.unique(idx).size == 400  # without replacement


def test_balanced_sample_is_seeded():
    ds = generate_synthetic(SyntheticSpec(n=2000, spurious_strength=0.0, seed=7))
    idx = balanced_test_sample(ds, 200, seed=3)
    again = balanced_test_sample(ds, 200, seed=3)
    np.testing.assert_array_equal(idx, again)
    other = balanced_test_sample(ds, 200, seed=4)
    assert not np.array_equal(idx, other)


def test_balanced_sample_errors():
    ds = generate_synthetic(SyntheticSpec(n=100, seed=8))
    with pytest.raises(ValueError):
        balanced_test_sample(ds, 401, seed=0)  # not divisible by 4
    with pytest.raises(ValueError):
        balanced_test_sample(ds, 400, seed=0)  # cells too small


# ---------------------------------------------------------------------------
# embedding file format


def _toy_feature_dataset(n=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        features=rng.normal(size=(n, 1, d)),
        labels=np.array([0, 1] * (n // 2) + [0] * (n % 2)),
        groups=np.array([1, 0] * (n // 2) + [1] * (n % 2)),
        kind="features",
    )


def test_embeddings_round_trip(tmp_path):
    ds = _toy_feature_dataset(n=6, d=4, seed=1)
    path = str(tmp_path / "emb.txt")
    save_embeddings(ds, path)
    back = load_embeddings(path)
    np.testing.assert_array_equal(back.features, ds.features)  # repr round-trips exactly
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_array_equal(back.groups, ds.groups)
    assert back.kind == "features"


def test_embeddings_well_formed_file(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("dim=3 count=2\n1,0,0.5,-1.25,2.0\n0,1,0.0,3.5,-0.125\n")
    ds = load_embeddings(str(path))
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.labels, [1, 0])
    np.testing.assert_array_equal(ds.groups, [0, 1])
    np.testing.assert_array_equal(ds.features[0, 0], [0.5, -1.25, 2.0])


def test_embeddings_parse_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.txt"
    bad_header.write_text("dimension=3 count=1\n1,0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=":1:"):
        load_embeddings(str(bad_header))

    wrong_dim = tmp_path / "d.txt"
    wrong_dim.write_text("dim=4 count=1\n1,0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="declared dim=4.*found 5") as exc:
        load_embeddings(str(wrong_dim))
    assert ":2:" in str(exc.value)

    bad_value = tmp_path / "v.txt"
    bad_value.write_text("dim=2 count=2\n1,0,1.0,2.0\n0,1,oops,2.0\n")
    with pytest.raises(ValueError, match=":3:"):
        load_embeddings(str(bad_value))

    bad_count = tmp_path / "c.txt"
    bad_count.write_text("dim=2 count=3\n1,0,1.0,2.0\n")
    with pytest.raises(ValueError, match="count=3"):
        load_embeddings(str(bad_count))

    bad_label = tmp_path / "l.txt"
    bad_label.write_text("dim=2 count=1\n2,0,1.0,2.0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_embeddings(str(bad_label))


def test_save_embeddings_rejects_pixel_datasets(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=4, seed=0))
    with pytest.raises(ValueError):
        save_embeddings(ds, str(tmp_path / "no.txt"))


# ---------------------------------------------------------------------------
# dataset plumbing


def test_subset_preserves_alignment():
    ds = generate_synthetic(SyntheticSpec(n=60, seed=12))
    idx = np.array([3, 7, 20, 41])
    sub = ds.subset(idx)
    np.testing.assert_array_equal(sub.labels, ds.labels[idx])
    np.testing.assert_array_equal(sub.groups, ds.groups[idx])
    np.testing.assert_array_equal(sub.features, ds.features[idx])
    assert sub.kind == ds.kind


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 4)), labels=[0, 1], groups=[0, 1])
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 1, 4)), labels=[0, 2], groups=[0, 1])
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 1, 4)), labels=[0, 1], groups=[0, 1], kind="foo")
    with pytest.raises(ValueError):
        Dataset(features=np.full((1, 1, 2), np.nan), labels=[0], groups=[0])


# ---------------------------------------------------------------------------
# group-conditioned cue rotation


def test_group_cue_rotation_zero_is_shared_direction():
    base = SyntheticSpec(n=64, seed=5)
    explicit = SyntheticSpec(n=64, seed=5, group_cue_rotation=0.0)
    np.testing.assert_array_equal(
        generate_synthetic(base).features, generate_synthetic(explicit).features
    )


def test_full_rotation_makes_group_class_cues_orthogonal():
    # noise-free world; the per-group class-difference images expose the
    # cue patterns directly
    ds = generate_synthetic(
        SyntheticSpec(n=400, seed=3, noise_sigma=0.0, spurious_strength=0.0,
                      minority_attenuation=0.0, group_cue_rotation=1.0)
    )

    def class_diff(g):
        rows1 = ds.features[(ds.labels == 1) & (ds.groups == g)].mean(axis=0)
        rows0 = ds.features[(ds.labels == 0) & (ds.groups == g)].mean(axis=0)
        return (rows1 - rows0).ravel()

    d0, d1 = class_diff(0), class_diff(1)
    cos = abs(float(np.dot(d0, d1))) / (np.linalg.norm(d0) * np.linalg.norm(d1))
    assert cos < 1e-10
    # rotation redirects the cue without changing its energy
    assert np.linalg.norm(d1) == pytest.approx(np.linalg.norm(d0), rel=1e-9)


def test_partial_rotation_interpolates():
    ds = generate_synthetic(
        SyntheticSpec(n=400, seed=3, noise_sigma=0.0, spurious_strength=0.0,
                      minority_attenuation=0.0, group_cue_rotation=0.5)
    )
    d0 = (ds.features[(ds.labels == 1) & (ds.groups == 0)].mean(axis=0)
          - ds.features[(ds.labels == 0) & (ds.groups == 0)].mean(axis=0)).ravel()
    d1 = (ds.features[(ds.labels == 1) & (ds.groups == 1)].mean(axis=0)
          - ds.features[(ds.labels == 0) & (ds.groups == 1)].mean(axis=0)).ravel()
    cos = float(np.dot(d0, d1)) / (np.linalg.norm(d0) * np.linalg.norm(d1))
    assert cos == pytest.approx(np.cos(0.5 * np.pi / 2.0), abs=1e-9)
