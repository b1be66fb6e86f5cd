"""Synthetic data, partitioning and embedding-format contracts."""

import re
import tracemalloc
import warnings

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
    shards = dirichlet_partition(ds, 1, alpha=1.0, seed=0)
    assert len(shards) == 1
    np.testing.assert_array_equal(shards[0], np.arange(50))


def test_partition_disjoint_and_covering():
    ds = generate_synthetic(SyntheticSpec(n=400, seed=1))
    for n_clients, alpha, seed in [(3, 0.1, 0), (5, 1.0, 1), (7, 100.0, 2), (10, 0.5, 3)]:
        shards = dirichlet_partition(ds, n_clients, alpha, seed)
        np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(400))
        assert all(s.size > 0 for s in shards)


def test_high_concentration_gives_even_shards():
    ds = generate_synthetic(SyntheticSpec(n=5000, seed=2))
    shards = dirichlet_partition(ds, 5, alpha=100.0, seed=4)
    sizes = np.array([s.size for s in shards])
    assert np.all(np.abs(sizes - 1000) <= 150)  # within +/-15%


def test_heterogeneity_monotone_in_alpha():
    ds = generate_synthetic(SyntheticSpec(n=1000, seed=3))

    def mean_imbalance(alpha):
        ratios = []
        for seed in range(20):
            shards = dirichlet_partition(ds, 5, alpha, seed)
            sizes = np.array([s.size for s in shards])
            ratios.append(sizes.max() / sizes.min())
        return float(np.mean(ratios))

    assert mean_imbalance(0.1) > mean_imbalance(100.0)


def test_empty_shard_repair():
    ds = generate_synthetic(SyntheticSpec(n=24, seed=4))
    # extreme skew over many clients forces empty draws that must be repaired
    for seed in range(10):
        shards = dirichlet_partition(ds, 8, alpha=0.01, seed=seed)
        assert all(s.size >= 1 for s in shards)
        np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(24))


def test_partition_determinism_and_errors():
    ds = generate_synthetic(SyntheticSpec(n=100, seed=5))
    a = dirichlet_partition(ds, 4, 0.5, seed=9)
    b = dirichlet_partition(ds, 4, 0.5, seed=9)
    for sa, sb in zip(a, b):
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

    after_blank = tmp_path / "b.txt"
    after_blank.write_text("dim=2 count=2\n\n1,0,0.5,0.25\n1,0,0.5,x\n")
    with pytest.raises(ValueError, match=":4:"):
        load_embeddings(str(after_blank))

    bad_count = tmp_path / "c.txt"
    bad_count.write_text("dim=2 count=3\n1,0,1.0,2.0\n")
    with pytest.raises(ValueError, match="count=3"):
        load_embeddings(str(bad_count))

    bad_label = tmp_path / "l.txt"
    bad_label.write_text("dim=2 count=1\n2,0,1.0,2.0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_embeddings(str(bad_label))

    # numpy's reader takes the row and Dataset rejects the group, so the
    # line-by-line pass names it
    bad_group = tmp_path / "g.txt"
    bad_group.write_text("dim=2 count=1\n0,2,1.0,2.0\n")
    with pytest.raises(ValueError, match=":2: label/group must be 0 or 1"):
        load_embeddings(str(bad_group))

    for header, message in (("dim=x count=1", ":1: non-integer dim/count in header"),
                            ("dim=0 count=0", ":1: dim must be >= 1 and count >= 0")):
        bad_header.write_text(header + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_embeddings(str(bad_header))


def test_embeddings_empty_file_is_rejected(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_embeddings(str(path))


def _decimal_spellings(rng, n):
    """Hand-written decimal strings: shortest repr, 25 significant
    digits, C's %.17e, and subnormals, plus rounding-tie cases."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    subnormals = rng.integers(1, 2**52, size=n) * 2.0**-1074
    out = ["0.0", "-0.0", "5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
           "2.2250738585072014e-308", "1.7976931348623157e308", "9007199254740993",
           "1.00000000000000011102230246251565404236316680908203125",
           "1.000000000000000111022302462515654042363166809082031250001",
           "0.1000000000000000055511151231257827021181583404541015625"]
    for v, s in zip(values, subnormals):
        out += [repr(float(v)), f"{v:.24e}", "%.17e" % v, repr(float(s)), f"{s:.24e}"]
    return out


def test_embeddings_values_equal_python_float_bit_for_bit(tmp_path):
    strings = _decimal_spellings(np.random.default_rng(41), 400)
    strings += ["1.5"] * (-len(strings) % 8)
    rows = [strings[i : i + 8] for i in range(0, len(strings), 8)]
    path = tmp_path / "spell.emb"
    path.write_text(f"dim=8 count={len(rows)}\n"
                    + "".join(f"{i % 2},{i // 2 % 2},{','.join(r)}\n" for i, r in enumerate(rows)))
    back = load_embeddings(str(path))
    expected = np.array([[float(s) for s in r] for r in rows])
    assert back.features[:, 0].tobytes() == expected.tobytes()  # signed zeros included


def test_embeddings_crlf_and_blank_lines_parse_like_the_clean_file(tmp_path):
    clean = tmp_path / "clean.emb"
    save_embeddings(_toy_feature_dataset(n=7, d=4, seed=2), str(clean))
    lines = clean.read_bytes().split(b"\n")[:-1]
    messy = tmp_path / "messy.emb"
    messy.write_bytes(b"\r\n".join(lines[:1] + [b""] + lines[1:4] + [b"", b""] + lines[4:])
                      + b"\r\n\r\n")
    a, b = load_embeddings(str(clean)), load_embeddings(str(messy))
    for x, y in ((a.features, b.features), (a.labels, b.labels), (a.groups, b.groups)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_embeddings_non_finite_value_names_its_line(tmp_path, value):
    path = tmp_path / "nf.emb"
    path.write_text(f"dim=2 count=3\n1,0,0.5,0.25\n\n0,1,{value},1.0\n1,1,2.0,3.0\n")
    with pytest.raises(ValueError, match=r":4: non-finite embedding value"):
        load_embeddings(str(path))


def test_embeddings_empty_body_gives_empty_dataset_without_warning(tmp_path):
    for body in ("", "\n\n"):
        path = tmp_path / "empty.emb"
        path.write_text("dim=3 count=0\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_embeddings(str(path))
        assert len(ds) == 0 and ds.features.shape == (0, 1, 3)


def test_embeddings_reject_what_numpys_reader_rejects_with_line_numbers(tmp_path):
    # float() reads "1_0.5" as 10.5; numpy's reader and this format do not
    underscore = tmp_path / "u.emb"
    underscore.write_text("dim=2 count=2\n0,1,0.5,0.25\n1,0,1_0.5,0.25\n")
    with pytest.raises(ValueError, match=r":3: malformed numeric field"):
        load_embeddings(str(underscore))
    # only an empty line is blank: one of spaces is a row with one field
    spaces = tmp_path / "s.emb"
    spaces.write_text("dim=2 count=2\n0,1,0.5,0.25\n  \n1,0,1.5,0.25\n")
    with pytest.raises(ValueError, match=r":3: expected 4 comma-separated fields.*found 1"):
        load_embeddings(str(spaces))


def test_embeddings_parse_peak_stays_near_the_features(tmp_path):
    # numpy reports its buffers to tracemalloc; holding the file's text
    # whole (about 2.8 MB here) would show
    path = str(tmp_path / "big.emb")
    save_embeddings(_toy_feature_dataset(n=4000, d=32, seed=5), path)
    tracemalloc.start()
    try:
        ds = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.features.nbytes, peak / ds.features.nbytes


def test_save_embeddings_rejects_pixel_datasets(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n=4, seed=0))
    with pytest.raises(ValueError):
        save_embeddings(ds, str(tmp_path / "no.txt"))


def test_save_embeddings_needs_one_row_per_sample(tmp_path):
    ds = Dataset(features=np.zeros((2, 2, 4)), labels=[0, 1], groups=[0, 1], kind="features")
    with pytest.raises(ValueError, match="one feature row per sample"):
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
    with pytest.raises(ValueError, match="one entry per sample"):
        Dataset(features=np.zeros((2, 1, 4)), labels=[0], groups=[0, 1])
