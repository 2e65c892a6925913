"""Synthetic grouped dataset generation."""

import math

import numpy as np
import pytest

from groupattr import DatasetSpec, GroupedDataset, generate_grouped_dataset


class TestGenerate:
    def test_deterministic(self):
        spec = DatasetSpec(n_groups=3, samples_per_group=10, conditional=True)
        a = generate_grouped_dataset(spec, seed=4)
        b = generate_grouped_dataset(spec, seed=4)
        for ga, gb in zip(a.groups, b.groups):
            np.testing.assert_array_equal(ga, gb)
        for ca, cb in zip(a.cond_vectors, b.cond_vectors):
            np.testing.assert_array_equal(ca, cb)

    def test_chord_distance(self):
        """Nearest other group mean sits at the circle chord length."""
        spec = DatasetSpec(n_groups=5, samples_per_group=200, radius=5.0, noise_std=0.3)
        d = generate_grouped_dataset(spec, seed=11)
        means = np.stack([
            g.mean(axis=0) for g in d.groups
        ])
        # Use the exact constructed centers, not the sample means.
        exact = []
        for k in range(5):
            dists = [np.linalg.norm(means[k] - means[j]) for j in range(5) if j != k]
            exact.append(min(dists))
        # Sample means wobble at noise_std / sqrt(n); compare the ideal
        # geometry through freshly generated centers instead.
        spec0 = DatasetSpec(n_groups=5, samples_per_group=1, radius=5.0, noise_std=0.0)
        d0 = generate_grouped_dataset(spec0, seed=11)
        centers = np.stack([g[0] for g in d0.groups])
        chord = 2 * 5.0 * math.sin(math.pi / 5)
        for k in range(5):
            dists = [np.linalg.norm(centers[k] - centers[j]) for j in range(5) if j != k]
            assert min(dists) == pytest.approx(chord, abs=1e-6)

    def test_zero_radius_degenerate(self):
        spec = DatasetSpec(n_groups=3, samples_per_group=1, radius=0.0, noise_std=0.0)
        d = generate_grouped_dataset(spec, seed=0)
        for g in d.groups:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_conditional_layout(self):
        spec = DatasetSpec(n_groups=4, samples_per_group=5, conditional=True,
                           descriptor_dim=6)
        d = generate_grouped_dataset(spec, seed=2)
        assert d.cond_dim == 4 + 6
        for k, c in enumerate(d.cond_vectors):
            onehot = np.zeros(4)
            onehot[k] = 1.0
            np.testing.assert_array_equal(c[:4], onehot)
            assert np.linalg.norm(c[4:]) > 0

    def test_descriptor_overlap_increases_similarity(self):
        def mean_cosine(overlap):
            spec = DatasetSpec(n_groups=6, samples_per_group=2, conditional=True,
                               descriptor_dim=16, descriptor_overlap=overlap)
            d = generate_grouped_dataset(spec, seed=3)
            desc = np.stack([c[6:] for c in d.cond_vectors])
            desc /= np.linalg.norm(desc, axis=1, keepdims=True)
            sims = desc @ desc.T
            return (sims.sum() - 6) / 30
        assert mean_cosine(0.9) > mean_cosine(0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(n_groups=1)
        with pytest.raises(ValueError):
            DatasetSpec(descriptor_overlap=1.0)
        with pytest.raises(ValueError):
            DatasetSpec(noise_std=-1.0)
        with pytest.raises(ValueError):
            DatasetSpec(conditional=True, descriptor_dim=-1)


class TestGroupedDataset:
    def setup_method(self):
        spec = DatasetSpec(n_groups=3, samples_per_group=4, conditional=True)
        self.d = generate_grouped_dataset(spec, seed=7)

    def test_all_samples_exclusion(self):
        assert self.d.labeled_samples()[0].shape == (12, 2)
        assert self.d.labeled_samples(exclude=1)[0].shape == (8, 2)

    def test_labeled_samples(self):
        xs, labels = self.d.labeled_samples(exclude=0)
        assert xs.shape == (8, 2)
        assert set(labels.tolist()) == {1, 2}

    def test_null_condition(self):
        """A dropped row of a batch's condition block is the null condition,
        zeros; every other row is its group's condition."""
        labels = np.arange(3).repeat(100)
        conds = self.d.dropout_conditions(labels, True, 5, "epoch")
        assert conds.shape == (300, self.d.cond_dim)
        dropped = ~np.any(conds, axis=1)
        assert 0 < dropped.sum() < 300
        np.testing.assert_array_equal(conds[dropped], np.zeros((dropped.sum(), self.d.cond_dim)))
        np.testing.assert_array_equal(conds[~dropped], self.d.cond_vectors[labels[~dropped]])
        assert self.d.dropout_conditions(labels, False, 5, "epoch") is None

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "data.npz"
        self.d.save(path)
        back = GroupedDataset.load(path)
        assert back.group_names == self.d.group_names
        for ga, gb in zip(back.groups, self.d.groups):
            np.testing.assert_array_equal(ga, gb)
        for ca, cb in zip(back.cond_vectors, self.d.cond_vectors):
            np.testing.assert_array_equal(ca, cb)
