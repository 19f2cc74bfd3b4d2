"""Tests for the synthetic MNIST dataset and quantisation helpers."""

import numpy as np
import pytest

from repro.errors import UnknownWorkloadError
from repro.workloads.datasets import make_synthetic_mnist, quantize_unsigned


class TestSyntheticMnist:
    def test_shapes(self):
        dataset = make_synthetic_mnist(n_samples=64, side=8, n_classes=10)
        assert dataset.images.shape == (64, 64)
        assert dataset.labels.shape == (64,)
        assert dataset.n_features == 64
        assert dataset.side == 8

    def test_deterministic_for_fixed_seed(self):
        a = make_synthetic_mnist(n_samples=32, seed=5)
        b = make_synthetic_mnist(n_samples=32, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_synthetic_mnist(n_samples=32, seed=1)
        b = make_synthetic_mnist(n_samples=32, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_pixel_range(self):
        dataset = make_synthetic_mnist(n_samples=16)
        assert dataset.images.min() >= 0.0
        assert dataset.images.max() <= 255.0

    def test_labels_cover_multiple_classes(self):
        dataset = make_synthetic_mnist(n_samples=200, n_classes=10)
        assert len(set(dataset.labels.tolist())) >= 5

    def test_class_structure_is_learnable(self):
        # Nearest-centroid classification on the synthetic data should beat
        # chance by a wide margin — the dataset is a meaningful stand-in.
        dataset = make_synthetic_mnist(n_samples=400, side=8, n_classes=4)
        train, test = dataset.split(0.75)
        centroids = np.stack(
            [train.images[train.labels == c].mean(axis=0) for c in range(4)]
        )
        distances = ((test.images[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predictions = distances.argmin(axis=1)
        accuracy = (predictions == test.labels).mean()
        assert accuracy > 0.6

    def test_split(self):
        dataset = make_synthetic_mnist(n_samples=100)
        train, test = dataset.split(0.8)
        assert train.n_samples == 80
        assert test.n_samples == 20

    def test_invalid_parameters(self):
        with pytest.raises(UnknownWorkloadError):
            make_synthetic_mnist(n_samples=5, n_classes=10)
        with pytest.raises(UnknownWorkloadError):
            make_synthetic_mnist(side=2)
        with pytest.raises(UnknownWorkloadError):
            make_synthetic_mnist().split(1.5)


class TestQuantisation:
    def test_quantize_range(self):
        values = np.array([0.0, 127.5, 255.0])
        codes = quantize_unsigned(values, bits=4, max_value=255.0)
        assert codes.tolist() == [0, 8, 15]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_error_within_half_a_step(self, bits):
        values = np.linspace(0.0, 255.0, 1021)
        codes = quantize_unsigned(values, bits=bits, max_value=255.0)
        top = (1 << bits) - 1
        step = 255.0 / top
        assert codes.min() == 0 and codes.max() == top
        assert (np.diff(codes) >= 0).all()
        assert np.abs(codes * step - values).max() <= step / 2 + 1e-9

    def test_all_zero_input(self):
        assert quantize_unsigned(np.zeros(4), bits=3).tolist() == [0, 0, 0, 0]

    def test_invalid_bits(self):
        with pytest.raises(UnknownWorkloadError):
            quantize_unsigned(np.ones(3), bits=0)
