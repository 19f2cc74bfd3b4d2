"""Synthetic MNIST-like dataset and fixed-point quantisation helpers.

The paper's MLP benchmark classifies MNIST with a two-layer perceptron and
1–4 bit weights.  The real MNIST images are not needed to reproduce the
evaluation — only the *circuit structure* (dot-product lengths, precisions)
enters the overhead study — but the examples and the MLP functional tests
still want data to run on.  This module generates a deterministic synthetic
stand-in: images whose class-dependent structure (one bright blob per class
region) is simple enough that a tiny quantised MLP can separate them, so the
end-to-end example can show non-trivial accuracy without network access.

Everything is seeded and pure-NumPy; no files are read or written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import UnknownWorkloadError

__all__ = [
    "SyntheticMnist",
    "make_synthetic_mnist",
    "quantize_unsigned",
]


@dataclass(frozen=True)
class SyntheticMnist:
    """A deterministic MNIST-like dataset.

    ``images`` has shape (n_samples, side*side) with values in [0, 255];
    ``labels`` has shape (n_samples,) with values in [0, n_classes).
    """

    images: np.ndarray
    labels: np.ndarray
    side: int
    n_classes: int

    @property
    def n_samples(self) -> int:
        return int(self.images.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.images.shape[1])

    def split(self, train_fraction: float = 0.8) -> Tuple["SyntheticMnist", "SyntheticMnist"]:
        """Deterministic train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise UnknownWorkloadError("train_fraction must be in (0, 1)")
        cut = int(self.n_samples * train_fraction)
        return (
            SyntheticMnist(self.images[:cut], self.labels[:cut], self.side, self.n_classes),
            SyntheticMnist(self.images[cut:], self.labels[cut:], self.side, self.n_classes),
        )


def make_synthetic_mnist(
    n_samples: int = 512,
    side: int = 8,
    n_classes: int = 10,
    noise: float = 16.0,
    seed: int = 1234,
) -> SyntheticMnist:
    """Generate the synthetic dataset.

    Each class ``c`` lights up a class-specific blob (a Gaussian bump centred
    at a class-dependent position) on a dark background, plus uniform noise.
    The default 8×8 resolution keeps the PiM functional examples small; the
    analytic workload specs use the full 28×28 = 784-feature geometry
    regardless of this dataset.
    """
    if n_samples < n_classes:
        raise UnknownWorkloadError("need at least one sample per class")
    if side < 4:
        raise UnknownWorkloadError("side must be >= 4")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:side, 0:side]
    images = np.zeros((n_samples, side * side), dtype=np.float64)
    labels = rng.integers(0, n_classes, size=n_samples)
    for index in range(n_samples):
        label = int(labels[index])
        angle = 2.0 * np.pi * label / n_classes
        cy = side / 2.0 + (side / 3.0) * np.sin(angle)
        cx = side / 2.0 + (side / 3.0) * np.cos(angle)
        sigma = side / 5.0
        blob = 220.0 * np.exp(-(((ys - cy) ** 2 + (xs - cx) ** 2) / (2.0 * sigma**2)))
        noisy = blob + rng.uniform(0.0, noise, size=(side, side))
        images[index] = noisy.reshape(-1)
    images = np.clip(images, 0.0, 255.0)
    return SyntheticMnist(
        images=images.astype(np.float64),
        labels=labels.astype(np.int64),
        side=side,
        n_classes=n_classes,
    )


def quantize_unsigned(values: np.ndarray, bits: int, max_value: Optional[float] = None) -> np.ndarray:
    """Uniform unsigned quantisation to ``bits`` bits."""
    if bits < 1:
        raise UnknownWorkloadError("bits must be >= 1")
    array = np.asarray(values, dtype=np.float64)
    top = float(array.max()) if max_value is None else float(max_value)
    if top <= 0:
        return np.zeros_like(array, dtype=np.int64)
    levels = (1 << bits) - 1
    return np.clip(np.round(array / top * levels), 0, levels).astype(np.int64)
