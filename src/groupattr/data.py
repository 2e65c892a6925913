"""Synthetic grouped datasets: Gaussian clusters on a circle.

Groups play the role of semantic classes or styles.  In conditional
mode every group carries a condition vector laid out as

    [group one-hot (N entries) | descriptor vector (descriptor_dim)]

where descriptors are fixed random vectors with a configurable shared
component controlling cross-group overlap.  The one-hot block is the
"content" part and the descriptor block the "style" part used by the
anchor-redirection unlearning method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .seeding import rng_for

# Probability that a training or retain row is given the null condition.
COND_DROPOUT = 0.1


@dataclass(frozen=True)
class DatasetSpec:
    n_groups: int = 5
    samples_per_group: int = 200
    dim: int = 2
    radius: float = 5.0
    noise_std: float = 0.3
    conditional: bool = False
    descriptor_dim: int = 8
    descriptor_overlap: float = 0.25

    def __post_init__(self):
        if self.n_groups < 2:
            raise ValueError("need at least 2 groups")
        if self.samples_per_group < 1 or self.dim < 1:
            raise ValueError("samples_per_group and dim must be positive")
        if self.noise_std < 0.0 or self.descriptor_dim < 0:
            raise ValueError("noise_std and descriptor_dim must be non-negative")
        if not 0.0 <= self.descriptor_overlap < 1.0:
            raise ValueError("descriptor_overlap must be in [0, 1)")


@dataclass
class GroupedDataset:
    """N disjoint groups of samples with optional per-group conditions:
    ``cond_vectors`` is the (N, cond_dim) condition table, row k group k's."""

    groups: list[np.ndarray]
    dim: int
    cond_vectors: np.ndarray | None
    group_names: list[str]

    def __post_init__(self):
        if len(self.groups) < 2:
            raise ValueError("need at least 2 groups")
        for g in self.groups:
            if g.ndim != 2 or g.shape[1] != self.dim:
                raise ValueError("every group must be a (n, dim) array")
        if len(self.group_names) != len(self.groups):
            raise ValueError("one name per group required")
        if self.cond_vectors is not None:
            self.cond_vectors = np.asarray(self.cond_vectors, dtype=np.float64)
            if self.cond_vectors.ndim != 2 or len(self.cond_vectors) != len(self.groups):
                raise ValueError("one condition vector per group required")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def cond_dim(self) -> int:
        return 0 if self.cond_vectors is None else self.cond_vectors.shape[1]

    def cond_of(self, k: int) -> np.ndarray | None:
        if self.cond_vectors is None:
            return None
        return self.cond_vectors[k]

    def dropout_conditions(self, labels: np.ndarray, conditional: bool,
                           seed: int, *path: int | str) -> np.ndarray | None:
        """The (B, cond_dim) condition block of a batch, with condition dropout.

        Row i is its group's condition, or the null condition (zeros)
        with probability ``COND_DROPOUT`` under the stream (seed,
        "dropout", *path); an unconditional model gets ``None``.  Training
        and unlearning both drop conditions this way, which trains the
        null-condition branch that esd and unconditional queries use.
        """
        if not conditional:
            return None
        drop = rng_for(seed, "dropout", *path).random(len(labels)) < COND_DROPOUT
        conds = self.cond_vectors[labels]
        conds[drop] = 0.0
        return conds

    def labeled_samples(self, exclude: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Stacked samples and their group indices."""
        xs, labels = [], []
        for i, g in enumerate(self.groups):
            if i == exclude:
                continue
            xs.append(g)
            labels.append(np.full(len(g), i, dtype=np.int64))
        return np.concatenate(xs, axis=0), np.concatenate(labels)

    def group_means(self) -> np.ndarray:
        return np.stack([g.mean(axis=0) for g in self.groups])

    def save(self, path: str | Path) -> None:
        """Write the groups, condition vectors and names (data only) as ``.npz``."""
        arrays = {f"group_{i}": g for i, g in enumerate(self.groups)}
        if self.cond_vectors is not None:
            arrays["cond_vectors"] = self.cond_vectors
        arrays["group_names"] = np.array(self.group_names)
        with open(path, "wb") as f:  # a file object keeps np.savez from renaming the path
            np.savez(f, **arrays)

    @classmethod
    def load(cls, path: str | Path) -> "GroupedDataset":
        with np.load(path, allow_pickle=False) as z:
            names = [str(n) for n in z["group_names"]]
            groups = [np.asarray(z[f"group_{i}"], dtype=np.float64) for i in range(len(names))]
            conds = z["cond_vectors"] if "cond_vectors" in z else None
        return cls(groups, groups[0].shape[1], conds, names)


def generate_grouped_dataset(spec: DatasetSpec, seed: int) -> GroupedDataset:
    """Gaussian clusters with means equally spaced on a circle.

    The circle radius is exact, so the nearest pair of group means sits
    at the chord distance 2 * radius * sin(pi / N).  The seed fixes a
    global rotation, the sample draws, and the descriptor vectors.
    """
    rng = rng_for(seed, "dataset")
    n = spec.n_groups
    rotation = rng.uniform(0.0, 2.0 * math.pi)
    groups = []
    for k in range(n):
        angle = rotation + 2.0 * math.pi * k / n
        mean = np.zeros(spec.dim)
        mean[0] = spec.radius * math.cos(angle)
        if spec.dim > 1:
            mean[1] = spec.radius * math.sin(angle)
        samples = mean + spec.noise_std * rng.standard_normal((spec.samples_per_group, spec.dim))
        groups.append(samples)

    conds = None
    if spec.conditional:
        shared = rng.standard_normal(spec.descriptor_dim)
        conds = np.hstack([np.eye(n), np.empty((n, spec.descriptor_dim))])
        for k in range(n):
            own = rng.standard_normal(spec.descriptor_dim)
            conds[k, n:] = (
                math.sqrt(spec.descriptor_overlap) * shared
                + math.sqrt(1.0 - spec.descriptor_overlap) * own
            )

    names = [f"group{k}" for k in range(n)]
    return GroupedDataset(groups, spec.dim, conds, names)
