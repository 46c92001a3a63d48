"""The benchmark's workloads: how each one's vectors are made, and its build profile.

Each workload is a fixed distribution. Its base set is one fixed sample of
that distribution (drawn from the workload's own constant seed, as
ann-benchmarks uses fixed base sets), so every run builds the same index. The
held-out queries are drawn from the same distribution with the run's --seed,
so different seeds exercise different queries against that index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Neighbours returned per query; recall is recall@K_RESULTS.
K_RESULTS = 10

# Recall targets at which QPS and distance evaluations are read off the curve.
RECALL_TARGETS = (0.95, 0.99)

# Pool sizes tried in ascending order until recall reaches the highest target.
LADDER = (10, 12, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120, 150, 200, 250, 300, 400)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    queries: int
    dim: int
    clusters: int
    spread: float
    # Dimension of the latent space the blobs live in, mapped to `dim` by a
    # fixed random projection; None means the blobs live in `dim` directly.
    latent_dim: int | None
    noise: float
    base_seed: int
    K: int
    m: int
    mp: float
    why: str

    def build_params(self) -> dict:
        return {"K": self.K, "m": self.m, "mp": self.mp}

    def _sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        shape = np.random.Generator(np.random.PCG64(self.base_seed))
        space = self.latent_dim or self.dim
        centers = shape.standard_normal((self.clusters, space))
        labels = rng.integers(0, self.clusters, count)
        points = centers[labels] + self.spread * rng.standard_normal((count, space))
        if self.latent_dim is not None:
            projection = shape.standard_normal((space, self.dim)) / np.sqrt(space)
            points = points @ projection + self.noise * rng.standard_normal((count, self.dim))
        return points.astype(np.float32)

    def make(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """(base, queries) as float32 arrays; queries depend on `seed` only."""
        base = self._sample(np.random.Generator(np.random.PCG64([self.base_seed, 0])), self.n)
        queries = self._sample(
            np.random.Generator(np.random.PCG64([self.base_seed, 1, seed])), self.queries
        )
        return base, queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            n=1000,
            queries=1000,
            dim=16,
            clusters=4,
            spread=1.0,
            latent_dim=None,
            noise=0.0,
            base_seed=11,
            K=100,
            m=50,
            mp=0.53,
            why="criterion-06 make-up, sift-like profile: NN-descent sorting and merging lead the build, short pools",
        ),
        Workload(
            name="search32",
            n=1000,
            queries=2000,
            dim=32,
            clusters=1,
            spread=1.0,
            latent_dim=None,
            noise=0.0,
            base_seed=0,
            K=20,
            m=20,
            mp=0.53,
            why="one 32-d Gaussian, light K=20 profile: cheap build, recall 0.99 needs pools near 60, so best-first search and pool upkeep lead",
        ),
        Workload(
            name="sift128",
            n=500,
            queries=1000,
            dim=128,
            clusters=10,
            spread=1.0,
            latent_dim=16,
            noise=0.05,
            base_seed=0,
            K=100,
            m=50,
            mp=0.53,
            why="128-d vectors of 16-d intrinsic dimension: the same code becomes bound by floating-point work",
        ),
    )
}
