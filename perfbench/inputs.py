"""Seeded inputs for the benchmark workloads and the kernel sweep.

Every workload generator takes an integer input seed and returns the same
data for the same seed; the kernel-sweep datasets are fixed.  Outcome sums
follow a per-cluster schedule that does not depend on the seed, so every
seed gives the kernels the same amount of work; the outcomes themselves
are drawn exactly from the conditional logistic model given each sum.
"""

from __future__ import annotations

import itertools

import numpy as np

HIGHR_BETA = (0.6, -0.4)
WIDE_BETA = (0.5, -0.3, 0.2, 0.8, -0.6, 0.1)
ASYM_BETA = (0.7, -0.5)


def _conditional_outcomes(rng, eta: np.ndarray, T: int) -> np.ndarray:
    """One draw of y from P(y | sum y = T) proportional to exp(y . eta)."""
    K = eta.shape[0]
    if T in (0, K):
        return np.full(K, 1 if T == K else 0)
    subsets = list(itertools.combinations(range(K), T))
    logw = np.array([eta[list(s)].sum() for s in subsets])
    w = np.exp(logw - logw.max())
    pick = subsets[rng.choice(len(subsets), p=w / w.sum())]
    y = np.zeros(K, dtype=int)
    y[list(pick)] = 1
    return y


def _clusters(seed: int, tag: int, sizes, sums, beta, covariates):
    """Rows (cluster_id, y, x...) for clusters of the given sizes and sums."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    beta = np.asarray(beta, dtype=float)
    rows = []
    for j, (K, T) in enumerate(zip(sizes, sums)):
        X = covariates(rng, K)
        y = _conditional_outcomes(rng, X @ beta, T)
        rows.extend((j, int(y[k]), X[k]) for k in range(K))
    return rows


def write_csv(path, rows) -> None:
    p = len(rows[0][2])
    with open(path, "w") as fh:
        fh.write("cluster_id,y," + ",".join(f"x{i + 1}" for i in range(p))
                 + "\n")
        for cid, y, x in rows:
            fh.write(f"c{cid},{y}," + ",".join(repr(float(v)) for v in x)
                     + "\n")


def _normal(p):
    return lambda rng, K: rng.standard_normal((K, p))


def _wide_covariates(rng, K):
    """Six within-cluster-varying covariates: normal, binary and skewed."""
    return np.column_stack([
        rng.standard_normal(K),
        rng.standard_normal(K),
        (rng.random(K) < 0.4).astype(float),
        rng.standard_normal(K) * 0.5,
        rng.exponential(1.0, K) - 1.0,
        rng.uniform(-1.0, 1.0, K),
    ])


def highr_rows(seed: int):
    """K=5, P=2: 25 discordant clusters (sums 1..4) plus 15 concordant."""
    sums = [1] * 15 + [2] * 6 + [3] * 3 + [4] * 1 + [0] * 8 + [5] * 7
    return _clusters(seed, 1, [5] * len(sums), sums, HIGHR_BETA, _normal(2))


# cluster count per size for the wide design; 12,100 rows over 3,000 clusters
WIDE_SIZES = {2: 700, 3: 700, 4: 550, 5: 400, 6: 300, 7: 200, 8: 150}
WIDE_CONCORDANT_EVERY = 4  # every 4th cluster is concordant: 2,250 discordant


def wide_rows(seed: int, scale: float = 1.0):
    """J=3000 times `scale`, K in 2..8, P=6, fixed schedule of outcome sums."""
    sizes, sums = [], []
    for K, count in WIDE_SIZES.items():
        for i in range(round(count * scale)):
            sizes.append(K)
            if len(sums) % WIDE_CONCORDANT_EVERY == 0:
                sums.append(K * (len(sums) // WIDE_CONCORDANT_EVERY % 2))
            else:
                sums.append(1 + i % (K - 1))
    return _clusters(seed, 2, sizes, sums, WIDE_BETA, _wide_covariates)


def asym_rows(seed: int, n: int = 150):
    """K=4, P=2: n discordant clusters with sums cycling over 1, 2, 3."""
    sums = [1 + j % 3 for j in range(n)]
    return _clusters(seed, 3, [4] * len(sums), sums, ASYM_BETA, _normal(2))


# kernel sweep: 20 clusters of one size, sums cycling over 1..K-1
KERNEL_SIZES = (2, 3, 5)
KERNEL_R = (1, 10, 50, 200)
KERNEL_BETA = (0.4, -0.3)


def kernel_dataset(K: int):
    """Fixed 20-cluster dataset of size-K clusters for the kernel sweep."""
    from clogitrep.data import Cluster, screen_dataset

    sums = [1 + j % (K - 1) for j in range(20)]
    rows = _clusters(0, 100 + K, [K] * 20, sums, KERNEL_BETA, _normal(2))
    clusters = []
    for j in range(20):
        mine = [r for r in rows if r[0] == j]
        clusters.append(Cluster(np.array([r[2] for r in mine]),
                                np.array([r[1] for r in mine])))
    return screen_dataset(clusters)
