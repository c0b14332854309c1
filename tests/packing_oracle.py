"""Cluster-by-Cluster reference for the packed Dataset.

This is the packing that `Dataset.from_arrays` replaced, kept as an
independent oracle: rows are grouped into `Cluster` objects with Python
floats and a dict of lists, the concordant ones are dropped one by one, and
each size's clusters are stacked with `np.stack`.  The tests require the
packed blocks to match it bitwise.
"""

import csv
from dataclasses import fields

import numpy as np
from scipy.special import expit

from clogitrep.data import Cluster, SizeBlock


def pack(clusters, dropped_concordant=0):
    """(blocks, n_clusters, n_individuals, dropped) after screening."""
    kept = []
    for c in clusters:
        if c.is_concordant:
            dropped_concordant += 1
        else:
            kept.append(c)
    sizes = np.array([c.size for c in kept])
    blocks = []
    for K in dict.fromkeys(sizes.tolist()):
        idx = np.flatnonzero(sizes == K)
        y = np.stack([kept[j].outcomes for j in idx])
        X = np.stack([kept[j].covariates for j in idx])
        blocks.append(SizeBlock(idx, X, y, y.sum(axis=1)))
    return blocks, len(kept), int(sizes.sum()), dropped_concordant


def csv_clusters(path):
    """The clusters of a valid `cluster_id,y,x1,...` file, by stripped id."""
    groups = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            groups.setdefault(row[0].strip(), []).append(
                (int(row[1]), [float(v) for v in row[2:]]))
    return [Cluster(np.array([r[1] for r in rows], dtype=float),
                    np.array([r[0] for r in rows], dtype=int))
            for rows in groups.values()]


def simulated_clusters(cfg, replicate_index):
    """The clusters of `simulate.generate_dataset`, one Cluster each."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, replicate_index]))
    J, K = cfg.J, cfg.K
    x2 = rng.standard_normal((J, K))
    delta = rng.standard_normal(J)
    u = rng.random((J, K))
    x1 = np.zeros((J, K))
    x1[:, 0] = 1.0
    b = delta - 5.0 * x1.mean(axis=1) + 3.0 * x2.mean(axis=1)
    p = expit(b[:, None] + cfg.beta_true[0] * x1 + cfg.beta_true[1] * x2)
    y = (u < p).astype(int)
    return [Cluster(covariates=np.column_stack([x1[j], x2[j]]),
                    outcomes=y[j]) for j in range(J)]


def unpack(dataset):
    """The dataset's clusters in dataset order, one Cluster each."""
    found = {j: Cluster(X, y) for b in dataset.blocks
             for j, X, y in zip(b.index.tolist(), b.X, b.y)}
    return [found[j] for j in range(dataset.n_clusters)]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


def assert_packed_like(dataset, clusters, dropped_concordant=0):
    """dataset's blocks and counts equal the oracle's, arrays bitwise."""
    blocks, n_clusters, n_individuals, dropped = pack(clusters,
                                                      dropped_concordant)
    assert (dataset.n_clusters, dataset.n_individuals,
            dataset.dropped_concordant) == (n_clusters, n_individuals,
                                            dropped)
    assert len(dataset.blocks) == len(blocks)
    for got, want in zip(dataset.blocks, blocks):
        for name in (f.name for f in fields(SizeBlock)):
            assert _same(getattr(got, name), getattr(want, name)), name
