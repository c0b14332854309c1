import numpy as np
import pytest
from scipy.special import expit

from clogitrep.data import Cluster, screen_dataset


@pytest.fixture
def matched_pair_dataset():
    """3 discordant pairs with treated=1/control=0 and 1 reversed pair.

    Closed forms: CMLE = log 3, MLE = 2 log 3.
    """
    X = np.array([[1.0], [0.0]])
    clusters = [Cluster(X, np.array([1, 0])) for _ in range(3)]
    clusters.append(Cluster(X, np.array([0, 1])))
    return screen_dataset(clusters)


@pytest.fixture
def mirrored_dataset():
    """Treated/control outcome patterns are mirror images: both fits are 0."""
    X = np.array([[1.0], [0.0]])
    clusters = [Cluster(X, np.array([1, 0])) for _ in range(2)]
    clusters += [Cluster(X, np.array([0, 1])) for _ in range(2)]
    return screen_dataset(clusters)


def random_matched_pairs(seed, n_pairs=50, p=2, beta=(0.4, -0.3)):
    """Seeded matched-pair (K=2) dataset with p covariates."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)[:p]
    clusters = []
    while len(clusters) < n_pairs:
        X = rng.normal(size=(2, p))
        b = rng.normal()
        prob = expit(b + X @ beta)
        y = (rng.random(2) < prob).astype(int)
        c = Cluster(X, y)
        if not c.is_concordant:
            clusters.append(c)
    return screen_dataset(clusters)


def random_one_to_k(seed, n_clusters=30, controls=2, beta=0.7):
    """Seeded 1:K treatment-control dataset (P=1, first individual treated)."""
    rng = np.random.default_rng(seed)
    size = controls + 1
    x = np.zeros((size, 1))
    x[0, 0] = 1.0
    clusters = []
    while len(clusters) < n_clusters:
        b = rng.normal()
        prob = expit(b + beta * x[:, 0])
        y = (rng.random(size) < prob).astype(int)
        c = Cluster(x, y)
        if not c.is_concordant:
            clusters.append(c)
    return screen_dataset(clusters)


def random_five_sets(seed, n_clusters=25, beta=(0.6, -0.4)):
    """Seeded dataset of discordant size-5 clusters with two covariates."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    clusters = []
    while len(clusters) < n_clusters:
        X = rng.normal(size=(5, 2))
        y = (rng.random(5) < expit(rng.normal() + X @ beta)).astype(int)
        c = Cluster(X, y)
        if not c.is_concordant:
            clusters.append(c)
    return screen_dataset(clusters)


def random_cluster_eta(rng, k_range=(2, 5)):
    """Random (eta, T) for a discordant cluster."""
    K = int(rng.integers(k_range[0], k_range[1] + 1))
    T = int(rng.integers(1, K))
    eta = rng.normal(scale=1.5, size=K)
    return eta, T
