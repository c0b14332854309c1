"""Data model for cluster-specific (matched set) binary-outcome studies.

A cluster is a matched set of individuals sharing one nuisance intercept.
Clusters whose outcomes are all 0 or all 1 (concordant) carry no information
about the covariate effects and are removed at screening.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Cluster",
    "Dataset",
    "SizeBlock",
    "Parameters",
    "FitResult",
    "DataError",
    "screen_dataset",
    "read_csv",
]


class DataError(ValueError):
    """Malformed or degenerate input data."""


@dataclass(frozen=True)
class Cluster:
    """One matched set: a (K, P) covariate matrix and K binary outcomes."""

    covariates: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.covariates, dtype=float)
        y = np.asarray(self.outcomes)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError("covariates must be a K x P matrix with K, P >= 1")
        if y.shape != (X.shape[0],):
            raise DataError("outcomes length must match covariate rows")
        if not np.all(np.isfinite(X)):
            raise DataError("covariate entries must be finite")
        # checked before the cast to int, which would turn 0.7 into 0
        if not np.all((y == 0) | (y == 1)):
            raise DataError("outcomes must be 0 or 1")
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "outcomes", y.astype(int))

    @property
    def size(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def outcome_sum(self) -> int:
        return int(self.outcomes.sum())

    @property
    def is_concordant(self) -> bool:
        return self.outcome_sum in (0, self.size)

    def linear_predictors(self, beta) -> np.ndarray:
        """eta_k = X_k' beta for each individual in the cluster."""
        return self.covariates @ np.asarray(beta, dtype=float)


class SizeBlock(NamedTuple):
    """The clusters of one size K, stacked in dataset order."""

    index: np.ndarray  # (n,) positions in Dataset.clusters
    X: np.ndarray      # (n, K, P) covariates
    y: np.ndarray      # (n, K) outcomes
    T: np.ndarray      # (n,) outcome sums


@dataclass(frozen=True)
class Dataset:
    """Screened collection of discordant clusters, also packed into one
    SizeBlock per cluster size, in order of first appearance."""

    clusters: tuple[Cluster, ...]
    dropped_concordant: int = 0
    blocks: tuple[SizeBlock, ...] = field(init=False, repr=False,
                                          compare=False)
    n_individuals: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(self.clusters))
        if not self.clusters:
            raise DataError("no discordant clusters; estimators undefined")
        widths = {c.n_covariates for c in self.clusters}
        if len(widths) != 1:
            raise DataError("all clusters must have the same covariate width")
        for c in self.clusters:
            if c.is_concordant:
                raise DataError("Dataset may only contain discordant clusters; "
                                "use screen_dataset")
        sizes = np.array([c.size for c in self.clusters])
        blocks = []
        for K in dict.fromkeys(sizes.tolist()):
            idx = np.flatnonzero(sizes == K)
            y = np.stack([self.clusters[j].outcomes for j in idx])
            X = np.stack([self.clusters[j].covariates for j in idx])
            blocks.append(SizeBlock(idx, X, y, y.sum(axis=1)))
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "n_individuals", int(sizes.sum()))

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_covariates(self) -> int:
        return self.clusters[0].n_covariates


@dataclass(frozen=True)
class Parameters:
    """Covariate effects plus optional per-cluster intercepts."""

    beta: np.ndarray
    cluster_effects: np.ndarray | None = None

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if not np.all(np.isfinite(b)):
            raise DataError("beta entries must be finite")
        object.__setattr__(self, "beta", b)
        if self.cluster_effects is not None:
            ce = np.atleast_1d(np.asarray(self.cluster_effects, dtype=float))
            if not np.all(np.isfinite(ce)):
                raise DataError("cluster effects must be finite")
            object.__setattr__(self, "cluster_effects", ce)


@dataclass
class FitResult:
    """Outcome of one maximization run."""

    beta_hat: np.ndarray
    objective: float
    grad_inf_norm: float
    iterations: int
    method: str
    converged: bool
    tau: np.ndarray | None = None
    objective_trace: list[float] = field(default_factory=list)
    dropped_concordant: int = 0


def screen_dataset(clusters, dropped_concordant: int = 0) -> Dataset:
    """Drop concordant clusters and build a Dataset over the remainder.

    Accepts an iterable of Cluster (or an existing Dataset, which is
    re-screened as a no-op).  Raises DataError if nothing survives.
    """
    if isinstance(clusters, Dataset):
        source = clusters.clusters
        dropped_concordant += clusters.dropped_concordant
    else:
        source = list(clusters)
    kept = []
    for c in source:
        if not isinstance(c, Cluster):
            c = Cluster(np.asarray(c[0]), np.asarray(c[1]))
        if c.is_concordant:
            dropped_concordant += 1
        else:
            kept.append(c)
    # Dataset raises DataError when nothing is kept
    return Dataset(tuple(kept), dropped_concordant)


def read_csv(path) -> Dataset:
    """Read `cluster_id,y,x1,...,xP` rows, group by cluster id, and screen.

    Rows are grouped by cluster_id in first-appearance order; input order is
    preserved within each cluster.  Parse errors report the 1-based line
    number.
    """
    groups: dict[str, list[tuple[int, list[float]]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "cluster_id" or header[1] != "y":
            raise DataError(f"{path}: line 1: expected header "
                            "'cluster_id,y,x1,...,xP'")
        p = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != p + 2:
                raise DataError(f"{path}: line {lineno}: expected {p + 2} "
                                f"fields, got {len(row)}")
            cid = row[0].strip()
            try:
                y = int(row[1])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: outcome '{row[1]}' "
                                "is not an integer") from None
            if y not in (0, 1):
                raise DataError(f"{path}: line {lineno}: outcome must be 0 or 1")
            try:
                x = [float(v) for v in row[2:]]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed covariate "
                                "value") from None
            groups.setdefault(cid, []).append((y, x))
    if not groups:
        raise DataError(f"{path}: no data rows")
    clusters = []
    for cid, rows in groups.items():
        y = np.array([r[0] for r in rows], dtype=int)
        X = np.array([r[1] for r in rows], dtype=float)
        clusters.append(Cluster(covariates=X, outcomes=y))
    return screen_dataset(clusters)
