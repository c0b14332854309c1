"""Data model for cluster-specific (matched set) binary-outcome studies.

A cluster is a matched set of individuals sharing one nuisance intercept.
Clusters whose outcomes are all 0 or all 1 (concordant) carry no information
about the covariate effects and are removed at screening.

Every Dataset is packed by `Dataset.from_arrays`, which screens one row per
individual in numpy and stacks one SizeBlock per cluster size, a Dataset's
only storage; `_checked_rows` alone holds the rules for a valid row.
`read_csv` streams a file into it in one csv pass, parsing _CHUNK_ROWS rows
at a time, and re-reads the file row by row only to name the line of a bad
row; `screen_dataset` concatenates an iterable of Cluster into it.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cluster",
    "Dataset",
    "SizeBlock",
    "FitResult",
    "DataError",
    "screen_dataset",
    "read_csv",
]

# rows that read_csv holds as strings before parsing them; larger chunks
# raise the read's peak memory and are no faster
_CHUNK_ROWS = 1024


class DataError(ValueError):
    """Malformed or degenerate input data."""


def _checked_rows(X, y):
    """X as float and y as int, once X is n x P with P >= 1 and finite
    entries and y holds n outcomes, each 0 or 1."""
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    if X.ndim != 2 or X.shape[1] < 1 or y.shape != X.shape[:1]:
        raise DataError("covariates must be an n x P matrix with P >= 1 "
                        "and outcomes a vector of length n")
    if not np.all(np.isfinite(X)):
        raise DataError("covariate value is not finite")
    # checked before the cast to int, which would turn 0.7 into 0
    if not np.all((y == 0) | (y == 1)):
        raise DataError("outcome must be 0 or 1")
    return X, y.astype(int)


@dataclass(frozen=True)
class Cluster:
    """One matched set: a (K, P) covariate matrix and K binary outcomes."""

    covariates: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        X, y = _checked_rows(self.covariates, self.outcomes)
        if X.shape[0] < 1:
            raise DataError("a cluster needs at least one individual")
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "outcomes", y)

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


@dataclass(frozen=True, eq=False)
class SizeBlock:
    """The clusters of one size K, stacked in dataset order."""

    index: np.ndarray  # (n,) positions of the clusters in the dataset
    X: np.ndarray      # (n, K, P) covariates
    y: np.ndarray      # (n, K) outcomes
    T: np.ndarray      # (n,) outcome sums


@dataclass(frozen=True, eq=False)
class Dataset:
    """Screened discordant clusters, packed into one SizeBlock per cluster
    size in order of first appearance.  Built by `from_arrays`; compared
    and hashed by identity, as is each SizeBlock."""

    blocks: tuple[SizeBlock, ...]
    dropped_concordant: int

    @classmethod
    def from_arrays(cls, cluster_index, y, X) -> Dataset:
        """Validate n rows, drop the concordant clusters and pack the rest.

        Row i has cluster label cluster_index[i], outcome y[i] in {0, 1} and
        finite covariates X[i] (X is n x P).  Clusters keep the order in
        which their labels first appear, rows their input order.  Raises
        DataError on invalid rows or when no discordant cluster is left.
        """
        X, y = _checked_rows(X, y)
        if np.shape(cluster_index) != y.shape:
            raise DataError("expected one cluster label per row")
        # clusters numbered by first appearance
        _, first, code = np.unique(cluster_index, return_index=True,
                                   return_inverse=True)
        code = np.argsort(np.argsort(first))[code]
        sizes = np.bincount(code)
        sums = np.bincount(code, weights=y)
        keep = (sums > 0) & (sums < sizes)
        if not keep.any():
            raise DataError("no discordant clusters; estimators undefined")
        # the kept rows, cluster by cluster
        rows = np.argsort(code, kind="stable")
        rows = rows[keep[code[rows]]]
        X, y, sizes = X[rows], y[rows], sizes[keep]
        start = np.cumsum(sizes) - sizes
        blocks = []
        for K in dict.fromkeys(sizes.tolist()):
            index = np.flatnonzero(sizes == K)
            take = start[index][:, None] + np.arange(K)
            yb = y[take]
            blocks.append(SizeBlock(index, X[take], yb, yb.sum(axis=1)))
        return cls(tuple(blocks), int(keep.size - keep.sum()))

    @property
    def n_clusters(self) -> int:
        return sum(b.index.shape[0] for b in self.blocks)

    @property
    def n_individuals(self) -> int:
        return sum(b.y.size for b in self.blocks)

    @property
    def n_covariates(self) -> int:
        return self.blocks[0].X.shape[2]


@dataclass
class FitResult:
    """Outcome of one maximization run."""

    beta_hat: np.ndarray
    objective: float
    grad_inf_norm: float
    iterations: int
    method: str
    # the profile roots at beta_hat, one per cluster, from the last evaluation
    tau: np.ndarray | None = None
    dropped_concordant: int = 0


def screen_dataset(clusters) -> Dataset:
    """Drop the concordant ones of an iterable of Cluster and build a
    Dataset over the rest.  Raises DataError if nothing survives."""
    source = list(clusters)
    if len({c.n_covariates for c in source}) > 1:
        raise DataError("all clusters must have the same covariate width")
    # an empty source leaves from_arrays no discordant cluster
    return Dataset.from_arrays(
        np.repeat(np.arange(len(source)), [c.size for c in source]),
        np.concatenate([c.outcomes for c in source] or [np.zeros(0)]),
        np.concatenate([c.covariates for c in source] or [np.zeros((0, 1))]))


def _blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _columns(rows, width: int):
    """The cluster ids, outcomes and covariates of the csv rows that are not
    blank, parsed column by column; the values are left to _checked_rows.

    Raises DataError for a row of the wrong width, an outcome that int()
    rejects or a covariate that float() rejects.
    """
    if {len(row) for row in rows} != {width}:
        rows = [row for row in rows if not _blank(row)]
        for row in rows:
            if len(row) != width:
                raise DataError(f"expected {width} fields, got {len(row)}")
    # an all-blank chunk gives empty columns
    ids, y, *x = list(zip(*rows)) or [()] * width
    try:
        y = list(map(int, y))
    except ValueError:
        for v in y:  # name the first outcome that int() rejects
            try:
                int(v)
            except ValueError:
                raise DataError(f"outcome '{v}' is not an integer") from None
    try:
        x = np.array(x, dtype=float).T
    except ValueError:
        raise DataError("malformed covariate value") from None
    return ids, y, x


def _locate(path, width: int):
    """Re-read the data rows of `path` one by one with _columns and
    _checked_rows, and raise DataError at the first that fails, naming the
    physical line on which it starts (a quoted field can span lines).
    Returns if every row passes."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        line = reader.line_num + 1
        for row in reader:
            try:
                _, y, x = _columns([row], width)
                _checked_rows(x, y)
            except DataError as exc:
                raise DataError(f"{path}: line {line}: {exc}") from None
            line = reader.line_num + 1


def read_csv(path) -> Dataset:
    """Read `cluster_id,y,x1,...,xP` rows, group by cluster id, and screen.

    Rows are grouped by cluster_id, stripped of padding, in first-appearance
    order; input order is preserved within each cluster.  The file is parsed
    in one pass, _CHUNK_ROWS rows at a time, and the parsed columns are
    checked once, by `Dataset.from_arrays`.  If either step fails, the file
    is re-read row by row so that the error reports the 1-based physical
    line on which the first bad row starts.
    """
    names, codes, outcomes, chunks = {}, [], [], []
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
        width = len(header)
        try:
            while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
                ids, y, x = _columns(rows, width)
                codes += [names.setdefault(i.strip(), len(names))
                          for i in ids]
                outcomes += y
                chunks.append(x)
            if not codes:
                raise DataError(f"{path}: no data rows")
            return Dataset.from_arrays(codes, outcomes, np.concatenate(chunks))
        except DataError:
            _locate(path, width)
            raise
