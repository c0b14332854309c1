"""The names the benchmark harness in perfbench/ imports or wraps.

perfbench/ pins parts of the package by name: its tracer wraps a list of
module attributes, and its kernel sweep builds data through `Cluster` and
`screen_dataset`.  Deleting or renaming one of them breaks the benchmark,
so these tests catch it without running the harness.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import tracing  # noqa: E402

from clogitrep.data import Dataset  # noqa: E402


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attr, _ in tracing._TARGETS],
    ids=lambda x: getattr(x, "__name__", x))
def test_traced_names_exist(module, attr):
    assert callable(getattr(module, attr))


@pytest.mark.parametrize("K", inputs.KERNEL_SIZES)
def test_kernel_dataset_builds(K):
    ds = inputs.kernel_dataset(K)
    assert isinstance(ds, Dataset)
    assert ds.n_clusters == 20
    assert [b.X.shape[1] for b in ds.blocks] == [K]
