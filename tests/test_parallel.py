"""The one process pool of a command: its size, and which work each
command splits across it."""

import multiprocessing
import os

import pytest

from tensebench.cli import main
from tensebench.parallel import parallel_map
from test_audit import RecordingPool


@pytest.fixture
def pool_sizes(monkeypatch):
    """Put RecordingPool in place of multiprocessing.Pool; returns the list
    of pool sizes it records."""
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return RecordingPool.sizes


class TestParallelMap:
    @pytest.mark.parametrize("cpus, items, size", [(8, 3, 3), (2, 20, 2), (None, 20, None)])
    def test_pool_capped_by_items_and_cpus(self, monkeypatch, pool_sizes, cpus, items, size):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        results = parallel_map(abs, list(range(-items, 0)), 10 ** 6)
        assert list(results) == list(range(items, 0, -1))
        assert pool_sizes == ([] if size is None else [size])


class TestOnePoolPerCommand:
    """`tw audit` splits the family by parameter, in one pool; the frame
    search is one work item and starts none."""

    @pytest.mark.parametrize("argv, sizes", [
        (("audit", "top", "--jobs", "3"), [3]),
        (("audit", "fg", "--jobs", "3"), [3]),
        (("audit", "top", "--s", "{3}", "--jobs", "3"), []),
        (("search", "frames", "--k", "3", "--jobs", "3"), []),
    ], ids=["audit-top-family", "audit-fg-family", "audit-one-parameter", "search-frames"])
    def test_pools_started(self, monkeypatch, pool_sizes, capsys, argv, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert pool_sizes == sizes
