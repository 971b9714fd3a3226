"""Shared-memory helpers and leak hygiene.

The runners no longer publish draw blocks, but the
:mod:`repro.experiments.shm` helpers remain until their last importer
goes, so these tests pin the helper contract directly
(publish/attach/release round trips, failure fallbacks) and check that
no ``repro_draws_*`` segments survive a parallel sweep.
"""

import glob
import os

import numpy as np
import pytest

from repro.experiments import shm
from repro.experiments.runner import StochasticConfig, run_sweep
from repro.problems.samplers import UniformAlpha


def _segments():
    return glob.glob("/dev/shm/repro_draws_*")


def _shm_backed():
    """True when POSIX shared memory is observable under /dev/shm."""
    return os.path.isdir("/dev/shm")


class TestRoundTrip:
    def test_publish_attach_release_bit_identical(self):
        rng = np.random.default_rng(42)
        mat = rng.random((17, 31))
        out = shm.publish_draws(mat)
        if out is None:
            pytest.skip("platform refused shared memory")
        block, spec = out
        try:
            name, rows, cols = spec
            assert (rows, cols) == mat.shape
            arr = shm.attached_draws(spec)
            assert arr is not None
            assert np.array_equal(arr, mat)
            assert not arr.flags.writeable
            # Repeated attaches hit the per-process cache.
            assert shm.attached_draws(spec) is arr
        finally:
            # Drop the cached mapping before unlinking so close() can't
            # hit a BufferError from our own live view.
            shm._detach_all()
            shm.release_draws(block)
        if _shm_backed():
            assert not any(name in s for s in _segments())

    def test_publish_rejects_empty_and_non_2d(self):
        assert shm.publish_draws(np.empty((0, 5))) is None
        assert shm.publish_draws(np.empty((5, 0))) is None
        assert shm.publish_draws(np.ones(5)) is None

    def test_attach_missing_segment_returns_none(self):
        assert shm.attached_draws(("repro_draws_nonexistent_xyz", 2, 2)) is None

    def test_release_tolerates_double_unlink(self):
        out = shm.publish_draws(np.ones((2, 2)))
        if out is None:
            pytest.skip("platform refused shared memory")
        block, _ = out
        shm.release_draws(block)
        shm.release_draws(block)  # must not raise


@pytest.mark.skipif(not _shm_backed(), reason="no /dev/shm to observe")
class TestNoLeaks:
    BASE = dict(
        algorithms=("hf", "ba"),
        n_values=(8, 16),
        n_trials=24,
        seed=9,
        sampler=UniformAlpha(0.1, 0.5),
        chunk_size=8,
    )

    def test_sweep_leaves_no_segments(self):
        before = set(_segments())
        run_sweep(StochasticConfig(**self.BASE, n_jobs=2))
        assert set(_segments()) <= before

    def test_sweep_serial_and_parallel_bit_identical(self):
        serial = run_sweep(StochasticConfig(**self.BASE, n_jobs=1))
        parallel = run_sweep(StochasticConfig(**self.BASE, n_jobs=2))
        assert serial.records == parallel.records
