"""The segment kernels' per-voxel steps run over slabs on several threads
(``vesselness._each_slab``). The results must not depend on the thread count
or the slab size, an error or an interrupt in any slab must reach the caller,
and no thread may outlive the call. The thread count follows
``vesselness._cpu_count``, which the tests replace."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from scipy import ndimage

from fibervox import cli, vesselness
from fibervox.vesselness import (ScaleSet, VesselnessParams, frangi_multiscale,
                                 hessian_at_scale, structure_tensor_orientation)
from fibervox.volume import GridSpec, Volume
from test_kernel_oracles import (assert_bits_equal, assert_field_equal, hessian_reference,
                                 multiscale_reference, orientation_reference)

# 64 x 64 planes: three slabs at the default size (8, 8 and 4 planes), twenty
# at one plane each.
DIMS = (20, 64, 64)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(vesselness, "_cpu_count", lambda: n)


@pytest.fixture(scope="module")
def volume():
    rng = np.random.default_rng(20)
    return Volume(GridSpec(DIMS, 1.0), ndimage.gaussian_filter(rng.normal(size=DIMS), 1.0))


@pytest.mark.parametrize("slab_voxels", [64 * 64, None], ids=["one-plane", "default"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_segment_kernels_match_references_on_any_thread_count(volume, cpus, slab_voxels,
                                                             monkeypatch):
    use_cpus(monkeypatch, cpus)
    if slab_voxels is not None:
        monkeypatch.setattr(vesselness, "_SLAB_VOXELS", slab_voxels)
    assert len(vesselness._slabs(DIMS)) == (20 if slab_voxels else 3)
    baseline = threading.active_count()
    e = hessian_at_scale(volume, 1.5)
    assert threading.active_count() == baseline
    for got, want in zip((e.l1, e.l2, e.l3), hessian_reference(volume, 1.5)):
        assert_bits_equal(got, want)
    params = VesselnessParams()
    got = frangi_multiscale(volume, ScaleSet((1.0, 2.0)), params).data
    assert threading.active_count() == baseline
    assert_bits_equal(got, multiscale_reference(volume, (1.0, 2.0), params))
    got = structure_tensor_orientation(volume, 1.0, 2.0)
    assert threading.active_count() == baseline
    assert_field_equal(got, orientation_reference(volume, 1.0, 2.0))


def test_slabs_run_on_as_many_threads_as_cpus(monkeypatch):
    # Each slab waits until three threads hold one, so every round of three
    # slabs runs on three different threads.
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 4)
    barrier = threading.Barrier(3, timeout=10)

    def fn(sl):
        barrier.wait()
        return sl.start, threading.get_ident()

    results = vesselness._each_slab(fn, (9, 2, 2))
    assert [start for start, _ in results] == list(range(9))
    assert len({ident for _, ident in results}) == 3


def test_every_slab_runs_once_under_fast_thread_switching(monkeypatch):
    # More threads than cores, switching every microsecond: a slab taken twice
    # or lost from the shared queue changes the list of starts.
    use_cpus(monkeypatch, 8)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 1)
    seen = []

    def fn(sl):
        seen.append(sl.start)
        return sl.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = vesselness._each_slab(fn, (400, 1, 1))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(400))
    assert sorted(seen) == list(range(400))


@pytest.mark.parametrize("kernel", [lambda v: hessian_at_scale(v, 1.5),
                                    lambda v: structure_tensor_orientation(v, 1.0, 2.0)],
                         ids=["hessian", "structure-tensor"])
def test_error_in_one_slab_reaches_the_caller(volume, kernel, monkeypatch):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 64 * 64)
    eig3 = vesselness._eig3_symmetric
    calls = []
    lock = threading.Lock()

    def failing_eig3(*components):
        with lock:
            calls.append(None)
            fail = len(calls) == 5
        if fail:
            raise RuntimeError("slab failed")
        return eig3(*components)

    monkeypatch.setattr(vesselness, "_eig3_symmetric", failing_eig3)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="slab failed"):
        kernel(volume)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("interrupt", ["ctrl-c", "sigterm"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_interrupt_in_one_slab_reaches_the_caller(volume, cpus, interrupt, monkeypatch):
    # The CLI turns Ctrl-C and SIGTERM into KeyboardInterrupt and cleans up
    # after it, so an interrupt raised while segment's slabs run must reach
    # the kernel's caller, stop the slabs not yet started and leave no worker
    # running. A SIGTERM sent from a worker runs the CLI's handler on the
    # calling thread.
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 64 * 64)
    eig3 = vesselness._eig3_symmetric
    calls = []
    lock = threading.Lock()

    def interrupted_eig3(*components):
        with lock:
            calls.append(None)
            fifth = len(calls) == 5
        if fifth and interrupt == "ctrl-c":
            raise KeyboardInterrupt("slab interrupted")
        if fifth:
            os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(0.01)  # leaves the interrupt time to stop the later slabs
        return eig3(*components)

    monkeypatch.setattr(vesselness, "_eig3_symmetric", interrupted_eig3)
    baseline = threading.active_count()
    previous = signal.signal(signal.SIGTERM, cli._interrupt)
    try:
        with pytest.raises(KeyboardInterrupt, match="slab interrupted" if interrupt == "ctrl-c"
                           else "interrupted by SIGTERM"):
            hessian_at_scale(volume, 1.5)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert 5 <= len(calls) < len(vesselness._slabs(DIMS)) == 20
    assert threading.active_count() == baseline
