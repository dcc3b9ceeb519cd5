"""Peak memory of the two segment kernels, counted by tracemalloc in units of
one volume-size float64 array.

Each slab runs its Gaussian passes and its per-voxel steps into slab-local
arrays, so a peak is the full-volume arrays a kernel keeps (the input, and
Frangi's eigenvalues and responses, or the structure tensor's three gradients,
its trace and its float32 axes) plus a few slab temporaries and halos for
each of the two worker threads. At the default slab size a 48^3 grid is four
14-plane slabs, so that case uses two-plane slabs, the depth the default
gives on 128 x 128 planes; the second case runs at the default.

Measured with two workers on both grids: Frangi 6.0-6.2 volumes and the
structure tensor 7.7-8.0, against 8.6-9.1 and 9.4-9.5 when each kernel kept
six full-volume components. Each bound sits at least 1.3 and 0.6 volumes
above the first and 1.1 and 0.7 volumes below the second."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from fibervox import vesselness
from fibervox.vesselness import (ScaleSet, VesselnessParams, frangi_multiscale,
                                 structure_tensor_orientation)
from fibervox.volume import GridSpec, Volume

MAX_VOLUMES = {"frangi": 7.5, "structure tensor": 8.6}


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dims, slab_voxels", [
    ((48, 48, 48), 48 * 48 * 2),
    ((48, 128, 128), None),
], ids=["48-cubed", "default-slab"])
def test_segment_kernel_peaks_hold_no_full_volume_components(dims, slab_voxels, monkeypatch):
    # Two workers whatever the host, since each holds its own slab temporaries.
    monkeypatch.setattr(vesselness, "_cpu_count", lambda: 2)
    if slab_voxels is not None:
        monkeypatch.setattr(vesselness, "_SLAB_VOXELS", slab_voxels, raising=False)
    rng = np.random.default_rng(48)
    v = Volume(GridSpec(dims, 1.0), ndimage.gaussian_filter(rng.normal(size=dims), 1.5))
    volume_bytes = 8 * v.grid.voxel_count
    peaks = {
        "structure tensor": traced_peak(lambda: structure_tensor_orientation(v, 1.0, 2.0)),
        "frangi": traced_peak(lambda: frangi_multiscale(v, ScaleSet((1.0, 1.5, 2.0)),
                                                        VesselnessParams())),
    }
    for name, peak in peaks.items():
        assert peak / volume_bytes <= MAX_VOLUMES[name], \
            f"{name}: {peak / volume_bytes:.1f} volumes"


def test_derivatives_keep_no_full_volume_intermediate(monkeypatch):
    # One output is one volume. A whole-volume x pass beside it would make two;
    # each of the two workers holds only its slab's halo and passes.
    monkeypatch.setattr(vesselness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 48 * 48 * 2)
    data = np.random.default_rng(23).normal(size=(192, 48, 48))
    peak = traced_peak(lambda: vesselness._derivatives(data, 1.5, ((0, 1, 2),)))
    assert peak / data.nbytes < 1.5, f"{peak / data.nbytes:.2f} volumes"
