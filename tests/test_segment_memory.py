"""Peak memory of the two segment kernels, counted by tracemalloc in units of
one volume-size float64 array.

Their per-voxel steps run over slabs of whole y-z planes, so a peak is the
full-volume arrays a kernel keeps (the six Hessian or tensor components and
the outputs) plus a few slab temporaries for each thread. At the default
slab size a 48^3 grid is four 14-plane slabs, so that case uses two-plane
slabs, the depth the default gives on 128 x 128 planes; the second case runs
at the default."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from fibervox import vesselness
from fibervox.vesselness import (ScaleSet, VesselnessParams, frangi_multiscale,
                                 structure_tensor_orientation)
from fibervox.volume import GridSpec, Volume

MAX_VOLUMES = 16


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
def test_segment_kernel_peaks_stay_under_sixteen_volumes(dims, slab_voxels, monkeypatch):
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
        assert peak / volume_bytes <= MAX_VOLUMES, f"{name}: {peak / volume_bytes:.1f} volumes"


def test_derivatives_keep_no_full_volume_intermediate(monkeypatch):
    # One output is one volume. A whole-volume x pass beside it would make two;
    # each of the two workers holds only its slab's halo and passes.
    monkeypatch.setattr(vesselness, "_cpu_count", lambda: 2)
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 48 * 48 * 2)
    data = np.random.default_rng(23).normal(size=(192, 48, 48))
    peak = traced_peak(lambda: vesselness._derivatives(data, 1.5, ((0, 1, 2),)))
    assert peak / data.nbytes < 1.5, f"{peak / data.nbytes:.2f} volumes"
