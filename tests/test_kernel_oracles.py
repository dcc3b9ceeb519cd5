"""Bit-for-bit oracles for six volume kernels. Each reference below is the
plain formula the kernel implements: the backprojection with explicit
validity masks, the Frangi response with explicit magnitudes and a final
clip, the Hessian eigenvalues from 18 independent convolution passes, one
full-volume eigensolve and a lexsort, the structure tensor filled entry by
entry, and for both rasterizers a brute force that tests every sub-lattice
point of every voxel against every fiber, with no bounding box and no
core/shell shortcut, beside the box walk that tested every voxel center of a
fiber's bounding box, for models too large for the brute force. The segment
kernels run over slabs of whole y-z planes; their cases shrink the slab so
that grids of a few voxels span several slabs."""

import itertools
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fibervox import ctsim, vesselness
from fibervox.ctsim import (Sinogram, _ramlak_filter, _ramlak_ramp, fbp_slice, rasterize,
                            rasterize_attenuation, rasterize_labels)
from fibervox.config import PipelineConfig
from fibervox.fibers import (EPOXY_DENSITY, GLASS_DENSITY, Fiber, FiberModel, ModelParams,
                             generate_model, hemisphere)
from fibervox.vesselness import (EigenField, ScaleSet, VesselnessParams, _divide_nonzero,
                                 _eig3_symmetric, _sort_by_magnitude,
                                 frangi_multiscale, frangi_response, gaussian_kernel,
                                 hessian_at_scale, structure_tensor_orientation)
from fibervox.volume import GridSpec, Volume


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ------------------------------------------------------------ backprojection


def fbp_reference(sino, shape):
    nx, ny = shape
    filtered = _ramlak_filter(sino.data, _ramlak_ramp(sino.n_detectors))
    n_det = sino.n_detectors
    center = (n_det - 1) / 2.0
    gx = np.arange(nx, dtype=np.float64)[:, None] - (nx - 1) / 2.0
    gy = np.arange(ny, dtype=np.float64)[None, :] - (ny - 1) / 2.0
    recon = np.zeros((nx, ny), dtype=np.float64)
    for row, theta in zip(filtered, sino.angles):
        s = gx * math.cos(theta) + gy * math.sin(theta) + center
        idx = np.floor(s).astype(np.int64)
        frac = s - idx
        valid0 = (idx >= 0) & (idx < n_det)
        valid1 = (idx + 1 >= 0) & (idx + 1 < n_det)
        v0 = np.where(valid0, row[np.clip(idx, 0, n_det - 1)], 0.0)
        v1 = np.where(valid1, row[np.clip(idx + 1, 0, n_det - 1)], 0.0)
        recon += v0 * (1.0 - frac) + v1 * frac
    return recon * (math.pi / sino.n_angles)


@pytest.mark.parametrize("n_angles, n_det, shape, falls_off", [
    (7, 9, (12, 5), True),      # odd detector, wider slice than the detector
    (11, 10, (6, 15), True),    # even detector, nx != ny
    (5, 4, (9, 9), True),
    (16, 16, (16, 16), True),   # the geometry radon_slice produces
    (3, 1, (2, 3), True),
    (9, 25, (1, 1), False),
])
def test_fbp_slice_matches_masked_reference(n_angles, n_det, shape, falls_off):
    rng = np.random.default_rng(n_angles * 100 + n_det)
    nx, ny = shape
    gx = np.arange(nx)[:, None, None] - (nx - 1) / 2.0
    gy = np.arange(ny)[None, :, None] - (ny - 1) / 2.0
    for angles in (np.arange(n_angles) * math.pi / n_angles,
                   rng.uniform(0.0, math.pi, n_angles)):
        sino = Sinogram(angles=angles, data=rng.normal(size=(n_angles, n_det)))
        assert_bits_equal(fbp_slice(sino, shape), fbp_reference(sino, shape))
        # some pixels' samples fall off the detector on both ends
        idx = np.floor(gx * np.cos(angles) + gy * np.sin(angles) + (n_det - 1) / 2.0)
        assert (idx.min() < 0 and idx.max() + 1 >= n_det) == falls_off


# ------------------------------------------------------------ Frangi response


def frangi_reference(e, p):
    l1, l2, l3 = e.l1, e.l2, e.l3
    s2 = l1 * l1 + l2 * l2 + l3 * l3
    c = 0.5 * math.sqrt(float(s2.max())) if p.c is None else float(p.c)
    bright_tube = (l2 <= 0) & (l3 < 0)
    if c == 0:
        return np.zeros(e.grid.dims, dtype=np.float32)
    abs2 = np.abs(l2)
    abs3 = np.abs(l3)
    ra2 = _divide_nonzero(abs2 * abs2, abs3 * abs3)
    rb2 = _divide_nonzero(l1 * l1, abs2 * abs3)
    response = ((1.0 - np.exp(-ra2 / (2.0 * p.alpha**2)))
                * np.exp(-rb2 / (2.0 * p.beta**2))
                * (1.0 - np.exp(-s2 / (2.0 * c * c))))
    response = np.where(bright_tube, response, 0.0)
    return np.clip(response, 0.0, 1.0).astype(np.float32)


def eigen_field(rng, kind, dims=(6, 5, 4)):
    if kind == "integers":      # many zeros and ties
        vals = rng.integers(-3, 4, size=(3,) + dims).astype(np.float64)
    elif kind == "bright":      # two strongly negative eigenvalues
        vals = np.stack([rng.normal(0.0, 0.1, dims), -rng.uniform(0.0, 2.0, dims),
                         -rng.uniform(0.0, 3.0, dims)])
    elif kind == "dark":        # the same tubes with the signs flipped
        vals = -np.stack([rng.normal(0.0, 0.1, dims), -rng.uniform(0.0, 2.0, dims),
                          -rng.uniform(0.0, 3.0, dims)])
    else:                       # wide dynamic range, both signs
        vals = rng.normal(size=(3,) + dims) * 10.0 ** rng.integers(-6, 4, size=(3,) + dims)
    l1, l2, l3 = _sort_by_magnitude(*vals)
    return EigenField(GridSpec(dims, 1.0), l1, l2, l3)


@pytest.mark.parametrize("kind", ["integers", "bright", "dark", "mixed"])
@pytest.mark.parametrize("params", [VesselnessParams(),
                                    VesselnessParams(alpha=0.3, beta=1.7, c=0.7),
                                    VesselnessParams(c=1e-3)])
def test_frangi_response_matches_reference(kind, params):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(5):
        e = eigen_field(rng, kind)
        assert_bits_equal(frangi_response(e, params).data, frangi_reference(e, params))


def test_frangi_response_zero_field_matches_reference():
    zeros = np.zeros((3, 3, 3))
    e = EigenField(GridSpec((3, 3, 3), 1.0), zeros, zeros, zeros)
    for params in (VesselnessParams(), VesselnessParams(c=1.0)):
        assert_bits_equal(frangi_response(e, params).data, frangi_reference(e, params))


# ------------------------------------------------------------ Hessian eigenvalues


def hessian_reference(v, sigma):
    g, d1, d2 = (gaussian_kernel(sigma, order) for order in range(3))
    data = v.data.astype(np.float64)
    s2 = sigma * sigma

    def component(kernels):
        out = data
        for axis, kernel in enumerate(kernels):
            out = ndimage.convolve1d(out, kernel, axis=axis, mode="reflect")
        return out * s2

    h = [component(k) for k in ((d2, g, g), (g, d2, g), (g, g, d2),
                                (d1, d1, g), (d1, g, d1), (g, d1, d1))]
    return sort_reference(*_eig3_symmetric(*h))


def sort_reference(lo, mid, hi):
    vals = np.stack([lo, mid, hi])
    order = np.lexsort((vals, np.abs(vals)), axis=0)
    return tuple(np.take_along_axis(vals, order, axis=0))


def test_sort_by_magnitude_matches_lexsort_on_every_tie():
    # Every triple over values with magnitude ties, including 0.0 against -0.0,
    # whose keys are equal, so that their order must be kept.
    triples = np.array(list(itertools.product([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], repeat=3)))
    for got, want in zip(_sort_by_magnitude(*triples.T), sort_reference(*triples.T)):
        assert_bits_equal(got, want)


def multiscale_reference(v, sigmas, p):
    out = None
    for sigma in sigmas:
        response = frangi_reference(EigenField(v.grid, *hessian_reference(v, sigma)), p)
        out = response if out is None else np.maximum(out, response)
    return out


# With 5 x 6 planes and a slab of three planes: nx a multiple of the slab,
# not a multiple, smaller than one slab, and a single plane.
SLAB_VOXELS = 3 * 5 * 6
SLAB_GRIDS = [(6, 5, 6), (7, 5, 6), (2, 5, 6), (1, 5, 6)]


def test_slab_grids_cover_the_four_cases(monkeypatch):
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", SLAB_VOXELS)
    depths = [[len(range(d[0])[sl]) for sl in vesselness._slabs(d)] for d in SLAB_GRIDS]
    assert depths == [[3, 3], [3, 3, 1], [2], [1]]


def slab_volumes(rng, dims):
    """White noise, and small integers."""
    yield Volume(GridSpec(dims, 1.0), rng.normal(size=dims))
    yield Volume(GridSpec(dims, 1.0), rng.integers(-2, 3, size=dims))


@pytest.mark.parametrize("dims", SLAB_GRIDS, ids=["multiple", "remainder", "short", "one"])
def test_hessian_matches_18_pass_reference(dims, monkeypatch):
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", SLAB_VOXELS)
    rng = np.random.default_rng(dims[0])
    for v in slab_volumes(rng, dims):
        for sigma in (0.8, 1.5):
            e = hessian_at_scale(v, sigma)
            for got, want in zip((e.l1, e.l2, e.l3), hessian_reference(v, sigma)):
                assert_bits_equal(got, want)


@pytest.mark.parametrize("dims", SLAB_GRIDS, ids=["multiple", "remainder", "short", "one"])
@pytest.mark.parametrize("params", [VesselnessParams(),
                                    VesselnessParams(alpha=0.3, beta=1.7, c=0.7)],
                         ids=["c_auto", "fixed_c"])
def test_frangi_multiscale_matches_reference(dims, params, monkeypatch):
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", SLAB_VOXELS)
    rng = np.random.default_rng(dims[0] + 10)
    sigmas = (1.0, 1.5, 2.0)
    for v in slab_volumes(rng, dims):
        got = frangi_multiscale(v, ScaleSet(sigmas), params).data
        assert_bits_equal(got, multiscale_reference(v, sigmas, params))


def test_segment_kernels_match_references_at_the_default_slab():
    # 64 x 64 planes give 8-plane slabs: 10 planes are two slabs.
    dims = (10, 64, 64)
    assert len(vesselness._slabs(dims)) == 2
    rng = np.random.default_rng(40)
    v = Volume(GridSpec(dims, 1.0), ndimage.gaussian_filter(rng.normal(size=dims), 1.0))
    e = hessian_at_scale(v, 1.5)
    for got, want in zip((e.l1, e.l2, e.l3), hessian_reference(v, 1.5)):
        assert_bits_equal(got, want)
    params = VesselnessParams()
    assert_bits_equal(frangi_multiscale(v, ScaleSet((1.0, 2.0)), params).data,
                      multiscale_reference(v, (1.0, 2.0), params))
    assert_field_equal(structure_tensor_orientation(v, 1.0, 2.0),
                       orientation_reference(v, 1.0, 2.0))


# ------------------------------------------------------------ structure tensor


def _separable(data, kernels):
    for axis, kernel in enumerate(kernels):
        data = ndimage.convolve1d(data, kernel, axis=axis, output=np.float64, mode="reflect")
    return data


def orientation_reference(v, sigma_g, rho):
    g = gaussian_kernel(sigma_g, 0)
    d1 = gaussian_kernel(sigma_g, 1)
    data = v.data.astype(np.float64)
    gx = _separable(data, (d1, g, g))
    gy = _separable(data, (g, d1, g))
    gz = _separable(data, (g, g, d1))
    k = gaussian_kernel(rho, 0)

    def smooth(component):
        return _separable(component, (k, k, k))

    tensor = np.empty(v.grid.dims + (3, 3), dtype=np.float64)
    tensor[..., 0, 0] = smooth(gx * gx)
    tensor[..., 1, 1] = smooth(gy * gy)
    tensor[..., 2, 2] = smooth(gz * gz)
    tensor[..., 0, 1] = tensor[..., 1, 0] = smooth(gx * gy)
    tensor[..., 0, 2] = tensor[..., 2, 0] = smooth(gx * gz)
    tensor[..., 1, 2] = tensor[..., 2, 1] = smooth(gy * gz)
    _, vectors = np.linalg.eigh(tensor)
    trace = (tensor[..., 0, 0] + tensor[..., 1, 1]) + tensor[..., 2, 2]
    max_trace = trace.max()
    valid = (trace >= 1e-12 * max_trace) & (max_trace > 0)
    return hemisphere(vectors[..., :, 0]).astype(np.float32), valid


def assert_field_equal(field, reference):
    axes, valid = reference
    assert_bits_equal(field.axes, axes)
    assert_bits_equal(field.valid, valid)


@pytest.mark.parametrize("sigma_g, rho", [(1.0, 2.0), (0.7, 0.5), (1.5, 1.0)])
def test_structure_tensor_matches_entrywise_tensor(sigma_g, rho):
    rng = np.random.default_rng(int(10 * sigma_g + rho))
    dims = (9, 8, 7)
    x, y, z = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    tube = np.exp(-((x - 4.0 - 0.3 * z) ** 2 + (y - 3.5) ** 2) / 2.0)
    for data in (rng.normal(size=dims), tube, tube + 0.05 * rng.normal(size=dims)):
        v = Volume(GridSpec(dims, 1.0), data)
        field = structure_tensor_orientation(v, sigma_g, rho)
        assert_field_equal(field, orientation_reference(v, sigma_g, rho))


@pytest.mark.parametrize("sigma_g, rho", [(1.0, 2.0), (0.7, 0.5)])
def test_structure_tensor_over_several_slabs_matches_entrywise_tensor(sigma_g, rho,
                                                                       monkeypatch):
    # Two-plane slabs: 9 x 8 x 7 is five slabs, the last one plane deep.
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 2 * 8 * 7)
    rng = np.random.default_rng(7)
    dims = (9, 8, 7)
    for data in (rng.normal(size=dims), rng.integers(-2, 3, size=dims)):
        v = Volume(GridSpec(dims, 1.0), data)
        field = structure_tensor_orientation(v, sigma_g, rho)
        assert_field_equal(field, orientation_reference(v, sigma_g, rho))


# ------------------------------------------------------------ rasterization


def brute_force_coverage(fibers, grid, supersample):
    """Per fiber, the number of sub-lattice points of each voxel within its
    radius of the fiber's axis segment, (n_fibers, nx, ny, nz). Every point of
    every voxel is tested: point i of axis x lies at (x + 0.5) h + ((i + 0.5) /
    s - 0.5) h, and its squared distance to the segment p0 + t (p1 - p0) is
    |r - t a|^2 with r = point - p0, a = p1 - p0 and t = r.a / a.a clipped to
    [0, 1]."""
    h, s = grid.voxel_size, supersample
    offsets = ((np.arange(s) + 0.5) / s - 0.5) * h
    # (n, s) sub-point coordinates per axis, shaped to broadcast to
    # (nx, s, ny, s, nz, s).
    px, py, pz = (((np.arange(n) + 0.5) * h)[:, None] + offsets[None, :] for n in grid.dims)
    px, py, pz = px[:, :, None, None, None, None], py[:, :, None, None], pz
    coverage = []
    for f in fibers:
        ax, ay, az = (f.p1 - f.p0).tolist()
        rx, ry, rz = px - f.p0[0], py - f.p0[1], pz - f.p0[2]
        t = np.clip((rx * ax + ry * ay + rz * az) * (1.0 / (ax * ax + ay * ay + az * az)),
                    0.0, 1.0)
        dx, dy, dz = rx - t * ax, ry - t * ay, rz - t * az
        inside = dx * dx + dy * dy + dz * dz <= f.radius**2
        coverage.append(inside.sum(axis=(1, 3, 5)))
    return np.stack(coverage)


def overlapping_fibers(seed, n=8):
    """``n`` fibers with shuffled ids and endpoints in [-2, 42] um, so that
    they cross each other and stick out of a 40 um grid."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(n) + 1
    return [Fiber(int(i), rng.uniform(-2.0, 42.0, 3), rng.uniform(-2.0, 42.0, 3),
                  float(rng.uniform(1.0, 4.0))) for i in ids]


_OVERLAP_PARAMS = ModelParams(box_edge=40.0, radius=3.0, mean_length=20.0, length_stddev=0.0,
                              target_fraction=0.5, max_attempts=1, seed=0)
_OVERLAP_GRID = GridSpec((16, 16, 16), 2.5)


@pytest.mark.parametrize("supersample", [1, 2, 3, 4])
def test_rasterize_attenuation_matches_reference(supersample):
    s3 = supersample**3
    for seed in range(3):
        fibers = overlapping_fibers(seed)
        covered = brute_force_coverage(fibers, _OVERLAP_GRID, supersample).sum(axis=0)
        # Overlaps past s^3, untouched voxels and, with more than one
        # sub-point, partly covered ones all occur.
        assert (covered > s3).any() and (covered == 0).any()
        assert supersample == 1 or ((0 < covered) & (covered < s3)).any()
        counts = np.minimum(covered, s3)
        model = FiberModel(params=_OVERLAP_PARAMS, fibers=fibers)
        for fiber_value, matrix_value in ((2.54, 1.31), (1.0 + 2**-40, 1.0), (7.3, -0.1),
                                          (0.3, 0.1)):
            expected = matrix_value + (fiber_value - matrix_value) * (counts / s3)
            expected[counts == s3] = fiber_value
            got = rasterize_attenuation(model, _OVERLAP_GRID, supersample=supersample,
                                        levels=(fiber_value, matrix_value))
            assert_bits_equal(got.data, expected.astype(np.float32))


@pytest.mark.parametrize("seed", range(3))
def test_rasterize_labels_matches_brute_force(seed):
    fibers = overlapping_fibers(seed)
    inside = brute_force_coverage(fibers, _OVERLAP_GRID, 1) > 0
    ids = np.array([f.id for f in fibers], dtype=np.uint32)[:, None, None, None]
    # The lowest covering id wins; each further covering fiber is a conflict.
    expected = np.where(inside, ids, np.iinfo(np.uint32).max).min(axis=0)
    expected[~inside.any(axis=0)] = 0
    n_covering = inside.sum(axis=0)
    assert n_covering.max() > 1
    labels, conflicts = rasterize_labels(FiberModel(params=_OVERLAP_PARAMS, fibers=fibers),
                                         _OVERLAP_GRID)
    assert_bits_equal(labels.data, expected)
    assert conflicts == int(np.maximum(n_covering - 1, 0).sum())


def assert_attenuation_matches_brute_force(fibers, params, grid, supersample):
    """Check ``rasterize_attenuation`` against the brute-force coverage at
    one level pair; returns the capped counts."""
    s3 = supersample**3
    counts = np.minimum(brute_force_coverage(fibers, grid, supersample).sum(axis=0), s3)
    expected = 1.31 + (2.54 - 1.31) * (counts / s3)
    expected[counts == s3] = 2.54
    got = rasterize_attenuation(FiberModel(params=params, fibers=fibers), grid,
                                supersample=supersample, levels=(2.54, 1.31))
    assert_bits_equal(got.data, expected.astype(np.float32))
    return counts


_SMALL_PARAMS = ModelParams(box_edge=10.0, radius=3.0, mean_length=5.0, length_stddev=0.0,
                            target_fraction=0.5, max_attempts=1, seed=0)
_SMALL_FIBERS = {
    # Along z through the center of a 10 um grid of 2.5 um voxels: the
    # 2 x 2 x 4 inner voxels lie wholly within r = 4 um.
    "thick": Fiber(1, (5.0, 5.0, -1.0), (5.0, 5.0, 11.0), 4.0),
    "thin": Fiber(1, (1.0, 2.0, -1.0), (9.0, 7.5, 11.0), 1.1),
}


@pytest.mark.parametrize("supersample", [5, 17, 40])
@pytest.mark.parametrize("kind", ["thick", "thin"])
def test_rasterize_attenuation_matches_brute_force_past_supersample_4(kind, supersample):
    s3 = supersample**3
    counts = assert_attenuation_matches_brute_force(
        [_SMALL_FIBERS[kind]], _SMALL_PARAMS, GridSpec((4, 4, 4), 2.5), supersample)
    assert ((0 < counts) & (counts < s3)).any()
    assert np.count_nonzero(counts == s3) == (16 if kind == "thick" else 0)


def test_rasterize_attenuation_matches_brute_force_on_a_non_cubic_grid():
    params = ModelParams(box_edge=20.0, radius=3.0, mean_length=10.0, length_stddev=0.0,
                         target_fraction=0.5, max_attempts=1, seed=0)
    for seed in range(3):
        assert_attenuation_matches_brute_force(overlapping_fibers(seed), params,
                                               GridSpec((12, 9, 7), 3.1), 3)


def test_rasterize_without_supersample_makes_labels_only():
    non_cubic = ModelParams(box_edge=20.0, radius=3.0, mean_length=10.0, length_stddev=0.0,
                            target_fraction=0.5, max_attempts=1, seed=0)
    cases = [(overlapping_fibers(seed), params, grid) for seed in range(3)
             for params, grid in ((_OVERLAP_PARAMS, _OVERLAP_GRID),
                                  (non_cubic, GridSpec((12, 9, 7), 3.1)))]
    cases += [([fiber], _SMALL_PARAMS, GridSpec((4, 4, 4), 2.5))
              for fiber in _SMALL_FIBERS.values()]
    all_conflicts = []
    for fibers, params, grid in cases:
        model = FiberModel(params=params, fibers=fibers)
        labels, conflicts, atten = rasterize(model, grid)
        assert atten is None
        with_atten = rasterize(model, grid, 1)
        assert_bits_equal(labels.data, with_atten[0].data)
        assert conflicts == with_atten[1]
        all_conflicts.append(conflicts)
    assert max(all_conflicts) > 0


# One thin fiber in a 64^3 grid: its box is small beside any whole volume.
_THIN_GRID = GridSpec((64, 64, 64), 1.0)
_THIN_MODEL = FiberModel(
    params=ModelParams(box_edge=64.0, radius=1.5, mean_length=10.0, length_stddev=0.0,
                       target_fraction=0.5, max_attempts=1, seed=0),
    fibers=[Fiber(1, (10.0, 10.0, 10.0), (20.0, 12.0, 14.0), 1.5)])


def test_rasterize_labels_allocates_no_count_volume():
    # Besides the uint32 labels, the walk needs only the voxels near the fiber,
    # well under half of a uint16 count volume.
    tracemalloc.start()
    try:
        labels, _ = rasterize_labels(_THIN_MODEL, _THIN_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(labels.data) > 0
    assert peak < labels.data.nbytes + 64**3


def test_rasterize_attenuation_maps_counts_without_a_float64_volume(monkeypatch):
    # With small sub-sample chunks, the labels, counts and float32 result (10
    # bytes a voxel) and the finiteness check's mask (1) leave no room for a
    # float64 temporary of the whole volume (8).
    monkeypatch.setattr(ctsim, "_SUBSAMPLES", 1 << 10)
    tracemalloc.start()
    try:
        atten = rasterize_attenuation(_THIN_MODEL, _THIN_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(atten.data > EPOXY_DENSITY) > 0
    assert peak < 12 * 64**3


def test_rasterize_in_small_chunks_gives_the_same_volumes(monkeypatch):
    fibers = overlapping_fibers(0)
    model = FiberModel(params=_OVERLAP_PARAMS, fibers=fibers)
    atten = rasterize_attenuation(model, _OVERLAP_GRID).data
    labels = rasterize_labels(model, _OVERLAP_GRID)[0].data
    # Every fiber touches more voxels than the 2-voxel chunks of 27 sub-samples hold.
    assert (brute_force_coverage(fibers, _OVERLAP_GRID, 3) > 0).sum(axis=(1, 2, 3)).min() > 2
    for subsamples in (64, 1):
        monkeypatch.setattr(ctsim, "_SUBSAMPLES", subsamples)
        assert_bits_equal(rasterize_attenuation(model, _OVERLAP_GRID).data, atten)
        assert_bits_equal(rasterize_labels(model, _OVERLAP_GRID)[0].data, labels)


# ------------------------------------------------------------ the per-plane walk


def box_walk(m, grid, supersample=None, levels=(GLASS_DENSITY, EPOXY_DENSITY)):
    """``rasterize`` as it was before the per-plane walk: every fiber tests
    every voxel center of its capsule's bounding box, broadcast over the box,
    and sub-samples the voxels within r + half a voxel diagonal of its axis."""
    h = grid.voxel_size
    labels = np.zeros(grid.dims, dtype=np.uint32)
    conflicts = 0
    counts = None if supersample is None else np.zeros(grid.dims, dtype=np.int64)
    if supersample is not None:
        s3 = supersample**3
        sub = ((np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5) * h
        offsets = [o.reshape(-1, 1) for o in np.meshgrid(sub, sub, sub, indexing="ij")]
    half_diag = 0.5 * h * math.sqrt(3.0)
    fibers = sorted(m.fibers, key=lambda f: f.id)
    first, last = ctsim._capsule_boxes(fibers, grid)
    for fiber, lo, hi in zip(fibers, first.tolist(), last.tolist()):
        if any(a > b for a, b in zip(lo, hi)):
            continue
        box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        p0, axis = fiber.p0, fiber.p1 - fiber.p0
        inv_len_sq = 1.0 / float(axis @ axis)
        cx, cy, cz = ((np.arange(a, b + 1, dtype=np.float64) + 0.5) * h for a, b in zip(lo, hi))
        d2 = ctsim._segment_point_dist_sq(p0, axis, inv_len_sq,
                                          cx[:, None, None], cy[None, :, None], cz[None, None, :])
        inside = d2 <= fiber.radius**2
        region = labels[box]
        taken = region != 0
        conflicts += int(np.count_nonzero(inside & taken))
        region[inside & ~taken] = fiber.id
        if counts is None:
            continue
        near = np.nonzero(d2 < (fiber.radius + half_diag)**2)
        px, py, pz = (c[i] + o for c, i, o in zip((cx, cy, cz), near, offsets))
        n_in = (ctsim._segment_point_dist_sq(p0, axis, inv_len_sq, px, py, pz)
                <= fiber.radius**2).sum(axis=0)
        box_counts = counts[box]
        box_counts[near] = np.minimum(box_counts[near] + n_in, s3)
    if counts is None:
        return labels, conflicts, None
    fiber_value, matrix_value = levels
    atten = matrix_value + (fiber_value - matrix_value) * (counts / s3)
    atten[counts == s3] = fiber_value
    return labels, conflicts, atten.astype(np.float32)


def assert_equals_box_walk(model, grid, supersample):
    labels, conflicts, atten = rasterize(model, grid, supersample)
    want_labels, want_conflicts, want_atten = box_walk(model, grid, supersample)
    assert_bits_equal(labels.data, want_labels)
    assert conflicts == want_conflicts
    if supersample is None:
        assert atten is None
    else:
        assert_bits_equal(atten.data, want_atten)


@pytest.mark.parametrize("supersample", [None, 1, 3])
def test_rasterize_equals_box_walk_on_a_packed_model(supersample):
    model = generate_model(ModelParams(box_edge=96.0, radius=3.0, mean_length=60.0,
                                       length_stddev=15.0, target_fraction=0.12,
                                       max_attempts=3000, seed=3))
    assert len(model.fibers) > 50
    assert_equals_box_walk(model, GridSpec((48, 48, 48), 2.0), supersample)


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("FIBERVOX_SLOW") != "1",
                    reason="set FIBERVOX_SLOW=1 to pack table1 (~20 s) and rasterize it both ways")
def test_table1_rasterize_equals_box_walk():
    cfg = PipelineConfig.load(Path(__file__).resolve().parents[1] / "configs" / "table1.json")
    model = generate_model(cfg.model_params())
    assert len(model.fibers) == 6509 and cfg.grid_spec().dims == (241, 241, 241)
    assert_equals_box_walk(model, cfg.grid_spec(), 3)


@st.composite
def walk_cases(draw, dominant):
    """A fiber and a grid of 1-10 voxels a side. The fiber is axis-aligned, has
    one zero component, is exactly diagonal, oblique, shorter than a voxel, or
    has a radius past the grid; its first end lies up to half the grid outside."""
    dims = tuple(draw(st.integers(1, 10)) for _ in range(3))
    h = draw(st.sampled_from([0.5, 1.0, 2.5]))
    extent = max(dims) * h
    kind = draw(st.sampled_from(["axis", "one zero", "diagonal", "oblique", "short", "fat"]))
    direction = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    direction[dominant] = 1.0
    if kind == "axis":
        direction = [float(a == dominant) for a in range(3)]
    elif kind == "one zero":
        direction[draw(st.sampled_from([a for a in range(3) if a != dominant]))] = 0.0
    elif kind == "diagonal":
        direction = [1.0, 1.0, 1.0]
    signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(3)])
    length = h * draw(st.floats(0.05, 0.95)) if kind == "short" \
        else draw(st.floats(h, 2.0 * extent))
    axis = signs * np.array(direction) / math.sqrt(sum(a * a for a in direction)) * length
    if kind == "diagonal":
        axis = signs * (length / math.sqrt(3.0))
    radius = draw(st.floats(extent, 2.0 * extent)) if kind == "fat" \
        else h * draw(st.floats(0.05, 2.0))
    p0 = np.array([draw(st.floats(-0.5, 1.5)) * n * h for n in dims])
    return GridSpec(dims, h), Fiber(1, p0, p0 + axis, radius)


@pytest.mark.parametrize("dominant", [0, 1, 2], ids=["x", "y", "z"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_walk_covers_every_box_voxel_within_reach(dominant, data):
    grid, fiber = data.draw(walk_cases(dominant))
    h = grid.voxel_size
    reach = fiber.radius + 0.5 * h * math.sqrt(3.0)
    first, last = ctsim._capsule_boxes([fiber], grid)
    lo, hi = first[0].tolist(), last[0].tolist()
    axis = fiber.p1 - fiber.p0
    flat, centers = ctsim._capsule_voxels(fiber.p0, axis, reach, lo, hi, grid)
    assert len(np.unique(flat)) == len(flat)
    idx = np.unravel_index(flat, grid.dims)
    for i, c, a, b in zip(idx, centers, lo, hi):
        assert ((a <= i) & (i <= b)).all()
        assert_bits_equal(c, (i + 0.5) * h)
    if any(a > b for a, b in zip(lo, hi)):
        return
    cx, cy, cz = ((np.arange(a, b + 1) + 0.5) * h for a, b in zip(lo, hi))
    d2 = ctsim._segment_point_dist_sq(fiber.p0, axis, 1.0 / float(axis @ axis),
                                      cx[:, None, None], cy[None, :, None], cz[None, None, :])
    within = np.ravel_multi_index(
        tuple(i + a for i, a in zip(np.nonzero(d2 <= reach**2), lo)), grid.dims)
    assert np.isin(within, flat).all()


def test_walk_tests_under_a_tenth_of_a_diagonal_fibers_box(monkeypatch):
    rows = []
    distance_sq = ctsim._segment_point_dist_sq

    def counting(p0, axis, inv_len_sq, px, py, pz):
        rows.append(np.broadcast(px, py, pz).size)
        return distance_sq(p0, axis, inv_len_sq, px, py, pz)

    monkeypatch.setattr(ctsim, "_segment_point_dist_sq", counting)
    grid = GridSpec((64, 64, 64), 1.0)
    fiber = Fiber(1, (0.5, 0.5, 0.5), (63.5, 63.5, 63.5), 1.5)
    first, last = ctsim._capsule_boxes([fiber], grid)
    box = int(np.prod(last[0] - first[0] + 1))
    assert box == 64**3
    labels, _ = rasterize_labels(FiberModel(params=_THIN_MODEL.params, fibers=[fiber]), grid)
    assert np.count_nonzero(labels.data) > 64 * 7
    assert len(rows) == 1 and rows[0] < 0.1 * box, f"{rows} rows for a {box}-voxel box"
