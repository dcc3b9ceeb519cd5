"""Bit-for-bit oracles for five volume kernels. Each reference below is the
plain formula the kernel implements: the backprojection with explicit
validity masks, the Frangi response with explicit magnitudes and a final
clip, the Hessian eigenvalues from 18 independent convolution passes, one
full-volume eigensolve and a lexsort, the structure tensor filled entry by
entry, and the attenuation mapping that sets untouched voxels to the matrix
level by hand. The segment kernels run over slabs of whole y-z planes; their
cases shrink the slab so that grids of a few voxels span several slabs."""

import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from fibervox import vesselness
from fibervox.ctsim import (Sinogram, _axis_centers, _capsules, _ramlak_filter, fbp_slice,
                            rasterize_attenuation)
from fibervox.fibers import Fiber, FiberModel, ModelParams, hemisphere
from fibervox.vesselness import (EigenField, ScaleSet, VesselnessParams, _divide_nonzero,
                                 _eig3_symmetric, _separable, _sort_by_magnitude,
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
    filtered = _ramlak_filter(sino)
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
    # 64 x 64 planes give 32-plane slabs: 40 planes are two slabs.
    dims = (40, 64, 64)
    assert len(vesselness._slabs(dims)) == 2
    rng = np.random.default_rng(40)
    v = Volume(GridSpec(dims, 1.0), ndimage.gaussian_filter(rng.normal(size=dims), 1.0))
    e = hessian_at_scale(v, 1.5)
    for got, want in zip((e.l1, e.l2, e.l3), hessian_reference(v, 1.5)):
        assert_bits_equal(got, want)
    params = VesselnessParams()
    assert_bits_equal(frangi_multiscale(v, ScaleSet((1.0, 2.0)), params).data,
                      multiscale_reference(v, (1.0, 2.0), params))
    assert_bits_equal(structure_tensor_orientation(v, 1.0, 2.0).axes,
                      orientation_reference(v, 1.0, 2.0))


# ------------------------------------------------------------ structure tensor


def orientation_reference(v, sigma_g, rho):
    g = gaussian_kernel(sigma_g, 0)
    d1 = gaussian_kernel(sigma_g, 1)
    data = v.data.astype(np.float64)
    gx = _separable(data, (d1, g, g))
    gy = _separable(data, (g, d1, g))
    gz = _separable(data, (g, g, d1))
    k = gaussian_kernel(rho, 0) if rho > 0 else None

    def smooth(component):
        return component if k is None else _separable(component, (k, k, k))

    tensor = np.empty(v.grid.dims + (3, 3), dtype=np.float64)
    tensor[..., 0, 0] = smooth(gx * gx)
    tensor[..., 1, 1] = smooth(gy * gy)
    tensor[..., 2, 2] = smooth(gz * gz)
    tensor[..., 0, 1] = tensor[..., 1, 0] = smooth(gx * gy)
    tensor[..., 0, 2] = tensor[..., 2, 0] = smooth(gx * gz)
    tensor[..., 1, 2] = tensor[..., 2, 1] = smooth(gy * gz)
    _, vectors = np.linalg.eigh(tensor)
    return hemisphere(vectors[..., :, 0]).astype(np.float32)


@pytest.mark.parametrize("sigma_g, rho", [(1.0, 2.0), (0.7, 0.0), (1.5, 1.0)])
def test_structure_tensor_matches_entrywise_tensor(sigma_g, rho):
    rng = np.random.default_rng(int(10 * sigma_g + rho))
    dims = (9, 8, 7)
    x, y, z = np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij")
    tube = np.exp(-((x - 4.0 - 0.3 * z) ** 2 + (y - 3.5) ** 2) / 2.0)
    for data in (rng.normal(size=dims), tube, tube + 0.05 * rng.normal(size=dims)):
        v = Volume(GridSpec(dims, 1.0), data)
        field = structure_tensor_orientation(v, sigma_g, rho)
        assert_bits_equal(field.axes, orientation_reference(v, sigma_g, rho))


@pytest.mark.parametrize("sigma_g, rho", [(1.0, 2.0), (0.7, 0.0)])
def test_structure_tensor_over_several_slabs_matches_entrywise_tensor(sigma_g, rho,
                                                                       monkeypatch):
    # Two-plane slabs: 9 x 8 x 7 is five slabs, the last one plane deep.
    monkeypatch.setattr(vesselness, "_SLAB_VOXELS", 2 * 8 * 7)
    rng = np.random.default_rng(7)
    dims = (9, 8, 7)
    for data in (rng.normal(size=dims), rng.integers(-2, 3, size=dims)):
        v = Volume(GridSpec(dims, 1.0), data)
        field = structure_tensor_orientation(v, sigma_g, rho)
        assert_bits_equal(field.axes, orientation_reference(v, sigma_g, rho))


# ------------------------------------------------------------ attenuation


def attenuation_reference(m, grid, supersample, levels):
    fiber_value, matrix_value = levels
    h = grid.voxel_size
    s3 = supersample**3
    counts = np.zeros(grid.dims, dtype=np.uint16)
    centers = _axis_centers(grid)
    sub = ((np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5) * h
    offsets = np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3)
    half_diag = 0.5 * h * math.sqrt(3.0)
    for fiber, box, d2, dist_sq in _capsules(m.fibers, grid):
        dist = np.sqrt(d2)
        region = counts[box]
        region[dist <= fiber.radius - half_diag] = s3
        shell = (dist > fiber.radius - half_diag) & (dist < fiber.radius + half_diag)
        if shell.any():
            si, sj, sk = np.nonzero(shell)
            pts = np.stack([c[s][i] for c, s, i in zip(centers, box, (si, sj, sk))], axis=-1)
            sub_pts = pts[None, :, :] + offsets[:, None, :]
            d2s = dist_sq(sub_pts[..., 0], sub_pts[..., 1], sub_pts[..., 2])
            inside = (d2s <= fiber.radius**2).sum(axis=0).astype(np.uint16)
            region[si, sj, sk] = np.minimum(
                region[si, sj, sk].astype(np.int64) + inside, s3).astype(np.uint16)
    frac = counts.astype(np.float64) / s3
    out = matrix_value + (fiber_value - matrix_value) * frac
    out[counts == 0] = matrix_value
    out[counts >= s3] = fiber_value
    return out.astype(np.float32), counts


@pytest.mark.parametrize("supersample", [1, 2, 3])
def test_rasterize_attenuation_matches_reference(supersample):
    rng = np.random.default_rng(supersample)
    params = ModelParams(box_edge=40.0, radius=3.0, mean_length=20.0, length_stddev=0.0,
                         target_fraction=0.5, max_attempts=1, seed=0)
    fibers = [Fiber(i + 1, rng.uniform(4.0, 36.0, 3), rng.uniform(4.0, 36.0, 3),
                    float(rng.uniform(1.0, 3.0))) for i in range(4)]
    grid = GridSpec((16, 16, 16), 2.5)
    for levels in ((2.54, 1.31), (1.0 + 2**-40, 1.0), (7.3, -0.1), (0.3, 0.1)):
        model = FiberModel(params=params, fibers=fibers)
        expected, counts = attenuation_reference(model, grid, supersample, levels)
        assert np.count_nonzero(counts == 0) > 0 and np.count_nonzero(counts) > 0
        got = rasterize_attenuation(model, grid, supersample=supersample, levels=levels)
        assert_bits_equal(got.data, expected)
