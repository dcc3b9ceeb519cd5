import math

import numpy as np
import pytest

from fibervox.vesselness import (
    EigenField,
    OrientationField,
    ScaleSet,
    VesselnessParams,
    _eig3_symmetric,
    _sort_by_magnitude,
    binarize,
    connected_components,
    default_scales,
    frangi_multiscale,
    frangi_response,
    gaussian_kernel,
    hessian_at_scale,
    otsu_threshold,
    read_orientation_field,
    structure_tensor_orientation,
    write_orientation_field,
)
from fibervox.volume import NEIGHBORS_26, GridSpec, LabelVolume, Volume


def vol(data, h=1.0):
    return Volume(GridSpec(np.asarray(data).shape, h), np.asarray(data, np.float32))


# ---------------------------------------------------------------- kernels


def test_gaussian_kernel_normalization():
    for sigma in (0.7, 1.0, 2.0, 3.5):
        g = gaussian_kernel(sigma, 0)
        d1 = gaussian_kernel(sigma, 1)
        d2 = gaussian_kernel(sigma, 2)
        assert g.sum() == pytest.approx(1.0, abs=1e-15)
        assert abs(d1.sum()) < 1e-15
        assert abs(d2.sum()) < 1e-15  # mean-subtracted exactly
        assert len(g) == 2 * (math.ceil(4 * sigma) + 1) + 1
        np.testing.assert_allclose(g, g[::-1])   # even
        np.testing.assert_allclose(d1, -d1[::-1])  # odd


def test_gaussian_kernel_second_moment_calibration():
    # sigma^2-normalized second derivative of x^2 must come out as 2*sigma^2;
    # the 1e-2 budget is calibrated at sigma = 2, larger scales drift more
    for sigma, tol in ((1.0, 1e-2), (2.0, 1e-2), (3.0, 5e-2)):
        d2 = gaussian_kernel(sigma, 2)
        radius = (len(d2) - 1) // 2
        x = np.arange(-radius, radius + 1, dtype=np.float64)
        assert sigma**2 * np.dot(d2, x * x) == pytest.approx(2.0 * sigma**2, abs=tol)


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 0)
    with pytest.raises(ValueError):
        gaussian_kernel(1.0, 3)


# ---------------------------------------------------------------- hessian


def test_hessian_x_squared_sigma2():
    n = 48
    x = np.arange(n, dtype=np.float64)
    data = np.broadcast_to((x * x)[:, None, None], (n, n, n))
    e = hessian_at_scale(vol(data), 2.0)
    core = (slice(18, 30),) * 3
    # analytic: d2/dx2 x^2 = 2, scale-normalized by sigma^2 -> 8
    np.testing.assert_allclose(e.l3[core], 8.0, atol=1e-2)
    np.testing.assert_allclose(e.l1[core], 0.0, atol=1e-6)
    np.testing.assert_allclose(e.l2[core], 0.0, atol=1e-6)


def test_hessian_of_linear_ramp_is_zero():
    n = 40
    x = np.arange(n, dtype=np.float64)
    ramp = x[:, None, None] + 2.0 * x[None, :, None] - 0.5 * x[None, None, :]
    e = hessian_at_scale(vol(np.ascontiguousarray(np.broadcast_to(ramp, (n, n, n)))), 1.5)
    core = (slice(12, 28),) * 3
    for lam in (e.l1, e.l2, e.l3):
        np.testing.assert_allclose(lam[core], 0.0, atol=1e-8)


def test_hessian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        hessian_at_scale(vol(np.zeros((4, 4, 4))), 0.0)


# ---------------------------------------------------------------- eigensolver


def test_eigensolver_against_lapack_oracle():
    rng = np.random.default_rng(8)
    n = 100_000
    m = rng.standard_normal((n, 3, 3))
    m = m + np.swapaxes(m, 1, 2)
    # mix in scale extremes and near-degenerate spectra
    m[:1000] *= 1e6
    m[1000:2000] *= 1e-6
    m[2000:3000] = np.eye(3) * rng.standard_normal((1000, 1, 1))
    lo, mid, hi = _eig3_symmetric(m[:, 0, 0], m[:, 1, 1], m[:, 2, 2],
                                  m[:, 0, 1], m[:, 0, 2], m[:, 1, 2])
    got = np.stack([lo, mid, hi], axis=1)
    want = np.linalg.eigvalsh(m)
    scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1e-30)
    assert np.max(np.abs(got - want) / scale) < 1e-5


def test_eigensolver_identity_multiple():
    lo, mid, hi = _eig3_symmetric(*(np.full(4, 2.5) for _ in range(3)),
                                  *(np.zeros(4) for _ in range(3)))
    np.testing.assert_allclose([lo, mid, hi], 2.5)


def test_sort_by_magnitude():
    lo, mid, hi = (np.array([-4.0]), np.array([-3.0]), np.array([8.0]))
    l1, l2, l3 = _sort_by_magnitude(lo, mid, hi)
    assert (l1[0], l2[0], l3[0]) == (-3.0, -4.0, 8.0)
    # magnitude tie resolved by signed ascending order
    l1, l2, l3 = _sort_by_magnitude(np.array([2.0]), np.array([-2.0]), np.array([0.0]))
    assert (l1[0], l2[0], l3[0]) == (0.0, -2.0, 2.0)


# ---------------------------------------------------------------- frangi


def flat_field(l1, l2, l3, shape=(3, 3, 3)):
    g = GridSpec(shape, 1.0)
    return EigenField(grid=g, l1=np.full(shape, float(l1)),
                      l2=np.full(shape, float(l2)), l3=np.full(shape, float(l3)))


def test_frangi_closed_form_oracle():
    p = VesselnessParams(alpha=0.5, beta=0.5, c=2.0)
    r = frangi_response(flat_field(0.0, -4.0, -4.0), p)
    expected = (1 - math.exp(-2.0)) * 1.0 * (1 - math.exp(-4.0))
    assert expected == pytest.approx(0.848827, abs=1e-6)
    np.testing.assert_allclose(r.data, expected, rtol=1e-6)


def test_frangi_sign_branches():
    p = VesselnessParams(alpha=0.5, beta=0.5, c=2.0)
    assert frangi_response(flat_field(0.0, 4.0, 4.0), p).data.max() == 0.0   # dark tube
    assert frangi_response(flat_field(0.0, -4.0, 4.0), p).data.max() == 0.0  # l3 > 0
    assert frangi_response(flat_field(0.0, -4.0, 0.0), p).data.max() == 0.0  # l3 == 0
    assert frangi_response(flat_field(-1.0, -4.0, -4.0), p).data.max() > 0.0


def test_frangi_zero_volume():
    r = frangi_response(flat_field(0.0, 0.0, 0.0), VesselnessParams())
    assert r.data.max() == 0.0  # a derived c degenerates to c = 0 -> all zero


def tube_volume(n=40, w=3.0, axis=2):
    c = (n - 1) / 2.0
    i = np.arange(n, dtype=np.float64) - c
    a, b = np.meshgrid(i, i, indexing="ij")
    cross = np.exp(-(a**2 + b**2) / (2 * w * w))
    data = np.broadcast_to(cross[:, :, None] if axis == 2 else cross[None, :, :],
                           (n, n, n))
    return vol(np.ascontiguousarray(data))


def plate_volume(n=40, w=3.0):
    c = (n - 1) / 2.0
    x = np.arange(n, dtype=np.float64) - c
    sheet = np.exp(-(x**2) / (2 * w * w))
    return vol(np.ascontiguousarray(np.broadcast_to(sheet[:, None, None], (n, n, n))))


def blob_volume(n=40, w=3.0):
    c = (n - 1) / 2.0
    i = np.arange(n, dtype=np.float64) - c
    x, y, z = np.meshgrid(i, i, i, indexing="ij")
    return vol(np.exp(-(x**2 + y**2 + z**2) / (2 * w * w)))


def center_response(v, sigma=3.0):
    p = VesselnessParams(alpha=0.5, beta=0.5, c=0.25)
    r = frangi_response(hessian_at_scale(v, sigma), p)
    n = v.grid.dims[0]
    return float(r.data[n // 2, n // 2, n // 2])


def test_tube_beats_plate_and_blob():
    tube = center_response(tube_volume())
    plate = center_response(plate_volume())
    blob = center_response(blob_volume())
    assert tube > plate
    assert tube > blob
    assert tube > 0.5


def test_frangi_range_and_single_multi_consistency():
    v = tube_volume(n=32, w=2.0)
    p = VesselnessParams()
    single = frangi_response(hessian_at_scale(v, 2.0), p)
    multi1 = frangi_multiscale(v, ScaleSet((2.0,)), p)
    np.testing.assert_array_equal(single.data, multi1.data)
    multi = frangi_multiscale(v, ScaleSet((1.0, 2.0, 3.0)), p)
    stacked = np.stack([frangi_response(hessian_at_scale(v, s), p).data
                        for s in (1.0, 2.0, 3.0)])
    np.testing.assert_array_equal(multi.data, stacked.max(axis=0))
    assert multi.data.min() >= 0.0 and multi.data.max() <= 1.0


def test_frangi_offset_and_gain_invariance():
    v = tube_volume(n=32, w=2.0)
    p = VesselnessParams()  # derived c
    base = frangi_multiscale(v, ScaleSet((1.5, 2.5)), p).data
    shifted = vol(v.data + 100.0)
    gained = vol(v.data * 1000.0)
    np.testing.assert_allclose(
        frangi_multiscale(shifted, ScaleSet((1.5, 2.5)), p).data, base, atol=1e-6)
    np.testing.assert_allclose(
        frangi_multiscale(gained, ScaleSet((1.5, 2.5)), p).data, base, atol=1e-6)


def test_params_validation():
    with pytest.raises(ValueError):
        VesselnessParams(alpha=0.0)
    with pytest.raises(ValueError):
        VesselnessParams(beta=-1.0)
    with pytest.raises(ValueError):
        VesselnessParams(c=0.0)
    with pytest.raises(ValueError):
        ScaleSet(())
    with pytest.raises(ValueError):
        ScaleSet((1.0, 1.0))
    with pytest.raises(ValueError):
        ScaleSet((2.0, 1.0))
    with pytest.raises(ValueError):
        ScaleSet((0.0, 1.0))


def test_default_scales_at_reference_resolution():
    s = default_scales(6.5, 3.9)
    assert s.sigmas == (1.0, 1.5, 2.0)


# ---------------------------------------------------------------- otsu


def test_otsu_separates_bimodal():
    rng = np.random.default_rng(3)
    a = rng.normal(1.0, 0.05, size=4000)
    b = rng.normal(3.0, 0.05, size=4000)
    data = np.concatenate([a, b]).astype(np.float32).reshape(20, 20, 20)
    t = otsu_threshold(vol(data))
    # threshold in the empty gap: the two clusters separate exactly
    assert float(a.max()) < t <= float(b.min())
    mask = binarize(vol(data), method="otsu")
    assert int(mask.data.sum()) == int((data >= t).sum()) == 4000


def test_otsu_two_delta_clusters():
    data = np.full((10, 10, 10), 0.1, dtype=np.float32)
    data[5:] = 0.9
    t = otsu_threshold(vol(data))
    assert 0.1 < t <= 0.9
    mask = binarize(vol(data), method="otsu").data
    np.testing.assert_array_equal(mask, (data >= t).astype(np.uint32))
    assert int(mask.sum()) == 500


def test_otsu_constant_volume_raises():
    with pytest.raises(ValueError, match="degenerate histogram"):
        otsu_threshold(vol(np.full((4, 4, 4), 7.0)))


def test_binarize_fixed_and_errors():
    v = vol(np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    m = binarize(v, method="fixed", threshold=4.0)
    assert int(m.data.sum()) == 4  # values 4,5,6,7
    assert m.data.dtype == np.uint32
    with pytest.raises(ValueError, match="^threshold must be a number, got None$"):
        binarize(v, method="fixed", threshold=None)
    with pytest.raises(ValueError, match="unknown binarization"):
        binarize(v, method="banana")


# ---------------------------------------------------------------- components


def test_connected_components_order_is_scan_order():
    g = GridSpec((8, 4, 3), 1.0)
    mask = np.zeros(g.dims, dtype=np.uint32)
    mask[5, 0, 0] = 1          # linear index 5
    mask[0, 0, 1] = 1          # linear index 32
    out = connected_components(LabelVolume(g, mask))
    assert out.data[5, 0, 0] == 1
    assert out.data[0, 0, 1] == 2


def test_connected_components_26_connectivity():
    g = GridSpec((4, 4, 4), 1.0)
    mask = np.zeros(g.dims, dtype=np.uint32)
    mask[0, 0, 0] = 1
    mask[1, 1, 1] = 1  # corner-adjacent: one component under 26-connectivity
    out = connected_components(LabelVolume(g, mask))
    assert out.data.max() == 1
    assert out.data[0, 0, 0] == out.data[1, 1, 1] == 1


def test_connected_components_empty_and_validation():
    g = GridSpec((3, 3, 3), 1.0)
    out = connected_components(LabelVolume.zeros(g))
    assert out.data.max() == 0
    with pytest.raises(ValueError, match="binary"):
        connected_components(LabelVolume(g, np.full(g.dims, 2, dtype=np.uint32)))


def flood_fill_components(mask):
    """Pure-Python 26-neighbour flood fill, numbering each component by its
    first voxel in x-fastest scan order."""
    out = np.zeros(mask.shape, dtype=np.uint32)
    count = 0
    for z, y, x in np.ndindex(mask.shape[::-1]):
        if not mask[x, y, z] or out[x, y, z]:
            continue
        count += 1
        out[x, y, z] = count
        stack = [(x, y, z)]
        while stack:
            p = stack.pop()
            for d in NEIGHBORS_26:
                q = tuple(a + b for a, b in zip(p, d))
                if all(0 <= c < n for c, n in zip(q, mask.shape)) and mask[q] and not out[q]:
                    out[q] = count
                    stack.append(q)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_connected_components_matches_flood_fill(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        dims = tuple(int(d) for d in rng.integers(1, 12, size=3))
        mask = (rng.random(dims) < rng.uniform(0.05, 0.4)).astype(np.uint32)
        out = connected_components(LabelVolume(GridSpec(dims, 1.0), mask))
        assert out.data.dtype == np.uint32
        np.testing.assert_array_equal(out.data, flood_fill_components(mask))


# ---------------------------------------------------------------- orientation


def test_structure_tensor_axis_recovery():
    for axis, expect in ((2, [0, 0, 1]), (0, [1, 0, 0])):
        v = tube_volume(n=32, w=2.5, axis=axis)
        field = structure_tensor_orientation(v, sigma_g=1.5, rho=2.0)
        c = 16
        assert field.valid[c, c, c]
        got = field.axes[c, c, c].astype(np.float64)
        assert abs(np.dot(got, expect)) > 0.99
        # canonical hemisphere: z >= 0 (ties broken toward +y then +x)
        assert got[2] >= 0.0
        np.testing.assert_allclose(np.linalg.norm(field.axes[field.valid], axis=-1),
                                   1.0, atol=1e-5)


@pytest.mark.parametrize("rho", [1.0, 2.0])
def test_structure_tensor_axis_on_an_oblique_fiber(rho):
    # A solid cylinder of radius 2.5 through the center along (1, 2, 3)/sqrt(14);
    # its 2 002 valid voxels within 4 of the axis read a median angle error of
    # 1.21 deg (p90 6.43) at rho 1 and 0.12 deg (6.76) at rho 2.
    n, axis = 32, np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    p = np.stack(np.meshgrid(*(np.arange(n) - (n - 1) / 2.0,) * 3, indexing="ij"), axis=-1)
    dist = np.linalg.norm(p - (p @ axis)[..., None] * axis, axis=-1)
    field = structure_tensor_orientation(vol(dist <= 2.5), sigma_g=1.0, rho=rho)
    near = field.valid & (dist <= 4.0)
    assert near.sum() == 2002

    def angles(axes):
        return np.degrees(np.arccos(np.minimum(np.abs(axes.astype(np.float64) @ axis), 1.0)))

    got = angles(field.axes[near])
    assert np.median(got) < 2.0 and np.percentile(got, 90) < 10.0
    # The bound tells axes apart: x and y swapped, (2, 1, 3), is 21.8 deg off.
    assert np.median(angles(field.axes[near][:, [1, 0, 2]])) > 2.0


def test_structure_tensor_constant_volume_invalid():
    v = vol(np.full((10, 10, 10), 3.0))
    field = structure_tensor_orientation(v, sigma_g=1.0, rho=1.0)
    assert not field.valid.any()


def test_structure_tensor_validation():
    v = vol(np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        structure_tensor_orientation(v, sigma_g=0.0, rho=1.0)
    with pytest.raises(ValueError):
        structure_tensor_orientation(v, sigma_g=1.0, rho=-1.0)


def test_orientation_field_io_roundtrip(tmp_path):
    v = tube_volume(n=16, w=2.0)
    field = structure_tensor_orientation(v, sigma_g=1.0, rho=1.0)
    stem = tmp_path / "orient"
    write_orientation_field(field, stem)
    for suffix in (".ox.raw", ".oy.raw", ".oz.raw", ".valid.raw",
                   ".ox.json", ".valid.json"):
        assert (tmp_path / ("orient" + suffix)).exists()
    back = read_orientation_field(stem)
    assert back.grid == field.grid
    np.testing.assert_array_equal(back.axes, field.axes)
    np.testing.assert_array_equal(back.valid, field.valid)
    assert back.valid.dtype == bool
