import json
import math

import numpy as np
import pytest

from fibervox.ctsim import (
    DegradeParams,
    Sinogram,
    degrade,
    fbp_slice,
    radon_slice,
    rasterize_attenuation,
    rasterize_labels,
    simulate_fbp,
    write_sinogram,
)
from fibervox.fibers import GLASS_DENSITY, Fiber, FiberModel, ModelParams, generate_model
from fibervox.volume import GridSpec, Volume


def model_with(fibers, box_edge=100.0):
    params = ModelParams(box_edge=box_edge, radius=2.0, mean_length=20.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=1, seed=0)
    return FiberModel(params=params, fibers=fibers)


def fiber(i, p0, p1, r):
    return Fiber(i, np.asarray(p0, float), np.asarray(p1, float), r)


# ------------------------------------------------------------ rasterize


def test_rasterize_labels_axis_fiber_count():
    # axis through a voxel center; corner alignment is a known worst case
    # for the center-in-capsule test at this coarse radius/voxel ratio
    grid = GridSpec((26, 26, 26), 3.9)
    y = 13.5 * 3.9
    m = model_with([fiber(1, (0.7, y, y), (100.7, y, y), 6.5)], box_edge=100.0)
    labels, conflicts = rasterize_labels(m, grid)
    assert conflicts == 0
    count = int(np.count_nonzero(labels.data))
    expected = math.pi * 6.5**2 * 100.0 / 3.9**3  # ~224
    assert abs(count - expected) / expected < 0.15
    assert set(np.unique(labels.data)) == {0, 1}


def test_rasterize_labels_lower_id_wins():
    grid = GridSpec((30, 30, 30), 1.0)
    overlapping = [
        fiber(2, (5.0, 15.0, 15.0), (25.0, 15.0, 15.0), 3.0),
        fiber(1, (15.0, 5.0, 15.0), (15.0, 25.0, 15.0), 3.0),
    ]
    labels, conflicts = rasterize_labels(model_with(overlapping, box_edge=30.0), grid)
    assert conflicts > 0
    # the crossing region belongs to id 1 regardless of list order
    assert labels.data[15, 15, 15] == 1


def test_rasterize_labels_empty_model():
    grid = GridSpec((8, 8, 8), 1.0)
    labels, conflicts = rasterize_labels(model_with([], box_edge=8.0), grid)
    assert labels.data.sum() == 0 and conflicts == 0


def test_rasterize_grid_must_cover_box():
    grid = GridSpec((10, 10, 10), 3.9)
    with pytest.raises(ValueError, match="does not cover"):
        rasterize_labels(model_with([], box_edge=100.0), grid)
    with pytest.raises(ValueError, match="does not cover"):
        rasterize_attenuation(model_with([], box_edge=100.0), grid)


def test_rasterize_attenuation_exact_levels():
    grid = GridSpec((20, 20, 20), 1.0)
    m = model_with([fiber(1, (4.0, 10.0, 10.0), (16.0, 10.0, 10.0), 4.0)],
                   box_edge=20.0)
    v = rasterize_attenuation(m, grid, supersample=3, levels=(2.54, 1.31))
    assert v.data[10, 10, 10] == np.float32(2.54)   # deep inside
    assert v.data[0, 0, 0] == np.float32(1.31)      # far outside
    assert v.data.min() >= np.float32(1.31)
    assert v.data.max() <= np.float32(2.54)
    # partial-volume voxels exist on the rim and take strictly interior values
    partial = (v.data > np.float32(1.31)) & (v.data < np.float32(2.54))
    assert partial.any()


def test_rasterize_attenuation_validation():
    grid = GridSpec((8, 8, 8), 1.0)
    m = model_with([], box_edge=8.0)
    with pytest.raises(ValueError, match="supersample"):
        rasterize_attenuation(m, grid, supersample=0)
    with pytest.raises(ValueError, match="fiber level"):
        rasterize_attenuation(m, grid, levels=(1.0, 2.0))


def test_rasterize_attenuation_capsule_covering_the_grid_has_no_shell():
    # every voxel center lies deeper than half a voxel diagonal inside the capsule
    grid = GridSpec((5, 5, 5), 1.0)
    m = model_with([fiber(1, (2.5, 2.5, 0.0), (2.5, 2.5, 5.0), 10.0)], box_edge=5.0)
    v = rasterize_attenuation(m, grid)
    assert (v.data == np.float32(GLASS_DENSITY)).all()
    v = rasterize_attenuation(m, grid, supersample=2, levels=(3.0, 1.0))
    assert (v.data == np.float32(3.0)).all()


def test_supersample_one_matches_label_mask():
    m = generate_model(ModelParams(box_edge=50.0, radius=2.5, mean_length=15.0,
                                   length_stddev=3.0, target_fraction=0.03,
                                   max_attempts=5000, seed=4))
    assert len(m.fibers) >= 2
    grid = GridSpec((25, 25, 25), 2.0)
    labels, _ = rasterize_labels(m, grid)
    v = rasterize_attenuation(m, grid, supersample=1, levels=(2.0, 1.0))
    np.testing.assert_array_equal(v.data >= 1.5, labels.data != 0)
    # with supersample 1 every voxel is at one of the two exact levels
    assert set(np.unique(v.data)) <= {np.float32(1.0), np.float32(2.0)}


def test_threshold_disagreement_only_on_partial_voxels():
    m = generate_model(ModelParams(box_edge=60.0, radius=3.0, mean_length=20.0,
                                   length_stddev=4.0, target_fraction=0.02,
                                   max_attempts=5000, seed=6))
    grid = GridSpec((30, 30, 30), 2.0)
    labels, _ = rasterize_labels(m, grid)
    v = rasterize_attenuation(m, grid, supersample=3, levels=(2.54, 1.31))
    mid = np.float32((2.54 + 1.31) / 2)
    disagree = (v.data >= mid) != (labels.data != 0)
    partial = (v.data != np.float32(1.31)) & (v.data != np.float32(2.54))
    assert (~disagree | partial).all()


# ------------------------------------------------------------ degrade


def checkerboard_volume(n=32):
    rng = np.random.default_rng(12)
    data = rng.uniform(1.0, 3.0, size=(n, n, n)).astype(np.float32)
    return Volume(GridSpec((n, n, n), 1.0), data)


def test_degrade_identity():
    v = checkerboard_volume()
    out = degrade(v, DegradeParams(psf_sigma=0.0, snr=math.inf))
    np.testing.assert_array_equal(out.data, v.data)


def test_degrade_blur_preserves_mean():
    v = checkerboard_volume(32)
    out = degrade(v, DegradeParams(psf_sigma=2.5, snr=math.inf))
    got = float(out.data.mean())
    want = float(v.data.mean())
    assert abs(got - want) / abs(want) < 1e-4


def test_degrade_linearity_at_infinite_snr():
    v = checkerboard_volume(24)
    p = DegradeParams(psf_sigma=1.5, snr=math.inf)
    base = degrade(v, p).data.astype(np.float64)
    doubled = degrade(Volume(v.grid, v.data * 2.0), p).data.astype(np.float64)
    np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-5)
    shifted = degrade(Volume(v.grid, v.data + 5.0), p).data.astype(np.float64)
    np.testing.assert_allclose(shifted, base + 5.0, atol=1e-5)


def test_degrade_noise_std_on_constant_volume():
    # constant 10 has no exact matrix voxels -> reference is the global mean 10
    n = 64
    v = Volume(GridSpec((n, n, n), 1.0), np.full((n, n, n), 10.0, np.float32))
    out = degrade(v, DegradeParams(psf_sigma=0.0, snr=10.0, noise_seed=5))
    resid = out.data.astype(np.float64) - 10.0
    assert abs(resid.std() - 1.0) < 0.05
    assert abs(resid.mean()) < 0.01


def test_degrade_noise_references_matrix_region():
    n = 48
    data = np.full((n, n, n), 1.31, np.float32)
    data[: n // 4] = 2.54  # fiber-ish slab; matrix region is the exact-1.31 rest
    v = Volume(GridSpec((n, n, n), 1.0), data)
    out = degrade(v, DegradeParams(psf_sigma=0.0, snr=10.0, noise_seed=1))
    resid = out.data.astype(np.float64) - data.astype(np.float64)
    assert abs(resid.std() - 0.131) / 0.131 < 0.05


def test_degrade_deterministic_per_seed():
    v = checkerboard_volume(16)
    a = degrade(v, DegradeParams(psf_sigma=1.0, snr=15.0, noise_seed=9))
    b = degrade(v, DegradeParams(psf_sigma=1.0, snr=15.0, noise_seed=9))
    c = degrade(v, DegradeParams(psf_sigma=1.0, snr=15.0, noise_seed=10))
    np.testing.assert_array_equal(a.data, b.data)
    assert (a.data != c.data).any()


def test_degrade_params_validation():
    with pytest.raises(ValueError):
        DegradeParams(psf_sigma=-1.0)
    with pytest.raises(ValueError):
        DegradeParams(snr=0.0)


# ------------------------------------------------------------ radon / fbp


def disk_slice(n=128, radius=40.0, amplitude=1.0):
    c = (n - 1) / 2.0
    i = np.arange(n) - c
    d2 = i[:, None] ** 2 + i[None, :] ** 2
    return (d2 <= radius * radius) * amplitude


def interior_rmse(recon, n=128, radius=40.0, amplitude=1.0):
    c = (n - 1) / 2.0
    i = np.arange(n) - c
    d2 = i[:, None] ** 2 + i[None, :] ** 2
    interior = d2 <= (radius - 2.0) ** 2
    return float(np.sqrt(np.mean((recon[interior] - amplitude) ** 2)))


def test_radon_zero_and_mass():
    sino = radon_slice(np.zeros((32, 32)), 16)
    assert sino.data.shape == (16, 32)
    assert np.all(sino.data == 0.0)
    # every projection of a nonnegative slice carries the full mass
    img = disk_slice(64, radius=20.0)
    sino = radon_slice(img, 24)
    np.testing.assert_allclose(sino.data.sum(axis=1), img.sum(), rtol=1e-2)


def test_fbp_disk_phantom_rmse():
    img = disk_slice()
    recon = fbp_slice(radon_slice(img, 400), img.shape)
    assert interior_rmse(recon) < 0.05


def test_fbp_impulse_peaks_at_impulse():
    for cx, cy in ((64, 64), (40, 80)):
        img = np.zeros((128, 128))
        img[cx, cy] = 1.0
        recon = fbp_slice(radon_slice(img, 400), (128, 128))
        assert np.unravel_index(np.argmax(recon), recon.shape) == (cx, cy)


def test_fbp_error_decreases_with_angles():
    img = disk_slice()
    errs = [interior_rmse(fbp_slice(radon_slice(img, n), img.shape))
            for n in (50, 100, 200, 400)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_simulate_fbp_volume():
    n = 48
    data = np.zeros((n, n, 3), dtype=np.float32)
    data[:, :, 1] = disk_slice(n, radius=14.0).astype(np.float32)
    v = Volume(GridSpec((n, n, 3), 1.0), data)
    out = simulate_fbp(v, 100)
    assert out.grid == v.grid
    # the empty slices reconstruct to zero, the disk slice approximately back
    np.testing.assert_allclose(out.data[:, :, 0], 0.0, atol=1e-9)
    np.testing.assert_allclose(out.data[:, :, 2], 0.0, atol=1e-9)
    assert interior_rmse(out.data[:, :, 1].astype(np.float64),
                         n=n, radius=14.0) < 0.1


def test_radon_validation():
    with pytest.raises(ValueError, match="n_angles"):
        radon_slice(np.zeros((8, 8)), 0)
    with pytest.raises(ValueError, match="n_angles"):
        simulate_fbp(Volume(GridSpec((4, 4, 1), 1.0), np.zeros((4, 4, 1))), 0)


def test_write_sinogram(tmp_path):
    sino = radon_slice(disk_slice(32, radius=10.0), 12)
    write_sinogram(sino, tmp_path / "s0")
    meta = json.loads((tmp_path / "s0.json").read_text())
    assert meta["n_angles"] == 12
    assert meta["n_detectors"] == 32
    assert meta["dtype"] == "f32"
    assert len(meta["angles_rad"]) == 12
    raw = (tmp_path / "s0.raw").read_bytes()
    assert len(raw) == 12 * 32 * 4
    back = np.frombuffer(raw, dtype="<f4").reshape(12, 32)
    np.testing.assert_allclose(back, sino.data.astype(np.float32))
