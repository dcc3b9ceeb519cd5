"""Oracles for the slab FBP. The forward projector builds one matrix of
bilinear ray weights per angle and applies it to every z slice; the reference
below is the per-slice ``map_coordinates`` projector it replaced, which sums
each ray in another order, so the two agree to a relative 1e-12. The
backprojection keeps one matrix per angle and must equal the masked
per-slice reference of ``test_kernel_oracles`` bit for bit."""

import math

import numpy as np
import pytest
from scipy import ndimage
from test_kernel_oracles import assert_bits_equal, fbp_reference

from fibervox.ctsim import Sinogram, _backproject, _project, fbp_slice, radon_slice, simulate_fbp
from fibervox.volume import GridSpec, Volume


def radon_reference(slice2d, angles):
    """One ray per detector element, n_det = max(nx, ny) bilinear samples one
    pixel apart, zero outside the slice; one ``map_coordinates`` call per angle."""
    slice2d = np.asarray(slice2d, dtype=np.float64)
    nx, ny = slice2d.shape
    n_det = max(nx, ny)
    s = np.arange(n_det, dtype=np.float64) - (n_det - 1) / 2.0
    t = s.copy()
    rows = []
    for theta in angles:
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x = (nx - 1) / 2.0 + s[:, None] * cos_t - t[None, :] * sin_t
        y = (ny - 1) / 2.0 + s[:, None] * sin_t + t[None, :] * cos_t
        samples = ndimage.map_coordinates(slice2d, [x, y], order=1, mode="constant", cval=0.0)
        rows.append(samples.sum(axis=1))
    return np.stack(rows, axis=0)


def uniform_angles(n):
    return np.arange(n) * math.pi / n


def assert_close_to_reference(stack, angles):
    """Each slice's projections equal the reference to 1e-12 relative, entry
    by entry: the data are positive, so no ray sum cancels."""
    got = _project(stack, angles)
    assert got.shape == (stack.shape[2], len(angles), max(stack.shape[:2]))
    for k in range(stack.shape[2]):
        want = radon_reference(stack[:, :, k], angles)
        assert np.all(np.abs(got[k] - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("shape, n_angles", [
    ((9, 9, 3), 7),      # odd n_det
    ((10, 10, 2), 8),    # even n_det
    ((12, 5, 2), 9),     # nx > ny: rays cross the short side and leave the slice
    ((6, 15, 3), 11),    # nx < ny
    ((16, 16, 1), 16),   # nz = 1
    ((1, 7, 2), 5),      # one-pixel-wide slice
    ((1, 1, 1), 3),
])
def test_stack_projector_matches_map_coordinates(shape, n_angles):
    rng = np.random.default_rng(sum(shape) * 10 + n_angles)
    stack = rng.uniform(0.5, 2.0, size=shape)
    assert_close_to_reference(stack, uniform_angles(n_angles))
    # random angles include ones whose rays leave the slice on every side
    assert_close_to_reference(stack, rng.uniform(0.0, math.pi, n_angles))


def test_samples_on_the_last_row_and_column_count():
    # At theta = 0 on a square slice the samples land exactly on x = n - 1 and
    # y = n - 1; only the last row and column carry mass here.
    n = 8
    img = np.zeros((n, n, 1))
    img[-1, :, 0] = 1.0
    img[:, -1, 0] = 2.0
    angles = np.array([0.0, math.pi / 2])
    got = _project(img, angles)[0]
    want = radon_reference(img[:, :, 0], angles)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert got[0, -1] == 1.0 * (n - 1) + 2.0   # detector n - 1 runs along x = n - 1
    assert got[0, :-1].tolist() == [2.0] * (n - 1)


@pytest.mark.parametrize("nz", [1, 50, 300])
def test_stack_projector_over_several_chunks(nz):
    # Each angle's rays are one chunk: one matrix, applied to all nz slices
    # in one product. Seven angles make seven chunks over a 10x7 slice
    # (nx > ny, odd ny); nz runs from one slice to a deep slab.
    stack = np.random.default_rng(nz).uniform(0.5, 2.0, size=(10, 7, nz))
    assert_close_to_reference(stack, uniform_angles(7))


def test_stack_projector_on_float32_slices():
    stack = np.random.default_rng(3).uniform(0.5, 2.0, size=(32, 32, 2)).astype(np.float32)
    assert_close_to_reference(stack, uniform_angles(100))


def test_stack_projector_at_the_desk_grid():
    # One 128^2 slice at the fbp stage's default 400 angles.
    stack = np.random.default_rng(4).uniform(0.5, 2.0, size=(128, 128, 1)).astype(np.float32)
    assert_close_to_reference(stack, uniform_angles(400))


@pytest.mark.parametrize("n_angles, n_det, shape", [
    (7, 9, (12, 5)),
    (11, 10, (6, 15)),
    (16, 16, (16, 16)),
    (3, 1, (2, 3)),
    (9, 25, (1, 1)),
])
def test_stack_backprojection_matches_reference_bitwise(n_angles, n_det, shape):
    rng = np.random.default_rng(n_angles * 100 + n_det)
    for angles in (uniform_angles(n_angles), rng.uniform(0.0, math.pi, n_angles)):
        stack = rng.normal(size=(4, n_angles, n_det))
        recon = _backproject(stack, angles, shape)
        assert recon.shape == shape + (4,)
        for k in range(4):
            assert_bits_equal(recon[:, :, k], fbp_reference(Sinogram(angles, stack[k]), shape))


def test_simulate_fbp_sink_gets_each_slice_in_order():
    rng = np.random.default_rng(5)
    grid = GridSpec((14, 11, 5), 1.0)
    v = Volume(grid, rng.uniform(1.0, 2.5, size=grid.dims))
    seen = []
    out = simulate_fbp(v, 9, lambda k, sino: seen.append((k, sino)))
    assert [k for k, _ in seen] == list(range(5))
    for k, sino in seen:
        want = radon_slice(v.data[:, :, k], 9)
        np.testing.assert_array_equal(sino.angles, want.angles)
        assert sino.data.shape == (9, 14)
        assert np.all(np.abs(sino.data - want.data) <= 1e-12 * np.abs(want.data))
        # the slab's backprojection of a slice is that slice's fbp_slice
        assert_bits_equal(out.data[:, :, k], fbp_slice(sino, (14, 11)).astype(np.float32))
