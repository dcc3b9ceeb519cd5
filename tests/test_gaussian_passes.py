"""The segment kernels' Gaussian passes (``vesselness._pass`` and
``vesselness._derivatives``) must give ``ndimage.convolve1d(mode="reflect",
output=float64)`` bit for bit: the taps summed in scipy's order, the halo
reflected by scipy's rule, on lines of any length, any input dtype and
layout, any slab depth and any thread count. The order in which scipy sums
the taps is pinned here, so a scipy release that changes it fails these
tests first."""

import numpy as np
import pytest
from scipy import ndimage

from fibervox import vesselness
from fibervox.vesselness import _derivatives, _pass, _reflect, gaussian_kernel
from test_kernel_oracles import assert_bits_equal

SIGMAS = (0.47, 0.7, 1.0, 1.5, 2.5, 4.0)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_pass_matches_convolve1d_on_every_line_length(sigma, order, axis):
    # Lengths 1 to 2r + 2: lines shorter than the radius reflect more than
    # once, and 2r + 2 has interior samples that see no reflected tap. _pass
    # runs along axis 0; the lines of ``axis`` are moved there as a view, so
    # that their samples lie at every stride.
    kernel = gaussian_kernel(sigma, order)
    r = len(kernel) // 2
    rng = np.random.default_rng(23)
    for n in range(1, 2 * r + 3):
        shape = [3, 2, 2]
        shape[axis] = n
        samples = rng.normal(size=shape)
        for dtype in (np.float32, np.float64):
            for layout in (np.ascontiguousarray, np.asfortranarray):
                data = layout(samples.astype(dtype))
                want = ndimage.convolve1d(data, kernel, axis=axis, output=np.float64,
                                          mode="reflect")
                padded = np.take(data, _reflect(-r, n + r, n), axis=axis)
                got = _pass(np.moveaxis(padded, axis, 0), kernel)
                assert_bits_equal(got, np.moveaxis(want, axis, 0))


def test_reflect_repeats_with_period_twice_the_length():
    # d c b a | a b c d | d c b a, and on again for a 2-sample line.
    assert _reflect(-4, 8, 4).tolist() == [3, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 0]
    assert _reflect(-5, 7, 2).tolist() == [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    assert _reflect(-2, 3, 1).tolist() == [0] * 5


def test_pass_refuses_a_kernel_neither_symmetric_nor_antisymmetric():
    with pytest.raises(AssertionError, match="neither symmetric nor antisymmetric"):
        _pass(np.zeros((5, 2, 2)), np.array([0.25, 0.5, 0.3]))


ORDERS = {
    "hessian": ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2), (0, 1, 1)),
    "gradient": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "smoothing": ((0, 0, 0),),
}


def cascade_reference(data, sigma, orders):
    """Each triple from three whole-volume scipy passes, x then y then z."""
    kernels = [gaussian_kernel(sigma, k) for k in range(3)]
    out = []
    for triple in orders:
        component = data
        for axis, k in enumerate(triple):
            component = ndimage.convolve1d(component, kernels[k], axis=axis,
                                           output=np.float64, mode="reflect")
        out.append(component)
    return out


@pytest.mark.parametrize("dims, sigma", [
    ((20, 17, 9), 2.0),    # y and z lines shorter than the kernel
    ((3, 30, 4), 1.0),     # fewer x planes than the halo holds
    ((40, 12, 12), 0.47),
])
@pytest.mark.parametrize("slab_planes", [1, None], ids=["one-plane", "default"])
@pytest.mark.parametrize("cpus", [1, 3])
def test_derivatives_match_whole_volume_cascade(dims, sigma, slab_planes, cpus, monkeypatch):
    monkeypatch.setattr(vesselness, "_cpu_count", lambda: cpus)
    if slab_planes is not None:
        monkeypatch.setattr(vesselness, "_SLAB_VOXELS", slab_planes * dims[1] * dims[2])
    rng = np.random.default_rng(22)
    samples = ndimage.gaussian_filter(rng.normal(size=dims), 1.0)
    # read_volume gives x-fastest float32 views; the kernels' products are
    # C-ordered float64.
    for data in (np.asfortranarray(samples.astype(np.float32)), samples):
        for orders in ORDERS.values():
            for got, want in zip(_derivatives(data, sigma, orders),
                                 cascade_reference(data, sigma, orders)):
                assert_bits_equal(got, want)
