"""Pinned outputs of the two annotation kernels: a golden digest of the 3D
Bresenham walk, and for round-synchronous region growing a pure-Python oracle
and the whole-volume minimum-filter form of a round."""

import hashlib
import itertools

import numpy as np
import pytest
from scipy import ndimage

from fibervox.annotate import bresenham3d, region_grow
from fibervox.volume import NEIGHBORS_26, GridSpec, LabelVolume, Volume

# SHA-256 of repr(bresenham3d(p0, p0 + d)), one walk per line, for every d in
# [-5, 5]^3 and both start points below, in itertools.product order.
BRESENHAM_STARTS = ((0, 0, 0), (7, -3, 11))
BRESENHAM_DIGEST = "bdb197076dcd060674243c8f41551e678d02b7e93bcb8787f6dff4fe126ad36e"


def test_bresenham_golden_digest():
    h = hashlib.sha256()
    for p0 in BRESENHAM_STARTS:
        for d in itertools.product(range(-5, 6), repeat=3):
            p1 = tuple(a + b for a, b in zip(p0, d))
            h.update((repr(bresenham3d(p0, p1)) + "\n").encode())
    assert h.hexdigest() == BRESENHAM_DIGEST


def grow_oracle(gray, seeds, threshold):
    """Round by round: the voxels labeled in the previous round offer their
    label to unlabeled eligible 26-neighbors; each claimed voxel takes the
    smallest offer. A voxel labeled earlier has already made its offers, so
    only the newest front needs to be visited."""
    shape = gray.shape
    labels = {v: int(seeds[v]) for v in np.ndindex(shape) if seeds[v] > 0}
    front = list(labels)
    while front:
        offers = {}
        for v in front:
            for off in NEIGHBORS_26:
                n = tuple(a + o for a, o in zip(v, off))
                if (all(0 <= c < s for c, s in zip(n, shape)) and n not in labels
                        and gray[n] >= threshold):
                    offers[n] = min(offers.get(n, labels[v]), labels[v])
        labels.update(offers)
        front = list(offers)
    out = np.zeros(shape, dtype=np.uint32)
    for v, lab in labels.items():
        out[v] = lab
    return out


@pytest.mark.parametrize("seed", range(10))
def test_region_grow_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    shape = (9, 8, 7)
    gray = Volume(GridSpec(shape, 1.0), rng.uniform(0.0, 1.0, size=shape).astype(np.float32))
    seeds = LabelVolume.zeros(gray.grid)
    n_seeds = int(rng.integers(3, 6))
    flat = rng.choice(seeds.data.size, size=n_seeds, replace=False)
    seeds.data[np.unravel_index(flat, shape)] = rng.integers(1, 9, size=n_seeds)
    # 0.0 makes every voxel eligible, so fronts meet everywhere
    for threshold in (0.0, 0.3, 0.5, 0.7):
        out = region_grow(gray, seeds, threshold)
        assert out.data.dtype == np.uint32
        np.testing.assert_array_equal(out.data, grow_oracle(gray.data, seeds.data, threshold))


def grow_by_minimum_filter(gray, seeds, threshold):
    """The whole-volume form of a round: one 3x3x3 minimum filter over the
    labels, with unlabeled voxels holding a value above every label."""
    unclaimed = np.int64(2**62)
    labels = seeds.astype(np.int64)
    labels[labels == 0] = unclaimed
    eligible = gray >= threshold
    while True:
        best = ndimage.minimum_filter(labels, size=3, mode="constant", cval=unclaimed)
        claim = (labels == unclaimed) & eligible & (best != unclaimed)
        if not claim.any():
            return np.where(labels == unclaimed, 0, labels).astype(np.uint32)
        labels[claim] = best[claim]


@pytest.mark.parametrize("shape", [(40, 33, 27), (1, 1, 6), (2, 30, 1)])
def test_region_grow_matches_minimum_filter_rounds(shape):
    rng = np.random.default_rng(sum(shape))
    # Smooth noise grows in many rounds along winding paths.
    data = ndimage.gaussian_filter(rng.normal(size=shape), 1.5).astype(np.float32)
    gray = Volume(GridSpec(shape, 1.0), data)
    seeds = LabelVolume.zeros(gray.grid)
    corners = [tuple(c) for c in itertools.product(*((0, n - 1) for n in shape))]
    inside = [tuple(int(rng.integers(n)) for n in shape) for _ in range(6)]
    for vox, label in zip(corners[:2] + inside, [2**32 - 1, 1, 7, 3, 2**31, 5, 3, 9]):
        seeds.data[vox] = label
    for q in (0.0, 0.3, 0.6, 0.9):
        threshold = float(np.quantile(data, q))
        np.testing.assert_array_equal(region_grow(gray, seeds, threshold).data,
                                      grow_by_minimum_filter(data, seeds.data, threshold))
