"""Pinned outputs of the annotation kernels: a golden digest of the 3D
Bresenham walk and the per-step error-term loop it replaced, the per-voxel
loop that rendering replaced, and for round-synchronous region growing a
pure-Python oracle and the whole-volume minimum-filter form of a round."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fibervox.annotate import PolylineAnnotation, bresenham3d, region_grow, render_polylines
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


def bresenham_reference(p0, p1):
    """The per-step walk: each axis keeps an error term against n and moves
    when it is positive."""
    p = [int(v) for v in p0]
    d = [int(q) - c for c, q in zip(p, p1, strict=True)]
    a = [abs(v) for v in d]
    n = max(a)
    err = [2 * ak - n for ak in a]
    points = [tuple(p)]
    for _ in range(n):
        for k in range(3):
            if err[k] > 0:
                p[k] += 1 if d[k] > 0 else -1
                err[k] -= 2 * n
            err[k] += 2 * a[k]
        points.append(tuple(p))
    return points


_COORD = (-200, 200)


@st.composite
def endpoint_pairs(draw):
    """Endpoints in [-200, 200]^3: any pair, p0 == p1, a walk along one axis,
    or a walk whose moving axes tie at one |d|."""
    coord = st.integers(*_COORD)
    p0 = [draw(coord) for _ in range(3)]
    kind = draw(st.sampled_from(["any", "same", "axis", "tie"]))
    p1 = list(p0)
    if kind == "any":
        p1 = [draw(coord) for _ in range(3)]
    elif kind == "axis":
        p1[draw(st.integers(0, 2))] = draw(coord)
    elif kind == "tie":
        m = draw(st.integers(0, _COORD[1] - _COORD[0]))
        for k in range(3):
            sign = draw(st.sampled_from([-1, 0, 1]))
            p0[k] = draw(st.integers(max(_COORD[0], _COORD[0] - sign * m),
                                     min(_COORD[1], _COORD[1] - sign * m)))
            p1[k] = p0[k] + sign * m
    return tuple(p0), tuple(p1)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(endpoint_pairs())
@example(((0, 0, 0), (0, 0, 0)))
@example(((-200, -200, -200), (200, 200, 200)))
@example(((200, -3, 7), (-200, -3, 7)))
@example(((0, 0, 0), (4, 2, 0)))
@example(((5, 1, -9), (-1, 7, -3)))
@example(((-200, 199, 0), (200, -200, 1)))
def test_bresenham_equals_error_term_walk(pair):
    got = bresenham3d(*pair)
    assert got == bresenham_reference(*pair)
    assert all(type(c) is int for p in got for c in p)


@pytest.mark.parametrize("p0, p1", [
    (5, (1, 2, 3)),
    ((1, 2, 3), 5),
    ((1, 2), (3, 4, 5)),
    ((1, 2, 3), (3, 4)),
    ((1, 2), (1, 2)),
    ((1, 2), (3, 4)),
])
def test_bresenham_rejects_endpoints_that_are_not_3d(p0, p1):
    with pytest.raises(ValueError, match="walk endpoints must be 3D points"):
        bresenham3d(p0, p1)


def render_reference(annotations, grid):
    """One read and write per walk voxel, visits in order; a visit of a voxel
    held by another id is a conflict."""
    seeds = np.zeros(grid.dims, dtype=np.uint32)
    conflicts = 0
    for ann in annotations:
        for q0, q1 in zip(ann.points, ann.points[1:]):
            for vox in bresenham_reference(q0, q1):
                current = int(seeds[vox])
                if current == 0:
                    seeds[vox] = ann.id
                elif current != ann.id:
                    conflicts += 1
    return seeds, conflicts


def assert_renders_like_reference(annotations, grid):
    seeds, conflicts = render_polylines(annotations, grid)
    expected, expected_conflicts = render_reference(annotations, grid)
    assert seeds.data.dtype == np.uint32
    np.testing.assert_array_equal(seeds.data, expected)
    assert conflicts == expected_conflicts
    return conflicts


def test_render_polylines_crossings_match_reference():
    grid = GridSpec((6, 6, 2), 1.0)
    chains = [
        # crosses itself at (2, 2, 0) and revisits its vertices (4, 4, 0) and (4, 0, 0)
        PolylineAnnotation(1, [(0, 0, 0), (4, 4, 0), (4, 0, 0), (0, 4, 0)]),
        # passes id 1's (2, 2, 0) down and back: two conflicts
        PolylineAnnotation(2, [(2, 0, 0), (2, 5, 0), (2, 0, 0)]),
        # id 1 again: its own voxels are free to it, id 2's (2, 3, 0) is a conflict
        PolylineAnnotation(1, [(0, 3, 0), (5, 3, 0)]),
    ]
    assert assert_renders_like_reference(chains, grid) == 3


@pytest.mark.parametrize("seed", range(20))
def test_render_polylines_matches_per_voxel_loop(seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec((7, 6, 5), 1.0)
    chains = []
    for _ in range(int(rng.integers(2, 8))):
        points = [tuple(int(c) for c in rng.integers(0, grid.dims))]
        while len(points) < int(rng.integers(2, 7)):
            p = tuple(int(c) for c in rng.integers(0, grid.dims))
            if p != points[-1]:
                points.append(p)
        # ids 1-3 only, so chains share ids and cross chains of other ids
        chains.append(PolylineAnnotation(int(rng.integers(1, 4)), points))
    assert_renders_like_reference(chains, grid)


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
