import numpy as np
import pytest

from fibervox.annotate import (
    PolylineAnnotation,
    annotations_from_fibers,
    bresenham3d,
    read_annotations,
    region_grow,
    render_polylines,
    write_annotations,
)
from fibervox.ctsim import fibers_outside
from fibervox.fibers import Fiber
from fibervox.volume import GridSpec, LabelVolume, Volume


def ann(i, *pts):
    return PolylineAnnotation(id=i, points=list(pts))


# ------------------------------------------------------------- bresenham


def test_bresenham_known_lines():
    assert bresenham3d((0, 0, 0), (3, 0, 0)) == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert bresenham3d((0, 0, 0), (0, 0, -2)) == [(0, 0, 0), (0, 0, -1), (0, 0, -2)]
    assert bresenham3d((0, 0, 0), (2, 2, 2)) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    assert bresenham3d((1, 1, 1), (1, 1, 1)) == [(1, 1, 1)]
    # dominant x with a slow y; half-integer crossings round down (e > 0 rule)
    assert bresenham3d((0, 0, 0), (4, 2, 0)) == [
        (0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0), (4, 2, 0)]


def test_bresenham_properties_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p0 = rng.integers(-30, 31, size=3)
        p1 = rng.integers(-30, 31, size=3)
        pts = bresenham3d(p0, p1)
        assert pts[0] == tuple(p0)
        assert pts[-1] == tuple(p1)
        d = np.abs(p1 - p0)
        assert len(pts) == int(d.max()) + 1
        arr = np.asarray(pts)
        steps = np.abs(np.diff(arr, axis=0))
        if len(pts) > 1:
            assert steps.max() <= 1          # 26-connected
            assert (steps.max(axis=1) == 1).all()  # no repeated voxels
        # each coordinate moves monotonically
        for k in range(3):
            diffs = np.diff(arr[:, k])
            assert (diffs >= 0).all() or (diffs <= 0).all()
        # voxels stay within one cell of the ideal line
        if len(pts) > 1:
            t = np.linspace(0.0, 1.0, len(pts))
            ideal = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
            assert np.max(np.abs(arr - ideal)) <= 0.5 + 1e-9


def test_bresenham_symmetry_is_setwise():
    # forward and reverse walks cover the same voxel set for axis-dominant runs
    fwd = bresenham3d((0, 0, 0), (6, 3, 0))
    rev = bresenham3d((6, 3, 0), (0, 0, 0))
    assert fwd[0] == rev[-1] and fwd[-1] == rev[0]
    assert len(fwd) == len(rev)


# ------------------------------------------------------------- annotations


def test_annotation_validation():
    with pytest.raises(ValueError, match="id must be positive"):
        ann(0, (0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="at least 2 points"):
        ann(1, (0, 0, 0))
    with pytest.raises(ValueError, match="not 3D"):
        ann(1, (0, 0), (1, 0))
    with pytest.raises(ValueError, match="identical consecutive"):
        ann(1, (0, 0, 0), (0, 0, 0))
    a = ann(1, [0, 0, 0], [1, 2, 3])
    assert a.points == [(0, 0, 0), (1, 2, 3)]


def test_render_polylines_labels_and_conflicts():
    g = GridSpec((5, 5, 5), 1.0)
    seeds, conflicts = render_polylines(
        [ann(1, (0, 2, 2), (4, 2, 2)), ann(2, (2, 0, 2), (2, 4, 2))], g)
    assert conflicts == 1  # the crossing voxel is claimed by id 1 first
    assert seeds.data[2, 2, 2] == 1
    assert seeds.data[0, 2, 2] == 1 and seeds.data[4, 2, 2] == 1
    assert seeds.data[2, 0, 2] == 2 and seeds.data[2, 4, 2] == 2
    assert int((seeds.data == 1).sum()) == 5
    assert int((seeds.data == 2).sum()) == 4


def test_render_polylines_out_of_bounds_message():
    g = GridSpec((4, 4, 4), 1.0)
    with pytest.raises(ValueError) as err:
        render_polylines([ann(3, (0, 0, 0), (0, 0, 9))], g)
    assert "annotation 3 point 1 (0, 0, 9) is outside grid dims (4, 4, 4)" in str(err.value)


def test_annotation_json_roundtrip(tmp_path):
    chains = [ann(1, (0, 0, 0), (3, 1, 2)), ann(5, (2, 2, 2), (2, 3, 2), (2, 3, 3))]
    path = tmp_path / "ann.json"
    write_annotations(chains, path)
    back = read_annotations(path)
    assert back == chains
    path.write_text("{not json")
    with pytest.raises(ValueError, match="bad annotation JSON"):
        read_annotations(path)
    path.write_text('{"id": 1}')
    with pytest.raises(ValueError, match="list of chains"):
        read_annotations(path)


def test_annotations_from_fibers_mapping():
    g = GridSpec((10, 10, 10), 2.0)
    fibers = [
        Fiber(1, np.array([1.0, 1.0, 1.0]), np.array([17.0, 1.0, 1.0]), 0.5),
        Fiber(2, np.array([5.0, 5.0, 5.0]), np.array([5.2, 5.0, 5.0]), 0.5),  # collapses
    ]
    chains = annotations_from_fibers(fibers, g)
    assert len(chains) == 1
    assert chains[0].id == 1
    # 1.0 um is inside voxel 0, 17.0 um inside voxel 8 (centers at (i+0.5)*2)
    assert chains[0].points == [(0, 0, 0), (8, 0, 0)]


def test_annotations_from_fibers_clamps():
    g = GridSpec((4, 4, 4), 1.0)
    fibers = [Fiber(1, np.array([-3.0, 0.5, 0.5]), np.array([9.0, 0.5, 0.5]), 0.2)]
    (chain,) = annotations_from_fibers(fibers, g)
    assert chain.points == [(0, 0, 0), (3, 0, 0)]


def test_annotations_from_fibers_skips_fibers_off_the_grid():
    g = GridSpec((24, 24, 24), 3.9)
    fibers = [Fiber(1, np.array([-100.0, 40.0, 40.0]), np.array([-50.0, 60.0, 70.0]), 6.5),
              Fiber(2, np.array([-5.0, 40.0, 40.0]), np.array([-5.0, 60.0, 70.0]), 6.5)]
    # Fiber 2's axis lies off the grid too, but its capsule reaches into it.
    assert [c.id for c in annotations_from_fibers(fibers, g)] == [2]
    assert fibers_outside(fibers, g) == 1


# ------------------------------------------------------------- region grow


def grid_volume(data, h=1.0):
    data = np.asarray(data, dtype=np.float32)
    return Volume(GridSpec(data.shape, h), data)


def test_region_grow_respects_threshold():
    gray = grid_volume(np.zeros((7, 1, 1)))
    gray.data[0:4] = 5.0  # bright run, the rest stays dark
    seeds = LabelVolume.zeros(gray.grid)
    seeds.data[0, 0, 0] = 9
    out = region_grow(gray, seeds, threshold=1.0)
    np.testing.assert_array_equal(out.data[:, 0, 0], [9, 9, 9, 9, 0, 0, 0])


def test_region_grow_seed_below_threshold_kept_but_inert():
    gray = grid_volume(np.zeros((5, 1, 1)))
    seeds = LabelVolume.zeros(gray.grid)
    seeds.data[2, 0, 0] = 4
    out = region_grow(gray, seeds, threshold=1.0)
    np.testing.assert_array_equal(out.data[:, 0, 0], [0, 0, 4, 0, 0])


def test_region_grow_tie_breaks_to_smaller_id():
    gray = grid_volume(np.full((7, 1, 1), 2.0))
    seeds = LabelVolume.zeros(gray.grid)
    seeds.data[0, 0, 0] = 2
    seeds.data[6, 0, 0] = 1
    out = region_grow(gray, seeds, threshold=1.0)
    # both fronts reach the middle voxel in round 3; smaller id wins
    np.testing.assert_array_equal(out.data[:, 0, 0], [2, 2, 2, 1, 1, 1, 1])


def test_region_grow_is_26_connected():
    gray = grid_volume(np.full((3, 3, 3), 1.0))
    seeds = LabelVolume.zeros(gray.grid)
    seeds.data[0, 0, 0] = 1
    out = region_grow(gray, seeds, threshold=0.5)
    assert out.data[1, 1, 1] == 1  # first round already claims the diagonal
    assert (out.data == 1).all()


def test_region_grow_partitions_eligible_voxels():
    rng = np.random.default_rng(4)
    gray = grid_volume(rng.uniform(0.0, 1.0, size=(12, 11, 10)))
    seeds = LabelVolume.zeros(gray.grid)
    seeds.data[2, 2, 2] = 3
    seeds.data[9, 8, 7] = 8
    thr = 0.35
    out = region_grow(gray, seeds, thr)
    # grown voxels are exactly the eligible voxels 26-connected to a seed
    eligible = gray.data >= thr
    grown = out.data > 0
    seedpos = seeds.data > 0
    assert (out.data[seedpos] == seeds.data[seedpos]).all()
    # every grown non-seed voxel is eligible
    assert eligible[grown & ~seedpos].all()
    # no eligible voxel adjacent to a grown voxel remains unlabeled
    from fibervox.volume import NEIGHBORS_26
    frontier = np.zeros_like(grown)
    for off in NEIGHBORS_26:
        src = np.roll(grown, off, axis=(0, 1, 2))
        # mask the wrap-around
        for ax, o in enumerate(off):
            if o == 1:
                src[tuple(slice(0, 1) if a == ax else slice(None) for a in range(3))] = False
            elif o == -1:
                src[tuple(slice(-1, None) if a == ax else slice(None) for a in range(3))] = False
        frontier |= src
    assert not (frontier & eligible & ~grown).any()


def test_region_grow_grid_mismatch():
    gray = grid_volume(np.zeros((3, 3, 3)))
    seeds = LabelVolume.zeros(GridSpec((3, 3, 4), 1.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        region_grow(gray, seeds, 0.5)


def test_region_grow_no_seeds_is_noop():
    gray = grid_volume(np.ones((4, 4, 4)))
    out = region_grow(gray, LabelVolume.zeros(gray.grid), 0.5)
    assert out.data.sum() == 0
