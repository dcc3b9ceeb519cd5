import math
import struct
from collections import Counter

import numpy as np
import pytest

from fibervox.fibers import Fiber, ModelParams, generate_model
from fibervox.mesh import (
    cylinder_triangles,
    export_stl,
    read_stl_triangles,
    write_stl,
)


def edge_use_counts(tris: np.ndarray) -> Counter:
    """Count directed edges over all triangles, keyed by exact float32 bytes."""
    counts = Counter()
    for tri in tris:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[(tri[a].tobytes(), tri[b].tobytes())] += 1
    return counts


def assert_watertight(tris: np.ndarray):
    """Closed orientable mesh: every directed edge used once, every
    undirected edge twice (in opposite directions)."""
    counts = edge_use_counts(tris)
    assert counts and max(counts.values()) == 1
    for (a, b) in counts:
        assert (b, a) in counts


def signed_volume(tris: np.ndarray) -> float:
    t = tris.astype(np.float64)
    return float(np.sum(np.einsum("ij,ij->i", t[:, 0],
                                  np.cross(t[:, 1], t[:, 2])))) / 6.0


def test_header_and_record_layout():
    f = Fiber(1, np.array([0.0, 0, 0]), np.array([0.0, 0, 10]), 2.0)
    blob = export_stl([f], segments_per_circle=8)
    assert not blob[:5].startswith(b"solid")
    (count,) = struct.unpack_from("<I", blob, 80)
    assert count == 32  # 4 * sides
    assert len(blob) == 84 + 50 * count
    # attribute byte count of every record is zero
    for k in range(count):
        (attr,) = struct.unpack_from("<H", blob, 84 + 50 * k + 48)
        assert attr == 0


def test_triangle_count_default_sides():
    f = Fiber(1, np.array([0.0, 0, 0]), np.array([10.0, 0, 0]), 1.0)
    tris = read_stl_triangles(export_stl([f]))
    assert tris.shape == (96, 3, 3)


def test_empty_model():
    blob = export_stl([])
    assert len(blob) == 84
    (count,) = struct.unpack_from("<I", blob, 80)
    assert count == 0
    assert read_stl_triangles(blob).shape == (0, 3, 3)


def test_sides_validation():
    with pytest.raises(ValueError, match="segments_per_circle"):
        export_stl([], segments_per_circle=2)


def test_single_cylinder_watertight_and_volume():
    r, L, s = 2.0, 10.0, 24
    f = Fiber(1, np.array([1.0, 2, 3]), np.array([1.0, 2, 3 + L]), r)
    tris = read_stl_triangles(export_stl([f], segments_per_circle=s))
    assert_watertight(tris)
    # prism over a regular s-gon of circumradius r
    expected = 0.5 * s * r * r * math.sin(2 * math.pi / s) * L
    assert signed_volume(tris) == pytest.approx(expected, rel=1e-4)


def test_normals_unit_and_outward():
    r, L = 3.0, 20.0
    f = Fiber(1, np.array([0.0, 0, 0]), np.array([0.0, 0, L]), r)
    blob = export_stl([f], segments_per_circle=16)
    count = int(np.frombuffer(blob[80:84], "<u4")[0])
    rec = np.frombuffer(blob[84:], dtype=np.dtype([
        ("normal", "<f4", 3), ("v0", "<f4", 3), ("v1", "<f4", 3),
        ("v2", "<f4", 3), ("attr", "<u2")]), count=count)
    normals = rec["normal"].astype(np.float64)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-5)
    verts = np.stack([rec["v0"], rec["v1"], rec["v2"]], axis=1).astype(np.float64)
    for n, tri in zip(normals, verts):
        zs = tri[:, 2]
        if np.all(zs == 0.0):       # bottom cap faces -z
            assert n[2] == pytest.approx(-1.0, abs=1e-5)
        elif np.all(zs == L):       # top cap faces +z
            assert n[2] == pytest.approx(1.0, abs=1e-5)
        else:                       # side faces point away from the axis
            c = tri.mean(axis=0)
            assert n[0] * c[0] + n[1] * c[1] > 0.0


def test_oblique_fiber_watertight():
    f = Fiber(1, np.array([0.3, -1.7, 2.9]), np.array([5.1, 4.2, -3.3]), 0.7)
    tris = read_stl_triangles(export_stl([f], segments_per_circle=7))
    assert_watertight(tris)
    L = np.linalg.norm(f.p1 - f.p0)
    expected = 0.5 * 7 * 0.49 * math.sin(2 * math.pi / 7) * L
    assert signed_volume(tris) == pytest.approx(expected, rel=1e-3)


def test_generated_model_mesh_watertight():
    m = generate_model(ModelParams(box_edge=150.0, radius=3.0, mean_length=40.0,
                                   length_stddev=8.0, target_fraction=0.01,
                                   max_attempts=5000, seed=2))
    assert len(m.fibers) >= 3
    blob = export_stl(m, segments_per_circle=12)
    tris = read_stl_triangles(blob)
    assert len(tris) == 48 * len(m.fibers)
    # each fiber's sub-mesh is independently closed
    for k in range(len(m.fibers)):
        assert_watertight(tris[48 * k:48 * (k + 1)])
    total = sum(0.5 * 12 * f.radius**2 * math.sin(2 * math.pi / 12) * f.length
                for f in m.fibers)
    assert signed_volume(tris) == pytest.approx(total, rel=1e-3)


def test_write_stl_roundtrip(tmp_path):
    m = generate_model(ModelParams(box_edge=100.0, radius=2.0, mean_length=30.0,
                                   length_stddev=5.0, target_fraction=0.005,
                                   max_attempts=2000, seed=5))
    path = tmp_path / "model.stl"
    count = write_stl(m, path, segments_per_circle=10)
    assert count == 40 * len(m.fibers)
    np.testing.assert_array_equal(read_stl_triangles(path),
                                  read_stl_triangles(export_stl(m, 10)))


def reference_cylinder(p0, p1, radius, sides):
    """One fiber's triangles built the per-fiber way: a frame from
    np.linalg.norm on 3-vectors, two float32 rings, side quads, cap fans."""
    axis = (p1 - p0) / np.linalg.norm(p1 - p0)
    helper = np.zeros(3)
    helper[np.argmin(np.abs(axis))] = 1.0
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    ang = 2.0 * np.pi * np.arange(sides) / sides
    offsets = radius * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
    ring0 = (p0 + offsets).astype(np.float32)
    ring1 = (p1 + offsets).astype(np.float32)
    c0 = np.broadcast_to(p0.astype(np.float32), ring0.shape)
    c1 = np.broadcast_to(p1.astype(np.float32), ring1.shape)
    nxt = np.roll(np.arange(sides), -1)
    return np.concatenate([np.stack([ring0, ring0[nxt], ring1[nxt]], axis=1),
                           np.stack([ring0, ring1[nxt], ring1], axis=1),
                           np.stack([c0, ring0[nxt], ring0], axis=1),
                           np.stack([c1, ring1, ring1[nxt]], axis=1)])


@pytest.mark.parametrize("sides", [3, 7, 24])
def test_export_stl_equals_per_fiber_cylinders(sides):
    m = generate_model(ModelParams(box_edge=150.0, radius=3.0, mean_length=40.0,
                                   length_stddev=8.0, target_fraction=0.03,
                                   max_attempts=5000, seed=4))
    assert len(m.fibers) >= 10
    tris = read_stl_triangles(export_stl(m, segments_per_circle=sides))
    alone = np.concatenate([cylinder_triangles(f.p0, f.p1, f.radius, sides)
                            for f in m.fibers])
    reference = np.concatenate([reference_cylinder(f.p0, f.p1, f.radius, sides)
                                for f in m.fibers])
    assert tris.dtype == alone.dtype == reference.dtype == np.float32
    assert tris.tobytes() == alone.tobytes() == reference.tobytes()
