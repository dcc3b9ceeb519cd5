"""Binary STL export of fiber models as tessellated closed cylinders."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fibers import _fiber_arrays
from .volume import write_files

_TRI_DTYPE = np.dtype([
    ("normal", "<f4", 3),
    ("v0", "<f4", 3),
    ("v1", "<f4", 3),
    ("v2", "<f4", 3),
    ("attr", "<u2"),
])

_HEADER = b"fibervox cylinder mesh (binary stl)"


def _frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed orthonormal pairs (e1, e2) with e1 x e2 = axis, for unit
    axes (..., 3)."""
    helper = np.zeros_like(axis)
    np.put_along_axis(helper, np.argmin(np.abs(axis), axis=-1)[..., None], 1.0, axis=-1)
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(axis, e1)
    return e1, e2


def cylinder_triangles(p0, p1, radius, sides: int) -> np.ndarray:
    """Triangles (..., t, 3, 3) float32 of closed cylinders with ``sides``
    side quads (2 triangles each) and two cap fans (``sides`` triangles each),
    for endpoints (..., 3) and radii (...).

    Ring vertices are computed once and cast to float32 once, so every edge is
    shared bitwise-exactly by its two incident triangles (watertight mesh).
    Outward winding throughout (counter-clockwise seen from outside).
    """
    p0 = np.asarray(p0, dtype=np.float64)[..., None, :]
    p1 = np.asarray(p1, dtype=np.float64)[..., None, :]
    axis = p1 - p0
    e1, e2 = _frame(axis / np.linalg.norm(axis, axis=-1, keepdims=True))

    ang = 2.0 * np.pi * np.arange(sides) / sides
    offsets = np.asarray(radius)[..., None, None] \
        * (np.cos(ang)[:, None] * e1 + np.sin(ang)[:, None] * e2)
    # Vertices: the ring around p0 is 0..sides-1, the ring around p1
    # sides..2*sides-1, the cap centers p0 and p1 are 2*sides and 2*sides+1.
    verts = np.concatenate([p0 + offsets, p1 + offsets, p0, p1], axis=-2).astype(np.float32)
    i = np.arange(sides)
    j = np.roll(i, -1)
    c = np.full(sides, 2 * sides)
    faces = np.concatenate([np.stack(f, axis=-1) for f in (
        (i, j, sides + j), (i, sides + j, sides + i), (c, j, i), (c + 1, sides + i, sides + j))])
    return verts[..., faces, :]


def _facet_normals(tris: np.ndarray) -> np.ndarray:
    n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]).astype(np.float64)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        n = np.where(norm > 0, n / norm, 0.0)
    return n.astype(np.float32)


def export_stl(model, segments_per_circle: int = 24) -> bytes:
    """Binary STL bytes of all fibers in a model (or plain fiber list):
    80-byte header, u32 triangle count, 50 bytes per triangle.

    Each fiber contributes 4 * segments_per_circle triangles.
    """
    if segments_per_circle < 3:
        raise ValueError(f"segments_per_circle must be >= 3, got {segments_per_circle}")
    p0, p1, radii = _fiber_arrays(getattr(model, "fibers", model))
    tris = cylinder_triangles(p0, p1, radii, segments_per_circle).reshape(-1, 3, 3)

    record = np.empty(len(tris), dtype=_TRI_DTYPE)
    record["normal"] = _facet_normals(tris)
    record["v0"] = tris[:, 0]
    record["v1"] = tris[:, 1]
    record["v2"] = tris[:, 2]
    record["attr"] = 0
    return _HEADER.ljust(80, b"\0") + np.uint32(len(tris)).tobytes() + record.tobytes()


def write_stl(model, path: str | Path, segments_per_circle: int = 24) -> int:
    """Write the model's STL to a file; returns the triangle count."""
    payload = export_stl(model, segments_per_circle)
    write_files({path: payload}, path)
    return (len(payload) - 84) // 50


def read_stl_triangles(source) -> np.ndarray:
    """Read binary STL bytes or file back as float32 triangles (t, 3, 3)."""
    raw = source if isinstance(source, (bytes, bytearray)) else Path(source).read_bytes()
    count = int(np.frombuffer(raw[80:84], dtype="<u4")[0])
    record = np.frombuffer(raw[84:], dtype=_TRI_DTYPE, count=count)
    tris = np.empty((count, 3, 3), dtype=np.float32)
    tris[:, 0] = record["v0"]
    tris[:, 1] = record["v1"]
    tris[:, 2] = record["v2"]
    return tris
