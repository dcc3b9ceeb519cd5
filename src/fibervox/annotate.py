"""Polyline fiber annotations to voxel ground truth.

Chains are rendered onto the grid with an integer-only 3D Bresenham walk (after
k of n = max|d| moves an axis has moved k|d|/n, rounded with halves down) and
then expanded by seeded region growing on the gray volume. Growth is
round-synchronous: every label front advances one 26-connected ring per round,
and a voxel contested within a round goes to the smallest claiming label id,
so results do not depend on traversal order. A round visits only the
neighbors of the voxels claimed in the round before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ctsim import _capsule_boxes
from .fibers import _fiber_arrays
from .volume import NEIGHBORS_26, GridSpec, LabelVolume, Volume, _check_number, write_files

# Stands for "no offer": larger than every uint32 label.
_NO_OFFER = np.int64(2**62)


def _exact_int(value, what: str) -> int:
    """``int(value)``, refusing values it would round or parse (0.9, "3") and
    bools."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass
class PolylineAnnotation:
    """One annotated fiber: a chain of at least two integer voxel coordinates."""

    id: int
    points: list[tuple[int, int, int]]

    def __post_init__(self):
        self.id = _exact_int(self.id, "annotation id")
        if self.id < 1:
            raise ValueError(f"annotation id must be positive, got {self.id}")
        if self.id > np.iinfo(np.uint32).max:
            raise ValueError(f"annotation id {self.id} does not fit the u32 labels")
        if not isinstance(self.points, (list, tuple)):
            raise ValueError(f"annotation {self.id} points must be a list of 3D points, "
                             f"got {self.points!r}")
        if len(self.points) < 2:
            raise ValueError(f"annotation {self.id} needs at least 2 points")
        cleaned = []
        for idx, p in enumerate(self.points):
            if np.ndim(p) != 1 or len(p) != 3:
                raise ValueError(f"annotation {self.id} point {idx} is not 3D")
            cleaned.append(tuple(_exact_int(v, f"annotation {self.id} point {idx} coordinate")
                                 for v in p))
        for idx in range(1, len(cleaned)):
            if cleaned[idx] == cleaned[idx - 1]:
                raise ValueError(
                    f"annotation {self.id} has identical consecutive points at index {idx}")
        self.points = cleaned


def bresenham3d(p0, p1) -> list[tuple[int, int, int]]:
    """Integer voxel walk from p0 to p1 inclusive: n + 1 26-adjacent voxels,
    n = max(|dx|, |dy|, |dz|). After k moves each axis has moved
    floor((2k|d| + n - 1) / 2n) toward p1, k|d|/n rounded with halves down:
    the closed form of Bresenham's per-axis error term against n."""
    return list(map(tuple, _walk(p0, p1).tolist()))


def _walk(p0, p1) -> np.ndarray:
    """:func:`bresenham3d` as an (n + 1, 3) int64 array."""
    start, end = (np.asarray(p, dtype=np.int64) for p in (p0, p1))
    if start.shape != (3,) or end.shape != (3,):
        raise ValueError(f"walk endpoints must be 3D points, got {p0!r} and {p1!r}")
    d = end - start
    n = int(np.abs(d).max())
    return start + np.sign(d) * ((2 * np.arange(n + 1)[:, None] * np.abs(d) + n - 1)
                                 // (2 * max(n, 1)))


def render_polylines(annotations: list[PolylineAnnotation],
                     grid: GridSpec) -> tuple[LabelVolume, int]:
    """Rasterize chains as seed labels; returns the seeds and the number of
    conflicts: visits of a walk voxel held by another id (the first id wins).
    One read and one write per chain equal one per visit, as a chain writes
    only its own id: it never conflicts with itself, and a voxel held by
    another id stays held and conflicts on every visit."""
    seeds = LabelVolume.zeros(grid)
    conflicts = 0
    for ann in annotations:
        for idx, p in enumerate(ann.points):
            if not all(0 <= c < n for c, n in zip(p, grid.dims)):
                raise ValueError(
                    f"annotation {ann.id} point {idx} {p} is outside grid dims {grid.dims}")
        walk = tuple(np.concatenate([_walk(q0, q1) for q0, q1
                                     in zip(ann.points, ann.points[1:])]).T)
        current = seeds.data[walk]
        conflicts += int(np.count_nonzero((current != 0) & (current != ann.id)))
        seeds.data[tuple(v[current == 0] for v in walk)] = ann.id
    return seeds, conflicts


def region_grow(gray: Volume, seeds: LabelVolume, threshold: float) -> LabelVolume:
    """Multi-source seeded growth over voxels with gray value >= threshold.

    Seed voxels always keep their labels, even below the threshold. Each round
    every labeled voxel offers its label to unclaimed 26-neighbors that meet
    the threshold; a voxel offered several labels in one round takes the
    smallest id. Runs until no voxel is claimed.

    Only the last round's claims (at first the seeds) make offers: had a
    claimable voxel an older labeled neighbor, it would have been claimed a
    round earlier. So a round costs its front, not the volume.
    """
    if gray.grid != seeds.grid:
        raise ValueError(
            f"grid mismatch: gray {gray.grid.dims} vs seeds {seeds.grid.dims}")
    _check_number("threshold", threshold, low=None)
    # One unclaimable voxel of padding on each side keeps neighbor indices in range.
    shape = tuple(n + 2 for n in seeds.grid.dims)
    inner = (slice(1, -1),) * 3
    labels = np.zeros(shape, dtype=np.int64)
    labels[inner] = seeds.data
    claimable = np.zeros(shape, dtype=bool)
    claimable[inner] = (gray.data >= threshold) & (seeds.data == 0)
    flat_labels, flat_claimable = labels.reshape(-1), claimable.reshape(-1)
    offsets = np.array(NEIGHBORS_26) @ np.array([shape[1] * shape[2], shape[2], 1])
    best = np.full(labels.size, _NO_OFFER)
    front = np.flatnonzero(flat_labels)
    while front.size:
        offers = flat_labels[front]
        for offset in offsets:
            neighbors = front + offset
            free = flat_claimable[neighbors]
            np.minimum.at(best, neighbors[free], offers[free])
        front = np.flatnonzero(best != _NO_OFFER)
        flat_labels[front] = best[front]
        flat_claimable[front] = False
        best[front] = _NO_OFFER
    return LabelVolume(grid=seeds.grid, data=labels[inner].astype(np.uint32))


def annotations_from_fibers(fibers, grid: GridSpec) -> list[PolylineAnnotation]:
    """Two-point chains from fiber endpoints, in voxel coordinates.

    Endpoints map to the nearest voxel center and are clamped into the grid.
    Skipped: fibers whose capsule's bounding box misses the grid, which
    rasterization skips too, and fibers whose endpoints collapse onto one voxel.
    """
    p0, p1, _ = _fiber_arrays(fibers)
    first, last = _capsule_boxes(fibers, grid)
    ends = np.clip(np.round(np.stack([p0, p1]) / grid.voxel_size - 0.5).astype(int),
                   0, np.asarray(grid.dims) - 1).tolist()
    hits = (first <= last).all(axis=1).tolist()
    return [PolylineAnnotation(id=fiber.id, points=[tuple(a), tuple(b)])
            for fiber, a, b, hit in zip(fibers, *ends, hits) if hit and a != b]


def write_annotations(annotations: list[PolylineAnnotation], path: str | Path) -> list[Path]:
    payload = [{"id": a.id, "points": [list(p) for p in a.points]} for a in annotations]
    return write_files({path: (json.dumps(payload, indent=2) + "\n").encode()}, path)


def read_annotations(path: str | Path) -> list[PolylineAnnotation]:
    path = Path(path)
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"bad annotation JSON '{path}': {exc}") from exc
    if not isinstance(payload, list):
        raise ValueError(f"annotation JSON '{path}' must be a list of chains")
    for idx, entry in enumerate(payload):
        if not isinstance(entry, dict) or not {"id", "points"} <= entry.keys():
            raise ValueError(f"annotation JSON '{path}' chain {idx} needs 'id' and 'points'")
    return [PolylineAnnotation(id=entry["id"], points=entry["points"])
            for entry in payload]
