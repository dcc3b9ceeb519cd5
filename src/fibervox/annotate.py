"""Polyline fiber annotations to voxel ground truth.

Chains are rendered onto the grid with an integer-only 3D Bresenham walk and
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

from .fibers import _fiber_arrays
from .volume import NEIGHBORS_26, GridSpec, LabelVolume, Volume, write_files

# Stands for "no offer": larger than every uint32 label.
_NO_OFFER = np.int64(2**62)


def _exact_int(value, what: str) -> int:
    """``int(value)``, refusing values it would round or parse (0.9, "3")."""
    try:
        if int(value) == value:
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
    """Integer voxel walk from p0 to p1 inclusive.

    Dominant-axis error accumulation; consecutive voxels are 26-adjacent and
    the list has n + 1 entries, n = max(|dx|, |dy|, |dz|). Each axis keeps its
    own error term against n, so an axis with |d| = n steps on every move.
    """
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


def render_polylines(annotations: list[PolylineAnnotation],
                     grid: GridSpec) -> tuple[LabelVolume, int]:
    """Rasterize chains as seed labels.

    Returns the seed volume and the number of conflicts: write attempts on a
    voxel already holding a different nonzero id (the first id wins).
    """
    seeds = LabelVolume.zeros(grid)
    conflicts = 0
    for ann in annotations:
        for idx, p in enumerate(ann.points):
            if not all(0 <= c < n for c, n in zip(p, grid.dims)):
                raise ValueError(
                    f"annotation {ann.id} point {idx} {p} is outside grid dims {grid.dims}")
        for q0, q1 in zip(ann.points, ann.points[1:]):
            for vox in bresenham3d(q0, q1):
                current = int(seeds.data[vox])
                if current == 0:
                    seeds.data[vox] = ann.id
                elif current != ann.id:
                    conflicts += 1
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

    Endpoints map to the nearest voxel center and are clamped into the grid;
    fibers whose endpoints collapse onto one voxel are skipped.
    """
    p0, p1, _ = _fiber_arrays(fibers)
    ends = np.clip(np.round(np.stack([p0, p1]) / grid.voxel_size - 0.5).astype(int),
                   0, np.asarray(grid.dims) - 1).tolist()
    return [PolylineAnnotation(id=fiber.id, points=[tuple(a), tuple(b)])
            for fiber, a, b in zip(fibers, *ends) if a != b]


def write_annotations(annotations: list[PolylineAnnotation], path: str | Path) -> list[Path]:
    payload = [{"id": a.id, "points": [list(p) for p in a.points]} for a in annotations]
    return write_files({path: (json.dumps(payload, indent=2) + "\n").encode()}, path)


def read_annotations(path: str | Path) -> list[PolylineAnnotation]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad annotation JSON '{path}': {exc}") from exc
    if not isinstance(payload, list):
        raise ValueError(f"annotation JSON '{path}' must be a list of chains")
    for idx, entry in enumerate(payload):
        if not isinstance(entry, dict) or not {"id", "points"} <= entry.keys():
            raise ValueError(f"annotation JSON '{path}' chain {idx} needs 'id' and 'points'")
    return [PolylineAnnotation(id=entry["id"], points=entry["points"])
            for entry in payload]
