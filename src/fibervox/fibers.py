"""Random non-overlapping cylinder packing for synthetic short-fiber composites.

A fiber is a straight segment with a radius. Volume accounting treats fibers
as flat-ended cylinders (pi*r^2*L); the non-overlap test uses the capsule
predicate (segment-segment distance >= sum of radii), which is exact, cheap,
and slightly conservative near fiber ends.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .volume import write_files

# Glass fiber / epoxy matrix densities in g/cc used for weight-fraction accounting.
GLASS_DENSITY = 2.54
EPOXY_DENSITY = 1.31

THETA_BINS = 18  # 5 degree bins over [0, 90]
PHI_BINS = 36    # 10 degree bins over [0, 360)

_AXIS_STEP = 20.0  # packer: spacing of a fiber's axis samples, micrometers
_MAX_BATCH = 64    # packer: most offers tested in one batch

# fibers.csv: the header line, then one row per fiber (an id and seven floats).
_CSV_HEADER = "id,x0,y0,z0,x1,y1,z1,radius_um"
_CSV_ROW = np.dtype([("id", "i8"), ("p0", "f8", 3), ("p1", "f8", 3), ("radius", "f8")])


@dataclass
class Fiber:
    """Straight cylinder: endpoints in micrometers plus radius."""

    id: int
    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=np.float64)
        self.p1 = np.asarray(self.p1, dtype=np.float64)
        self.radius = float(self.radius)
        if self.id < 1:
            raise ValueError(f"fiber id must be positive, got {self.id}")
        if self.p0.shape != (3,) or self.p1.shape != (3,):
            raise ValueError("fiber endpoints must be 3D points")
        if not self.radius > 0:
            raise ValueError(f"fiber radius must be > 0, got {self.radius}")
        if not self.length > 0:
            raise ValueError("fiber length must be > 0")

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.p1 - self.p0))

    @property
    def volume(self) -> float:
        """Flat-ended cylinder volume pi*r^2*L in cubic micrometers."""
        return math.pi * self.radius**2 * self.length


@dataclass(frozen=True)
class ModelParams:
    """Packing parameters: cubic box edge, fiber radius, length law, stop rules.

    ``max_attempts`` bounds the number of consecutive rejected placements
    before packing gives up (not the total attempt count)."""

    box_edge: float = 2000.0
    radius: float = 6.5
    mean_length: float = 500.0
    length_stddev: float = 100.0
    target_fraction: float = 0.054
    max_attempts: int = 150_000
    seed: int = 0

    def __post_init__(self):
        if not self.box_edge > 0:
            raise ValueError(f"box_edge must be > 0, got {self.box_edge}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")
        if not 2 * self.radius < self.box_edge:
            raise ValueError("fiber diameter must be smaller than the box edge")
        if not self.mean_length > 0:
            raise ValueError(f"mean_length must be > 0, got {self.mean_length}")
        if self.length_stddev < 0:
            raise ValueError(f"length_stddev must be >= 0, got {self.length_stddev}")
        if not 0 < self.target_fraction < 1:
            raise ValueError(f"target_fraction must be in (0, 1), got {self.target_fraction}")
        for name in ("max_attempts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_attempts < 0:
            raise ValueError(f"max_attempts must be >= 0, got {self.max_attempts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("box_edge", "mean_length", "length_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class FiberModel:
    params: ModelParams
    fibers: list[Fiber] = field(default_factory=list)
    attempts_used: int = 0
    # Why packing ended: "target", "saturated" or "no_length_fits".
    stop_reason: str = ""
    # The pending fiber of a "saturated" run: length_um, direction and the
    # box [center_lo_um, center_hi_um] its center was drawn from.
    stalled: dict | None = None

    @property
    def volume_fraction(self) -> float:
        return model_statistics(self).volume_fraction


@dataclass
class ModelStats:
    """Aggregate packing statistics; histograms use fixed bins (theta: 18 x 5
    deg over [0, 90]; phi: 36 x 10 deg over [0, 360); length: 20 x 50 um over
    [0, 1000] plus an overflow count)."""

    fiber_count: int
    min_length: float
    max_length: float
    mean_length: float
    total_fiber_volume: float
    volume_fraction: float
    weight_fraction: float
    theta_hist: np.ndarray
    phi_hist: np.ndarray
    length_hist: dict

    def to_dict(self) -> dict:
        return {
            "fiber_count": self.fiber_count,
            "min_length_um": self.min_length,
            "max_length_um": self.max_length,
            "mean_length_um": self.mean_length,
            "total_fiber_volume_um3": self.total_fiber_volume,
            "volume_fraction": self.volume_fraction,
            "weight_fraction": self.weight_fraction,
            "length_hist": self.length_hist,
            **histogram_fields(self.theta_hist, self.phi_hist),
        }


def hemisphere(axes: np.ndarray) -> np.ndarray:
    """Axes (..., 3) canonicalized for unoriented fibers: z >= 0, ties broken
    by y >= 0, then x >= 0."""
    flip = (axes[..., 2] < 0) \
        | ((axes[..., 2] == 0) & (axes[..., 1] < 0)) \
        | ((axes[..., 2] == 0) & (axes[..., 1] == 0) & (axes[..., 0] < 0))
    return np.where(flip[..., None], -axes, axes)


def orientation_histograms(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Theta and phi counts of unit axes (n, 3) in the fixed bins, after
    :func:`hemisphere`. Theta is the elevation above the XY plane in [0, 90]
    degrees; phi is the azimuth of the XY projection in [0, 360)."""
    axes = hemisphere(axes)
    theta = np.degrees(np.arcsin(np.clip(axes[:, 2], 0.0, 1.0)))
    phi = np.degrees(np.arctan2(axes[:, 1], axes[:, 0])) % 360.0
    theta_hist, _ = np.histogram(theta, bins=THETA_BINS, range=(0.0, 90.0))
    phi_hist, _ = np.histogram(phi, bins=PHI_BINS, range=(0.0, 360.0))
    return theta_hist.astype(np.int64), phi_hist.astype(np.int64)


def histogram_fields(theta_hist, phi_hist) -> dict:
    """The ``theta_hist`` and ``phi_hist`` entries of a statistics document."""
    return {
        "theta_hist": {"bin_deg": 90 / THETA_BINS, "range_deg": [0, 90],
                       "counts": [int(c) for c in theta_hist]},
        "phi_hist": {"bin_deg": 360 / PHI_BINS, "range_deg": [0, 360],
                     "counts": [int(c) for c in phi_hist]},
    }


def length_histogram(lengths) -> dict:
    """The ``length_hist`` entry of a statistics document: 50 um bins over
    [0, 1000] um plus the count of longer fibers."""
    lengths = np.asarray(lengths, dtype=np.float64)
    counts, _ = np.histogram(lengths, bins=20, range=(0.0, 1000.0))
    return {"bin_um": 50.0, "range_um": [0.0, 1000.0], "counts": [int(c) for c in counts],
            "overflow": int(np.count_nonzero(lengths > 1000.0))}


def _fiber_arrays(fibers: list[Fiber]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First endpoints (n, 3), second endpoints (n, 3) and radii (n,) of a fiber list."""
    n = len(fibers)
    return (np.array([f.p0 for f in fibers]).reshape(n, 3),
            np.array([f.p1 for f in fibers]).reshape(n, 3),
            np.array([f.radius for f in fibers]).reshape(n))


def _clamp01(x):
    # np.clip's dispatch costs more than the work on the short arrays here.
    return np.minimum(np.maximum(x, 0.0), 1.0)


def segment_distance_sq(p0, p1, q0, q1) -> np.ndarray:
    """Squared minimum distance between segments [p0,p1] and [q0,q1].

    Inputs are broadcastable arrays of 3D points. Uses the standard
    closest-point-between-segments computation; robust to parallel and
    degenerate (zero-length) configurations.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = np.einsum("...i,...i->...", d1, d1)
    e = np.einsum("...i,...i->...", d2, d2)
    f = np.einsum("...i,...i->...", d2, r)
    c = np.einsum("...i,...i->...", d1, r)
    b = np.einsum("...i,...i->...", d1, d2)

    tiny = 1e-14
    a_deg = a <= tiny
    e_deg = e <= tiny
    sa = np.where(a_deg, 1.0, a)
    se = np.where(e_deg, 1.0, e)

    denom = a * e - b * b
    parallel = denom <= tiny * sa * se
    s = np.where(parallel, 0.0,
                 _clamp01((b * f - c * e) / np.where(parallel, 1.0, denom)))
    t = (b * s + f) / se
    # Re-clamp: if t left [0,1], pin it and recompute the closest s.
    s = np.where(t < 0.0, _clamp01(-c / sa),
                 np.where(t > 1.0, _clamp01((b - c) / sa), s))
    t = _clamp01(t)
    # Degenerate segments reduce to point-segment / point-point cases.
    s = np.where(a_deg, 0.0, s)
    t = np.where(a_deg & ~e_deg, _clamp01(f / se), t)
    t = np.where(e_deg, 0.0, t)
    s = np.where(e_deg & ~a_deg, _clamp01(-c / sa), s)

    diff = (p0 + s[..., None] * d1) - (q0 + t[..., None] * d2)
    return np.einsum("...i,...i->...", diff, diff)


def capsules_overlap(a: Fiber, b: Fiber) -> bool:
    """True iff the two capsules interpenetrate (distance < sum of radii)."""
    d2 = segment_distance_sq(a.p0, a.p1, b.p0, b.p1)
    return bool(d2 < (a.radius + b.radius) ** 2)


def _sample_direction(rng: np.random.Generator) -> np.ndarray:
    # Marsaglia: uniform z, uniform azimuth.
    u = rng.uniform(-1.0, 1.0)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(max(0.0, 1.0 - u * u))
    return np.array([s * math.cos(ang), s * math.sin(ang), u])


def _sample_length(rng: np.random.Generator, params: ModelParams, direction: np.ndarray):
    """Draw a length; redraw while non-positive or unable to fit in the box at
    any position for this direction (axis extent L*|d_i| + 2r must not exceed
    the edge). Returns None if no draw fits (possible only for stddev 0)."""
    free = params.box_edge - 2 * params.radius
    abs_d = np.abs(direction)
    for _ in range(1000):
        length = rng.normal(params.mean_length, params.length_stddev)
        if length > 0 and np.all(length * abs_d <= free):
            return length
        if params.length_stddev == 0:
            return None
    return None


class _CellTable:
    """Linked cell lists for the packer (Allen & Tildesley, ch. 5): nc^3 cubic
    cells of edge h >= 2r + s, each a row of fiber indices padded with -1.
    A fiber is known by its axis samples, spaced at most s apart, and is
    registered in the 3x3x3 neighbourhood of each sample's cell. Capsules
    closer than 2r have samples closer than 2r + s <= h, in neighbouring
    cells, so an offer's own sample cells hold every fiber it can overlap."""

    def __init__(self, edge: float, radius: float):
        self.nc = max(1, int(edge // (2 * radius + _AXIS_STEP)))
        self.h = edge / self.nc
        self.table = np.full((self.nc**3, 8), -1, dtype=np.int32)
        self.fill = np.zeros(self.nc**3, dtype=np.intp)
        self.width = 0  # the fullest cell's fill
        self.flat = np.array([self.nc**2, self.nc, 1])
        self.near = np.array(list(itertools.product((-1, 0, 1), repeat=3)))

    def _ijk(self, points: np.ndarray) -> np.ndarray:
        return np.minimum((points / self.h).astype(np.intp), self.nc - 1)

    def add(self, index: int, samples: np.ndarray) -> None:
        """Register fiber ``index`` by its axis samples (m, 3)."""
        near = np.clip(self._ijk(samples)[:, None] + self.near, 0, self.nc - 1)
        cells = np.unique(near @ self.flat)
        slots = self.fill[cells]
        if slots.max() == self.table.shape[1]:  # a cell is full: double the rows
            self.table = np.pad(self.table, ((0, 0), (0, self.table.shape[1])),
                                constant_values=-1)
        self.table[cells, slots] = index
        self.fill[cells] += 1
        self.width = max(self.width, int(slots.max()) + 1)

    def candidates(self, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(offer row, fiber index) pairs, each once, for offers sampled as
        (K, m, 3): the fibers registered in each offer's sample cells."""
        found = self.table[self._ijk(samples) @ self.flat, :self.width].reshape(len(samples), -1)
        found.sort(axis=1)
        keep = found >= 0
        keep[:, 1:] &= found[:, 1:] != found[:, :-1]
        rows, cols = np.nonzero(keep)
        return rows, found[rows, cols]


def generate_model(params: ModelParams) -> FiberModel:
    """Pack random fibers into the box by sequential rejection sampling.

    One fiber is pending at a time: its axis direction is uniform on the unit
    sphere and its length normal, redrawn until positive and able to fit in
    the box for that direction. Each attempt offers the pending fiber one
    center, uniform over the region where its capsule lies entirely inside
    the box; the offer is rejected if the capsule overlaps an accepted fiber,
    and the same fiber is re-offered on the next attempt until it places.
    Packing stops when the cylinder volume fraction reaches
    ``target_fraction`` or after ``max_attempts`` consecutive rejections
    (saturation guard; ``max_attempts`` 0 means no attempts at all).
    ``attempts_used`` reports the total placements tried and ``stop_reason``
    the rule that ended the run: "target", "saturated", or "no_length_fits"
    when the last rejection was a length draw that could not fit the box.
    A "saturated" model names the fiber that stalled in ``stalled``.
    Deterministic for a given seed: offers are drawn and tested in batches
    against a :class:`_CellTable`, and the generator is rewound to just past
    the first accepted offer, so the model is the one that offering one
    center at a time gives.
    """
    rng = np.random.default_rng(params.seed)
    edge = params.box_edge
    radius = params.radius
    box_volume = edge**3
    target = params.target_fraction

    cap = 4096
    p0s = np.empty((cap, 3))
    p1s = np.empty((cap, 3))
    cells = _CellTable(edge, radius)

    count = 0
    attempts = 0
    rejections = 0
    total_volume = 0.0
    min_d2 = (2 * radius) ** 2
    pending = None
    stop_reason = "saturated"
    batch = 1

    while rejections < params.max_attempts and total_volume / box_volume < target:
        if pending is None:
            direction = _sample_direction(rng)
            length = _sample_length(rng, params, direction)
            if length is None:
                attempts += 1
                rejections += 1
                stop_reason = "no_length_fits"
                continue
            half = 0.5 * length
            span = half * np.abs(direction)
            axis = np.linspace(-half, half, math.ceil(length / _AXIS_STEP) + 1)[:, None] \
                * direction
            pending = (direction, length, half, radius + span, edge - radius - span, axis)
        direction, length, half, c_lo, c_hi, axis = pending
        k = min(batch, params.max_attempts - rejections)
        state = rng.bit_generator.state if k > 1 else None
        centers = rng.uniform(c_lo, c_hi, size=(k, 3))
        p0 = centers - half * direction
        p1 = centers + half * direction
        offer, other = cells.candidates(centers[:, None, :] + axis)
        rejected = np.zeros(k, dtype=bool)
        if len(offer):
            dist2 = segment_distance_sq(p0[offer], p1[offer], p0s[other], p1s[other])
            rejected[offer[dist2 < min_d2]] = True
        if rejected.all():
            attempts += k
            rejections += k
            stop_reason = "saturated"
            batch = min(2 * batch, _MAX_BATCH)
            continue
        i = int(np.argmin(rejected))
        if i + 1 < k:
            # Rewind to where offering centers one at a time would stop.
            rng.bit_generator.state = state
            rng.bit_generator.advance(3 * (i + 1))
        attempts += i + 1
        if count == cap:
            cap *= 2
            p0s = np.resize(p0s, (cap, 3))
            p1s = np.resize(p1s, (cap, 3))
        p0s[count] = p0[i]
        p1s[count] = p1[i]
        cells.add(count, centers[i] + axis)
        count += 1
        total_volume += math.pi * radius**2 * length
        pending = None
        rejections = 0
        batch = max(1, batch // 2)

    if total_volume / box_volume >= target:
        stop_reason = "target"
    stalled = None
    if stop_reason == "saturated" and pending:
        direction, length, _, c_lo, c_hi, _ = pending
        stalled = {"length_um": float(length), "direction": direction.tolist(),
                   "center_lo_um": c_lo.tolist(), "center_hi_um": c_hi.tolist()}
    fibers = [Fiber(i + 1, p0s[i].copy(), p1s[i].copy(), radius) for i in range(count)]
    return FiberModel(params=params, fibers=fibers, attempts_used=attempts,
                      stop_reason=stop_reason, stalled=stalled)


def audit_model(model: FiberModel) -> dict:
    """Brute-force O(n^2) validity audit of a packed model.

    Returns counts of capsule overlap violations over all fiber pairs and of
    fibers whose end-spheres stick out of the box.
    """
    n = len(model.fibers)
    p0, p1, radii = _fiber_arrays(model.fibers)
    overlaps = 0
    for i in range(n - 1):
        d2 = segment_distance_sq(p0[i], p1[i], p0[i + 1:], p1[i + 1:])
        overlaps += int(np.count_nonzero(d2 < (radii[i] + radii[i + 1:]) ** 2))
    lo = radii[:, None]
    hi = model.params.box_edge - radii[:, None]
    inside = ((p0 >= lo) & (p0 <= hi) & (p1 >= lo) & (p1 <= hi)).all(axis=1)
    return {
        "overlap_violations": overlaps,
        "out_of_bounds": int(np.count_nonzero(~inside)) if n else 0,
    }


def canonical_axes(fibers: list[Fiber]) -> np.ndarray:
    """Unit axis per fiber, canonicalized for unoriented fibers: z >= 0,
    ties broken by y >= 0, then x >= 0."""
    p0, p1, _ = _fiber_arrays(fibers)
    axes = p1 - p0
    return hemisphere(axes / np.linalg.norm(axes, axis=1, keepdims=True))


def weight_fraction(volume_fraction: float,
                    fiber_density: float = GLASS_DENSITY,
                    matrix_density: float = EPOXY_DENSITY) -> float:
    """Weight fraction of fibers for a given volume fraction and densities."""
    fiber_mass = fiber_density * volume_fraction
    return fiber_mass / (fiber_mass + matrix_density * (1.0 - volume_fraction))


def model_statistics(model: FiberModel) -> ModelStats:
    """Length, volume-fraction, weight-fraction, and orientation statistics
    (see :func:`orientation_histograms` for the angles). An empty model yields
    zero counts and fractions.
    """
    n = len(model.fibers)
    p0, p1, radii = _fiber_arrays(model.fibers)
    axes = p1 - p0
    theta_hist, phi_hist = orientation_histograms(
        axes / np.linalg.norm(axes, axis=1, keepdims=True))
    # The same dot kernel and summation order as Fiber.length / Fiber.volume,
    # so the statistics match the per-fiber properties bit for bit.
    lengths = np.sqrt(np.matmul(axes[:, None, :], axes[:, :, None])[:, 0, 0])
    length_hist = length_histogram(lengths)
    if n == 0:
        return ModelStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, theta_hist, phi_hist, length_hist)
    total_volume = float(sum((math.pi * radii**2 * lengths).tolist()))
    vf = total_volume / model.params.box_edge**3
    return ModelStats(
        fiber_count=n,
        min_length=float(lengths.min()),
        max_length=float(lengths.max()),
        mean_length=float(lengths.mean()),
        total_fiber_volume=total_volume,
        volume_fraction=vf,
        weight_fraction=weight_fraction(vf),
        theta_hist=theta_hist,
        phi_hist=phi_hist,
        length_hist=length_hist,
    )


def stats_document(model: FiberModel, audit: bool = False) -> dict:
    """``generate``'s ``stats.json``: the model statistics, ``attempts_used``,
    ``stop_reason``, ``stalled`` when set and, if asked, the audit counts."""
    stalled = {"stalled": model.stalled} if model.stalled else {}
    audit_counts = {"audit": audit_model(model)} if audit else {}
    return {**model_statistics(model).to_dict(), "attempts_used": model.attempts_used,
            "stop_reason": model.stop_reason, **stalled, **audit_counts}


def write_fibers_csv(fibers: list[Fiber], path: str | Path) -> list[Path]:
    """Write the fiber list as CSV: id,x0,y0,z0,x1,y1,z1,radius_um (6 decimals)."""
    table = np.column_stack([[f.id for f in fibers], *_fiber_arrays(fibers)])
    text = io.StringIO()
    np.savetxt(text, table, fmt=["%d"] + ["%.6f"] * 7, delimiter=",",
               header=_CSV_HEADER, comments="")
    return write_files({path: text.getvalue().encode()}, path)


def read_fibers_csv(path: str | Path) -> list[Fiber]:
    """Read a fiber list written by :func:`write_fibers_csv`. Ids must be
    unique positive integers."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().rstrip("\r\n")
        if header != _CSV_HEADER:
            raise ValueError(f"bad fiber CSV header in '{path}': {header!r}")
        rows = fh.readlines()
    if not rows:  # np.loadtxt warns on empty input
        return []
    try:
        table = np.loadtxt(rows, dtype=_CSV_ROW, delimiter=",", ndmin=1)
        fibers = [Fiber(*row) for row in zip(table["id"].tolist(), table["p0"], table["p1"],
                                              table["radius"].tolist())]
    except ValueError as exc:
        raise ValueError(f"bad fiber CSV '{path}': {exc}") from exc
    ids, counts = np.unique(table["id"], return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate fiber id {ids[counts > 1][0]} in '{path}'")
    return fibers
