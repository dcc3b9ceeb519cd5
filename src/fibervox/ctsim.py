"""CT simulation: fiber models to label volumes and gray-value volumes.

Two gray-value routes exist. The fast route rasterizes attenuation with
sub-voxel supersampling and degrades it with Gaussian blur plus SNR-matched
noise. The physics route additionally runs an explicit parallel-beam
projection and Ram-Lak filtered backprojection per z-slice.

Grid convention: voxel (i, j, k) is centered at ((i+0.5)h, (j+0.5)h, (k+0.5)h)
with h the voxel size and the box corner at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from scipy import ndimage

from .fibers import FiberModel, _fiber_arrays
from .volume import GridSpec, LabelVolume, Volume, _write_raw


@dataclass(frozen=True)
class DegradeParams:
    """Blur + noise degradation settings.

    ``psf_sigma`` is in micrometers and converted to voxels inside degrade().
    ``snr`` is mean(matrix signal)/noise-stddev; infinity disables noise.
    The attenuation levels reuse the fiber/matrix densities by default; only
    the contrast matters downstream.
    """

    psf_sigma: float = 4.0
    snr: float = 20.0
    noise_seed: int = 0
    fiber_value: float = 2.54
    matrix_value: float = 1.31

    def __post_init__(self):
        if self.psf_sigma < 0:
            raise ValueError(f"psf_sigma must be >= 0, got {self.psf_sigma}")
        if not self.snr > 0:
            raise ValueError(f"snr must be > 0 (or infinite), got {self.snr}")
        if not self.fiber_value > self.matrix_value:
            raise ValueError("fiber_value must exceed matrix_value")


def _check_grid_covers(grid: GridSpec, box_edge: float) -> None:
    tol = 1e-9 * box_edge
    if any(e + tol < box_edge for e in grid.extent):
        raise ValueError(
            f"grid extent {grid.extent} um does not cover the model box edge {box_edge} um")


def _axis_centers(grid: GridSpec):
    h = grid.voxel_size
    nx, ny, nz = grid.dims
    return (
        (np.arange(nx, dtype=np.float64) + 0.5) * h,
        (np.arange(ny, dtype=np.float64) + 0.5) * h,
        (np.arange(nz, dtype=np.float64) + 0.5) * h,
    )


def _segment_point_dist_sq(p0, axis, inv_len_sq, px, py, pz):
    """Squared distance from points to the segment p0 + t*axis, t in [0,1].

    px/py/pz are broadcastable coordinate arrays.
    """
    rx = px - p0[0]
    ry = py - p0[1]
    rz = pz - p0[2]
    t = np.clip((rx * axis[0] + ry * axis[1] + rz * axis[2]) * inv_len_sq, 0.0, 1.0)
    dx = rx - t * axis[0]
    dy = ry - t * axis[1]
    dz = rz - t * axis[2]
    return dx * dx + dy * dy + dz * dz


def _capsules(fibers, grid: GridSpec):
    """Yield ``(fiber, box, d2, dist_sq)`` for each fiber whose capsule meets
    the grid: the index slices of the capsule's bounding box, the squared
    distance of each box voxel center to the fiber axis, and
    ``dist_sq(px, py, pz)`` giving that distance for any broadcastable point
    coordinates. All bounding boxes come from one array expression."""
    p0, p1, radii = _fiber_arrays(fibers)
    h = grid.voxel_size
    first = np.maximum(np.floor((np.minimum(p0, p1) - radii[:, None]) / h - 0.5).astype(int), 0)
    last = np.minimum(np.ceil((np.maximum(p0, p1) + radii[:, None]) / h - 0.5).astype(int),
                      np.asarray(grid.dims) - 1)
    centers = _axis_centers(grid)
    for fiber, lo, hi in zip(fibers, first.tolist(), last.tolist()):
        if any(a > b for a, b in zip(lo, hi)):
            continue
        box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        axis = fiber.p1 - fiber.p0
        dist_sq = partial(_segment_point_dist_sq, fiber.p0, axis, 1.0 / float(axis @ axis))
        cx, cy, cz = (c[s] for c, s in zip(centers, box))
        yield fiber, box, dist_sq(cx[:, None, None], cy[None, :, None], cz[None, None, :]), dist_sq


def rasterize_labels(m: FiberModel, grid: GridSpec) -> tuple[LabelVolume, int]:
    """Per-fiber ID volume: a voxel gets a fiber's ID iff its center lies
    within the fiber's capsule. Lower IDs win contested voxels; the conflict
    count is returned as a diagnostic (0 for a valid non-overlapping model).
    """
    _check_grid_covers(grid, m.params.box_edge)
    labels = LabelVolume.zeros(grid)
    conflicts = 0
    for fiber, box, d2, _ in _capsules(sorted(m.fibers, key=lambda f: f.id), grid):
        inside = d2 <= fiber.radius**2
        region = labels.data[box]
        taken = region != 0
        conflicts += int(np.count_nonzero(inside & taken))
        region[inside & ~taken] = fiber.id
    return labels, conflicts


def rasterize_attenuation(m: FiberModel, grid: GridSpec, supersample: int = 3,
                          levels: tuple[float, float] = (2.54, 1.31)) -> Volume:
    """Anti-aliased attenuation volume.

    Voxel value = matrix + (fiber - matrix) * occupancy, with occupancy the
    fraction of a supersample^3 sub-lattice inside any fiber capsule. Fully
    covered voxels are exactly fiber_value; untouched voxels exactly
    matrix_value. Only voxels whose center distance to the capsule is within
    half a voxel diagonal of the radius are sub-sampled; others are decided
    wholesale, which is exact for this sub-lattice.
    """
    if supersample < 1:
        raise ValueError(f"supersample must be >= 1, got {supersample}")
    fiber_value, matrix_value = levels
    if not fiber_value > matrix_value:
        raise ValueError("fiber level must exceed matrix level")
    _check_grid_covers(grid, m.params.box_edge)

    h = grid.voxel_size
    s3 = supersample**3
    counts = np.zeros(grid.dims, dtype=np.uint16)
    centers = _axis_centers(grid)
    # Sub-lattice offsets within a voxel, per axis.
    sub = ((np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5) * h
    offsets = np.stack(np.meshgrid(sub, sub, sub, indexing="ij"), axis=-1).reshape(-1, 3)
    half_diag = 0.5 * h * math.sqrt(3.0)

    for fiber, box, d2, dist_sq in _capsules(m.fibers, grid):
        dist = np.sqrt(d2)
        region = counts[box]
        region[dist <= fiber.radius - half_diag] = s3
        shell = (dist > fiber.radius - half_diag) & (dist < fiber.radius + half_diag)
        if shell.any():
            si, sj, sk = np.nonzero(shell)
            pts = np.stack([c[s][i] for c, s, i in zip(centers, box, (si, sj, sk))], axis=-1)
            sub_pts = pts[None, :, :] + offsets[:, None, :]
            d2s = dist_sq(sub_pts[..., 0], sub_pts[..., 1], sub_pts[..., 2])
            inside = (d2s <= fiber.radius**2).sum(axis=0).astype(np.uint16)
            region[si, sj, sk] = np.minimum(
                region[si, sj, sk].astype(np.int64) + inside, s3).astype(np.uint16)

    frac = counts.astype(np.float64) / s3
    out = matrix_value + (fiber_value - matrix_value) * frac
    out[counts >= s3] = fiber_value
    return Volume(grid=grid, data=out.astype(np.float32))


def degrade(v: Volume, p: DegradeParams) -> Volume:
    """Gaussian blur (sigma = psf_sigma / voxel_size, reflect boundary) then
    additive Gaussian noise with stddev = mean(blurred matrix region) / snr.

    The matrix region is where the input equals matrix_value exactly; if no
    such voxel exists the global mean of the blurred volume is used. Noise is
    drawn from a counter-based generator keyed on noise_seed, so the output is
    schedule-independent and reproducible.
    """
    data = v.data.astype(np.float64)
    sigma_vox = p.psf_sigma / v.grid.voxel_size
    blurred = ndimage.gaussian_filter(data, sigma=sigma_vox, mode="reflect") \
        if sigma_vox > 0 else data.copy()
    if math.isinf(p.snr):
        return Volume(grid=v.grid, data=blurred.astype(np.float32))
    matrix_region = v.data == np.float32(p.matrix_value)
    reference = float(blurred[matrix_region].mean()) if matrix_region.any() \
        else float(blurred.mean())
    std = abs(reference) / p.snr
    rng = np.random.Generator(np.random.Philox(p.noise_seed))
    noisy = blurred + rng.normal(0.0, std, size=blurred.shape) if std > 0 else blurred
    return Volume(grid=v.grid, data=noisy.astype(np.float32))


@dataclass
class Sinogram:
    """Parallel-beam projections of one z-slice; angles uniform in [0, pi)."""

    angles: np.ndarray       # (n_angles,) radians
    data: np.ndarray         # (n_angles, n_detectors)

    @property
    def n_angles(self) -> int:
        return self.data.shape[0]

    @property
    def n_detectors(self) -> int:
        return self.data.shape[1]


def _projection_coords(nx: int, ny: int, theta: float):
    n_det = max(nx, ny)
    s = np.arange(n_det, dtype=np.float64) - (n_det - 1) / 2.0
    t = s.copy()
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    # Ray sample (s, t): s along the detector, t along the ray.
    x = (nx - 1) / 2.0 + s[:, None] * cos_t - t[None, :] * sin_t
    y = (ny - 1) / 2.0 + s[:, None] * sin_t + t[None, :] * cos_t
    return x, y


def radon_slice(slice2d: np.ndarray, n_angles: int) -> Sinogram:
    """Forward-project a 2D slice along n_angles uniform directions in [0, pi).

    Bilinear sampling along each ray; values outside the slice are zero.
    """
    if n_angles < 1:
        raise ValueError(f"n_angles must be >= 1, got {n_angles}")
    slice2d = np.asarray(slice2d, dtype=np.float64)
    nx, ny = slice2d.shape
    angles = np.arange(n_angles) * math.pi / n_angles
    rows = []
    for theta in angles:
        x, y = _projection_coords(nx, ny, theta)
        samples = ndimage.map_coordinates(slice2d, [x, y], order=1,
                                          mode="constant", cval=0.0)
        rows.append(samples.sum(axis=1))
    return Sinogram(angles=angles, data=np.stack(rows, axis=0))


def _ramlak_filter(sino: Sinogram) -> np.ndarray:
    n_det = sino.n_detectors
    size = 64
    while size < 2 * n_det:
        size *= 2
    # Frequency response of the discrete band-limited ramp kernel
    # (h[0] = 1/4, h[odd n] = -1/(pi n)^2, h[even] = 0) rather than the ideal
    # |f| sampled directly: the retained DC term removes the cupping bias.
    kernel = np.zeros(size)
    kernel[0] = 0.25
    odd = np.arange(1, size // 2, 2)
    kernel[odd] = -1.0 / (np.pi * odd) ** 2
    kernel[-odd] = -1.0 / (np.pi * odd) ** 2
    ramp = np.real(np.fft.rfft(kernel))
    spectrum = np.fft.rfft(sino.data, n=size, axis=1)
    filtered = np.fft.irfft(spectrum * ramp[None, :], n=size, axis=1)
    return filtered[:, :n_det]


def fbp_slice(sino: Sinogram, shape: tuple[int, int]) -> np.ndarray:
    """Ram-Lak filtered backprojection of one sinogram onto a 2D slice."""
    nx, ny = shape
    n_det = sino.n_detectors
    # Pixel centres lie within hypot(nx, ny) / 2 - 1/2 of the slice centre, so
    # `pad` zeros on each side of a filtered row hold every sample off the detector.
    pad = math.ceil(math.hypot(nx, ny) / 2)
    filtered = np.pad(_ramlak_filter(sino), ((0, 0), (pad, pad)))
    center = (n_det - 1) / 2.0
    gx = np.arange(nx, dtype=np.float64)[:, None] - (nx - 1) / 2.0
    gy = np.arange(ny, dtype=np.float64)[None, :] - (ny - 1) / 2.0
    recon = np.zeros((nx, ny), dtype=np.float64)
    for row, theta in zip(filtered, sino.angles):
        s = gx * math.cos(theta) + gy * math.sin(theta) + center
        idx = np.floor(s).astype(np.int64)
        frac = s - idx
        idx += pad
        recon += row[idx] * (1.0 - frac) + row[idx + 1] * frac
    return recon * (math.pi / sino.n_angles)


def simulate_fbp(v: Volume, n_angles: int, sinogram_sink=None) -> Volume:
    """Project and reconstruct every z-slice (parallel-beam, Ram-Lak).

    ``sinogram_sink(k, sino)``, when given, receives the sinogram of slice k
    before it is reconstructed.
    """
    if n_angles < 1:
        raise ValueError(f"n_angles must be >= 1, got {n_angles}")
    nx, ny, nz = v.grid.dims
    out = np.empty((nx, ny, nz), dtype=np.float32)
    for k in range(nz):
        sino = radon_slice(v.data[:, :, k], n_angles)
        if sinogram_sink is not None:
            sinogram_sink(k, sino)
        out[:, :, k] = fbp_slice(sino, (nx, ny)).astype(np.float32)
    return Volume(grid=v.grid, data=out)


def write_sinogram(sino: Sinogram, path_stem: str | Path) -> None:
    """Optional sinogram dump: f32 raw (angle-major) plus a JSON sidecar."""
    _write_raw(path_stem, sino.data, "f32", order="detector-fastest", n_angles=sino.n_angles,
               n_detectors=sino.n_detectors, angles_rad=[float(a) for a in sino.angles])
