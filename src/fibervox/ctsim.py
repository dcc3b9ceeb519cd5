"""CT simulation: fiber models to label volumes and gray-value volumes.

Two gray-value routes exist. The fast route rasterizes attenuation with
sub-voxel supersampling and degrades it with Gaussian blur plus SNR-matched
noise. The physics route additionally runs an explicit parallel-beam
projection and Ram-Lak filtered backprojection over the whole slab, with
shared per-angle weights: every z slice goes through the same sparse
matrices. Its memory is the sinogram stack, nz * n_angles * n_det float64
with n_det = max(nx, ny) (52 MB for the 128^3 desk grid at 400 angles),
beside two float64 copies of the volume.

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

from .fibers import EPOXY_DENSITY, GLASS_DENSITY, FiberModel, _fiber_arrays
from .volume import GridSpec, LabelVolume, Volume, _raw_payloads, write_files


@dataclass(frozen=True)
class DegradeParams:
    """Blur + noise degradation settings.

    ``psf_sigma`` is in micrometers and converted to voxels inside degrade().
    ``snr`` is mean(matrix signal)/noise-stddev; infinity disables noise.
    ``matrix_value`` is the attenuation level of the matrix voxels whose
    blurred mean sets that signal; it defaults to the matrix density.
    """

    psf_sigma: float = 4.0
    snr: float = 20.0
    noise_seed: int = 0
    matrix_value: float = EPOXY_DENSITY

    def __post_init__(self):
        if not self.psf_sigma >= 0:
            raise ValueError(f"psf_sigma must be >= 0, got {self.psf_sigma}")
        if not self.snr > 0:
            raise ValueError(f"snr must be > 0 (or infinite), got {self.snr}")
        if self.noise_seed < 0:
            raise ValueError(f"noise_seed must be >= 0, got {self.noise_seed}")


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


def check_attenuation(supersample: int, levels: tuple[float, float]) -> None:
    """Raise unless ``supersample`` >= 1 and the fiber level (first) exceeds
    the matrix level."""
    if supersample < 1:
        raise ValueError(f"supersample must be >= 1, got {supersample}")
    if not levels[0] > levels[1]:
        raise ValueError("fiber level must exceed matrix level")


def rasterize_attenuation(m: FiberModel, grid: GridSpec, supersample: int = 3,
                          levels: tuple[float, float] = (GLASS_DENSITY, EPOXY_DENSITY)) -> Volume:
    """Anti-aliased attenuation volume.

    Voxel value = matrix + (fiber - matrix) * occupancy, with occupancy the
    fraction of a supersample^3 sub-lattice inside any fiber capsule. Fully
    covered voxels are exactly fiber_value; untouched voxels exactly
    matrix_value. Only voxels whose center distance to the capsule is within
    half a voxel diagonal of the radius are sub-sampled; others are decided
    wholesale, which is exact for this sub-lattice.
    """
    check_attenuation(supersample, levels)
    fiber_value, matrix_value = levels
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
    blurred = ndimage.gaussian_filter(data, sigma=sigma_vox, mode="reflect")
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


# Ray samples per forward-projection chunk. Four weights per sample keep a
# chunk's matrix at a few MB, and chunks this small run faster than large ones.
_RAY_SAMPLES = 1 << 16


def _angles(n_angles: int) -> np.ndarray:
    if n_angles < 1:
        raise ValueError(f"n_angles must be >= 1, got {n_angles}")
    return np.arange(n_angles) * math.pi / n_angles


def _axis_weights(x: np.ndarray, n: int):
    """Linear-interpolation weights and indices of the two samples around each
    coordinate in ``x`` on an axis of ``n`` samples, as
    ``map_coordinates(order=1, mode="constant")`` uses them: a coordinate
    outside [0, n - 1] weighs 0, and the upper index of a coordinate at n - 1
    (weight 0) is clamped onto the axis."""
    xc = np.clip(x, 0, n - 1)
    lo = np.floor(xc)
    inside = xc == x
    upper = (xc - lo) * inside
    i0 = lo.astype(np.int32)
    return (inside - upper, upper), (i0, np.minimum(i0 + 1, n - 1))


def _project(stack: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Parallel-beam projections of every z-slice of ``stack`` (nx, ny, nz):
    an (nz, n_angles, n_det) array, n_det = max(nx, ny).

    A ray sums n_det bilinear samples spaced one pixel apart; samples outside
    the slice are zero. Each chunk of angles builds one CSR matrix of these
    weights (rows: angle x detector, columns: the nx*ny pixels) and applies
    it to all slices at once.
    """
    # Imported here, not at the top: every other stage would pay its import
    # time and memory without using it.
    from scipy import sparse

    nx, ny, nz = stack.shape
    n_det = max(nx, ny)
    pixels = np.asarray(stack, dtype=np.float64).reshape(nx * ny, nz)
    # Ray sample (s, t): s along the detector, t along the ray; both take the
    # same n_det offsets.
    s = np.arange(n_det, dtype=np.float64) - (n_det - 1) / 2.0
    sino = np.empty((nz, len(angles), n_det))
    step = max(1, _RAY_SAMPLES // n_det**2)
    for a0 in range(0, len(angles), step):
        theta = angles[a0:a0 + step]
        # libm's cos and sin, as the backprojection uses; np.cos may round differently.
        cos = np.array([math.cos(t) for t in theta])[:, None, None]
        sin = np.array([math.sin(t) for t in theta])[:, None, None]
        wx, ix = _axis_weights((nx - 1) / 2.0 + s[:, None] * cos - s * sin, nx)
        wy, iy = _axis_weights((ny - 1) / 2.0 + s[:, None] * sin + s * cos, ny)
        # A ray's row holds the four bilinear corners of its samples, corner-major.
        shape = (len(theta), n_det, 4, n_det)
        weights = np.empty(shape)
        cols = np.empty(shape, dtype=np.int32)
        for c, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            np.multiply(wx[a], wy[b], out=weights[:, :, c])
            np.add(ix[a] * ny, iy[b], out=cols[:, :, c])
        rows = len(theta) * n_det
        row_ptr = np.arange(0, 4 * n_det * rows + 1, 4 * n_det, dtype=np.int32)
        rays = sparse.csr_array((weights.ravel(), cols.ravel(), row_ptr), shape=(rows, nx * ny))
        sino[:, a0:a0 + len(theta)] = (rays @ pixels).reshape(-1, n_det, nz).transpose(2, 0, 1)
    return sino


def radon_slice(slice2d: np.ndarray, n_angles: int) -> Sinogram:
    """Forward-project a 2D slice along n_angles uniform directions in [0, pi).

    Bilinear sampling along each ray; values outside the slice are zero.
    """
    angles = _angles(n_angles)
    return Sinogram(angles=angles, data=_project(np.asarray(slice2d)[:, :, None], angles)[0])


def _ramlak_ramp(n_det: int) -> np.ndarray:
    """Ram-Lak frequency response for rows of ``n_det`` detectors zero-padded
    to the first power of two >= max(64, 2 n_det)."""
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
    return np.real(np.fft.rfft(kernel))


def _ramlak_filter(sino, ramp: np.ndarray | None = None) -> np.ndarray:
    """Ram-Lak filter along the last (detector) axis of a stack of
    projection rows, or of a :class:`Sinogram`'s data; ``ramp`` is
    :func:`_ramlak_ramp` of the row length, built here when not given."""
    data = sino.data if isinstance(sino, Sinogram) else sino
    n_det = data.shape[-1]
    ramp = _ramlak_ramp(n_det) if ramp is None else ramp
    size = 2 * (len(ramp) - 1)
    spectrum = np.fft.rfft(data, n=size, axis=-1)
    spectrum *= ramp
    return np.fft.irfft(spectrum, n=size, axis=-1)[..., :n_det]


def _backproject(sino: np.ndarray, angles: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Ram-Lak filtered backprojection of an (nz, n_angles, n_det) sinogram
    stack onto an (nx, ny, nz) float64 array.

    Each angle builds one CSR matrix (pixels x detectors: two
    linear-interpolation weights per pixel, weight 0 off the detector),
    filters that angle's rows of every slice and adds the matrix product to
    the sum. One matrix per angle keeps each pixel's summation order that of
    a slice-by-slice loop, so every slice gets the same bits as alone.
    """
    from scipy import sparse

    nx, ny = shape
    nz, n_angles, n_det = sino.shape
    center = (n_det - 1) / 2.0
    gx = np.arange(nx, dtype=np.float64)[:, None] - (nx - 1) / 2.0
    gy = np.arange(ny, dtype=np.float64)[None, :] - (ny - 1) / 2.0
    row_ptr = np.arange(0, 2 * nx * ny + 1, 2, dtype=np.int32)
    weights = np.empty((nx * ny, 2))
    cols = np.empty((nx * ny, 2), dtype=np.int32)
    recon = np.zeros((nx * ny, nz))
    ramp = _ramlak_ramp(n_det)
    for a, theta in enumerate(angles):
        s = (gx * math.cos(theta) + gy * math.sin(theta) + center).ravel()
        lo = np.floor(s)
        cols[:, 0] = lo
        np.add(cols[:, 0], 1, out=cols[:, 1])
        np.subtract(s, lo, out=weights[:, 1])
        np.subtract(1.0, weights[:, 1], out=weights[:, 0])
        weights *= (cols >= 0) & (cols < n_det)
        np.clip(cols, 0, n_det - 1, out=cols)
        pixels = sparse.csr_array((weights.ravel(), cols.ravel(), row_ptr), shape=(nx * ny, n_det))
        recon += pixels @ _ramlak_filter(sino[:, a], ramp).T
    recon *= math.pi / n_angles
    return recon.reshape(nx, ny, nz)


def fbp_slice(sino: Sinogram, shape: tuple[int, int]) -> np.ndarray:
    """Ram-Lak filtered backprojection of one sinogram onto a 2D slice."""
    return _backproject(sino.data[None], sino.angles, shape)[:, :, 0]


def simulate_fbp(v: Volume, n_angles: int, sinogram_sink=None) -> Volume:
    """Project and reconstruct every z-slice (parallel-beam, Ram-Lak), all
    slices sharing each angle's weights.

    ``sinogram_sink(k, sino)``, when given, receives the sinogram of slice k,
    for k = 0 .. nz - 1 in order, before any slice is reconstructed.
    """
    angles = _angles(n_angles)
    sino = _project(v.data, angles)
    if sinogram_sink is not None:
        for k, rows in enumerate(sino):
            sinogram_sink(k, Sinogram(angles=angles, data=rows))
    return Volume(grid=v.grid, data=_backproject(sino, angles, v.grid.dims[:2]).astype(np.float32))


def write_sinogram(sino: Sinogram, path_stem: str | Path) -> list[Path]:
    """Optional sinogram dump: f32 raw (angle-major) plus a JSON sidecar."""
    return write_files(_raw_payloads(
        path_stem, sino.data, "f32", order="detector-fastest", n_angles=sino.n_angles,
        n_detectors=sino.n_detectors, angles_rad=[float(a) for a in sino.angles]), path_stem)
