"""CT simulation: one walk over a fiber model, plane by plane along each fiber,
gives its label and attenuation volumes (:func:`rasterize`); gray values follow.

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
from pathlib import Path

import numpy as np
from scipy import ndimage

from .fibers import EPOXY_DENSITY, GLASS_DENSITY, FiberModel, _fiber_arrays
from .volume import GridSpec, LabelVolume, Volume, _check_number, _raw_payloads, write_files


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
        _check_number("psf_sigma", self.psf_sigma, strict=False)
        if self.snr != math.inf:
            _check_number("snr", self.snr)
        _check_number("noise_seed", self.noise_seed, strict=False, integer=True)
        _check_number("matrix_value", self.matrix_value, low=None)


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


def _capsule_boxes(fibers, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """First and last voxel index (n, 3) of each fiber capsule's bounding box,
    clipped to the grid; a box that misses the grid has first > last on some
    axis. All boxes come from one array expression."""
    p0, p1, radii = _fiber_arrays(fibers)
    h = grid.voxel_size
    first = np.maximum(np.floor((np.minimum(p0, p1) - radii[:, None]) / h - 0.5).astype(int), 0)
    last = np.minimum(np.ceil((np.maximum(p0, p1) + radii[:, None]) / h - 0.5).astype(int),
                      np.asarray(grid.dims) - 1)
    return first, last


def _runs(starts, lengths):
    """``starts[i] + (0, 1, ..., lengths[i] - 1)`` for every i, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _capsule_voxels(p0, axis, reach, lo, hi, grid: GridSpec):
    """Flat indices and centers (x, y, z) of the voxels of the box lo..hi whose
    center may lie within ``reach`` of the segment p0 + t*axis: across the
    dominant axis k, each plane's rectangle around the points at t in clip((c_k
    -/+ reach - p0_k) / axis_k, 0, 1), +/- reach and a voxel against rounding."""
    h = grid.voxel_size
    k = int(np.argmax(np.abs(axis)))
    u, v = (a for a in range(3) if a != k)
    planes = np.arange(lo[k], hi[k] + 1)
    t = np.clip(((planes[:, None] + 0.5) * h + (-reach, reach) - p0[k]) / axis[k], 0.0, 1.0)
    ends = p0 + t[:, :, None] * axis
    first = np.maximum(np.ceil((ends.min(axis=1) - reach) / h - 0.5).astype(int) - 1, lo)
    last = np.minimum(np.floor((ends.max(axis=1) + reach) / h - 0.5).astype(int) + 1, hi)
    sizes = np.maximum(last - first + 1, 0)
    row = np.repeat(np.arange(len(planes)), sizes[:, u])
    run = sizes[row, v]
    idx = {k: np.repeat(planes[row], run), v: _runs(first[row, v], run),
           u: np.repeat(_runs(first[:, u], sizes[:, u]), run)}
    idx = [idx[a] for a in range(3)]
    return np.ravel_multi_index(idx, grid.dims), [(i + 0.5) * h for i in idx]


def fibers_outside(fibers, grid: GridSpec) -> int:
    """The number of fibers whose capsule's bounding box misses the grid: the
    fibers that rasterization skips."""
    first, last = _capsule_boxes(fibers, grid)
    return int(np.count_nonzero((first > last).any(axis=1)))


# Sub-samples per chunk of a fiber's near voxels: it bounds the sub-sample
# temporaries, a few float64 arrays of this length, at any supersample.
_SUBSAMPLES = 1 << 18


def rasterize(m: FiberModel, grid: GridSpec, supersample: int | None = None,
              levels: tuple[float, float] = (GLASS_DENSITY, EPOXY_DENSITY)):
    """``(labels, conflicts, attenuation)`` from one walk over the fibers in id
    order. A voxel gets a fiber's ID iff its center lies within the fiber's
    capsule; lower IDs win contested voxels, and ``conflicts`` counts them (0
    for a valid non-overlapping model).

    ``attenuation`` (None without a supersample) is matrix + (fiber - matrix)
    * occupancy, with occupancy the fraction of a voxel's supersample^3
    sub-lattice inside any capsule: exactly the fiber level in fully covered
    voxels, exactly the matrix level in untouched ones. ``supersample`` is an
    integer from 1 to 40 (the counts are uint16); both ``levels`` (fiber,
    matrix) are finite, the fiber level the higher, and fiber ids fit in
    uint32. Per plane across its dominant axis, a fiber tests the rectangle of
    voxels whose center can lie within R = r + half a voxel diagonal of its
    axis and sub-samples those within R; no other has a sub-sample within r."""
    if supersample is not None:
        _check_number("supersample", supersample, low=1, strict=False, integer=True)
        if supersample > 40:  # 40**3 sub-samples still fit the uint16 counts
            raise ValueError(f"supersample must be <= 40, got {supersample}")
        fiber_value, matrix_value = levels
        _check_number("fiber level", fiber_value, low=None)
        _check_number("matrix level", matrix_value, low=None)
        if not fiber_value > matrix_value:
            raise ValueError("fiber level must exceed matrix level")
    box_edge = m.params.box_edge
    if any(e + 1e-9 * box_edge < box_edge for e in grid.extent):
        raise ValueError(
            f"grid extent {grid.extent} um does not cover the model box edge {box_edge} um")
    fibers = sorted(m.fibers, key=lambda f: f.id)
    if fibers and fibers[-1].id > np.iinfo(np.uint32).max:
        raise ValueError(f"fiber id {fibers[-1].id} does not fit the u32 labels")
    h = grid.voxel_size
    labels = LabelVolume.zeros(grid)
    label_cells = labels.data.reshape(-1)  # a view: the volumes are C-ordered
    conflicts = 0
    counts = None
    if supersample is not None:
        s3 = supersample**3
        counts = np.zeros(grid.voxel_count, dtype=np.uint16)
        # Sub-lattice offsets within a voxel along x, y and z, each (s3, 1).
        sub = ((np.arange(supersample, dtype=np.float64) + 0.5) / supersample - 0.5) * h
        offsets = [o.reshape(-1, 1) for o in np.meshgrid(sub, sub, sub, indexing="ij")]
        chunk = max(1, _SUBSAMPLES // s3)
    half_diag = 0.5 * h * math.sqrt(3.0)
    first, last = _capsule_boxes(fibers, grid)
    for fiber, lo, hi in zip(fibers, first.tolist(), last.tolist()):
        p0, axis = fiber.p0, fiber.p1 - fiber.p0
        inv_len_sq = 1.0 / float(axis @ axis)
        flat, centers = _capsule_voxels(p0, axis, fiber.radius + half_diag, lo, hi, grid)
        d2 = _segment_point_dist_sq(p0, axis, inv_len_sq, *centers)
        inside = flat[d2 <= fiber.radius**2]
        taken = label_cells[inside] != 0
        conflicts += int(np.count_nonzero(taken))
        label_cells[inside[~taken]] = fiber.id
        if counts is None:
            continue
        near = np.flatnonzero(d2 < (fiber.radius + half_diag)**2)
        for c0 in range(0, len(near), chunk):
            voxels = near[c0:c0 + chunk]
            px, py, pz = (c[voxels] + o for c, o in zip(centers, offsets))
            n_in = (_segment_point_dist_sq(p0, axis, inv_len_sq, px, py, pz)
                    <= fiber.radius**2).sum(axis=0)
            cells = flat[voxels]
            counts[cells] = np.minimum(counts[cells] + n_in, s3)
    if counts is None:
        return labels, conflicts, None
    # matrix + (fiber - matrix) * counts / s3 in float64 one x plane at a time:
    # a whole-volume float64 temporary beside the labels would set the peak.
    atten = np.empty(grid.dims, dtype=np.float32)
    for plane, out in zip(counts.reshape(grid.dims), atten):
        value = np.divide(plane, s3, dtype=np.float64)
        value *= fiber_value - matrix_value
        value += matrix_value
        value[plane >= s3] = fiber_value
        out[...] = value
    return labels, conflicts, Volume(grid=grid, data=atten)


def rasterize_labels(m: FiberModel, grid: GridSpec) -> tuple[LabelVolume, int]:
    """The labels and conflict count of :func:`rasterize`."""
    return rasterize(m, grid)[:2]


def rasterize_attenuation(m: FiberModel, grid: GridSpec, supersample: int = 3,
                          levels: tuple[float, float] = (GLASS_DENSITY, EPOXY_DENSITY)) -> Volume:
    """The anti-aliased attenuation volume of :func:`rasterize`, which needs a
    supersample."""
    if supersample is None:
        raise ValueError("rasterize_attenuation needs a supersample, got None")
    return rasterize(m, grid, supersample, levels)[2]


def degrade(v: Volume, p: DegradeParams) -> Volume:
    """Gaussian blur (sigma = psf_sigma / voxel_size, reflect boundary) then
    additive Gaussian noise with stddev = mean(blurred matrix region) / snr.

    The matrix region is where the input equals matrix_value exactly; if no
    such voxel exists the global mean of the blurred volume is used. Noise is
    drawn from a counter-based generator keyed on noise_seed, so the output is
    schedule-independent and reproducible.
    """
    sigma_vox = p.psf_sigma / v.grid.voxel_size
    blurred = ndimage.gaussian_filter(v.data.astype(np.float64), sigma=sigma_vox, mode="reflect")
    matrix_region = v.data == np.float32(p.matrix_value)
    reference = float(blurred[matrix_region].mean()) if matrix_region.any() \
        else float(blurred.mean())
    std = abs(reference) / p.snr
    rng = np.random.Generator(np.random.Philox(p.noise_seed))
    if std > 0:
        blurred += rng.normal(0.0, std, size=blurred.shape)
    return Volume(grid=v.grid, data=blurred.astype(np.float32))


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


def _angles(n_angles: int) -> np.ndarray:
    _check_number("n_angles", n_angles, low=1, strict=False, integer=True)
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
    the slice are zero. Each angle builds one CSR matrix of these weights
    (rows: detectors, columns: the nx*ny pixels) and applies it to all slices
    at once.
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
    # A ray's row holds the four bilinear corners of its samples, corner-major.
    row_ptr = np.arange(0, 4 * n_det * n_det + 1, 4 * n_det, dtype=np.int32)
    weights = np.empty((n_det, 4, n_det))
    cols = np.empty((n_det, 4, n_det), dtype=np.int32)
    sino = np.empty((nz, len(angles), n_det))
    for a, theta in enumerate(angles):
        # libm's cos and sin, as the backprojection uses; np.cos may round differently.
        cos, sin = math.cos(theta), math.sin(theta)
        wx, ix = _axis_weights((nx - 1) / 2.0 + s[:, None] * cos - s * sin, nx)
        wy, iy = _axis_weights((ny - 1) / 2.0 + s[:, None] * sin + s * cos, ny)
        for c, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            np.multiply(wx[i], wy[j], out=weights[:, c])
            np.add(ix[i] * ny, iy[j], out=cols[:, c])
        rays = sparse.csr_array((weights.ravel(), cols.ravel(), row_ptr), shape=(n_det, nx * ny))
        sino[:, a] = (rays @ pixels).T
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


def _ramlak_filter(data: np.ndarray, ramp: np.ndarray) -> np.ndarray:
    """Ram-Lak filter along the last (detector) axis of a stack of projection
    rows; ``ramp`` is :func:`_ramlak_ramp` of the row length."""
    size = 2 * (len(ramp) - 1)
    spectrum = np.fft.rfft(data, n=size, axis=-1)
    spectrum *= ramp
    return np.fft.irfft(spectrum, n=size, axis=-1)[..., :data.shape[-1]]


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
