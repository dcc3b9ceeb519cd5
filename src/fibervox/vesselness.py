"""Multi-scale Hessian tubularity filtering and instance extraction.

The filter favors bright tubular structures on a dark background: Hessian
eigenvalues at each scale feed a per-voxel response built from the
plate-vs-line ratio, the blobness ratio, and the second-order energy; the
multi-scale result is the voxel-wise maximum over scales. A structure-tensor
orientation estimator for the extracted fibers lives here too. Both take their
sampled-Gaussian derivatives from one separable routine, :func:`_derivatives`:
15 convolution passes for the Hessian, 8 + 6 * 3 for the structure tensor.

Memory and threads: both kernels run over x-slabs of whole y-z planes, about
128 x 128 x 2 voxels, whose 256 KB float64 temporaries stay near a core's L2,
on one worker thread per CPU the process may use (:func:`_each_slab`): first
the Gaussian passes, with scipy's sums bit for bit (x and y in numpy, whose
ufuncs release the GIL, z in scipy; see :func:`_derivatives` for why), then
the per-voxel steps (sigma^2 scaling, eigensolves, magnitude sort, response).
A kernel holds its six full-volume float64 components and its outputs plus a
few slab temporaries per worker; the structure tensor's closed-form axis and
its eigh fallback need no (..., 3, 3) stack beyond the fallback voxels. Peak
RSS of one standalone call on 2 CPUs (three Frangi scales; the structure
tensor at sigma_g 1, rho 2), the workers' malloc arenas included: Frangi
198 MB at 128^3 and 948 MB at 241^3, the structure tensor 215 MB and
985-993 MB.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .fibers import hemisphere
from .volume import (GridSpec, LabelVolume, Volume, _check_number, _volume_payloads,
                     read_volume, write_files)

# Voxels per slab of the Gaussian passes and the per-voxel steps (eigensolves,
# sort, response): 2 x 128 x 128, so that each of their float64 temporaries
# stays near 256 KB, in a core's L2, whatever the grid.
_SLAB_VOXELS = 128 * 128 * 2


@dataclass(frozen=True)
class VesselnessParams:
    """Response weights: alpha (plate/line), beta (blobness), c (energy).

    A null ``c`` is derived per scale as half the maximum second-order energy
    S over the volume, which makes the response invariant to scaling the input
    intensities.
    """

    alpha: float = 0.5
    beta: float = 0.5
    c: float | None = None

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {getattr(self, name)}")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError(f"c must be null or a finite number > 0, got {self.c}")


@dataclass(frozen=True)
class ScaleSet:
    """Strictly ascending positive filter scales, in voxels."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas)
        if not sigmas:
            raise ValueError("scale set must not be empty")
        if any(s <= 0 for s in sigmas):
            raise ValueError(f"scales must be positive, got {sigmas}")
        if not all(map(math.isfinite, sigmas)):
            raise ValueError(f"scales must be finite, got {sigmas}")
        if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
            raise ValueError(f"scales must be strictly ascending, got {sigmas}")
        object.__setattr__(self, "sigmas", sigmas)


@dataclass
class EigenField:
    """Per-voxel Hessian eigenvalues ordered by |l1| <= |l2| <= |l3|."""

    grid: GridSpec
    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray


def gaussian_kernel(sigma: float, order: int = 0) -> np.ndarray:
    """Sampled 1D Gaussian derivative kernel of the given order (0, 1 or 2).

    Support is ceil(4*sigma) + 1 taps each side; the extra tap keeps the
    truncated second moment accurate enough for the x^2 response check.
    Discrete normalization: order 0 sums to 1; order 1 is odd (sums to 0);
    order 2 is mean-subtracted to sum exactly to 0.
    """
    _check_number("sigma", sigma)
    radius = math.ceil(4.0 * sigma) + 1
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-x * x / (2.0 * sigma * sigma))
    g /= g.sum()
    if order == 0:
        return g
    if order == 1:
        return -x / sigma**2 * g
    if order == 2:
        k = (x * x / sigma**4 - 1.0 / sigma**2) * g
        return k - k.mean()
    raise ValueError(f"unsupported derivative order {order}")


def _reflect(start: int, stop: int, n: int) -> np.ndarray:
    """Indices ``start`` to ``stop`` - 1 of a length-``n`` axis, reflected at its
    ends as scipy's ``reflect`` mode does: d c b a | a b c d | d c b a, with
    period 2n, so that lines shorter than a kernel radius repeat."""
    i = np.arange(start, stop) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _pass(padded: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """float64 convolution of ``padded`` with an exactly symmetric or
    antisymmetric ``kernel`` along ``axis``, which holds its r = len(kernel) // 2
    halo samples on each side; the output drops them. The taps are summed in
    the order of scipy's ``NI_Correlate1D`` (correlation with the flipped
    kernel w): out = in * w[0], then for j = r ... 1,
    out += (in[-j] +- in[+j]) * w[-j], each step rounded in float64, so the
    result is ``ndimage.convolve1d`` of the unpadded samples bit for bit."""
    w = kernel[::-1]
    r = len(w) // 2
    symmetric = np.array_equal(w, w[::-1])
    assert symmetric or np.array_equal(w, -w[::-1]), "kernel is neither symmetric nor antisymmetric"
    pair = np.add if symmetric else np.subtract
    n = padded.shape[axis] - 2 * r

    def tap(j):
        return padded[(slice(None),) * axis + (slice(r + j, r + j + n),)]

    out = np.multiply(tap(0), w[r], dtype=np.float64)
    pairs = np.empty_like(out)
    for j in range(r, 0, -1):
        pair(tap(-j), tap(j), out=pairs, dtype=np.float64)
        pairs *= w[r - j]
        out += pairs
    return out


def _derivatives(data: np.ndarray, sigma: float, orders) -> list[np.ndarray]:
    """Sampled-Gaussian derivatives of ``data`` at ``sigma``, one float64
    array per (x, y, z) order triple: an x, a y and a z pass, each bit for bit
    ``ndimage.convolve1d(mode="reflect")``.

    Each x-slab runs its whole cascade on a worker thread (:func:`_each_slab`):
    its planes plus an r-plane halo (a view, or a reflected copy at the grid
    ends), one x pass per x order shared by its triples, then the y passes in
    numpy (:func:`_pass`), whose ufuncs release the GIL, and the z passes by
    ``ndimage.convolve1d`` into the output's slab: along the contiguous axis
    scipy's loop beats numpy's, GIL and all. The input is made C-contiguous
    once, since in the x-fastest views that ``read_volume`` returns every x
    tap is a strided gather (6-9x slower at 128^3). Only the outputs are full
    volumes.
    """
    kernels = [gaussian_kernel(sigma, k) for k in range(max(map(max, orders)) + 1)]
    r = len(kernels[0]) // 2
    data = np.ascontiguousarray(data)
    nx, ny, _ = data.shape
    y_halo = _reflect(-r, ny + r, ny)
    out = [np.empty(data.shape) for _ in orders]

    def cascade(sl):
        lo, hi = sl.start - r, min(sl.stop, nx) + r
        planes = data[lo:hi] if 0 <= lo and hi <= nx else data[_reflect(lo, hi, nx)]
        for kx in dict.fromkeys(o[0] for o in orders):
            x_pass = _pass(planes, kernels[kx], 0)
            for i, o in enumerate(orders):
                if o[0] == kx:
                    ndimage.convolve1d(_pass(x_pass[:, y_halo], kernels[o[1]], 1),
                                       kernels[o[2]], axis=2, output=out[i][sl], mode="reflect")

    _each_slab(cascade, data.shape)
    return out


def _slabs(dims: tuple[int, int, int]) -> list[slice]:
    """Consecutive slabs of whole y-z planes, about ``_SLAB_VOXELS`` voxels and
    at least one plane each, that together cover the grid. They are cut along
    x because x is the first axis of the C-ordered arrays: each slab is one
    contiguous block."""
    nx, ny, nz = dims
    depth = max(1, _SLAB_VOXELS // (ny * nz))
    return [slice(x0, x0 + depth) for x0 in range(0, nx, depth)]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _each_slab(fn, dims: tuple[int, int, int]) -> list:
    """``[fn(sl) for sl in _slabs(dims)]``, with the slabs shared out among one
    worker thread per CPU (:class:`~concurrent.futures.ThreadPoolExecutor`)
    while the calling thread waits. The results come in slab order; the first
    exception in slab order is raised here, the slabs not yet started are
    dropped, and every worker is joined before this returns.

    numpy's ufuncs release the GIL, so slabs overlap; scipy's ``correlate1d``
    does not, so a slab function keeps its scipy calls to the passes where
    scipy's loop is faster anyway. ``fn`` writes only its own slab, calls no
    public function (the benchmark's tracer wraps those, and its span stack
    serves one thread) and sets any ``np.errstate`` itself, since that state
    is per thread.
    """
    slabs = _slabs(dims)
    with ThreadPoolExecutor(min(_cpu_count(), len(slabs))) as pool:
        return list(pool.map(fn, slabs))


def _eig3_symmetric(a11, a22, a33, a12, a13, a23):
    """Closed-form eigenvalues of symmetric 3x3 matrices (trigonometric form).

    Inputs are broadcastable float64 arrays; returns three arrays sorted
    ascending by signed value.
    """
    q = (a11 + a22 + a33) / 3.0
    d11 = a11 - q
    d22 = a22 - q
    d33 = a33 - q
    p2 = d11 * d11 + d22 * d22 + d33 * d33 + 2.0 * (a12 * a12 + a13 * a13 + a23 * a23)
    p = np.sqrt(p2 / 6.0)
    safe_p = np.where(p > 0, p, 1.0)
    b11 = d11 / safe_p
    b22 = d22 / safe_p
    b33 = d33 / safe_p
    b12 = a12 / safe_p
    b13 = a13 / safe_p
    b23 = a23 / safe_p
    half_det = 0.5 * (b11 * (b22 * b33 - b23 * b23)
                      - b12 * (b12 * b33 - b23 * b13)
                      + b13 * (b12 * b23 - b22 * b13))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    mid = 3.0 * q - hi - lo
    return lo, mid, hi


def _smallest_eigenvector(a11, a22, a33, a12, a13, a23) -> np.ndarray:
    """Unit eigenvectors (..., 3) of the smallest eigenvalue lo of symmetric
    3x3 matrices given as to :func:`_eig3_symmetric`: the longest cross
    product of two rows of A - lo I (Kopp 2008). Where it is not longer than
    1e-8 trace^2 (A = 0, a double lo, NaN), the rows do not fix the vector and
    ``np.linalg.eigh`` of just those matrices gives it."""
    lo = _eig3_symmetric(a11, a22, a33, a12, a13, a23)[0]
    r0, r1, r2 = (a11 - lo, a12, a13), (a12, a22 - lo, a23), (a13, a23, a33 - lo)
    best, best_sq = (0.0, 0.0, 0.0), 0.0
    for u, w in ((r0, r1), (r0, r2), (r1, r2)):
        c = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        sq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
        longer = sq > best_sq
        best = tuple(np.where(longer, ci, bi) for ci, bi in zip(c, best))
        best_sq = np.where(longer, sq, best_sq)
    norm = np.sqrt(best_sq)
    trace = a11 + a22 + a33
    fixed = norm > 1e-8 * trace * trace
    vectors = np.stack(best, axis=-1) / np.where(fixed, norm, 1.0)[..., None]
    if not fixed.all():
        tensor = np.stack([c[~fixed] for c in (a11, a12, a13, a12, a22, a23, a13, a23, a33)],
                          axis=-1)
        vectors[~fixed] = np.linalg.eigh(tensor.reshape(-1, 3, 3)).eigenvectors[..., 0]
    return vectors


def _sort_by_magnitude(lo, mid, hi):
    """Reorder per voxel by |value| ascending, ties by signed value ascending.

    A stable three-element bubble sort on the key (|v|, v): a pair swaps only
    when its first key is strictly larger, so equal keys (0.0 and -0.0) keep
    their order.
    """
    vals = [lo, mid, hi]
    for i in (0, 1, 0):
        a, b = vals[i], vals[i + 1]
        abs_a, abs_b = np.abs(a), np.abs(b)
        swap = (abs_a > abs_b) | ((abs_a == abs_b) & (a > b))
        vals[i], vals[i + 1] = np.where(swap, b, a), np.where(swap, a, b)
    return tuple(vals)


def hessian_at_scale(v: Volume, sigma: float) -> EigenField:
    """Scale-normalized Hessian eigenvalues of the volume at one scale.

    Six Hessian components via :func:`_derivatives` (reflect boundary),
    multiplied by sigma^2 (gamma = 2 scale normalization), then a closed-form
    symmetric eigensolve per voxel. The components fall into three x groups
    (orders 2, 1 and 0), so they take 15 passes, not 18, with the six
    components the only full-volume float64 arrays; the passes, the scaling
    and the eigensolve run over slabs (:func:`_each_slab`), and the result
    does not depend on the slab size or the thread count.
    """
    xx, xy, xz, yy, zz, yz = _derivatives(
        v.data, sigma, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2), (0, 1, 1)))
    scale = sigma * sigma

    # xx, yy and zz double as l1, l2 and l3: each slab is read before it is
    # overwritten.
    def solve(sl):
        eigenvalues = _eig3_symmetric(*(c[sl] * scale for c in (xx, yy, zz, xy, xz, yz)))
        xx[sl], yy[sl], zz[sl] = _sort_by_magnitude(*eigenvalues)

    _each_slab(solve, v.grid.dims)
    return EigenField(grid=v.grid, l1=xx, l2=yy, l3=zz)


def _divide_nonzero(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def _energy(e: EigenField, sl) -> np.ndarray:
    """Second-order energy S^2 = l1^2 + l2^2 + l3^2 on one slab."""
    l1, l2, l3 = e.l1[sl], e.l2[sl], e.l3[sl]
    return l1 * l1 + l2 * l2 + l3 * l3


def frangi_response(e: EigenField, p: VesselnessParams) -> Volume:
    """Single-scale tubularity response in [0, 1].

    Zero wherever l2 > 0 or l3 > 0 (dark-on-bright) and wherever l3 = 0
    (ratios undefined). A null ``p.c`` becomes half the maximum S over this
    field.
    """
    out = np.zeros(e.grid.dims, dtype=np.float32)
    if p.c is None:
        c = 0.5 * math.sqrt(max(_each_slab(lambda sl: float(_energy(e, sl).max()), e.grid.dims)))
    else:
        c = float(p.c)
    if c == 0:
        return Volume(grid=e.grid, data=out)

    def respond(sl):
        l1, l2, l3 = e.l1[sl], e.l2[sl], e.l3[sl]
        # Each factor lies in [0, 1], and so does their rounded product.
        ra2 = _divide_nonzero(l2 * l2, l3 * l3)
        rb2 = _divide_nonzero(l1 * l1, np.abs(l2 * l3))
        response = ((1.0 - np.exp(-ra2 / (2.0 * p.alpha**2)))
                    * np.exp(-rb2 / (2.0 * p.beta**2))
                    * (1.0 - np.exp(-_energy(e, sl) / (2.0 * c * c))))
        out[sl] = np.where((l2 <= 0) & (l3 < 0), response, 0.0)

    _each_slab(respond, e.grid.dims)
    return Volume(grid=e.grid, data=out)


def frangi_multiscale(v: Volume, scales: ScaleSet, p: VesselnessParams) -> Volume:
    """Voxel-wise maximum of the single-scale responses over all scales."""
    out = None
    for sigma in scales.sigmas:
        response = frangi_response(hessian_at_scale(v, sigma), p).data
        out = response if out is None else np.maximum(out, response, out=out)
    return Volume(grid=v.grid, data=out)


def default_scales(radius_um: float, voxel_size_um: float) -> ScaleSet:
    """Physics-derived default scales: fiber radius in voxels times
    {0.6, 0.9, 1.2}, e.g. {1.0, 1.5, 2.0} for radius 6.5 um at 3.9 um."""
    base = radius_um / voxel_size_um
    return ScaleSet(sigmas=tuple(round(base * f, 6) for f in (0.6, 0.9, 1.2)))


def otsu_threshold(v: Volume) -> float:
    """Threshold maximizing between-class variance on a 256-bin histogram.

    Returns the lower edge of the first foreground bin; classify as
    foreground with value >= threshold. Raises on a constant volume.
    """
    data = v.data
    mn = float(data.min())
    mx = float(data.max())
    if mn == mx:
        raise ValueError("degenerate histogram: constant volume has no threshold")
    hist, edges = np.histogram(data, bins=256, range=(mn, mx))
    hist = hist.astype(np.float64)
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(hist)
    w1 = w0[-1] - w0
    sum0 = np.cumsum(hist * centers)
    mu0 = _divide_nonzero(sum0, w0)
    mu1 = _divide_nonzero(sum0[-1] - sum0, w1)
    variance = w0[:-1] * w1[:-1] * (mu0[:-1] - mu1[:-1]) ** 2
    split = int(np.argmax(variance))
    return float(edges[split + 1])


def check_binarize(method: str, threshold: float | None) -> None:
    """Raise unless ``method`` is "fixed" with a finite ``threshold`` or
    "otsu" with none."""
    if method == "fixed":
        if threshold is None or not math.isfinite(threshold):
            raise ValueError("fixed binarization needs a finite threshold")
    elif method == "otsu":
        if threshold is not None:
            raise ValueError(f"threshold = {threshold} is ignored by otsu; leave it null")
    else:
        raise ValueError(f"unknown binarization method '{method}'")


def binarize(v: Volume, method: str = "otsu", threshold: float | None = None) -> LabelVolume:
    """Binary mask: value >= threshold, with the threshold either fixed or
    chosen by the Otsu histogram criterion."""
    check_binarize(method, threshold)
    t = float(threshold) if method == "fixed" else otsu_threshold(v)
    return LabelVolume(grid=v.grid, data=(v.data >= t).astype(np.uint32))


def connected_components(b: LabelVolume) -> LabelVolume:
    """26-connectivity components of a binary mask, labeled 1..K in order of
    each component's first voxel in linear-index (x-fastest) scan order."""
    if b.data.max(initial=0) > 1:
        raise ValueError("connected_components requires a binary volume")
    structure = np.ones((3, 3, 3), dtype=np.int8)
    # ndimage.label numbers components in C scan order of its input; C order
    # of the transpose is x-fastest order of the volume.
    return LabelVolume(grid=b.grid, data=ndimage.label(b.data.T, structure)[0].T)


@dataclass
class OrientationField:
    """Per-voxel unit fiber axis plus validity mask (False where the local
    structure tensor is effectively zero)."""

    grid: GridSpec
    axes: np.ndarray   # (nx, ny, nz, 3) float32
    valid: np.ndarray  # (nx, ny, nz) bool


def check_orientation(sigma_g: float, rho: float) -> None:
    """Raise unless the structure-tensor scales are finite with ``sigma_g`` > 0
    and ``rho`` >= 0."""
    _check_number("sigma_g", sigma_g)
    _check_number("rho", rho, strict=False)


def structure_tensor_orientation(v: Volume, sigma_g: float, rho: float) -> OrientationField:
    """Local fiber direction from the structure tensor.

    Gradient from Gaussian first derivatives at ``sigma_g`` (8 passes of
    :func:`_derivatives`: gy and gz share the order-0 x pass); the six
    gradient products are smoothed at ``rho`` > 0 (3 passes each); the axis is
    the eigenvector of the smallest tensor eigenvalue, canonicalized to
    z >= 0 (then y >= 0, then x >= 0 on ties). It comes in closed form, and
    from eigh where J = 0 or the smallest eigenvalue is double (everywhere at
    ``rho`` = 0): see :func:`_smallest_eigenvector`. Voxels whose tensor trace
    is below 1e-12 of the volume maximum are flagged invalid. The eigensolve
    runs over slabs (:func:`_each_slab`), and the result does not depend on
    the slab size or the thread count.
    """
    check_orientation(sigma_g, rho)
    gx, gy, gz = _derivatives(v.data, sigma_g, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def smooth(component: np.ndarray) -> np.ndarray:
        return component if rho == 0 else _derivatives(component, rho, ((0, 0, 0),))[0]

    # Each gradient is dropped once its last product is formed.
    jxx, jxy, jxz = smooth(gx * gx), smooth(gx * gy), smooth(gx * gz)
    del gx
    jyy, jyz = smooth(gy * gy), smooth(gy * gz)
    del gy
    jzz = smooth(gz * gz)
    del gz

    trace = jxx + jyy + jzz
    max_trace = float(trace.max())
    valid = (trace >= 1e-12 * max_trace) & (max_trace > 0)
    del trace

    axes = np.empty(v.grid.dims + (3,), dtype=np.float32)

    def solve(sl):
        axes[sl] = hemisphere(_smallest_eigenvector(*(c[sl] for c in (jxx, jyy, jzz, jxy, jxz,
                                                                       jyz))))

    _each_slab(solve, v.grid.dims)
    return OrientationField(grid=v.grid, axes=axes, valid=valid)


def write_orientation_field(field: OrientationField, path_stem: str | Path) -> list[Path]:
    """Persist as four sibling volumes: stem.ox/.oy/.oz (f32 components) and
    stem.valid (u8 mask, same raw+JSON layout with dtype tag "u8"). All eight
    files move into place together; returns their paths."""
    stem = str(path_stem)
    payloads = _volume_payloads(stem + ".valid", field.grid, field.valid, "u8")
    for suffix, idx in ((".ox", 0), (".oy", 1), (".oz", 2)):
        payloads.update(_volume_payloads(stem + suffix, field.grid, field.axes[..., idx], "f32"))
    return write_files(payloads, stem)


def read_orientation_field(path_stem: str | Path) -> OrientationField:
    """Read a field written by :func:`write_orientation_field`: ``.ox``, ``.oy``
    and ``.oz`` must be f32 volumes and ``.valid`` a 0/1 mask, all on one grid."""
    stem = str(path_stem)
    components = [read_volume(stem + suffix) for suffix in (".ox", ".oy", ".oz")]
    grid = components[0].grid
    for suffix, c in zip((".ox", ".oy", ".oz"), components):
        if not isinstance(c, Volume) or c.grid != grid:
            raise ValueError(f"orientation component '{stem}{suffix}' must be an f32 volume on "
                             f"the grid of '{stem}.ox'")
    axes = np.stack([c.data for c in components], axis=-1)
    mask = read_volume(stem + ".valid")
    if not isinstance(mask, LabelVolume) or mask.grid != grid:
        raise ValueError(f"validity mask '{stem}.valid' must be a u8 mask on the grid of "
                         f"'{stem}.ox'")
    if mask.data.max(initial=0) > 1:
        raise ValueError(f"validity mask '{stem}.valid' holds {mask.data.max()}; a mask holds "
                         "only 0 and 1")
    return OrientationField(grid=grid, axes=axes, valid=mask.data.astype(bool))
