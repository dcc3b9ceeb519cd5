"""Multi-scale Hessian tubularity filtering and instance extraction.

The filter favors bright tubular structures on a dark background: Hessian
eigenvalues at each scale feed a per-voxel response built from the
plate-vs-line ratio, the blobness ratio, and the second-order energy; the
multi-scale result is the voxel-wise maximum over scales. A structure-tensor
orientation estimator for the extracted fibers lives here too.

Memory note: the per-voxel steps (eigensolves, magnitude sort, response) run
over slabs of about 128 x 128 x 8 voxels, so a kernel holds its six
full-volume float64 components and its outputs plus a few slab temporaries;
the structure tensor's closed-form axis and its eigh fallback need no
(..., 3, 3) stack beyond the fallback voxels. Peak RSS of one standalone call
(three Frangi scales; the structure tensor at sigma_g 1, rho 2): Frangi
199 MB at 128^3 and 0.98 GB at 241^3, the structure tensor 233 MB and 1.07 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .fibers import hemisphere
from .volume import GridSpec, LabelVolume, Volume, _raw_payloads, read_volume, write_files

# Voxels per slab of the per-voxel steps (eigensolves, sort, response): 8 x
# 128 x 128, so that each of their float64 temporaries stays near 1 MB whatever
# the grid.
_SLAB_VOXELS = 128 * 128 * 8


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
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
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


def _convolve(data: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    return ndimage.convolve1d(data, kernel, axis=axis, output=np.float64, mode="reflect")


def _separable(data: np.ndarray, kernels: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    out = data
    for axis, kernel in enumerate(kernels):
        out = _convolve(out, kernel, axis)
    return out


def _slabs(dims: tuple[int, int, int]) -> list[slice]:
    """Consecutive slabs of whole y-z planes, about ``_SLAB_VOXELS`` voxels and
    at least one plane each, that together cover the grid. They are cut along
    x because x is the first axis of the C-ordered arrays: each slab is one
    contiguous block."""
    nx, ny, nz = dims
    depth = max(1, _SLAB_VOXELS // (ny * nz))
    return [slice(x0, x0 + depth) for x0 in range(0, nx, depth)]


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

    Six Hessian components via separable sampled-Gaussian-derivative
    convolution (reflect boundary), multiplied by sigma^2 (gamma = 2 scale
    normalization), then a closed-form symmetric eigensolve per voxel.
    Components with the same x kernel share its pass (15 passes, not 18); the
    eigensolve runs over slabs, and the result does not depend on the slab
    size.
    """
    g, d1, d2 = (gaussian_kernel(sigma, order) for order in range(3))
    s2 = sigma * sigma
    h = {}
    for kx, tails in ((d2, {"xx": (g, g)}), (d1, {"xy": (d1, g), "xz": (g, d1)}),
                      (g, {"yy": (d2, g), "zz": (g, d2), "yz": (d1, d1)})):
        # A group's y passes all run before its x pass is dropped, so that at
        # most seven full-volume float64 arrays are alive at once.
        x_pass = _convolve(v.data, kx, 0)
        for name, (ky, _) in tails.items():
            h[name] = _convolve(x_pass, ky, 1)
        del x_pass
        for name, (_, kz) in tails.items():
            h[name] = _convolve(h[name], kz, 2)
            h[name] *= s2
    # hxx, hyy and hzz double as l1, l2 and l3: each slab is read before it is
    # overwritten.
    l1, l2, l3 = h["xx"], h["yy"], h["zz"]
    for sl in _slabs(v.grid.dims):
        eigenvalues = _eig3_symmetric(*(h[k][sl] for k in ("xx", "yy", "zz", "xy", "xz", "yz")))
        l1[sl], l2[sl], l3[sl] = _sort_by_magnitude(*eigenvalues)
    return EigenField(grid=v.grid, l1=l1, l2=l2, l3=l3)


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
    slabs = _slabs(e.grid.dims)
    out = np.zeros(e.grid.dims, dtype=np.float32)
    if p.c is None:
        c = 0.5 * math.sqrt(max(float(_energy(e, sl).max()) for sl in slabs))
    else:
        c = float(p.c)
    if c == 0:
        return Volume(grid=e.grid, data=out)
    for sl in slabs:
        l1, l2, l3 = e.l1[sl], e.l2[sl], e.l3[sl]
        # Each factor lies in [0, 1], and so does their rounded product.
        ra2 = _divide_nonzero(l2 * l2, l3 * l3)
        rb2 = _divide_nonzero(l1 * l1, np.abs(l2 * l3))
        response = ((1.0 - np.exp(-ra2 / (2.0 * p.alpha**2)))
                    * np.exp(-rb2 / (2.0 * p.beta**2))
                    * (1.0 - np.exp(-_energy(e, sl) / (2.0 * c * c))))
        out[sl] = np.where((l2 <= 0) & (l3 < 0), response, 0.0)
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
    if not sigma_g > 0:
        raise ValueError(f"sigma_g must be > 0, got {sigma_g}")
    if not rho >= 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    for name, value in (("sigma_g", sigma_g), ("rho", rho)):
        if value == math.inf:
            raise ValueError(f"{name} must be finite, got {value}")


def structure_tensor_orientation(v: Volume, sigma_g: float, rho: float) -> OrientationField:
    """Local fiber direction from the structure tensor.

    Gradient from Gaussian first derivatives at ``sigma_g``; the gradient
    outer product is smoothed component-wise at ``rho``; the orientation is
    the eigenvector of the smallest tensor eigenvalue, canonicalized to
    z >= 0 (then y >= 0, then x >= 0 on ties). It comes in closed form, and
    from eigh where J = 0 or the smallest eigenvalue is double (everywhere at
    ``rho`` = 0): see :func:`_smallest_eigenvector`. Voxels whose tensor trace
    is below 1e-12 of the volume maximum are flagged invalid. The eigensolve
    runs over slabs, and the result does not depend on the slab size.
    """
    check_orientation(sigma_g, rho)
    g = gaussian_kernel(sigma_g, 0)
    d1 = gaussian_kernel(sigma_g, 1)
    gx = _separable(v.data, (d1, g, g))
    gy = _separable(v.data, (g, d1, g))
    gz = _separable(v.data, (g, g, d1))

    def smooth(component: np.ndarray) -> np.ndarray:
        if rho == 0:
            return component
        k = gaussian_kernel(rho, 0)
        return _separable(component, (k, k, k))

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
    for sl in _slabs(v.grid.dims):
        axes[sl] = hemisphere(_smallest_eigenvector(*(c[sl] for c in (jxx, jyy, jzz, jxy, jxz,
                                                                       jyz))))
    return OrientationField(grid=v.grid, axes=axes, valid=valid)


def write_orientation_field(field: OrientationField, path_stem: str | Path) -> list[Path]:
    """Persist as four sibling volumes: stem.ox/.oy/.oz (f32 components) and
    stem.valid (u8 mask, same raw+JSON layout with dtype tag "u8"). All eight
    files move into place together; returns their paths."""
    stem = str(path_stem)
    grid = {"dims": list(field.grid.dims), "voxel_size_um": field.grid.voxel_size}
    payloads = _raw_payloads(stem + ".valid", field.valid.ravel(order="F"), "u8", **grid)
    for suffix, idx in ((".ox", 0), (".oy", 1), (".oz", 2)):
        payloads.update(_raw_payloads(stem + suffix, field.axes[..., idx].ravel(order="F"),
                                      "f32", **grid))
    return write_files(payloads, stem)


def read_orientation_field(path_stem: str | Path) -> OrientationField:
    stem = str(path_stem)
    components = [read_volume(stem + suffix) for suffix in (".ox", ".oy", ".oz")]
    grid = components[0].grid
    axes = np.stack([c.data for c in components], axis=-1)
    mask = read_volume(stem + ".valid")
    if not isinstance(mask, LabelVolume) or mask.grid != grid:
        raise ValueError(f"validity mask '{stem}.valid' must be a u8 mask on the grid of "
                         f"'{stem}.ox'")
    return OrientationField(grid=grid, axes=axes, valid=mask.data.astype(bool))
