"""Dense 3D grids with physical voxel size and raw-file I/O.

Grids are isotropic. Array data has shape ``(nx, ny, nz)``; the canonical
linear (on-disk) ordering is x-fastest, i.e. flat index ``x + nx*(y + ny*z)``,
which corresponds to Fortran-order raveling of the array.

On disk a volume is a pair of files sharing a stem: ``<stem>.json`` carries
the metadata and ``<stem>.raw`` the little-endian sample stream. Gray data is
32-bit float (tag ``"f32"``), label data 32-bit unsigned int (tag ``"u32"``),
binary masks included (0/1 labels). Only an orientation field's ``.valid``
volume is 8-bit unsigned int (tag ``"u8"``); it reads back as labels.
Every artifact is written to a temporary file and moved into place with
``os.replace`` (:func:`write_files`), so a failed write keeps the previous file.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RAW_ORDER = "x-fastest"
RAW_ENDIANNESS = "little"
FORMAT_VERSION = 1

# The paths write_files moves into place and the directories a CLI stage makes,
# recorded while the stage sets a list.
WRITTEN: contextvars.ContextVar[list[Path]] = contextvars.ContextVar("WRITTEN")

_DTYPES = {"f32": np.dtype("<f4"), "u32": np.dtype("<u4"), "u8": np.dtype("u1")}

# Offsets of the 26 face/edge/corner neighbors of a voxel.
NEIGHBORS_26 = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)


def _check_number(name: str, value, low=0, strict: bool = True, integer: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a number > ``low``
    (>= when not ``strict``; no bound when None) that a float64 holds. A bool or
    non-number fails first; with ``integer`` so does 2.5, and no int is too
    large. The bound comes first, so NaN and -inf fail it where there is
    one, and +inf or an int such as 10**400 fails as not finite."""
    kind = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if low is not None and not (value > low if strict else value >= low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    if not integer and not abs(value) <= sys.float_info.max:  # NaN compares False
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GridSpec:
    """Voxel counts per axis plus the isotropic voxel edge length in micrometers."""

    dims: tuple[int, int, int]
    voxel_size: float

    def __post_init__(self):
        if len(self.dims) != 3:
            raise ValueError(f"grid dims must be three voxel counts, got {self.dims}")
        for d in self.dims:
            _check_number("grid dim", d, low=1, strict=False, integer=True)
        _check_number("voxel_size", self.voxel_size)
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def extent(self) -> tuple[float, float, float]:
        """Physical edge lengths in micrometers, exactly dims * voxel_size."""
        return tuple(d * self.voxel_size for d in self.dims)


def _check_shape(grid: GridSpec, data: np.ndarray) -> None:
    if data.shape != grid.dims:
        raise ValueError(f"data shape {data.shape} does not match grid dims {grid.dims}")


@dataclass
class Volume:
    """Gray-value volume (float32). Treated as immutable once constructed."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        _check_shape(self.grid, data)
        if not np.all(np.isfinite(data)):
            raise ValueError("volume data must be finite (no NaN/Inf)")
        self.data = data


@dataclass
class LabelVolume:
    """Integer label volume (uint32); 0 is reserved for background."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if not np.issubdtype(data.dtype, np.integer) and not data.dtype == np.bool_:
            raise ValueError(f"label data must be integer, got dtype {data.dtype}")
        if data.size and (np.min(data) < 0 or np.max(data) > np.iinfo(np.uint32).max):
            raise ValueError("label values must fit in uint32")
        data = data.astype(np.uint32, copy=False)
        _check_shape(self.grid, data)
        self.data = data

    @classmethod
    def zeros(cls, grid: GridSpec) -> "LabelVolume":
        return cls(grid, np.zeros(grid.dims, dtype=np.uint32))


def write_files(payloads: dict[str | Path, bytes], name: str | Path) -> list[Path]:
    """Write ``{path: bytes}`` payloads, each to a temporary sibling, then move
    them all into place with ``os.replace``; returns the paths written. The
    temporaries are always removed. A failed write raises ``OSError`` ``failed
    to write '<name>'``. When :data:`WRITTEN` holds a list in the calling
    context, each path is appended to it right after its move, so a failed or
    interrupted stage can remove the files it wrote. ``ThreadPoolExecutor``
    workers do not inherit the context: write on the stage's own thread."""
    payloads = {Path(path): payload for path, payload in payloads.items()}
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in payloads}
    record = WRITTEN.get([])
    try:
        for path, payload in payloads.items():
            temps[path].write_bytes(payload)
        for path, tmp in temps.items():
            os.replace(tmp, path)
            record.append(path)
    except OSError as exc:
        raise OSError(f"failed to write '{name}': {exc}") from exc
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
    return list(payloads)


def _raw_payloads(path_stem: str | Path, samples: np.ndarray, tag: str, order: str = RAW_ORDER,
                  **fields) -> dict[Path, bytes]:
    """:func:`write_files` payloads: ``fields`` plus dtype, order and endianness
    for ``<stem>.json``, ``samples`` as ``tag`` values in C order for ``<stem>.raw``."""
    stem = Path(path_stem)
    meta = {**fields, "dtype": tag, "order": order, "endianness": RAW_ENDIANNESS}
    return {stem.with_name(stem.name + ".json"): (json.dumps(meta) + "\n").encode(),
            stem.with_name(stem.name + ".raw"): samples.astype(_DTYPES[tag], copy=False).tobytes()}


def _volume_payloads(path_stem: str | Path, grid: GridSpec, data: np.ndarray,
                     tag: str) -> dict[Path, bytes]:
    """:func:`_raw_payloads` of samples ``data`` (nx, ny, nz) on ``grid``: the
    raw layout of every volume, x-fastest, that :func:`read_volume` reads. C
    order of the view ``data.T`` is x-fastest order, so ``tobytes`` makes the
    one whole-volume copy."""
    return _raw_payloads(path_stem, data.T, tag, dims=list(grid.dims),
                         voxel_size_um=grid.voxel_size)


def write_volume(vol: Volume | LabelVolume, path_stem: str | Path) -> list[Path]:
    """Write ``<stem>.json`` metadata and ``<stem>.raw`` sample stream.

    The raw file holds exactly nx*ny*nz values, little-endian, x-fastest.
    Returns the two paths written.
    """
    if isinstance(vol, Volume):
        tag = "f32"
    elif isinstance(vol, LabelVolume):
        tag = "u32"
    else:
        raise TypeError(f"expected Volume or LabelVolume, got {type(vol).__name__}")
    return write_files(_volume_payloads(path_stem, vol.grid, vol.data, tag), path_stem)


def read_volume(path_stem: str | Path) -> Volume | LabelVolume:
    """Read a volume pair written by :func:`write_volume`, bit-exactly.

    A ``u8`` mask reads as a :class:`LabelVolume`. A sidecar whose ``order`` or
    ``endianness`` names another layout is rejected."""
    stem = Path(path_stem)
    json_path = stem.with_name(stem.name + ".json")
    raw_path = stem.with_name(stem.name + ".raw")
    try:
        sidecar = json_path.read_bytes()
        raw = raw_path.read_bytes()
    except OSError as exc:
        raise OSError(f"failed to read volume '{stem}': {exc}") from exc
    try:
        meta = json.loads(sidecar)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"bad volume sidecar '{json_path}': {exc}") from None
    if not isinstance(meta, dict) or not {"dims", "voxel_size_um", "dtype"} <= meta.keys():
        raise ValueError(f"bad volume sidecar '{json_path}': not an object with dims, "
                         "voxel_size_um and dtype")
    tag = meta["dtype"]
    if not isinstance(tag, str) or tag not in _DTYPES:
        raise ValueError(f"bad volume sidecar '{json_path}': unknown dtype {tag!r}")
    for key, layout in (("order", RAW_ORDER), ("endianness", RAW_ENDIANNESS)):
        if meta.get(key, layout) != layout:
            raise ValueError(f"bad volume sidecar '{json_path}': {key} {meta[key]!r}, "
                             f"expected {layout!r}")
    dims, voxel_size = meta["dims"], meta["voxel_size_um"]
    try:
        if not isinstance(dims, list):
            raise ValueError(f"dims must be a list, got {dims!r}")
        grid = GridSpec(tuple(dims), voxel_size)
    except ValueError as exc:
        raise ValueError(f"bad volume sidecar '{json_path}': {exc}") from None
    expected = grid.voxel_count * _DTYPES[tag].itemsize
    if len(raw) != expected:
        raise ValueError(
            f"size mismatch in '{raw_path}': header implies {expected} bytes "
            f"({grid.voxel_count} voxels of {tag}), raw file has {len(raw)} bytes"
        )
    data = np.frombuffer(raw, dtype=_DTYPES[tag]).reshape(grid.dims, order="F")
    return Volume(grid, data) if tag == "f32" else LabelVolume(grid, data)
