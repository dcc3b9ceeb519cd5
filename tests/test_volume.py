import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fibervox.vesselness import OrientationField, read_orientation_field, write_orientation_field
from fibervox.volume import (
    FORMAT_VERSION,
    NEIGHBORS_26,
    GridSpec,
    LabelVolume,
    Volume,
    read_volume,
    write_volume,
)


def test_gridspec_basics():
    g = GridSpec((4, 5, 6), 2.0)
    assert g.voxel_count == 120
    assert g.extent == (8.0, 10.0, 12.0)


@pytest.mark.parametrize("dims,h", [((0, 1, 1), 1.0), ((1, 1), 1.0), ((2, 2, 2), 0.0),
                                    ((2, 2, 2), -1.0), ((2, -2, 2), 1.0)])
def test_gridspec_rejects_bad_params(dims, h):
    with pytest.raises(ValueError):
        GridSpec(dims, h)


def test_gridspec_takes_numpy_integer_dims():
    g = GridSpec((np.int64(2), np.uint16(3), 4), 1.0)
    assert g.dims == (2, 3, 4)
    assert all(type(d) is int for d in g.dims)


def test_volume_casts_to_float32_and_requires_finite():
    g = GridSpec((2, 2, 2), 1.0)
    v = Volume(g, np.arange(8, dtype=np.float64).reshape(2, 2, 2))
    assert v.data.dtype == np.float32
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Volume(g, bad)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Volume(g, bad)


def test_volume_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        Volume(GridSpec((2, 2, 2), 1.0), np.zeros((2, 2, 3), dtype=np.float32))


def test_written_bytes_are_little_endian_x_fastest(tmp_path):
    # (2,1,1) grid: the raw file must be exactly the two f32 samples in order.
    g = GridSpec((2, 1, 1), 1.0)
    v = Volume(g, np.array([1.0, 2.0], dtype=np.float32).reshape(2, 1, 1))
    _, raw_path = write_volume(v, tmp_path / "tiny")
    blob = raw_path.read_bytes()
    assert blob == struct.pack("<2f", 1.0, 2.0)
    assert len(blob) == 8


# Three distinct dims, so that x-fastest and C order give different streams.
ORDER_GRID = GridSpec((2, 3, 4), 1.0)


def x_fastest_voxels(dims):
    """Voxels (x, y, z) in on-disk order: x fastest, then y, then z."""
    nx, ny, nz = dims
    return [(x, y, z) for z in range(nz) for y in range(ny) for x in range(nx)]


def voxel_of(k, dims):
    """The voxel that sample k of an x-fastest stream belongs to."""
    nx, ny, _ = dims
    return k % nx, (k // nx) % ny, k // (nx * ny)


def distinct_values(dims):
    """An array whose every voxel holds a different value: 100x + 10y + z + 1."""
    x, y, z = np.indices(dims)
    return 100 * x + 10 * y + z + 1


def write_raw_pair(stem, dims, tag, blob):
    """A volume pair written by hand: the sidecar and the raw bytes."""
    meta = {"dims": list(dims), "voxel_size_um": 1.0, "dtype": tag, "order": "x-fastest",
            "endianness": "little"}
    Path(f"{stem}.json").write_text(json.dumps(meta))
    Path(f"{stem}.raw").write_bytes(blob)


@pytest.mark.parametrize("kind,tag,fmt", [(Volume, "f32", "f"), (LabelVolume, "u32", "I")])
def test_written_raw_is_x_fastest_on_distinct_dims(tmp_path, kind, tag, fmt):
    data = distinct_values(ORDER_GRID.dims)
    _, raw_path = write_volume(kind(ORDER_GRID, data), tmp_path / "v")
    values = [data[v] for v in x_fastest_voxels(ORDER_GRID.dims)]
    assert raw_path.read_bytes() == struct.pack(f"<{len(values)}{fmt}", *values)


@pytest.mark.parametrize("tag,fmt", [("f32", "f"), ("u32", "I"), ("u8", "B")])
def test_hand_written_raw_reads_x_fastest(tmp_path, tag, fmt):
    dims = ORDER_GRID.dims
    n = ORDER_GRID.voxel_count
    write_raw_pair(tmp_path / "v", dims, tag, struct.pack(f"<{n}{fmt}", *range(n)))
    back = read_volume(tmp_path / "v")
    assert back.grid == ORDER_GRID
    for k in range(n):
        assert back.data[voxel_of(k, dims)] == k


def test_orientation_field_raws_are_x_fastest(tmp_path):
    dims = ORDER_GRID.dims
    n = ORDER_GRID.voxel_count
    values = distinct_values(dims).astype(np.float32)
    axes = np.zeros(dims + (3,), np.float32)
    axes[..., 1] = values
    valid = values % 3 == 0
    write_orientation_field(OrientationField(ORDER_GRID, axes, valid), tmp_path / "o")
    voxels = x_fastest_voxels(dims)
    assert (tmp_path / "o.oy.raw").read_bytes() == struct.pack(f"<{n}f",
                                                               *(values[v] for v in voxels))
    assert (tmp_path / "o.valid.raw").read_bytes() == bytes(int(valid[v]) for v in voxels)
    # Hand-written streams read back the same way.
    (tmp_path / "o.oy.raw").write_bytes(struct.pack(f"<{n}f", *range(n)))
    (tmp_path / "o.valid.raw").write_bytes(bytes(k % 2 for k in range(n)))
    back = read_orientation_field(tmp_path / "o")
    for k in range(n):
        assert back.axes[voxel_of(k, dims) + (1,)] == k
        assert back.valid[voxel_of(k, dims)] == bool(k % 2)


def test_sidecar_fields(tmp_path):
    g = GridSpec((3, 2, 1), 0.5)
    json_path, _ = write_volume(Volume(g, np.zeros((3, 2, 1))), tmp_path / "m")
    meta = json.loads(json_path.read_text())
    assert meta == {
        "dims": [3, 2, 1],
        "voxel_size_um": 0.5,
        "dtype": "f32",
        "order": "x-fastest",
        "endianness": "little",
    }
    assert FORMAT_VERSION == 1


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    g = GridSpec((7, 5, 3), 1.7)
    data = rng.standard_normal(g.dims).astype(np.float32)
    data[0, 0, 0] = np.float32(1.0) / np.float32(3.0)
    v = Volume(g, data)
    write_volume(v, tmp_path / "vol")
    back = read_volume(tmp_path / "vol")
    assert isinstance(back, Volume)
    assert back.grid == g
    assert back.data.tobytes() == v.data.tobytes()


def test_label_roundtrip(tmp_path):
    g = GridSpec((4, 3, 2), 1.0)
    data = np.arange(24, dtype=np.uint32).reshape(g.dims, order="F")
    data[1, 1, 1] = np.iinfo(np.uint32).max
    lv = LabelVolume(g, data)
    write_volume(lv, tmp_path / "lab")
    back = read_volume(tmp_path / "lab")
    assert isinstance(back, LabelVolume)
    assert back.data.dtype == np.uint32
    np.testing.assert_array_equal(back.data, data)


def test_label_volume_validation():
    g = GridSpec((2, 2, 2), 1.0)
    with pytest.raises(ValueError, match="integer"):
        LabelVolume(g, np.zeros(g.dims, dtype=np.float32))
    with pytest.raises(ValueError, match="uint32"):
        LabelVolume(g, np.full(g.dims, -1, dtype=np.int64))
    with pytest.raises(ValueError, match="uint32"):
        LabelVolume(g, np.full(g.dims, 2**32, dtype=np.int64))
    assert LabelVolume.zeros(g).data.sum() == 0


def test_size_mismatch_message(tmp_path):
    g = GridSpec((2, 2, 2), 1.0)
    write_volume(Volume(g, np.zeros(g.dims)), tmp_path / "v")
    raw = tmp_path / "v.raw"
    raw.write_bytes(raw.read_bytes()[:-4])
    with pytest.raises(ValueError) as err:
        read_volume(tmp_path / "v")
    msg = str(err.value)
    assert "header implies 32 bytes (8 voxels of f32), raw file has 28 bytes" in msg


def test_unknown_dtype_rejected(tmp_path):
    g = GridSpec((1, 1, 1), 1.0)
    json_path, _ = write_volume(Volume(g, np.zeros(g.dims)), tmp_path / "v")
    meta = json.loads(json_path.read_text())
    meta["dtype"] = "f64"
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="unknown dtype"):
        read_volume(tmp_path / "v")


@pytest.mark.parametrize("key,value", [("order", "z-fastest"), ("endianness", "big")])
def test_sidecar_declaring_another_layout_rejected(tmp_path, key, value):
    json_path, _ = write_volume(Volume(ORDER_GRID, np.zeros(ORDER_GRID.dims)), tmp_path / "v")
    meta = json.loads(json_path.read_text())
    meta[key] = value
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"bad volume sidecar '.*v\.json': {key} '{value}'"):
        read_volume(tmp_path / "v")


def test_sidecar_without_layout_fields_reads_x_fastest_little_endian(tmp_path):
    data = distinct_values(ORDER_GRID.dims).astype(np.float32)
    json_path, _ = write_volume(Volume(ORDER_GRID, data), tmp_path / "v")
    meta = json.loads(json_path.read_text())
    del meta["order"], meta["endianness"]
    json_path.write_text(json.dumps(meta))
    np.testing.assert_array_equal(read_volume(tmp_path / "v").data, data)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError, match="failed to read"):
        read_volume(tmp_path / "nope")


def test_neighbors_26():
    assert len(NEIGHBORS_26) == 26
    assert len(set(NEIGHBORS_26)) == 26
    assert (0, 0, 0) not in NEIGHBORS_26
    for off in NEIGHBORS_26:
        assert all(d in (-1, 0, 1) for d in off)


def _gray(value, n=4):
    return Volume(GridSpec((n, n, n), 1.0), np.full((n, n, n), value, np.float32))


def test_failed_write_keeps_previous_files(tmp_path, monkeypatch):
    stem = tmp_path / "v"
    write_volume(_gray(1.0), stem)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(path, data):
        # half the payload reaches the disk, then the device is full
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(OSError, match="failed to write .*No space left"):
        write_volume(_gray(2.0, n=6), stem)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    np.testing.assert_array_equal(read_volume(stem).data, 1.0)


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    stem = tmp_path / "v"
    write_volume(_gray(1.0), stem)
    real_replace = os.replace

    def replace_json_only(src, dst):
        if str(dst).endswith(".raw"):
            raise OSError(5, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_json_only)
    with pytest.raises(OSError, match="failed to write"):
        write_volume(_gray(1.0), stem)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]


def test_write_leaves_no_temporary_file(tmp_path):
    stem = tmp_path / "v"
    for value in (1.0, 2.0):
        write_volume(_gray(value), stem)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]
    np.testing.assert_array_equal(read_volume(stem).data, 2.0)
