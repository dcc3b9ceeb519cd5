import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

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
    # x fastest, then y, then z
    assert g.linear_index(0, 0, 0) == 0
    assert g.linear_index(1, 0, 0) == 1
    assert g.linear_index(0, 1, 0) == 4
    assert g.linear_index(0, 0, 1) == 20
    assert g.linear_index(3, 4, 5) == 119


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


def test_flat_ordering_is_x_fastest():
    g = GridSpec((2, 2, 2), 1.0)
    vals = np.arange(8, dtype=np.float32)
    v = Volume.from_flat(g, vals)
    # flat index x + nx*(y + ny*z) must recover the original sequence
    for z in range(2):
        for y in range(2):
            for x in range(2):
                assert v.data[x, y, z] == vals[g.linear_index(x, y, z)]
    np.testing.assert_array_equal(v.flat, vals)


def test_written_bytes_are_little_endian_x_fastest(tmp_path):
    # (2,1,1) grid: the raw file must be exactly the two f32 samples in order.
    g = GridSpec((2, 1, 1), 1.0)
    v = Volume(g, np.array([1.0, 2.0], dtype=np.float32).reshape(2, 1, 1))
    _, raw_path = write_volume(v, tmp_path / "tiny")
    blob = raw_path.read_bytes()
    assert blob == struct.pack("<2f", 1.0, 2.0)
    assert len(blob) == 8


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
