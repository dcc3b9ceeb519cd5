"""Inputs and values that used to pass silently now fail loudly or come out
exact."""

import json
import math

import numpy as np
import pytest

from fibervox.annotate import PolylineAnnotation, read_annotations, region_grow
from fibervox.config import PipelineConfig
from fibervox.ctsim import (DegradeParams, degrade, radon_slice, rasterize,
                            rasterize_attenuation, simulate_fbp)
from fibervox.fibers import Fiber, FiberModel, ModelParams, read_fibers_csv
from fibervox.mesh import export_stl
from fibervox.metrics import _pair_count_sum
from fibervox.vesselness import (OrientationField, ScaleSet, VesselnessParams, binarize,
                                 check_binarize, check_orientation, frangi_multiscale,
                                 gaussian_kernel, read_orientation_field,
                                 structure_tensor_orientation, write_orientation_field)
from fibervox.volume import GridSpec, LabelVolume, Volume, read_volume, write_volume
from test_cli import TINY, run_cli


def test_pair_count_sum_exact_past_int64():
    # c*(c-1) exceeds the int64 range once c passes 3 037 000 499
    c = 3_100_000_000
    assert _pair_count_sum(np.array([c, 1, 0, 2])) == c * (c - 1) // 2 + 1
    assert _pair_count_sum(np.array([c])) == 4_804_999_998_450_000_000


@pytest.mark.parametrize("gray_side", ["pred", "truth"])
def test_evaluate_rejects_gray_volume(tmp_path, gray_side):
    grid = GridSpec(dims=(4, 4, 4), voxel_size=1.0)
    rng = np.random.default_rng(0)
    write_volume(LabelVolume(grid=grid, data=np.ones(grid.dims, dtype=np.uint32)),
                 tmp_path / "labels")
    write_volume(Volume(grid=grid, data=rng.random(grid.dims)), tmp_path / "gray")
    stems = {"truth": tmp_path / "labels", "pred": tmp_path / "labels",
             gray_side: tmp_path / "gray"}
    code, out, err = run_cli("evaluate", "--truth", str(stems["truth"]),
                             "--pred", str(stems["pred"]),
                             "--output", str(tmp_path / "m.json"))
    assert code == 1 and out == ""
    assert err.startswith("error stage=evaluate:")
    assert "holds gray data" in err
    assert not (tmp_path / "m.json").exists()


def test_truncated_validity_mask_names_the_file(tmp_path):
    x = np.arange(8, dtype=np.float64)
    data = np.broadcast_to(np.sin(x)[:, None, None] + x[None, None, :], (8, 8, 8))
    field = structure_tensor_orientation(Volume(GridSpec((8, 8, 8), 1.0), data),
                                         sigma_g=1.0, rho=1.0)
    stem = tmp_path / "orient"
    write_orientation_field(field, stem)
    raw = tmp_path / "orient.valid.raw"
    raw.write_bytes(raw.read_bytes()[:509])
    with pytest.raises(ValueError, match=r"size mismatch in '.*orient\.valid\.raw'"):
        read_orientation_field(stem)


def test_validity_mask_holding_other_values_names_it(tmp_path):
    stem = tmp_path / "orient"
    grid = _written_field(stem)
    write_volume(LabelVolume(grid, np.full(grid.dims, 7, np.uint32)), f"{stem}.valid")
    with pytest.raises(ValueError, match=r"validity mask '.*orient\.valid' holds 7; a mask "
                                         r"holds only 0 and 1"):
        read_orientation_field(stem)


def _written_field(stem):
    grid = GridSpec((2, 3, 4), 1.0)
    axes = np.zeros(grid.dims + (3,), np.float32)
    axes[..., 2] = 1.0
    write_orientation_field(OrientationField(grid, axes, np.ones(grid.dims, bool)), stem)
    return grid


def test_orientation_component_on_another_grid_names_it(tmp_path):
    stem = tmp_path / "orient"
    grid = _written_field(stem)
    write_volume(Volume(GridSpec(grid.dims, 2.0), np.zeros(grid.dims)), f"{stem}.oy")
    with pytest.raises(ValueError, match=r"orientation component '.*orient\.oy' must be an f32 "
                                         r"volume on the grid of '.*orient\.ox'"):
        read_orientation_field(stem)


def test_orientation_component_holding_labels_names_it(tmp_path):
    stem = tmp_path / "orient"
    grid = _written_field(stem)
    write_volume(LabelVolume(grid, np.ones(grid.dims, np.uint32)), f"{stem}.oz")
    with pytest.raises(ValueError, match=r"orientation component '.*orient\.oz' must be an f32"):
        read_orientation_field(stem)


@pytest.mark.parametrize("chain, message", [
    ({"id": 1, "points": [[0.9, 0, 0], [2, 0, 0]]},
     "annotation 1 point 0 coordinate must be an integer, got 0.9"),
    ({"id": 1, "points": [[0, 0, 0], ["3", 0, 0]]},
     "annotation 1 point 1 coordinate must be an integer, got '3'"),
    ({"id": 1.5, "points": [[0, 0, 0], [1, 0, 0]]},
     "annotation id must be an integer, got 1.5"),
    ({"id": "2", "points": [[0, 0, 0], [1, 0, 0]]},
     "annotation id must be an integer, got '2'"),
    ({"id": 1, "points": [[0, 0, 0], [1, None, 0]]},
     "annotation 1 point 1 coordinate must be an integer, got None"),
    ({"id": True, "points": [[0, 0, 0], [1, 0, 0]]},
     "annotation id must be an integer, got True"),
    ({"id": 1, "points": [[0, 0, 0], [1, np.True_, 0]]},
     "annotation 1 point 1 coordinate must be an integer, got np.True_"),
])
def test_annotation_rejects_non_integer_values(chain, message):
    with pytest.raises(ValueError) as err:
        PolylineAnnotation(**chain)
    assert str(err.value) == message


def test_annotation_rejects_id_past_u32():
    PolylineAnnotation(id=2**32 - 1, points=[[0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError) as err:
        PolylineAnnotation(id=2**32, points=[[0, 0, 0], [1, 0, 0]])
    assert str(err.value) == "annotation id 4294967296 does not fit the u32 labels"


def test_annotation_accepts_integral_values():
    a = PolylineAnnotation(id=np.int64(4), points=[(np.int64(1), 2.0, 3), [0, 0, 0]])
    assert a.id == 4 and type(a.id) is int
    assert a.points == [(1, 2, 3), (0, 0, 0)]
    assert all(type(c) is int for p in a.points for c in p)


@pytest.mark.parametrize("entry", [
    [[0, 0, 0], [1, 0, 0]],
    {"points": [[0, 0, 0], [1, 0, 0]]},
    {"id": 2},
])
def test_read_annotations_names_file_and_chain(tmp_path, entry):
    path = tmp_path / "chains.json"
    good = {"id": 1, "points": [[0, 0, 0], [1, 0, 0]]}
    path.write_text(json.dumps([good, entry]))
    with pytest.raises(ValueError) as err:
        read_annotations(path)
    assert str(err.value) == f"annotation JSON '{path}' chain 1 needs 'id' and 'points'"


def test_read_annotations_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "chains.json"
    path.write_bytes(b'[{"id": 1, "points": "\xff"}]')
    with pytest.raises(ValueError) as err:
        read_annotations(path)
    assert str(err.value).startswith(f"bad annotation JSON '{path}': 'utf-8' codec can't decode")


def test_config_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff{}")
    with pytest.raises(ValueError) as err:
        PipelineConfig.load(path)
    assert str(err.value).startswith(f"config file '{path}' is not valid JSON: 'utf-8' codec")
    # UTF-8 text reads as UTF-8 whatever the locale's encoding.
    path.write_bytes('{"segment": {"polarity": "d\u00e4rk"}}'.encode("utf-8"))
    assert PipelineConfig.load(path).raw["segment"]["polarity"] == "d\u00e4rk"


def test_annotate_cli_reports_bad_chain(tmp_path):
    grid = GridSpec(dims=(4, 4, 4), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    chains = tmp_path / "chains.json"
    chains.write_text(json.dumps([{"id": 1.5, "points": [[0, 0, 0], [1, 0, 0]]}]))
    code, out, err = run_cli("annotate", "--gray", str(tmp_path / "gray"),
                             "--annotations", str(chains),
                             "--output", str(tmp_path / "anno"))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=annotate: annotation id must be an integer, got 1.5"
    assert not (tmp_path / "anno.raw").exists()


def test_annotate_cli_rejects_id_past_u32(tmp_path):
    grid = GridSpec(dims=(4, 4, 4), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    chains = tmp_path / "chains.json"
    chains.write_text(json.dumps([{"id": 1, "points": [[0, 0, 0], [1, 0, 0]]},
                                  {"id": 2**32, "points": [[0, 2, 0], [1, 2, 0]]}]))
    code, out, err = run_cli("annotate", "--gray", str(tmp_path / "gray"),
                             "--annotations", str(chains),
                             "--output", str(tmp_path / "anno"))
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=annotate: "
                           "annotation id 4294967296 does not fit the u32 labels")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chains.json", "gray.json", "gray.raw"]


@pytest.mark.parametrize("points", [5, None, 2.5])
def test_annotate_cli_names_chain_whose_points_are_not_a_list(tmp_path, points):
    grid = GridSpec(dims=(4, 4, 4), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    chains = tmp_path / "chains.json"
    chains.write_text(json.dumps([{"id": 1, "points": [[0, 0, 0], [1, 0, 0]]},
                                  {"id": 7, "points": points}]))
    code, out, err = run_cli("annotate", "--gray", str(tmp_path / "gray"),
                             "--annotations", str(chains),
                             "--output", str(tmp_path / "anno"))
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=annotate: annotation 7 points must be a list "
                           f"of 3D points, got {points!r}")
    assert not (tmp_path / "anno.raw").exists()


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_region_grow_rejects_non_finite_threshold(threshold):
    grid = GridSpec(dims=(3, 3, 3), voxel_size=1.0)
    seeds = LabelVolume.zeros(grid)
    seeds.data[1, 1, 1] = 1
    with pytest.raises(ValueError) as err:
        region_grow(Volume(grid=grid, data=np.ones(grid.dims)), seeds, threshold)
    assert str(err.value) == f"threshold must be finite, got {threshold}"


CSV_HEADER = "id,x0,y0,z0,x1,y1,z1,radius_um\n"


def test_fibers_csv_rejects_duplicate_ids(tmp_path):
    # two fibers sharing an id would rasterize as one instance
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "1,10,10,10,20,10,10,6.5\n"
                    "2,10,40,10,20,40,10,6.5\n"
                    "1,10,70,10,20,70,10,6.5\n")
    with pytest.raises(ValueError) as err:
        read_fibers_csv(path)
    assert str(err.value) == f"duplicate fiber id 1 in '{path}'"


@pytest.mark.parametrize("row, message", [
    ("1.5,10,10,10,20,10,10,6.5", "could not convert string '1.5' to int64"),
    ("x,10,10,10,20,10,10,6.5", "could not convert string 'x' to int64"),
    ("1,10,10,10,20,10,10", "requires 8 columns but 7 were found"),
    ("0,10,10,10,20,10,10,6.5", "fiber id must be >= 1, got 0"),
    ("1,10,10,10,20,10,10,0", "fiber radius must be > 0, got 0.0"),
    ("1,10,10,10,10,10,10,6.5", "fiber length must be > 0"),
    ("1,inf,10,10,20,10,10,6.5", "fiber endpoints must be finite"),
    ("1,10,10,10,20,nan,10,6.5", "fiber endpoints must be finite"),
    ("1,10,10,10,20,10,10,inf", "fiber radius must be finite, got inf"),
], ids=["fractional-id", "text-id", "missing-column", "zero-id", "zero-radius", "zero-length",
        "infinite-endpoint", "nan-endpoint", "infinite-radius"])
def test_fibers_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "2,10,40,10,20,40,10,6.5\n" + row + "\n")
    with pytest.raises(ValueError) as err:
        read_fibers_csv(path)
    assert str(err.value).startswith(f"bad fiber CSV '{path}': ")
    assert message in str(err.value)


def test_fibers_csv_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "fibers.csv"
    path.write_bytes(CSV_HEADER.encode() + b"1,10,10,10,20,10,10,6.5\xff\n")
    with pytest.raises(ValueError) as err:
        read_fibers_csv(path)
    assert str(err.value).startswith(f"bad fiber CSV '{path}': 'utf-8' codec can't decode")


def test_rasterize_cli_reports_zero_length_fiber(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,20,20,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == (f"error stage=rasterize: bad fiber CSV '{path}': "
                           "fiber length must be > 0")
    assert not (tmp_path / "gt.raw").exists()


def test_rasterize_skips_fiber_below_the_origin(tmp_path):
    # the capsule's bounding box lies wholly at negative coordinates
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    rows = CSV_HEADER + "3,20,20,20,40,20,20,6.5\n"
    for name, text, outside in (("kept", rows, 0),
                                ("below", rows + "4,-90,-60,-70,-30,-40,-20,6.5\n", 1)):
        (tmp_path / f"{name}.csv").write_text(text)
        code, out, err = run_cli("rasterize", "--config", str(cfg),
                                 "--fibers", str(tmp_path / f"{name}.csv"),
                                 "--out-dir", str(tmp_path / name))
        assert code == 0, err
        assert json.loads(out)["fibers_outside"] == outside
    for stem in ("gt", "atten"):
        assert ((tmp_path / "below" / f"{stem}.raw").read_bytes()
                == (tmp_path / "kept" / f"{stem}.raw").read_bytes())


def test_rasterize_cli_reports_duplicate_ids(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n3,20,60,20,40,60,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == f"error stage=rasterize: duplicate fiber id 3 in '{path}'"
    assert not (tmp_path / "gt.raw").exists()


@pytest.mark.parametrize("sidecar", [
    b'{"dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "f32"',
    b'{"dims": [2, 2, 2], "voxel_size_um": 1.0, "dtype": "\xff"}',
    b'[2, 2, 2]',
    b'"f32"',
    b'{"voxel_size_um": 1.0, "dtype": "f32"}',
    b'{"dims": [2, 2, 2], "dtype": "f32"}',
    b'{"dims": [2, 2, 2], "voxel_size_um": 1.0}',
], ids=["invalid-json", "invalid-utf8", "array", "string", "no-dims", "no-voxel-size",
        "no-dtype"])
def test_read_volume_names_bad_sidecar(tmp_path, sidecar):
    write_volume(Volume(GridSpec((2, 2, 2), 1.0), np.zeros((2, 2, 2))), tmp_path / "v")
    (tmp_path / "v.json").write_bytes(sidecar)
    with pytest.raises(ValueError) as err:
        read_volume(tmp_path / "v")
    assert str(err.value).startswith(f"bad volume sidecar '{tmp_path / 'v.json'}': ")


def test_degrade_cli_names_bad_sidecar(tmp_path):
    write_volume(Volume(GridSpec((2, 2, 2), 1.0), np.zeros((2, 2, 2))), tmp_path / "v")
    (tmp_path / "v.json").write_text('{"voxel_size_um": 1.0, "dtype": "f32"}')
    code, out, err = run_cli("degrade", "--input", str(tmp_path / "v"),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith(f"error stage=degrade: bad volume sidecar '{tmp_path / 'v.json'}': ")
    assert not (tmp_path / "out.raw").exists()


@pytest.mark.parametrize("fields", [
    {"dims": [2, 2]},
    {"dims": 8},
    {"dims": [2, 2, 0]},
    {"dims": ["two", 2, 2]},
    {"dims": [2.5, 2, 2]},      # would read as 2 x 2 x 2, which the raw file matches
    {"dims": [True, 2, 2]},
    {"voxel_size_um": -1.0},
    {"voxel_size_um": True},    # would read as 1.0
    {"voxel_size_um": math.inf},
    {"dtype": [1]},
], ids=["dims-length", "dims-type", "dims-value", "dims-item", "dims-float", "dims-bool",
        "voxel-size", "voxel-size-bool", "voxel-size-inf", "dtype-unhashable"])
def test_read_volume_names_sidecar_with_bad_fields(tmp_path, fields):
    write_volume(Volume(GridSpec((2, 2, 2), 1.0), np.zeros((2, 2, 2))), tmp_path / "v")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps({**meta, **fields}))
    with pytest.raises(ValueError) as err:
        read_volume(tmp_path / "v")
    assert str(err.value).startswith(f"bad volume sidecar '{tmp_path / 'v.json'}': ")


@pytest.mark.parametrize("fields", [{"dims": [2, 2]}, {"dims": 8}, {"dtype": [1]}],
                         ids=["dims-length", "dims-type", "dtype-unhashable"])
def test_degrade_cli_names_sidecar_with_bad_fields(tmp_path, fields):
    write_volume(Volume(GridSpec((2, 2, 2), 1.0), np.zeros((2, 2, 2))), tmp_path / "v")
    meta = json.loads((tmp_path / "v.json").read_text())
    (tmp_path / "v.json").write_text(json.dumps({**meta, **fields}))
    code, out, err = run_cli("degrade", "--input", str(tmp_path / "v"),
                             "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith(f"error stage=degrade: bad volume sidecar '{tmp_path / 'v.json'}': ")
    assert not (tmp_path / "out.raw").exists()


def test_c_is_null_or_a_finite_positive_number():
    assert VesselnessParams(c=0.3).c == 0.3
    assert VesselnessParams().c is None
    for c, message in ((0.0, "> 0, got 0.0"), (-1.0, "> 0, got -1.0"),
                       (math.inf, "finite, got inf"), (math.nan, "> 0, got nan")):
        with pytest.raises(ValueError, match=f"^c must be {message}$"):
            VesselnessParams(c=c)


def test_threshold_with_otsu_is_rejected():
    v = Volume(GridSpec((4, 4, 4), 1.0), np.arange(64.0).reshape(4, 4, 4))
    with pytest.raises(ValueError, match="threshold = 0.5 is ignored by otsu"):
        binarize(v, method="otsu", threshold=0.5)
    assert binarize(v, method="fixed", threshold=0.5).data.sum() == 63


def _filter_must_not_run(*args):
    raise AssertionError("the filter ran")


def test_segment_cli_rejects_c_auto_key(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    grid = GridSpec(dims=(6, 6, 6), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    code, out, err = run_cli("segment", "--set", "segment.c_auto=true",
                             "--input", str(tmp_path / "gray"), "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=segment: unknown config key(s): segment.c_auto"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gray.json", "gray.raw"]


def _tube_gray(tmp_path, name="gray", sign=1.0):
    """A noisy bright tube along z on a 12 x 12 x 10 grid, written as ``name``."""
    i = np.arange(12.0) - 5.5
    cross = np.exp(-(i[:, None] ** 2 + i[None, :] ** 2) / 4.5)
    data = np.broadcast_to(cross[:, :, None], (12, 12, 10))
    data = data + np.random.default_rng(0).normal(0.0, 0.05, data.shape)
    vol = Volume(grid=GridSpec((12, 12, 10), 1.0), data=(sign * data).astype(np.float32))
    write_volume(vol, tmp_path / name)
    return vol


def test_segment_cli_takes_a_set_c(tmp_path):
    gray = _tube_gray(tmp_path)
    code, out, err = run_cli("segment", "--set", "segment.c=0.3",
                             "--input", str(tmp_path / "gray"), "--out-dir", str(tmp_path))
    assert code == 0, err
    want = frangi_multiscale(gray, ScaleSet((1.0, 1.5, 2.0)), VesselnessParams(c=0.3))
    assert read_volume(tmp_path / "vess").data.tobytes() == want.data.tobytes()
    derived = frangi_multiscale(gray, ScaleSet((1.0, 1.5, 2.0)), VesselnessParams())
    assert want.data.tobytes() != derived.data.tobytes()


def test_segment_dark_polarity_matches_bright_on_the_negated_volume(tmp_path):
    _tube_gray(tmp_path, "bright")
    _tube_gray(tmp_path, "dark", sign=-1.0)
    for polarity in ("bright", "dark"):
        code, _, err = run_cli("segment", "--set", f'segment.polarity="{polarity}"',
                               "--input", str(tmp_path / polarity),
                               "--out-dir", str(tmp_path / f"seg_{polarity}"))
        assert code == 0, err
    for name in ("vess.json", "vess.raw", "mask.json", "mask.raw", "pred.json", "pred.raw"):
        dark = (tmp_path / "seg_dark" / name).read_bytes()
        assert dark == (tmp_path / "seg_bright" / name).read_bytes(), name
    assert read_volume(tmp_path / "seg_dark" / "pred").data.max() >= 1


def test_segment_rejects_unknown_polarity_before_filtering(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    _tube_gray(tmp_path)
    code, out, err = run_cli("segment", "--set", 'segment.polarity="grey"',
                             "--input", str(tmp_path / "gray"), "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=segment: segment.polarity must be 'bright' or 'dark', "
                           "got 'grey'")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gray.json", "gray.raw"]


@pytest.mark.parametrize("key, value, message, cli_message", [
    ("rho", "-1", "rho must be > 0, got -1.0", None),
    ("rho", "0", "rho must be > 0, got 0.0", None),
    ("sigma_g", "0", "sigma_g must be > 0, got 0.0", None),
    # The config rejects a NaN before the library sees it.
    ("sigma_g", "NaN", "sigma_g must be > 0, got nan",
     "config key 'segment.orientation_sigma_g' must be finite, got nan"),
], ids=["rho-negative", "rho-zero", "sigma_g-zero", "sigma_g-nan"])
def test_segment_checks_orientation_settings_before_filtering(tmp_path, monkeypatch, key,
                                                              value, message, cli_message):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    gray = _tube_gray(tmp_path)
    code, out, err = run_cli("segment", "--set", f"segment.orientation_{key}={value}",
                             "--input", str(tmp_path / "gray"), "--out-dir", str(tmp_path / "seg"),
                             "--orientation", str(tmp_path / "orient"))
    assert code == 1 and out == ""
    assert err.strip() == f"error stage=segment: {cli_message or message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gray.json", "gray.raw"]
    with pytest.raises(ValueError, match=f"^{message}$"):
        structure_tensor_orientation(gray, **{"sigma_g": 1.0, "rho": 1.0, key: float(value)})


def test_negative_seeds_are_rejected():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ModelParams(seed=-1)
    with pytest.raises(ValueError, match="^noise_seed must be >= 0, got -1$"):
        DegradeParams(noise_seed=-1)


@pytest.mark.parametrize("build, message", [
    (lambda: DegradeParams(psf_sigma=math.inf), "psf_sigma must be finite, got inf"),
    (lambda: DegradeParams(psf_sigma=-math.inf), "psf_sigma must be >= 0, got -inf"),
    (lambda: ModelParams(box_edge=math.inf), "box_edge must be finite, got inf"),
    (lambda: ModelParams(box_edge=-math.inf), "box_edge must be > 0, got -inf"),
    (lambda: ModelParams(mean_length=math.inf), "mean_length must be finite, got inf"),
    (lambda: ModelParams(length_stddev=math.inf), "length_stddev must be finite, got inf"),
    (lambda: ModelParams(length_stddev=math.nan), "length_stddev must be >= 0, got nan"),
    (lambda: GridSpec((4, 4, 4), math.inf), "voxel_size must be finite, got inf"),
    (lambda: GridSpec((4, 4, 4), -math.inf), "voxel_size must be > 0, got -inf"),
    (lambda: rasterize_attenuation(_EMPTY_MODEL, GridSpec((4, 4, 4), 2.0),
                                   levels=(math.inf, 1.31)),
     "fiber level must be finite, got inf"),
    (lambda: rasterize_attenuation(_EMPTY_MODEL, GridSpec((4, 4, 4), 2.0),
                                   levels=(2.54, -math.inf)),
     "matrix level must be finite, got -inf"),
], ids=["psf-sigma", "psf-sigma-negative", "box-edge", "box-edge-negative", "mean-length",
        "length-stddev-inf", "length-stddev-nan", "voxel-size", "voxel-size-negative",
        "fiber-level", "matrix-level"])
def test_model_degrade_and_grid_settings_must_be_finite(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_rasterize_attenuation_without_supersample_names_it():
    # rasterize takes a null supersample to mean labels only, which leaves the
    # attenuation wrapper nothing to return.
    with pytest.raises(ValueError, match="^rasterize_attenuation needs a supersample, got None$"):
        rasterize_attenuation(_EMPTY_MODEL, GridSpec((4, 4, 4), 2.0), None)


def test_degrade_cli_rejects_negative_noise_seed(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.degrade", _filter_must_not_run)
    write_volume(Volume(GridSpec((4, 4, 4), 1.0), np.ones((4, 4, 4))), tmp_path / "v")
    code, out, err = run_cli("degrade", "--set", "degrade.noise_seed=-1",
                             "--input", str(tmp_path / "v"), "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=degrade: noise_seed must be >= 0, got -1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]


def test_generate_cli_rejects_negative_seed(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    code, out, err = run_cli("generate", "--config", str(cfg), "--seed", "-1",
                             "--out-dir", str(tmp_path / "gen"))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=generate: seed must be >= 0, got -1"
    assert not (tmp_path / "gen").exists()


def test_generate_cli_checks_stl_sides_before_packing(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.generate_model", _filter_must_not_run)
    code, out, err = run_cli("generate", "--stl-sides", "2", "--out-dir", str(tmp_path / "gen"))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=generate: segments_per_circle must be >= 3, got 2"
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("fiber_value", ["1.0", "1.31"], ids=["below", "equal"])
def test_rasterize_cli_rejects_fiber_level_not_above_matrix(tmp_path, fiber_value):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--set", f"raster.fiber_value={fiber_value}",
                             "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=rasterize: fiber level must exceed matrix level"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fibers.csv", "tiny.json"]



def test_rasterize_cli_checks_levels_before_labeling(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.ctsim._capsule_boxes", _filter_must_not_run)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--set", "raster.fiber_value=1.0", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=rasterize: fiber level must exceed matrix level"


def test_rasterize_cli_caps_supersample_before_labeling(tmp_path, monkeypatch):
    # 41**3 sub-samples would overflow the uint16 counts
    monkeypatch.setattr("fibervox.ctsim._capsule_boxes", _filter_must_not_run)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--set", "raster.supersample=41", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == "error stage=rasterize: supersample must be <= 40, got 41"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fibers.csv", "tiny.json"]


@pytest.mark.parametrize("p0, p1", [((20, 20, 20), (40, 20, 20)), ((-90, 0, 0), (-50, 0, 0))],
                         ids=["on-grid", "off-grid"])
def test_rasterize_rejects_fiber_id_past_u32_before_the_walk(p0, p1, monkeypatch):
    model = FiberModel(ModelParams(box_edge=80.0, radius=6.5),
                       [Fiber(3, (60, 60, 60), (70, 60, 60), 6.5), Fiber(2**32, p0, p1, 6.5)])
    grid = GridSpec((16, 16, 16), 5.0)
    monkeypatch.setattr("fibervox.ctsim._capsule_boxes", _filter_must_not_run)
    for supersample in (None, 3):
        with pytest.raises(ValueError, match="^fiber id 4294967296 does not fit the u32 labels$"):
            rasterize(model, grid, supersample)


def test_rasterize_takes_the_largest_u32_fiber_id():
    model = FiberModel(ModelParams(box_edge=80.0, radius=6.5),
                       [Fiber(2**32 - 1, (20, 20, 20), (40, 20, 20), 6.5)])
    labels, _, _ = rasterize(model, GridSpec((16, 16, 16), 5.0))
    assert labels.data.max() == 2**32 - 1


def test_rasterize_cli_rejects_fiber_id_past_u32(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n4294967296,20,60,60,60,60,60,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=rasterize: "
                           "fiber id 4294967296 does not fit the u32 labels")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fibers.csv", "tiny.json"]


@pytest.mark.parametrize("fiber_id", [True, 2.5])
def test_fiber_rejects_non_integer_id(fiber_id):
    with pytest.raises(ValueError, match=f"^fiber id must be an integer, got {fiber_id}$"):
        Fiber(fiber_id, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), 1.0)


_EMPTY_MODEL = FiberModel(ModelParams(box_edge=8.0, radius=1.0), [])
_EMPTY_VOLUME = Volume(GridSpec((4, 4, 1), 2.0), np.zeros((4, 4, 1)))
_EMPTY_SEEDS = LabelVolume.zeros(_EMPTY_VOLUME.grid)
_EMPTY_GRID = GridSpec((4, 4, 4), 2.0)

# Every numeric setting the library checks with the one rule: the name its
# messages give, a call that passes it, the bound (None: any finite number),
# whether the bound is strict and whether the setting is an integer.
NUMERIC_SETTINGS = {
    "voxel_size": (lambda v: GridSpec((4, 4, 4), v), 0, True, False),
    "grid dim": (lambda v: GridSpec((4, v, 4), 1.0), 1, False, True),
    "psf_sigma": (lambda v: DegradeParams(psf_sigma=v), 0, False, False),
    "noise_seed": (lambda v: DegradeParams(noise_seed=v), 0, False, True),
    "box_edge": (lambda v: ModelParams(box_edge=v), 0, True, False),
    "radius": (lambda v: ModelParams(radius=v), 0, True, False),
    "mean_length": (lambda v: ModelParams(mean_length=v), 0, True, False),
    "length_stddev": (lambda v: ModelParams(length_stddev=v), 0, False, False),
    "max_attempts": (lambda v: ModelParams(max_attempts=v), 0, False, True),
    "seed": (lambda v: ModelParams(seed=v), 0, False, True),
    "fiber radius": (lambda v: Fiber(1, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), v), 0, True, False),
    "fiber id": (lambda v: Fiber(v, (0.0, 0.0, 0.0), (10.0, 0.0, 0.0), 1.0), 1, False, True),
    "matrix_value": (lambda v: DegradeParams(matrix_value=v), None, True, False),
    "fiber level": (lambda v: rasterize_attenuation(_EMPTY_MODEL, _EMPTY_GRID, 2, (v, 1.0)),
                    None, True, False),
    "matrix level": (lambda v: rasterize_attenuation(_EMPTY_MODEL, _EMPTY_GRID, 2, (3.0, v)),
                     None, True, False),
    "alpha": (lambda v: VesselnessParams(alpha=v), 0, True, False),
    "beta": (lambda v: VesselnessParams(beta=v), 0, True, False),
    "c": (lambda v: VesselnessParams(c=v), 0, True, False),
    "scale": (lambda v: ScaleSet((v,)), 0, True, False),
    "threshold (region_grow)": (lambda v: region_grow(_EMPTY_VOLUME, _EMPTY_SEEDS, v),
                                None, True, False),
    "threshold (binarize)": (lambda v: check_binarize("fixed", v), None, True, False),
    "sigma_g": (lambda v: check_orientation(v, 1.0), 0, True, False),
    "rho": (lambda v: check_orientation(1.0, v), 0, True, False),
    "supersample": (lambda v: rasterize_attenuation(_EMPTY_MODEL, _EMPTY_GRID, v),
                    1, False, True),
    "n_angles (fbp)": (lambda v: simulate_fbp(_EMPTY_VOLUME, v), 1, False, True),
    "n_angles (radon)": (lambda v: radon_slice(np.zeros((4, 4)), v), 1, False, True),
    "sigma": (lambda v: gaussian_kernel(v), 0, True, False),
    "segments_per_circle": (lambda v: export_stl([], v), 3, False, True),
    "snr": (lambda v: DegradeParams(snr=v), 0, True, False),
    "target_fraction": (lambda v: ModelParams(target_fraction=v), 0, True, False),
}


def _numeric_cases():
    for site, (call, low, strict, integer) in NUMERIC_SETTINGS.items():
        name = site.split(" (")[0]
        bound = f"{name} must be {'>' if strict else '>='} {low}, got"
        values = {"nan": math.nan, "-inf": -math.inf, "inf": math.inf, "true": True, "text": "1"}
        if site == "snr":
            del values["inf"]  # no noise: test_infinite_snr_means_no_noise
        if low is not None:
            values["past"] = low - 1 if integer else float(low) if strict else low - 1e-9
        if integer:
            values["fraction"] = 2.5
        else:
            values["huge"] = 10**400  # an int no float64 holds
        for label, value in values.items():
            if integer and label != "past":
                message = f"{name} must be an integer, got {value!r}"
            elif label in ("true", "text"):
                message = f"{name} must be a number, got {value!r}"
            elif label in ("inf", "huge") or low is None:
                message = f"{name} must be finite, got {value}"
            else:
                message = f"{bound} {value}"
            yield pytest.param(call, value, message, id=f"{site}-{label}")


@pytest.mark.parametrize("call, value, message", _numeric_cases())
def test_numeric_settings_follow_one_rule(call, value, message):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message


@pytest.mark.parametrize("snr", [math.inf, np.float32("inf")], ids=["python", "numpy"])
def test_infinite_snr_means_no_noise(snr):
    v = Volume(GridSpec((4, 4, 4), 1.0), np.arange(64.0).reshape(4, 4, 4))
    assert np.array_equal(degrade(v, DegradeParams(psf_sigma=0.0, snr=snr)).data, v.data)


def test_degrade_cli_takes_infinite_snr(tmp_path):
    v = Volume(GridSpec((4, 4, 4), 1.0), np.arange(64.0).reshape(4, 4, 4))
    write_volume(v, tmp_path / "v")
    code, out, err = run_cli("degrade", "--set", "degrade.snr=Infinity",
                             "--set", "degrade.psf_sigma_um=0.0",
                             "--input", str(tmp_path / "v"), "--output", str(tmp_path / "out"))
    assert code == 0 and err == ""
    assert np.array_equal(read_volume(tmp_path / "out").data, v.data)


def test_target_fraction_below_one():
    with pytest.raises(ValueError, match=r"^target_fraction must be in \(0, 1\), got 1.0$"):
        ModelParams(target_fraction=1.0)


def test_integer_settings_have_no_upper_limit():
    assert ModelParams(seed=10**400).seed == 10**400


def test_config_file_number_past_float64_names_the_key(tmp_path):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"grid": {"voxel_size_um": 1' + "0" * 400 + "}}")
    message = f"config key 'grid.voxel_size_um' must be finite, got {10**400}"
    with pytest.raises(ValueError) as err:
        PipelineConfig.load(cfg)
    assert str(err.value) == message
    path = tmp_path / "fibers.csv"
    path.write_text(CSV_HEADER + "3,20,20,20,40,20,20,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers", str(path),
                             "--out-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.strip() == f"error stage=rasterize: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fibers.csv", "huge.json"]


def test_nan_psf_sigma_is_rejected(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match="^psf_sigma must be >= 0, got nan$"):
        DegradeParams(psf_sigma=math.nan)
    monkeypatch.setattr("fibervox.cli.degrade", _filter_must_not_run)
    write_volume(Volume(GridSpec((4, 4, 4), 1.0), np.ones((4, 4, 4))), tmp_path / "v")
    code, out, err = run_cli("degrade", "--set", "degrade.psf_sigma_um=NaN",
                             "--input", str(tmp_path / "v"), "--output", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=degrade: "
                           "config key 'degrade.psf_sigma_um' must be finite, got nan")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json", "v.raw"]


@pytest.mark.parametrize("build, message", [
    (lambda: check_orientation(math.inf, 1.0), "sigma_g must be finite, got inf"),
    (lambda: check_orientation(1.0, math.inf), "rho must be finite, got inf"),
    (lambda: ScaleSet((1.0, math.inf)), "scale must be finite, got inf"),
    (lambda: ScaleSet((math.nan,)), "scale must be > 0, got nan"),
    (lambda: VesselnessParams(alpha=math.inf), "alpha must be finite, got inf"),
    (lambda: VesselnessParams(beta=math.nan), "beta must be > 0, got nan"),
], ids=["sigma_g", "rho", "scales-inf", "scales-nan", "alpha", "beta"])
def test_segment_settings_must_be_finite(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("override, key", [
    ("segment.orientation_rho=Infinity", "segment.orientation_rho"),
    ("segment.scales=[1.0, Infinity]", "segment.scales[1]"),
    ("segment.alpha=Infinity", "segment.alpha"),
], ids=["rho", "scales", "alpha"])
def test_segment_cli_rejects_infinite_settings_before_filtering(tmp_path, monkeypatch,
                                                                override, key):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    _tube_gray(tmp_path)
    code, out, err = run_cli("segment", "--set", override, "--input", str(tmp_path / "gray"),
                             "--out-dir", str(tmp_path / "seg"),
                             "--orientation", str(tmp_path / "orient"))
    assert code == 1 and out == ""
    assert err.strip() == f"error stage=segment: config key '{key}' must be finite, got inf"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gray.json", "gray.raw"]


def test_segment_rejects_threshold_with_otsu_before_filtering(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    grid = GridSpec(dims=(6, 6, 6), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    code, out, err = run_cli("segment", "--set", "segment.threshold=0.5",
                             "--input", str(tmp_path / "gray"), "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error stage=segment: threshold = 0.5 is ignored by otsu")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gray.json", "gray.raw"]


def test_segment_orientation_into_missing_dir_fails_before_filtering(tmp_path, monkeypatch):
    monkeypatch.setattr("fibervox.cli.frangi_multiscale", _filter_must_not_run)
    grid = GridSpec(dims=(6, 6, 6), voxel_size=1.0)
    write_volume(Volume(grid=grid, data=np.ones(grid.dims)), tmp_path / "gray")
    stem = tmp_path / "no_such_dir" / "orient"
    code, out, err = run_cli("segment", "--input", str(tmp_path / "gray"),
                             "--out-dir", str(tmp_path / "seg"), "--orientation", str(stem))
    assert code == 1 and out == ""
    assert err.startswith(f"error stage=segment: failed to write '{stem}'")
    assert not (tmp_path / "seg").exists()
