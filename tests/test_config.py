import json
import math
import re
from pathlib import Path

import pytest

from fibervox.config import PipelineConfig, default_config
from fibervox.vesselness import ScaleSet, default_scales


def test_defaults_are_selfconsistent():
    cfg = PipelineConfig()
    mp = cfg.model_params()
    grid = cfg.grid_spec()
    # box edge equals the grid extent at desk scale
    assert mp.box_edge == pytest.approx(grid.extent[0])
    assert grid.dims == (128, 128, 128)
    dp = cfg.degrade_params()
    assert dp.psf_sigma == 4.0 and dp.snr == 20.0
    assert cfg.scale_set().sigmas == (1.0, 1.5, 2.0)
    vp = cfg.vesselness_params()
    assert vp.alpha == 0.5 and vp.beta == 0.5 and vp.c is None


def test_partial_config_merges_over_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"seed": 9}, "fbp": {"n_angles": 64}}))
    cfg = PipelineConfig.load(path)
    assert cfg.model_params().seed == 9
    assert cfg.raw["fbp"]["n_angles"] == 64
    # untouched sections keep their defaults
    assert cfg.raw["degrade"]["snr"] == 20.0


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config key.*model.bogus"):
        PipelineConfig.from_dict({"model": {"bogus": 1}})
    with pytest.raises(ValueError, match="unknown config key.*nonsense"):
        PipelineConfig.from_dict({"nonsense": {}})


def test_type_checks():
    with pytest.raises(ValueError, match="'model.seed' must be an integer"):
        PipelineConfig.from_dict({"model": {"seed": 1.5}})
    with pytest.raises(ValueError, match="'degrade.snr' must be a number"):
        PipelineConfig.from_dict({"degrade": {"snr": "loud"}})
    with pytest.raises(ValueError, match="'evaluate.ignore_background' must be a boolean"):
        PipelineConfig.from_dict({"evaluate": {"ignore_background": 1}})
    with pytest.raises(ValueError, match="'segment.scales' must be a list"):
        PipelineConfig.from_dict({"segment": {"scales": 2.0}})
    with pytest.raises(ValueError, match="'model' must be an object"):
        PipelineConfig.from_dict({"model": 3})
    with pytest.raises(ValueError, match="must not be null"):
        PipelineConfig.from_dict({"model": {"seed": None}})


def test_nullable_keys():
    cfg = PipelineConfig.from_dict({"segment": {"c": 2.5, "threshold": None}})
    assert cfg.raw["segment"]["c"] == 2.5
    assert cfg.raw["segment"]["threshold"] is None
    cfg2 = PipelineConfig.from_dict({"segment": {"c": None}})
    assert cfg2.raw["segment"]["c"] is None


def test_load_errors(tmp_path):
    with pytest.raises(ValueError, match="not found"):
        PipelineConfig.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ValueError, match="not valid JSON"):
        PipelineConfig.load(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        PipelineConfig.load(arr)
    assert PipelineConfig.load(None).raw == default_config()


def test_apply_overrides():
    cfg = PipelineConfig()
    cfg.apply_overrides(["model.seed=7", "degrade.snr=35.5",
                         "segment.binarize=\"fixed\"", "segment.threshold=0.4"])
    assert cfg.model_params().seed == 7
    assert cfg.degrade_params().snr == 35.5
    assert cfg.raw["segment"]["binarize"] == "fixed"
    assert cfg.raw["segment"]["threshold"] == 0.4


@pytest.mark.parametrize("override,msg", [
    ("model.seed", "must look like"),
    ("seed=3", "must be section.key"),
    ("model.seed=", "not valid JSON"),
    ("model.seed=abc", "not valid JSON"),
    ("model.nope=3", "unknown config key"),
    ("nope.seed=3", "unknown config key"),
    ("model.seed=true", "must be an integer"),
])
def test_apply_overrides_errors(override, msg):
    with pytest.raises(ValueError, match=msg):
        PipelineConfig().apply_overrides([override])


def test_to_json_roundtrip(tmp_path):
    cfg = PipelineConfig()
    cfg.apply_overrides(["model.seed=3"])
    path = tmp_path / "dump.json"
    path.write_text(cfg.to_json())
    again = PipelineConfig.load(path)
    assert again.raw == cfg.raw


def test_grid_dims_arity():
    with pytest.raises(ValueError, match="3 entries"):
        PipelineConfig.from_dict({"grid": {"dims": [4, 4]}}).grid_spec()


def test_scales_coerced_to_float():
    cfg = PipelineConfig.from_dict({"segment": {"scales": [1, 2]}})
    assert cfg.scale_set().sigmas == (1.0, 2.0)
    assert all(isinstance(s, float) for s in cfg.raw["segment"]["scales"])


def test_degrade_params_pull_levels_from_raster():
    cfg = PipelineConfig.from_dict({"raster": {"fiber_value": 3.0, "matrix_value": 1.0}})
    dp = cfg.degrade_params()
    assert dp.matrix_value == 1.0
    assert math.isfinite(dp.snr)


@pytest.mark.parametrize("dims, msg", [
    ([24.9, 24, 24], "'grid.dims\\[0\\]' must be an integer"),
    ([24, 24.0, 24], "'grid.dims\\[1\\]' must be an integer"),
    ([24, 24, True], "'grid.dims\\[2\\]' must be an integer"),
    ([24, "24", 24], "'grid.dims\\[1\\]' must be an integer"),
    ([24, None, 24], "'grid.dims\\[1\\]' must not be null"),
])
def test_int_list_entries_must_be_integers(dims, msg):
    with pytest.raises(ValueError, match=msg):
        PipelineConfig.from_dict({"grid": {"dims": dims}})
    with pytest.raises(ValueError, match=msg):
        PipelineConfig().apply_overrides([f"grid.dims={json.dumps(dims)}"])


def test_float_list_entries_accept_numbers_only():
    cfg = PipelineConfig.from_dict({"segment": {"scales": [1, 2.5]}})
    assert cfg.raw["segment"]["scales"] == [1.0, 2.5]
    with pytest.raises(ValueError, match="'segment.scales\\[1\\]' must be a number"):
        PipelineConfig.from_dict({"segment": {"scales": [1.0, "2"]}})
    with pytest.raises(ValueError, match="'segment.scales\\[0\\]' must be a number"):
        PipelineConfig.from_dict({"segment": {"scales": [False]}})
    assert PipelineConfig.from_dict({"grid": {"dims": [24, 32, 16]}}).grid_spec().dims == \
        (24, 32, 16)


def test_null_scales_derive_from_radius_and_voxel_size():
    table1 = Path(__file__).resolve().parents[1] / "configs" / "table1.json"
    assert PipelineConfig.load(table1).scale_set() == default_scales(6.5, 8.3)
    assert default_config()["segment"]["scales"] is None
    explicit = PipelineConfig.from_dict({"segment": {"scales": [1, 3]}})
    assert explicit.scale_set() == ScaleSet(sigmas=(1.0, 3.0))
    explicit.apply_overrides(["segment.scales=null"])
    assert explicit.scale_set() == default_scales(6.5, 3.9)


@pytest.mark.parametrize("segment, msg", [
    ({"scales": [1.0, None]}, "'segment.scales\\[1\\]' must not be null"),
    ({"c": [0.3]}, "'segment.c' must be a number or null"),
    ({"threshold": [0.5]}, "'segment.threshold' must be a number or null"),
])
def test_only_scales_is_a_nullable_list(segment, msg):
    with pytest.raises(ValueError, match=msg):
        PipelineConfig.from_dict({"segment": segment})


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    documented = []
    for row in section.splitlines():
        cells = row.split("|")
        if row.startswith("| `") and len(cells) == 4:
            name = re.fullmatch(r" `(\w+)` ", cells[1]).group(1)
            documented += [f"{name}.{key}" for key in re.findall(r"`(\w+)`", cells[2])]
    assert documented == [f"{name}.{key}" for name, keys in default_config().items()
                          for key in keys]


def _number_keys():
    """Every float key and nullable number key, with a scales entry standing
    for the list."""
    keys = [f"{section}.{key}" for section, entries in default_config().items()
            for key, value in entries.items()
            if value is None or (isinstance(value, float) and not isinstance(value, bool))]
    return [k for k in keys if k != "segment.scales"] + ["segment.scales[1]"]


@pytest.mark.parametrize("key", _number_keys())
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_float_keys_must_be_finite(key, value):
    if key == "degrade.snr" and value == math.inf:
        # An infinite SNR means no noise.
        assert PipelineConfig.from_dict({"degrade": {"snr": value}}).degrade_params().snr == value
        return
    section, leaf = key.split(".")
    override = [1.0, value] if leaf == "scales[1]" else value
    leaf = leaf.removesuffix("[1]")
    with pytest.raises(ValueError, match=f"^config key '{re.escape(key)}' must be finite$"):
        PipelineConfig.from_dict({section: {leaf: override}})
    text = json.dumps(override)
    with pytest.raises(ValueError, match=f"^config key '{re.escape(key)}' must be finite$"):
        PipelineConfig().apply_overrides([f"{section}.{leaf}={text}"])

