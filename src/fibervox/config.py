"""Pipeline configuration: one JSON file covering every stage.

Defaults describe the desk-scale pipeline (128^3 grid at 3.9 um, box edge
matching the grid extent). Unknown keys anywhere in the file are rejected, as
are values of the wrong type. Dotted-path overrides (``model.seed=7``) come
from the command line with JSON-encoded values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .ctsim import DegradeParams
from .fibers import EPOXY_DENSITY, GLASS_DENSITY, ModelParams
from .vesselness import ScaleSet, VesselnessParams, default_scales
from .volume import GridSpec


def default_config() -> dict:
    return {
        "model": {
            "box_edge": 499.2,
            "radius": 6.5,
            "mean_length": 500.0,
            "length_stddev": 100.0,
            "target_fraction": 0.054,
            "max_attempts": 150000,
            "seed": 0,
        },
        "grid": {
            "dims": [128, 128, 128],
            "voxel_size_um": 3.9,
        },
        "raster": {
            "supersample": 3,
            "fiber_value": GLASS_DENSITY,
            "matrix_value": EPOXY_DENSITY,
        },
        "degrade": {
            "psf_sigma_um": 4.0,
            "snr": 20.0,
            "noise_seed": 0,
        },
        "fbp": {
            "n_angles": 400,
        },
        "annotate": {
            # Midway between the default matrix and fiber levels.
            "threshold": 1.925,
        },
        "segment": {
            # null: default_scales of model.radius and grid.voxel_size_um.
            "scales": None,
            "alpha": 0.5,
            "beta": 0.5,
            "c": None,
            "binarize": "otsu",
            "threshold": None,
            "polarity": "bright",
            "orientation_sigma_g": 1.0,
            "orientation_rho": 2.0,
        },
        "evaluate": {
            "ignore_background": True,
        },
    }


# Nullable keys hold floats when set, except these, which hold lists of floats.
_NULLABLE_LISTS = {"segment.scales"}


def _check_value(path: str, value, default) -> object:
    if value is None:
        if default is None:
            return None
        raise ValueError(f"config key '{path}' must not be null")
    if default is None:
        if path in _NULLABLE_LISTS:
            return _check_value(path, value, [0.0])
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key '{path}' must be a number or null")
        return _check_value(path, value, 0.0)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(f"config key '{path}' must be a boolean")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"config key '{path}' must be an integer")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key '{path}' must be a number")
        # json.loads reads NaN and +-Infinity; an infinite SNR means no noise.
        if not math.isfinite(value) and not (path == "degrade.snr" and value == math.inf):
            raise ValueError(f"config key '{path}' must be finite")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"config key '{path}' must be a string")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"config key '{path}' must be a list")
        # Each entry obeys the rule of the default's first entry.
        return [_check_value(f"{path}[{i}]", v, default[0]) for i, v in enumerate(value)]
    raise ValueError(f"config key '{path}' has unsupported type")


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    out = {}
    unknown = set(override) - set(base)
    if unknown:
        raise ValueError(f"unknown config key(s): "
                         + ", ".join(sorted(prefix + k for k in unknown)))
    for key, default in base.items():
        path = prefix + key
        if key not in override:
            out[key] = default
        elif isinstance(default, dict):
            if not isinstance(override[key], dict):
                raise ValueError(f"config key '{path}' must be an object")
            out[key] = _merge(default, override[key], path + ".")
        else:
            out[key] = _check_value(path, override[key], default)
    return out


@dataclass
class PipelineConfig:
    raw: dict = field(default_factory=default_config)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(raw=_merge(default_config(), data))

    @classmethod
    def load(cls, path: str | Path | None) -> "PipelineConfig":
        if path is None:
            return cls()
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"config file '{path}' not found") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file '{path}' is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file '{path}' must hold a JSON object")
        return cls.from_dict(data)

    def apply_overrides(self, overrides: list[str]) -> None:
        for item in overrides:
            if "=" not in item:
                raise ValueError(f"override '{item}' must look like section.key=JSONVALUE")
            key, _, raw_value = item.partition("=")
            parts = key.strip().split(".")
            if len(parts) != 2:
                raise ValueError(f"override key '{key}' must be section.key")
            try:
                value = json.loads(raw_value)
            except json.JSONDecodeError:
                raise ValueError(f"override value for '{key}' is not valid JSON: {raw_value!r}")
            section, leaf = parts
            if section not in self.raw:
                raise ValueError(f"unknown config key(s): {key}")
            self.raw[section] = _merge(default_config()[section],
                                       {**self.raw[section], leaf: value}, section + ".")

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    # Typed views consumed by the pipeline stages.

    def model_params(self) -> ModelParams:
        return ModelParams(**self.raw["model"])

    def grid_spec(self) -> GridSpec:
        g = self.raw["grid"]
        if len(g["dims"]) != 3:
            raise ValueError("config key 'grid.dims' must have 3 entries")
        return GridSpec(dims=tuple(g["dims"]), voxel_size=g["voxel_size_um"])

    def degrade_params(self) -> DegradeParams:
        d = self.raw["degrade"]
        return DegradeParams(psf_sigma=d["psf_sigma_um"], snr=d["snr"], noise_seed=d["noise_seed"],
                             matrix_value=self.raw["raster"]["matrix_value"])

    def scale_set(self) -> ScaleSet:
        scales = self.raw["segment"]["scales"]
        if scales is None:
            return default_scales(self.raw["model"]["radius"], self.raw["grid"]["voxel_size_um"])
        return ScaleSet(sigmas=tuple(scales))

    def vesselness_params(self) -> VesselnessParams:
        s = self.raw["segment"]
        return VesselnessParams(alpha=s["alpha"], beta=s["beta"], c=s["c"])
