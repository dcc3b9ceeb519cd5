"""Workloads of the fibervox benchmark and the pipeline pass they run.

A pass drives the public fibervox functions in the order of the CLI chain
(generate -> rasterize -> degrade / fbp -> annotate -> segment -> evaluate).
Every volume goes from one stage to the next through write_volume and
read_volume in the pass's own directory, as the CLI chain does through
files, and every read is checked against what was written.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fibervox import annotate, ctsim, fibers, mesh, metrics, vesselness, volume
from fibervox.config import PipelineConfig


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None          # config file relative to the repo root
    overrides: tuple[str, ...]  # --set style overrides on top of it
    pack: str                   # where generate_model runs: prologue or pass
    volumes: bool               # run rasterize .. evaluate in the pass
    fbp_slices: int             # z-slab thickness of the fbp stage; 0 skips it
    orientation: bool           # segment --orientation
    tiny: tuple[str, ...]       # overrides for the 24^3 self-check


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "desk": Workload(
        name="desk", config=None, overrides=(), pack="prologue", volumes=True,
        fbp_slices=8, orientation=True,
        tiny=("grid.dims=[24,24,24]", "model.box_edge=93.6", "model.mean_length=40.0",
              "model.length_stddev=8.0", "model.max_attempts=2000", "fbp.n_angles=24")),
    "table1-pack": Workload(
        name="table1-pack", config="configs/table1.json",
        overrides=("model.target_fraction=0.03",), pack="pass", volumes=False,
        fbp_slices=0, orientation=False,
        tiny=("model.box_edge=199.2", "model.mean_length=50.0", "model.length_stddev=10.0",
              "model.max_attempts=2000")),
}


def load_config(root: Path, w: Workload, seed: int, tiny: bool) -> PipelineConfig:
    """The workload's config with ``seed`` applied like the CLI's --seed."""
    cfg = PipelineConfig.load(root / w.config if w.config else None)
    cfg.apply_overrides(list(w.overrides) + (list(w.tiny) if tiny else []))
    cfg.raw["model"]["seed"] = seed
    cfg.raw["degrade"]["noise_seed"] = seed
    return cfg


class Checks:
    """Correctness checks; failed / attempted is the error rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


class Artifacts:
    """One pass's output directory. Volumes written with `save` are checked
    on every `load`: same class, grid and dtype, finite, and bit-identical."""

    def __init__(self, path: Path, checks: Checks):
        self.dir = path
        self.dir.mkdir(parents=True)
        self.checks = checks
        self.written: dict[str, object] = {}
        self.loaded: set[str] = set()
        self.orientation = None

    def save(self, vol, name: str) -> None:
        volume.write_volume(vol, self.dir / name)
        self.written[name] = vol

    def load(self, name: str):
        back = volume.read_volume(self.dir / name)
        ref = self.written[name]
        ok = (type(back) is type(ref) and back.grid == ref.grid
              and back.data.dtype == ref.data.dtype and back.data.shape == ref.grid.dims
              and bool(np.isfinite(back.data).all())
              and np.array_equal(back.data.view(np.uint32), ref.data.view(np.uint32)))
        self.checks.check(f"volume {name} reads back identical", ok)
        self.loaded.add(name)
        return back

    def load_unread(self) -> None:
        """Read back, once, each volume no later stage read."""
        for name in sorted(set(self.written) - self.loaded):
            self.load(name)

    def digest(self) -> tuple[str, int]:
        """SHA-256 over every file's name and bytes, and the total bytes."""
        h = hashlib.sha256()
        total = 0
        for path in sorted(self.dir.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                h.update(str(path.relative_to(self.dir)).encode() + b"\0")
                h.update(data)
                total += len(data)
        return h.hexdigest(), total


def model_fields(model) -> dict:
    """Result fields of a packed model."""
    return {"fibers": len(model.fibers), "attempts": model.attempts_used,
            "vf": model.volume_fraction}


def generate_outputs(cfg: PipelineConfig, model, out: Path, checks: Checks) -> None:
    """What `fibervox generate --audit` writes after packing: fibers.csv,
    model.stl and stats.json with the audit."""
    stats = fibers.model_statistics(model)
    fibers.write_fibers_csv(model.fibers, out / "fibers.csv")
    triangles = mesh.write_stl(model, out / "model.stl", 24)
    stl_size = (out / "model.stl").stat().st_size
    checks.check("stl size", stl_size == 84 + 50 * triangles, f"{stl_size} bytes")
    audit = fibers.audit_model(model)
    checks.check("audit", audit == {"overlap_violations": 0, "out_of_bounds": 0}, str(audit))
    payload = stats.to_dict()
    payload["attempts_used"] = model.attempts_used
    payload["audit"] = audit
    (out / "stats.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_pass(w: Workload, cfg: PipelineConfig, model, art: Artifacts, checks: Checks) -> dict:
    """One pass of the workload's stages. ``model`` is the packed model when
    packing happened before the pass. Returns the pass's result fields."""
    if w.pack == "pass":
        model = fibers.generate_model(cfg.model_params())
    generate_outputs(cfg, model, art.dir, checks)
    csv_path = art.dir / "fibers.csv"
    result = model_fields(model)
    if not w.volumes:
        return result

    # rasterize
    fiber_list = fibers.read_fibers_csv(csv_path)
    checks.check("fibers.csv reads back", len(fiber_list) == len(model.fibers))
    grid = cfg.grid_spec()
    raster = cfg.raw["raster"]
    fmodel = fibers.FiberModel(params=cfg.model_params(), fibers=fiber_list)
    labels, conflicts = ctsim.rasterize_labels(fmodel, grid)
    checks.check("rasterize conflicts", conflicts == 0, f"{conflicts} conflicts")
    atten = ctsim.rasterize_attenuation(fmodel, grid, supersample=raster["supersample"],
                                        levels=(raster["fiber_value"], raster["matrix_value"]))
    art.save(labels, "gt")
    art.save(atten, "atten")

    # degrade
    art.save(ctsim.degrade(art.load("atten"), cfg.degrade_params()), "gray")

    # fbp on a centered z-slab of the attenuation volume
    if w.fbp_slices:
        atten = art.load("atten")
        nx, ny, nz = grid.dims
        depth = min(w.fbp_slices, nz)
        z0 = (nz - depth) // 2
        slab = volume.Volume(grid=volume.GridSpec((nx, ny, depth), grid.voxel_size),
                             data=atten.data[:, :, z0:z0 + depth])
        art.save(ctsim.simulate_fbp(slab, cfg.raw["fbp"]["n_angles"]), "fbp")

    # annotate --from-fibers
    gray = art.load("gray")
    chains = annotate.annotations_from_fibers(fibers.read_fibers_csv(csv_path), gray.grid)
    seeds, _ = annotate.render_polylines(chains, gray.grid)
    art.save(annotate.region_grow(gray, seeds, cfg.raw["annotate"]["threshold"]), "ann")

    # segment
    seg = cfg.raw["segment"]
    gray = art.load("gray")
    response = vesselness.frangi_multiscale(gray, cfg.scale_set(), cfg.vesselness_params())
    mask = vesselness.binarize(response, method=seg["binarize"], threshold=seg["threshold"])
    instances = vesselness.connected_components(mask)
    art.save(response, "vess")
    art.save(mask, "mask")
    art.save(instances, "pred")
    if w.orientation:
        field = vesselness.structure_tensor_orientation(gray, seg["orientation_sigma_g"],
                                                        seg["orientation_rho"])
        vesselness.write_orientation_field(field, art.dir / "orient")
        art.orientation = field

    # evaluate
    report = metrics.evaluate(art.load("gt").data, art.load("pred").data,
                              ignore_background=cfg.raw["evaluate"]["ignore_background"])
    (art.dir / "metrics.json").write_text(json.dumps(report.to_dict(), indent=2,
                                                     sort_keys=True) + "\n")
    result.update(dice=report.dice, ari=report.ari,
                  components=int(instances.data.max(initial=0)))
    return result


def check_outputs(w: Workload, art: Artifacts, result: dict, checks: Checks) -> None:
    """After a pass, outside its timing: read back what no stage read and
    add the answer fields that compare outputs with the ground truth."""
    if not w.volumes:
        return
    art.load_unread()
    field = art.orientation
    if field is not None:
        back = vesselness.read_orientation_field(art.dir / "orient")
        checks.check("orientation field reads back identical",
                     np.array_equal(back.axes.view(np.uint32), field.axes.view(np.uint32))
                     and np.array_equal(back.valid, field.valid))
    truth = art.written["gt"].data != 0
    grown = art.written["ann"].data != 0
    result["annotate_dice"] = 2.0 * np.count_nonzero(truth & grown) / max(
        1, np.count_nonzero(truth) + np.count_nonzero(grown))
    if "fbp" in art.written:
        recon = art.written["fbp"].data.astype(np.float64)
        atten = art.written["atten"].data
        nx, ny, depth = recon.shape
        z0 = (atten.shape[2] - depth) // 2
        ref = atten[:, :, z0:z0 + depth].astype(np.float64)
        xx, yy = np.meshgrid(np.arange(nx) - (nx - 1) / 2, np.arange(ny) - (ny - 1) / 2,
                             indexing="ij")
        disk = xx**2 + yy**2 <= (min(nx, ny) / 2) ** 2
        result["fbp_rmse"] = float(np.sqrt(np.mean((recon - ref)[disk] ** 2)))


def alloc_peaks(cfg: PipelineConfig, art: Artifacts) -> dict:
    """Peak bytes (MB) that tracemalloc sees allocated during Frangi and
    during evaluate, each in its own call on the last pass's volumes.
    Kept out of the timed and traced passes: tracemalloc slows packing ~4x."""
    gray = art.load("gray")
    truth = art.load("gt").data
    pred = art.load("pred").data
    calls = {
        "frangi_multiscale.peak_alloc_mb": lambda: vesselness.frangi_multiscale(
            gray, cfg.scale_set(), cfg.vesselness_params()),
        "evaluate.peak_alloc_mb": lambda: metrics.evaluate(
            truth, pred, ignore_background=cfg.raw["evaluate"]["ignore_background"]),
    }
    peaks = {}
    for key, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[key] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks
