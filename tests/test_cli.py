"""End-to-end exercises of the command line pipeline on a miniature model."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fibervox import ctsim
from fibervox.cli import main as cli_main
from fibervox.config import PipelineConfig
from fibervox.fibers import (FiberModel, generate_model, model_statistics, read_fibers_csv,
                             stats_document)
from fibervox.volume import GridSpec, LabelVolume, Volume, read_volume, write_volume


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


# 24 voxels at 3.9 um; short fibers so a few dozen pack in well under a second
TINY = {
    "model": {"box_edge": 93.6, "radius": 6.5, "mean_length": 40.0,
              "length_stddev": 8.0, "target_fraction": 0.04,
              "max_attempts": 3000, "seed": 0},
    "grid": {"dims": [24, 24, 24], "voxel_size_um": 3.9},
    "degrade": {"psf_sigma_um": 2.0, "snr": 100.0, "noise_seed": 0},
    "fbp": {"n_angles": 16},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    c = str(cfg_path)

    steps = [
        ("generate", "--config", c, "--out-dir", str(root), "--audit"),
        ("rasterize", "--config", c, "--fibers", str(root / "fibers.csv"),
         "--out-dir", str(root)),
        ("degrade", "--config", c, "--input", str(root / "atten"),
         "--output", str(root / "gray")),
        ("annotate", "--config", c, "--gray", str(root / "gray"),
         "--from-fibers", str(root / "fibers.csv"),
         "--output", str(root / "anno")),
        ("segment", "--config", c, "--input", str(root / "gray"),
         "--out-dir", str(root), "--orientation", str(root / "orient")),
        ("evaluate", "--config", c, "--truth", str(root / "gt"),
         "--pred", str(root / "pred"), "--output", str(root / "metrics.json")),
    ]
    lines = {}
    for step in steps:
        code, out, err = run_cli(*step)
        assert code == 0, f"{step[0]} failed: {err}"
        # evaluate prints the whole metrics document; other stages one line
        lines[step[0]] = json.loads(out)
    return root, cfg_path, lines


def test_stage_summaries(workdir):
    root, _, lines = workdir
    assert lines["generate"]["stage"] == "generate"
    assert lines["generate"]["fibers"] > 5
    assert 0.0 < lines["generate"]["volume_fraction"] < 0.1
    assert lines["rasterize"]["labeled_voxels"] > 0
    assert lines["annotate"]["chains"] == lines["generate"]["fibers"]
    assert lines["segment"]["components"] >= 1


def test_generate_artifacts(workdir):
    root, _, _ = workdir
    stats = json.loads((root / "stats.json").read_text())
    assert stats["audit"] == {"overlap_violations": 0, "out_of_bounds": 0}
    assert sum(stats["length_hist"]["counts"]) == stats["fiber_count"]
    assert (root / "model.stl").stat().st_size > 84
    header = (root / "fibers.csv").read_text().splitlines()[0]
    assert header.startswith("id,")


def test_volume_artifacts(workdir):
    root, _, _ = workdir
    gt = read_volume(root / "gt")
    atten = read_volume(root / "atten")
    gray = read_volume(root / "gray")
    assert isinstance(gt, LabelVolume) and isinstance(gray, Volume)
    assert gt.grid == atten.grid == gray.grid
    vals = np.unique(atten.data)
    assert vals.min() == np.float32(1.31) and vals.max() == np.float32(2.54)
    vess = read_volume(root / "vess")
    assert float(vess.data.min()) >= 0.0 and float(vess.data.max()) <= 1.0
    for suffix in (".ox.raw", ".oy.raw", ".oz.raw", ".valid.raw"):
        assert (Path(str(root / "orient") + suffix)).exists()


def test_rasterize_walks_each_fiber_box_once(tmp_path, monkeypatch):
    boxes = []
    distance_sq = ctsim._segment_point_dist_sq

    def counting(p0, axis, inv_len_sq, px, py, pz):
        if np.ndim(px) == 1:  # a fiber's voxel walk, not a chunk of its sub-samples
            boxes.append(tuple(p0.tolist()))
        return distance_sq(p0, axis, inv_len_sq, px, py, pz)

    monkeypatch.setattr(ctsim, "_segment_point_dist_sq", counting)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    (tmp_path / "fibers.csv").write_text("id,x0,y0,z0,x1,y1,z1,radius_um\n"
                                         "3,20,20,20,40,20,20,6.5\n5,20,60,60,60,60,60,6.5\n")
    code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers",
                             str(tmp_path / "fibers.csv"), "--out-dir", str(tmp_path))
    assert code == 0, err
    assert json.loads(out)["labeled_voxels"] > 0
    assert sorted(boxes) == [(20.0, 20.0, 20.0), (20.0, 60.0, 60.0)]


def test_metrics_output(workdir):
    root, _, _ = workdir
    report = json.loads((root / "metrics.json").read_text())
    assert 0.0 <= report["dice"] <= 1.0
    assert -0.5 <= report["ari"] <= 1.0
    # smoke-level sanity: the tiny phantom is easy, segmentation should
    # recover most of the foreground
    assert report["dice"] > 0.5


def test_generate_deterministic(workdir, tmp_path):
    root, cfg_path, _ = workdir
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, err = run_cli("generate", "--config", str(cfg_path),
                               "--out-dir", str(d))
        assert code == 0, err
    assert (a / "fibers.csv").read_bytes() == (b / "fibers.csv").read_bytes()
    assert (a / "fibers.csv").read_bytes() == (root / "fibers.csv").read_bytes()
    assert (a / "model.stl").read_bytes() == (b / "model.stl").read_bytes()


def test_seed_flag_matches_set_override(workdir, tmp_path):
    _, cfg_path, _ = workdir
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("generate", "--config", str(cfg_path), "--seed", "5", "--out-dir", str(a))
    run_cli("generate", "--config", str(cfg_path), "--set", "model.seed=5",
            "--out-dir", str(b))
    assert (a / "fibers.csv").read_bytes() == (b / "fibers.csv").read_bytes()
    base = Path(str(cfg_path)).parent / "fibers.csv"
    assert (a / "fibers.csv").read_bytes() != base.read_bytes()


def test_stats_from_fibers_and_labels(workdir, tmp_path):
    root, cfg_path, lines = workdir
    code, out, _ = run_cli("stats", "--config", str(cfg_path),
                           "--fibers", str(root / "fibers.csv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["fiber_count"] == lines["generate"]["fibers"]
    assert payload["length_hist"]["bin_um"] == 50.0

    out_path = tmp_path / "labstats.json"
    code, out, _ = run_cli("stats", "--config", str(cfg_path),
                           "--labels", str(root / "gt"), "--output", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload == json.loads(out)
    assert payload["fiber_count"] >= 1
    assert 0.0 < payload["foreground_fraction"] < 0.2
    assert sum(payload["theta_hist"]["counts"]) == payload["fiber_count"]


def test_stats_fibers_prints_model_statistics(workdir):
    root, cfg_path, _ = workdir
    code, out, _ = run_cli("stats", "--config", str(cfg_path),
                           "--fibers", str(root / "fibers.csv"))
    assert code == 0
    model = FiberModel(params=PipelineConfig.from_dict(TINY).model_params(),
                       fibers=read_fibers_csv(root / "fibers.csv"))
    assert json.loads(out) == model_statistics(model).to_dict()


def test_annotate_from_json_file(workdir, tmp_path):
    root, cfg_path, _ = workdir
    chains = [{"id": 1, "points": [[2, 2, 2], [2, 2, 20]]}]
    anno = tmp_path / "chains.json"
    anno.write_text(json.dumps(chains))
    code, out, err = run_cli("annotate", "--config", str(cfg_path),
                             "--gray", str(root / "gray"),
                             "--annotations", str(anno),
                             "--output", str(tmp_path / "lab"))
    assert code == 0, err
    assert json.loads(out)["chains"] == 1
    lab = read_volume(tmp_path / "lab")
    assert set(np.unique(lab.data)) <= {0, 1}


def test_fbp_with_sinogram_dump(workdir, tmp_path):
    root, cfg_path, _ = workdir
    sino_dir = tmp_path / "sinos"
    code, out, err = run_cli("fbp", "--config", str(cfg_path),
                             "--input", str(root / "atten"),
                             "--output", str(tmp_path / "recon"),
                             "--dump-sinograms", str(sino_dir))
    assert code == 0, err
    assert json.loads(out)["n_angles"] == 16
    recon = read_volume(tmp_path / "recon")
    assert recon.grid.dims == (24, 24, 24)
    meta = json.loads((sino_dir / "sino_z0000.json").read_text())
    assert meta["n_angles"] == 16
    assert len(list(sino_dir.glob("sino_z*.raw"))) == 24


def test_error_line_and_exit_code(workdir, tmp_path):
    root, cfg_path, _ = workdir
    # label volume fed to a gray-only stage
    code, out, err = run_cli("degrade", "--config", str(cfg_path),
                             "--input", str(root / "gt"),
                             "--output", str(tmp_path / "x"))
    assert code == 1 and out == ""
    assert err.startswith("error stage=degrade:")
    assert "holds labels" in err


def test_unknown_override_fails(tmp_path):
    code, _, err = run_cli("generate", "--set", "model.banana=1",
                           "--out-dir", str(tmp_path))
    assert code == 1
    assert "error stage=generate: unknown config key(s): model.banana" in err
    assert not (tmp_path / "fibers.csv").exists()


def test_evaluate_grid_mismatch(tmp_path):
    small = GridSpec(dims=(4, 4, 4), voxel_size=1.0)
    big = GridSpec(dims=(5, 4, 4), voxel_size=1.0)
    write_volume(LabelVolume(grid=small, data=np.ones(small.dims, dtype=np.uint32)),
                 tmp_path / "t")
    write_volume(LabelVolume(grid=big, data=np.ones(big.dims, dtype=np.uint32)),
                 tmp_path / "p")
    code, _, err = run_cli("evaluate", "--truth", str(tmp_path / "t"),
                           "--pred", str(tmp_path / "p"),
                           "--output", str(tmp_path / "m.json"))
    assert code == 1
    assert "(4, 4, 4)" in err and "(5, 4, 4)" in err
    assert not (tmp_path / "m.json").exists()


def test_failed_stage_cleans_partial_outputs(workdir, tmp_path):
    root, cfg_path, _ = workdir
    out_dir = tmp_path / "seg"
    code, _, err = run_cli("segment", "--config", str(cfg_path),
                           "--input", str(root / "gray"),
                           "--out-dir", str(out_dir),
                           "--orientation", str(tmp_path / "no_such_dir" / "orient"))
    assert code == 1
    assert err.startswith("error stage=segment:")
    # vess/mask/pred were written before the orientation write failed and
    # must have been removed again
    assert list(out_dir.glob("*.raw")) == []


def test_version_string():
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "fibervox.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("fibervox ")
    assert "volume format 1" in proc.stdout


def test_generate_reports_stop_reason(workdir):
    root, _, lines = workdir
    stats = json.loads((root / "stats.json").read_text())
    assert lines["generate"]["stop_reason"] == stats["stop_reason"]
    assert stats["stop_reason"] in {"target", "saturated", "no_length_fits"}


def test_generate_reports_stalled_fiber(tmp_path, workdir):
    cfg = {"model": {"box_edge": 60.0, "radius": 5.0, "mean_length": 40.0,
                     "length_stddev": 0.0, "target_fraction": 0.9,
                     "max_attempts": 500, "seed": 1}}
    cfg_path = tmp_path / "saturated.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli("generate", "--config", str(cfg_path), "--out-dir", str(tmp_path))
    assert code == 0, err
    summary = json.loads(out)
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert summary["stop_reason"] == stats["stop_reason"] == "saturated"
    assert summary["stalled"] == stats["stalled"]
    assert stats["stalled"]["length_um"] == 40.0
    # a run that meets its target names no stalled fiber
    root, _, lines = workdir
    assert lines["generate"]["stop_reason"] == "target"
    assert "stalled" not in lines["generate"]
    assert "stalled" not in json.loads((root / "stats.json").read_text())


def test_generate_summary_gives_the_audit_counts(tmp_path, workdir):
    root, cfg_path, lines = workdir
    stats = json.loads((root / "stats.json").read_text())
    assert lines["generate"]["audit"] == stats["audit"] \
        == {"overlap_violations": 0, "out_of_bounds": 0}
    code, out, err = run_cli("generate", "--config", str(cfg_path), "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "audit" not in json.loads(out)


def test_stats_json_is_the_stats_document(workdir):
    root, cfg_path, _ = workdir
    model = generate_model(PipelineConfig.load(cfg_path).model_params())
    document = json.loads(json.dumps(stats_document(model, audit=True)))
    assert json.loads((root / "stats.json").read_text()) == document
    assert "audit" not in stats_document(model)


def test_segment_summary_names_its_scales(workdir):
    _, _, lines = workdir
    # TINY keeps the desk radius and voxel size, so the derived scales are the desk ones
    assert lines["segment"]["scales"] == [1.0, 1.5, 2.0]


def test_stats_labels_one_voxel_component(tmp_path):
    grid = GridSpec(dims=(6, 6, 6), voxel_size=2.5)
    data = np.zeros(grid.dims, dtype=np.uint32)
    data[3, 3, 3] = 1
    write_volume(LabelVolume(grid=grid, data=data), tmp_path / "dot")
    code, out, err = run_cli("stats", "--labels", str(tmp_path / "dot"))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["fiber_count"] == 1
    assert payload["min_length_um"] == payload["max_length_um"] == 2.5
    # the axis is exactly +z: theta in the last bin, phi (no negative zeros) in the first
    assert payload["theta_hist"]["counts"][-1] == 1
    assert payload["phi_hist"]["counts"][0] == 1


def test_import_loads_the_package_and_its_eight_modules():
    import fibervox
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, fibervox; "
            "print(sorted(m for m in sys.modules if m.startswith('fibervox'))); "
            "print(fibervox.__version__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    modules, version = proc.stdout.splitlines()
    assert modules == str(["fibervox"] + [f"fibervox.{m}" for m in (
        "annotate", "config", "ctsim", "fibers", "mesh", "metrics", "vesselness", "volume")])
    assert version == fibervox.__version__ == "0.1.0"


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("FIBERVOX_SLOW") != "1",
                    reason="set FIBERVOX_SLOW=1 to run the table1 chain at 241^3 (~1 min, ~1 GB)")
def test_table1_chain_scales_and_dice(tmp_path):
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "table1.json")
    steps = [
        ("generate", "--config", cfg, "--out-dir", str(tmp_path)),
        ("rasterize", "--config", cfg, "--fibers", str(tmp_path / "fibers.csv"),
         "--out-dir", str(tmp_path)),
        ("degrade", "--config", cfg, "--input", str(tmp_path / "atten"),
         "--output", str(tmp_path / "gray")),
        ("segment", "--config", cfg, "--input", str(tmp_path / "gray"),
         "--out-dir", str(tmp_path)),
        ("evaluate", "--config", cfg, "--truth", str(tmp_path / "gt"),
         "--pred", str(tmp_path / "pred"), "--output", str(tmp_path / "metrics.json")),
    ]
    lines = {}
    for step in steps:
        code, out, err = run_cli(*step)
        assert code == 0, f"{step[0]} failed: {err}"
        lines[step[0]] = json.loads(out)
    # default_scales(6.5 um, 8.3 um): the fiber radius in voxels times 0.6, 0.9 and 1.2
    assert lines["segment"]["scales"] == [0.46988, 0.704819, 0.939759]
    assert lines["evaluate"]["dice"] >= 0.85
