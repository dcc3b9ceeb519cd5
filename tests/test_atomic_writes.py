"""Every writer moves whole files into place: a failed write keeps the
previous files byte-equal and leaves no temporary file behind, and a failed
or interrupted command-line stage removes the files it wrote and never one it
failed to replace."""

import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from fibervox.annotate import PolylineAnnotation, write_annotations
from fibervox.ctsim import Sinogram, write_sinogram
from fibervox.fibers import Fiber, write_fibers_csv
from fibervox.mesh import write_stl
from fibervox.vesselness import OrientationField, write_orientation_field
from fibervox.volume import WRITTEN, GridSpec, LabelVolume, Volume, write_files, write_volume
from test_cli import TINY, run_cli

GRID = GridSpec((6, 6, 6), 1.0)


def disk_full(path, data):
    # half the payload reaches the disk, then the device is full
    with open(path, "wb") as f:
        f.write(data[: len(data) // 2])
    raise OSError(28, "No space left on device")


def files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in d.iterdir() if p.is_file()}


def fibers(v: float) -> list:
    return [Fiber(1, (10.0, 10.0, 10.0), (40.0 + v, 12.0, 10.0), 3.0),
            Fiber(2, (10.0, 30.0, 10.0), (12.0, 30.0, 40.0 + v), 3.0)]


def orientation(v: float) -> OrientationField:
    axes = np.zeros(GRID.dims + (3,), np.float32)
    axes[..., 0] = v / (1.0 + v)
    return OrientationField(GRID, axes, axes[..., 0] > 0.6)


WRITERS = {
    "stl": lambda d, v: write_stl(fibers(v), d / "model.stl", 6),
    "csv": lambda d, v: write_fibers_csv(fibers(v), d / "fibers.csv"),
    "annotations": lambda d, v: write_annotations(
        [PolylineAnnotation(1, [(0, 0, 0), (int(v) + 1, 2, 3)])], d / "chains.json"),
    "sinogram": lambda d, v: write_sinogram(
        Sinogram(np.linspace(0, np.pi, 4, endpoint=False), np.full((4, 5), v)), d / "sino"),
    "orientation": lambda d, v: write_orientation_field(orientation(v), d / "orient"),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_disk_full_keeps_previous_files(tmp_path, monkeypatch, writer):
    WRITERS[writer](tmp_path, 1.0)
    before = files(tmp_path)
    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(OSError, match="failed to write .*No space left"):
        WRITERS[writer](tmp_path, 2.0)
    monkeypatch.undo()
    assert files(tmp_path) == before
    WRITERS[writer](tmp_path, 2.0)
    assert files(tmp_path).keys() == before.keys() and files(tmp_path) != before


def test_orientation_field_returns_its_eight_files(tmp_path):
    written = write_orientation_field(orientation(1.0), tmp_path / "o")
    assert sorted(p.name for p in written) == sorted(
        f"o.{part}.{ext}" for part in ("ox", "oy", "oz", "valid") for ext in ("json", "raw"))
    assert sorted(files(tmp_path)) == sorted(p.name for p in written)


def _labels(tmp_path):
    data = np.zeros(GRID.dims, np.uint32)
    data[1:3, 1:3, 1:5] = 1
    write_volume(LabelVolume(GRID, data), tmp_path / "gt")
    return str(tmp_path / "gt")


@pytest.mark.parametrize("argv", [
    ("evaluate", "--truth", "{gt}", "--pred", "{gt}", "--output", "{out}"),
    ("stats", "--labels", "{gt}", "--output", "{out}"),
], ids=["evaluate", "stats"])
def test_cli_json_disk_full_keeps_previous_document(tmp_path, monkeypatch, argv):
    gt, out = _labels(tmp_path), tmp_path / "doc.json"
    out.write_text('{"previous": true}\n')
    before = files(tmp_path)
    monkeypatch.setattr(Path, "write_bytes", disk_full)
    code, stdout, err = run_cli(*(a.format(gt=gt, out=out) for a in argv))
    monkeypatch.undo()
    assert code == 1 and stdout == ""
    assert err.startswith(f"error stage={argv[0]}: failed to write '{out}'")
    assert files(tmp_path) == before


def _gray(tmp_path, name="gray"):
    x = np.arange(6, dtype=np.float64)
    tube = np.exp(-(x[:, None, None] - 2.5) ** 2 - (x[None, :, None] - 2.5) ** 2)
    data = np.broadcast_to(tube, GRID.dims)
    write_volume(Volume(GRID, data), tmp_path / name)
    return str(tmp_path / name)


def test_degrade_onto_existing_volume_keeps_it_when_replace_fails(tmp_path, monkeypatch):
    gray = _gray(tmp_path)
    _gray(tmp_path, "old")
    before = files(tmp_path)

    def replace_disk_full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace_disk_full)
    code, _, err = run_cli("degrade", "--input", gray, "--output", str(tmp_path / "old"))
    monkeypatch.undo()
    assert code == 1
    assert err.startswith("error stage=degrade: failed to write")
    assert files(tmp_path) == before


def test_files_moved_before_a_failure_count_as_written(tmp_path, monkeypatch):
    gray = _gray(tmp_path)
    real_replace = os.replace

    def replace_json_only(src, dst):
        if str(dst).endswith(".raw"):
            raise OSError(5, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_json_only)
    record = []
    token = WRITTEN.set(record)
    try:
        with pytest.raises(OSError, match="failed to write"):
            write_files({tmp_path / "a.json": b"{}", tmp_path / "a.raw": b"\0"}, "a")
    finally:
        WRITTEN.reset(token)
    assert record == [tmp_path / "a.json"]
    code, _, err = run_cli("degrade", "--input", gray, "--output", str(tmp_path / "new"))
    monkeypatch.undo()
    assert code == 1 and err.startswith("error stage=degrade: failed to write")
    # new.json was moved into place before new.raw failed, so cleanup removed it
    assert sorted(files(tmp_path)) == ["a.json", "gray.json", "gray.raw"]


def _replace_failing_for(name):
    """An ``os.replace`` that fails with EIO for a destination named ``name``."""
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError(5, "Input/output error")
        real_replace(src, dst)
    return replace


def test_generate_failing_on_stats_removes_csv_and_stl(tmp_path, monkeypatch):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    out_dir = tmp_path / "gen"
    monkeypatch.setattr(os, "replace", _replace_failing_for("stats.json"))
    code, _, err = run_cli("generate", "--config", str(cfg), "--out-dir", str(out_dir))
    monkeypatch.undo()
    assert code == 1
    assert err.startswith(f"error stage=generate: failed to write '{out_dir / 'stats.json'}'")
    assert not out_dir.exists()


def test_fbp_failing_on_recon_removes_dumped_sinograms(tmp_path, monkeypatch):
    gray = _gray(tmp_path)
    sino_dir = tmp_path / "sinos"
    monkeypatch.setattr(os, "replace", _replace_failing_for("recon.raw"))
    code, _, err = run_cli("fbp", "--set", "fbp.n_angles=8", "--input", gray,
                           "--output", str(tmp_path / "recon"), "--dump-sinograms", str(sino_dir))
    monkeypatch.undo()
    assert code == 1 and err.startswith("error stage=fbp: failed to write")
    assert not sino_dir.exists()
    assert sorted(files(tmp_path)) == ["gray.json", "gray.raw"]


def test_failed_stage_keeps_an_existing_out_dir_and_its_files(tmp_path, monkeypatch):
    # gen/ existed before the stage, so only the stage's own directories go:
    # gen/ stays with its unrelated file, and the nested one it made is removed
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    out_dir = tmp_path / "gen"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("keep me\n")
    monkeypatch.setattr(os, "replace", _replace_failing_for("stats.json"))
    for target in (out_dir, out_dir / "a" / "b"):
        code, _, _ = run_cli("generate", "--config", str(cfg), "--out-dir", str(target))
        assert code == 1
    monkeypatch.undo()
    assert [p.name for p in out_dir.iterdir()] == ["notes.txt"]
    assert (out_dir / "notes.txt").read_text() == "keep me\n"


def test_written_record_is_unset_outside_a_stage(tmp_path, monkeypatch):
    gray = _gray(tmp_path)
    assert WRITTEN.get(None) is None
    assert run_cli("degrade", "--input", gray, "--output", str(tmp_path / "d"))[0] == 0
    assert WRITTEN.get(None) is None
    # a library write between stages is recorded by neither stage, so the
    # cleanup of a later failed stage (e.json written, e.raw failed) spares it
    write_volume(Volume(GRID, np.ones(GRID.dims)), tmp_path / "lib")
    monkeypatch.setattr(os, "replace", _replace_failing_for("e.raw"))
    code, _, _ = run_cli("degrade", "--input", gray, "--output", str(tmp_path / "e"))
    monkeypatch.undo()
    assert code == 1 and WRITTEN.get(None) is None
    assert sorted(files(tmp_path)) == ["d.json", "d.raw", "gray.json", "gray.raw",
                                       "lib.json", "lib.raw"]


def test_segment_orientation_into_missing_dir_removes_all_segment_outputs(tmp_path):
    gray = _gray(tmp_path)
    out_dir = tmp_path / "seg"
    code, _, err = run_cli("segment", "--input", gray, "--out-dir", str(out_dir),
                           "--orientation", str(tmp_path / "no_such_dir" / "orient"))
    assert code == 1
    assert err.startswith("error stage=segment: failed to write")
    assert not out_dir.exists()


@pytest.mark.parametrize("replace_call", [3, 4], ids=["before-atten", "between-atten-files"])
@pytest.mark.parametrize("interrupt", ["ctrl-c", "sigterm"])
def test_interrupted_stage_leaves_no_output(tmp_path, monkeypatch, interrupt, replace_call):
    # rasterize moves gt.json, gt.raw, atten.json and atten.raw into place, in
    # that order; the interrupt comes instead of the given move
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    (tmp_path / "fibers.csv").write_text("id,x0,y0,z0,x1,y1,z1,radius_um\n"
                                         "3,20,20,20,40,20,20,6.5\n")
    out_dir = tmp_path / "out"
    real_replace, calls = os.replace, []

    def interrupted_replace(src, dst):
        calls.append(dst)
        if len(calls) < replace_call:
            return real_replace(src, dst)
        if interrupt == "ctrl-c":
            raise KeyboardInterrupt
        os.kill(os.getpid(), signal.SIGTERM)

    def sigterm_escaped(signum, frame):
        pytest.fail("SIGTERM reached the handler outside the stage")

    # without the stage's own handler, a SIGTERM fails this test, not the run
    previous = signal.signal(signal.SIGTERM, sigterm_escaped)
    monkeypatch.setattr(os, "replace", interrupted_replace)
    try:
        code, out, err = run_cli("rasterize", "--config", str(cfg), "--fibers",
                                 str(tmp_path / "fibers.csv"), "--out-dir", str(out_dir))
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped the stage")
    finally:
        monkeypatch.undo()
        handler = signal.signal(signal.SIGTERM, previous)
    assert handler is sigterm_escaped
    assert len(calls) == replace_call
    assert code == 1 and out == ""
    assert err.strip() == ("error stage=rasterize: "
                           + ("KeyboardInterrupt" if interrupt == "ctrl-c"
                              else "interrupted by SIGTERM"))
    assert not out_dir.exists()
