"""The same config gives byte-identical artifacts: the whole command line
chain, run twice into separate directories, writes the same files."""

import json

from test_cli import TINY, run_cli


def run_chain(root):
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    c = str(cfg_path)
    steps = [
        ("generate", "--config", c, "--out-dir", str(root), "--audit"),
        ("rasterize", "--config", c, "--fibers", str(root / "fibers.csv"),
         "--out-dir", str(root)),
        ("degrade", "--config", c, "--input", str(root / "atten"),
         "--output", str(root / "gray")),
        ("fbp", "--config", c, "--input", str(root / "atten"),
         "--output", str(root / "recon"), "--dump-sinograms", str(root / "sinos")),
        ("annotate", "--config", c, "--gray", str(root / "gray"),
         "--from-fibers", str(root / "fibers.csv"), "--output", str(root / "anno")),
        ("segment", "--config", c, "--input", str(root / "gray"),
         "--out-dir", str(root), "--orientation", str(root / "orient")),
        ("evaluate", "--config", c, "--truth", str(root / "gt"),
         "--pred", str(root / "pred"), "--output", str(root / "metrics.json")),
        ("stats", "--config", c, "--labels", str(root / "gt"),
         "--output", str(root / "labstats.json")),
    ]
    summaries = []
    for step in steps:
        code, out, err = run_cli(*step)
        assert code == 0, f"{step[0]} failed: {err}"
        summaries.append(out)
    files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    return files, summaries


def test_every_cli_artifact_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    files_a, summaries_a = run_chain(a)
    files_b, summaries_b = run_chain(b)
    assert sorted(files_a) == sorted(files_b)
    differing = [str(name) for name in sorted(files_a) if files_a[name] != files_b[name]]
    assert differing == []
    assert summaries_a == summaries_b
    # the chain covers every artifact kind: volumes, the orientation field,
    # sinograms, the model files and the JSON reports
    names = {str(name) for name in files_a}
    assert {"fibers.csv", "model.stl", "stats.json", "gt.raw", "atten.raw", "gray.raw",
            "recon.raw", "anno.raw", "vess.raw", "mask.raw", "pred.raw",
            "orient.valid.raw", "metrics.json", "labstats.json",
            "sinos/sino_z0000.raw"} <= names
