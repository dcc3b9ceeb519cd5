"""Top-level acceptance gate.

Each test covers one release criterion end to end and records a single
``[acceptance] <name>: PASS/FAIL`` line (replayed in the terminal summary by
conftest.py). The packing criterion runs the full production-scale model and
dominates the runtime of this file (about two minutes).
"""

import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fibervox.annotate import (annotations_from_fibers, bresenham3d, region_grow,
                               render_polylines)
from fibervox.cli import main as cli_main
from fibervox.config import PipelineConfig
from fibervox.ctsim import fbp_slice, radon_slice, rasterize_attenuation, rasterize_labels
from fibervox.fibers import (ModelParams, audit_model, generate_model,
                             model_statistics, weight_fraction, write_fibers_csv)
from fibervox.mesh import export_stl, read_stl_triangles
from fibervox.metrics import adjusted_rand_index, dice
from fibervox.vesselness import (ScaleSet, VesselnessParams, binarize,
                                 frangi_multiscale, hessian_at_scale,
                                 _eig3_symmetric)
from fibervox.volume import GridSpec, LabelVolume, Volume, read_volume, write_volume
from fibervox.ctsim import degrade

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def record(request):
    def _check(name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"[acceptance] {name}: {verdict}"
        if detail:
            line += f" -- {detail}"
        request.config.acceptance_lines.append(line)
        print(line)
        assert ok, line
    return _check


def test_01_packing_volume_fraction(record):
    cfg = PipelineConfig.load(REPO / "configs" / "table1.json")
    params = cfg.model_params()
    assert (params.box_edge, params.radius) == (2000.0, 6.5)
    assert (params.mean_length, params.length_stddev) == (500.0, 100.0)
    assert params.target_fraction == 0.054 and params.max_attempts == 150_000

    t0 = time.perf_counter()
    model = generate_model(params)
    elapsed = time.perf_counter() - t0
    stats = model_statistics(model)
    audit = audit_model(model)

    vf_ok = 0.049 <= stats.volume_fraction <= 0.059
    audit_ok = audit == {"overlap_violations": 0, "out_of_bounds": 0}
    mean_ok = abs(stats.mean_length - 500.0) <= 15.0
    bracket_ok = stats.min_length >= 100.0 and stats.max_length <= 950.0
    time_ok = elapsed <= 600.0
    count_band = abs(stats.fiber_count - 6628) <= 0.25 * 6628  # informational

    record("packing volume fraction", vf_ok and audit_ok and mean_ok
           and bracket_ok and time_ok,
           f"vf={stats.volume_fraction:.4f} n={stats.fiber_count}"
           f" (count band 6628 +-25%: {'in' if count_band else 'out'})"
           f" mean={stats.mean_length:.1f} min={stats.min_length:.1f}"
           f" max={stats.max_length:.1f} audit={audit} t={elapsed:.0f}s")


def test_02_weight_fraction(record):
    wf = weight_fraction(0.054, fiber_density=2.54, matrix_density=1.31)
    ok = abs(wf - 0.0997) <= 0.0005
    record("weight fraction consistency", ok, f"wf={wf:.4%}")


def test_03_baseline_segmentation(record):
    cfg = PipelineConfig()  # desk defaults: 128^3 at 3.9 um, psf 4 um, snr 20
    t0 = time.perf_counter()
    model = generate_model(cfg.model_params())
    grid = cfg.grid_spec()
    labels, _ = rasterize_labels(model, grid)
    atten = rasterize_attenuation(model, grid, supersample=3, levels=(2.54, 1.31))
    gray = degrade(atten, cfg.degrade_params())
    response = frangi_multiscale(gray, cfg.scale_set(), cfg.vesselness_params())
    mask = binarize(response, method="otsu")
    score = dice((labels.data > 0).astype(np.uint32), mask.data)
    elapsed = time.perf_counter() - t0
    ok = score >= 0.60 and elapsed <= 120.0
    record("baseline segmentation dice", ok, f"dice={score:.3f} t={elapsed:.0f}s")


def _pair_counts(t, p):
    st = t[:, None] == t[None, :]
    sp = p[:, None] == p[None, :]
    iu = np.triu_indices(t.size, k=1)
    st, sp = st[iu], sp[iu]
    return (int(np.count_nonzero(st & sp)), int(np.count_nonzero(st & ~sp)),
            int(np.count_nonzero(~st & sp)), int(np.count_nonzero(~st & ~sp)))


def _ari_all_pairs(truth, pred, ignore_background):
    t = truth.ravel(order="F").astype(np.int64)
    p = pred.ravel(order="F").astype(np.int64)
    if ignore_background:
        keep = t != 0
        t, p = t[keep], p[keep]
    a, b, c, _ = _pair_counts(t, p)
    pairs = t.size * (t.size - 1) // 2
    t1, t2 = a + b, a + c
    num = 2 * (a * pairs - t1 * t2)
    den = (t1 + t2) * pairs - 2 * t1 * t2
    if den == 0:
        return 1.0 if t1 == t2 == a else 0.0
    return num / den


def test_04_metric_oracles(record):
    rng = np.random.default_rng(1234)
    worst = 0.0
    dice_exact = True
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(2, 7, size=3))
        t = rng.integers(0, rng.integers(2, 5), size=dims).astype(np.uint32)
        p = rng.integers(0, rng.integers(2, 5), size=dims).astype(np.uint32)
        ig = bool(rng.integers(0, 2))
        try:
            got = adjusted_rand_index(t, p, ignore_background=ig)
        except ValueError:
            # fewer than two foreground voxels in the scoring domain
            continue
        worst = max(worst, abs(got - _ari_all_pairs(t, p, ig)))

        tb, pb = (t > 0).astype(np.uint32), (p > 0).astype(np.uint32)
        fa = set(zip(*np.nonzero(tb)))
        fb = set(zip(*np.nonzero(pb)))
        total = len(fa) + len(fb)
        want = 1.0 if total == 0 else 2.0 * len(fa & fb) / total
        dice_exact &= dice(tb, pb) == want

    hand_t = np.array([1, 1, 2, 2], dtype=np.uint32).reshape(4, 1, 1)
    hand_p = np.array([1, 2, 1, 2], dtype=np.uint32).reshape(4, 1, 1)
    hand = adjusted_rand_index(hand_t, hand_p, ignore_background=False)
    ident = adjusted_rand_index(hand_t, hand_t, ignore_background=False)
    relab = adjusted_rand_index(hand_t, 3 - hand_t, ignore_background=False)
    self_dice = dice((hand_t > 1).astype(np.uint32), (hand_t > 1).astype(np.uint32))

    ok = (worst <= 1e-12 and dice_exact and hand == -0.5
          and ident == 1.0 and relab == 1.0 and self_dice == 1.0)
    record("metric oracle equivalence", ok,
           f"max ARI deviation={worst:.2e} hand={hand}")


def _tube(n=31, width=3.0):
    ax = np.arange(n) - n // 2
    yy, zz = np.meshgrid(ax, ax, indexing="ij")
    profile = np.exp(-(yy ** 2 + zz ** 2) / (2 * width ** 2))
    return np.broadcast_to(profile, (n, n, n)).astype(np.float64).copy()


def _plate(n=31, width=3.0):
    ax = np.arange(n) - n // 2
    profile = np.exp(-(ax ** 2) / (2 * width ** 2))
    return np.broadcast_to(profile[None, None, :], (n, n, n)).copy()


def _blob(n=31, width=3.0):
    ax = np.arange(n) - n // 2
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.exp(-(xx ** 2 + yy ** 2 + zz ** 2) / (2 * width ** 2))


def test_05_vesselness_analytic_suite(record):
    grid = GridSpec(dims=(31, 31, 31), voxel_size=1.0)
    vol = lambda d: Volume(grid=grid, data=d.astype(np.float32))
    scales = ScaleSet(sigmas=(3.0,))
    fixed = VesselnessParams(alpha=0.5, beta=0.5, c=0.25)
    defaults = VesselnessParams()
    mid = (15, 15, 15)

    zero = frangi_multiscale(vol(np.zeros((31, 31, 31))), scales, defaults)
    zero_ok = not np.any(zero.data)

    dark = frangi_multiscale(vol(1.0 - _tube()), scales, fixed)
    dark_ok = dark.data[mid] == 0.0

    tube = frangi_multiscale(vol(_tube()), scales, fixed)
    plate = frangi_multiscale(vol(_plate()), scales, fixed)
    blob = frangi_multiscale(vol(_blob()), scales, fixed)
    shape_ok = (tube.data[mid] > plate.data[mid]) and (tube.data[mid] > blob.data[mid])

    multi = ScaleSet(sigmas=(1.5, 3.0))
    per_scale = [frangi_multiscale(vol(_tube()), ScaleSet(sigmas=(s,)), fixed).data
                 for s in multi.sigmas]
    combined = frangi_multiscale(vol(_tube()), multi, fixed).data
    consistency_ok = (np.array_equal(combined, np.maximum(*per_scale))
                      and np.array_equal(
                          per_scale[1],
                          frangi_multiscale(vol(_tube()), scales, fixed).data))

    range_ok = all(0.0 <= v.data.min() and v.data.max() <= 1.0
                   for v in (zero, dark, tube, plate, blob))

    base = frangi_multiscale(vol(_tube()), scales, defaults).data
    shifted = frangi_multiscale(vol(_tube() + 100.0), scales, defaults).data
    scaled = frangi_multiscale(vol(_tube() * 1000.0), scales, defaults).data
    offset_ok = np.max(np.abs(base - shifted)) <= 1e-6
    gain_ok = np.max(np.abs(base - scaled)) <= 1e-6

    ok = all([zero_ok, dark_ok, shape_ok, consistency_ok, range_ok,
              offset_ok, gain_ok])
    record("vesselness analytic suite", ok,
           f"tube={tube.data[mid]:.3f} plate={plate.data[mid]:.3f}"
           f" blob={blob.data[mid]:.3f}")


def test_06_derivative_correctness(record):
    n = 33
    x = np.arange(n, dtype=np.float64)
    data = np.broadcast_to((x ** 2)[:, None, None], (n, n, n)).copy()
    field = hessian_at_scale(Volume(grid=GridSpec(dims=(n, n, n), voxel_size=1.0),
                                    data=data.astype(np.float32)), sigma=2.0)
    core = (slice(10, -10),) * 3
    hessian_ok = (np.max(np.abs(field.l3[core] - 8.0)) <= 1e-2
                  and np.max(np.abs(field.l1[core])) <= 1e-6
                  and np.max(np.abs(field.l2[core])) <= 1e-6)

    rng = np.random.default_rng(8)
    m = rng.standard_normal((100_000, 3, 3))
    m = m + np.swapaxes(m, 1, 2)
    m[:1000] *= 1e6
    m[1000:2000] *= 1e-6
    lo, mid, hi = _eig3_symmetric(m[:, 0, 0], m[:, 1, 1], m[:, 2, 2],
                                  m[:, 0, 1], m[:, 0, 2], m[:, 1, 2])
    got = np.stack([lo, mid, hi], axis=1)
    want = np.linalg.eigvalsh(m)
    scale = np.maximum(np.abs(want).max(axis=1, keepdims=True), 1e-30)
    eig_err = float(np.max(np.abs(got - want) / scale))

    ok = hessian_ok and eig_err < 1e-5
    record("derivative correctness", ok,
           f"hessian l3 range [{field.l3[core].min():.4f},"
           f" {field.l3[core].max():.4f}] eig rel err={eig_err:.2e}")


TINY = ModelParams(box_edge=93.6, radius=6.5, mean_length=40.0,
                   length_stddev=8.0, target_fraction=0.04,
                   max_attempts=3000, seed=0)


def test_07_annotation_recovery(record):
    grid = GridSpec(dims=(24, 24, 24), voxel_size=3.9)
    model = generate_model(TINY)
    labels, _ = rasterize_labels(model, grid)
    clean = rasterize_attenuation(model, grid, supersample=1, levels=(2.54, 1.31))
    chains = annotations_from_fibers(model.fibers, grid)
    seeds, _ = render_polylines(chains, grid)
    grown = region_grow(clean, seeds, threshold=(2.54 + 1.31) / 2.0)
    score = dice((labels.data > 0).astype(np.uint32),
                 (grown.data > 0).astype(np.uint32))

    rng = np.random.default_rng(7)
    lines_ok = True
    for _ in range(1000):
        p0, p1 = rng.integers(-12, 13, size=(2, 3))
        pts = bresenham3d(tuple(p0), tuple(p1))
        steps = np.abs(np.diff(np.asarray(pts), axis=0)).max(axis=1)
        lines_ok &= pts[0] == tuple(p0) and pts[-1] == tuple(p1)
        lines_ok &= len(pts) == int(np.max(np.abs(p1 - p0))) + 1
        lines_ok &= steps.size == 0 or (steps.min() == 1 and steps.max() == 1)

    ok = score == 1.0 and lines_ok
    record("annotation pipeline recovery", ok, f"region-grow dice={score}")


def test_08_fbp_sanity(record):
    n = 128
    yy, xx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    r2 = (xx - 63.5) ** 2 + (yy - 63.5) ** 2
    disk = (r2 <= 40.0 ** 2).astype(np.float64)
    interior = r2 <= 38.0 ** 2

    errs = []
    for n_angles in (50, 100, 200, 400):
        recon = fbp_slice(radon_slice(disk, n_angles), (n, n))
        errs.append(float(np.sqrt(np.mean((recon[interior] - 1.0) ** 2))))
    rmse_ok = errs[-1] < 0.05
    mono_ok = all(a > b for a, b in zip(errs, errs[1:]))

    impulse = np.zeros((n, n))
    impulse[70, 55] = 1.0
    peak = np.unravel_index(np.argmax(fbp_slice(radon_slice(impulse, 400), (n, n))),
                            (n, n))
    peak = (int(peak[0]), int(peak[1]))
    peak_ok = peak == (70, 55)

    record("fbp sanity", rmse_ok and mono_ok and peak_ok,
           "rmse@{50,100,200,400}=" + "/".join(f"{e:.4f}" for e in errs)
           + f" peak={peak}")


def _watertight(tris: np.ndarray) -> bool:
    directed = Counter()
    for tri in tris:
        verts = [tuple(v) for v in tri]
        for i in range(3):
            directed[(verts[i], verts[(i + 1) % 3])] += 1
    if any(count != 1 for count in directed.values()):
        return False
    return all(directed[(b, a)] == 1 for (a, b) in directed)


def test_09_reproducibility_and_io(record, tmp_path):
    # identical seeds and config must give byte-identical artifacts
    runs = []
    for d in ("a", "b"):
        out = tmp_path / d
        out.mkdir()
        for step in (
            ("generate", "--out-dir", str(out)),
            ("rasterize", "--fibers", str(out / "fibers.csv"), "--out-dir", str(out)),
            ("degrade", "--input", str(out / "atten"), "--output", str(out / "gray")),
            ("segment", "--input", str(out / "gray"), "--out-dir", str(out)),
            ("evaluate", "--truth", str(out / "gt"), "--pred", str(out / "pred"),
             "--output", str(out / "metrics.json")),
        ):
            args = list(step) + [
                "--set", "model.box_edge=93.6", "--set", "model.mean_length=40.0",
                "--set", "model.length_stddev=8.0", "--set", "model.target_fraction=0.04",
                "--set", "model.max_attempts=3000", "--set", "grid.dims=[24,24,24]",
            ]
            assert cli_main(args) == 0
        runs.append(out)
    csv_ok = (runs[0] / "fibers.csv").read_bytes() == (runs[1] / "fibers.csv").read_bytes()
    metrics_ok = ((runs[0] / "metrics.json").read_bytes()
                  == (runs[1] / "metrics.json").read_bytes())

    rng = np.random.default_rng(99)
    grid = GridSpec(dims=(9, 7, 5), voxel_size=2.0)
    gray = Volume(grid=grid,
                  data=rng.standard_normal(grid.dims).astype(np.float32))
    labels = LabelVolume(grid=grid,
                         data=rng.integers(0, 9, size=grid.dims).astype(np.uint32))
    write_volume(gray, tmp_path / "g")
    write_volume(labels, tmp_path / "l")
    g2, l2 = read_volume(tmp_path / "g"), read_volume(tmp_path / "l")
    round_trip_ok = (g2.data.tobytes() == gray.data.tobytes()
                     and l2.data.tobytes() == labels.data.tobytes()
                     and g2.grid == grid and l2.grid == grid)

    mesh_ok = True
    for seed in range(10):
        params = ModelParams(box_edge=150.0, radius=5.0, mean_length=60.0,
                             length_stddev=15.0, target_fraction=0.03,
                             max_attempts=2000, seed=seed)
        model = generate_model(params)
        tris = read_stl_triangles(export_stl(model, segments_per_circle=3 + seed))
        mesh_ok &= len(model.fibers) > 0 and _watertight(tris)

    ok = csv_ok and metrics_ok and round_trip_ok and mesh_ok
    record("reproducibility and io", ok,
           f"csv={csv_ok} metrics={metrics_ok} roundtrip={round_trip_ok}"
           f" watertight(10)={mesh_ok}")
