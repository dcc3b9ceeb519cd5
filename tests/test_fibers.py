import math
import os
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import fibervox.fibers as fibermod
from fibervox.config import PipelineConfig
from fibervox.fibers import (
    EPOXY_DENSITY,
    GLASS_DENSITY,
    Fiber,
    FiberModel,
    ModelParams,
    _fiber_arrays,
    _sample_direction,
    audit_model,
    generate_model,
    hemisphere,
    model_statistics,
    read_fibers_csv,
    segment_distance_sq,
    weight_fraction,
    write_fibers_csv,
)


REPO = Path(__file__).resolve().parents[1]


def fiber(i, p0, p1, r=1.0):
    return Fiber(i, np.asarray(p0, float), np.asarray(p1, float), r)


# ---------------------------------------------------------------- distance


def test_segment_distance_analytic_cases():
    # parallel, offset 5
    d2 = segment_distance_sq(np.array([0.0, 0, 0]), np.array([10.0, 0, 0]),
                             np.array([[0.0, 5, 0]]), np.array([[10.0, 5, 0]]))
    assert d2[0] == pytest.approx(25.0)
    # collinear with a gap of 10
    d2 = segment_distance_sq(np.array([0.0, 0, 0]), np.array([5.0, 0, 0]),
                             np.array([[15.0, 0, 0]]), np.array([[20.0, 0, 0]]))
    assert d2[0] == pytest.approx(100.0)
    # perpendicular skew lines, closest approach 5 along z
    d2 = segment_distance_sq(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]),
                             np.array([[0.0, -1, 5]]), np.array([[0.0, 1, 5]]))
    assert d2[0] == pytest.approx(25.0)
    # crossing segments
    d2 = segment_distance_sq(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]),
                             np.array([[0.0, -1, 0]]), np.array([[0.0, 1, 0]]))
    assert d2[0] == pytest.approx(0.0)


def test_segment_distance_degenerate_segments():
    # both segments are points
    d2 = segment_distance_sq(np.array([0.0, 0, 0]), np.array([0.0, 0, 0]),
                             np.array([[3.0, 4, 0]]), np.array([[3.0, 4, 0]]))
    assert d2[0] == pytest.approx(25.0)
    # one point, one segment
    d2 = segment_distance_sq(np.array([0.0, 0, 2]), np.array([0.0, 0, 2]),
                             np.array([[-5.0, 0, 0]]), np.array([[5.0, 0, 0]]))
    assert d2[0] == pytest.approx(4.0)


def _oracle_distance_sq(p0, p1, q0, q1, n=240):
    t = np.linspace(0.0, 1.0, n)
    a = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    b = q0[None, :] + t[:, None] * (q1 - q0)[None, :]
    diff = a[:, None, :] - b[None, :, :]
    return float(np.min(np.einsum("ijk,ijk->ij", diff, diff)))


def test_segment_distance_against_dense_sampling():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(250):
        p0, p1, q0, q1 = rng.uniform(-5, 5, size=(4, 3))
        if k % 5 == 0:  # force parallel pairs into the mix
            q1 = q0 + (p1 - p0)
        if k % 7 == 0:  # and degenerate ones
            p1 = p0
        exact = float(segment_distance_sq(p0, p1, q0[None], q1[None])[0])
        grid = _oracle_distance_sq(p0, p1, q0, q1)
        # the sampled minimum can only overestimate the true distance
        assert exact <= grid + 1e-9
        worst = max(worst, grid - exact)
    assert worst < 0.05  # grid resolution bound, not an algorithm tolerance


def test_capsules_overlap_strict_inequality():
    a = fiber(1, (0, 0, 0), (10, 0, 0), r=2.0)
    touching = fiber(2, (0, 4, 0), (10, 4, 0), r=2.0)  # gap exactly 2r
    apart = fiber(3, (0, 4.001, 0), (10, 4.001, 0), r=2.0)
    overlapping = fiber(4, (0, 3.9, 0), (10, 3.9, 0), r=2.0)
    params = ModelParams(box_edge=100.0, radius=2.0)

    def violations(b):
        return audit_model(FiberModel(params=params, fibers=[a, b]))["overlap_violations"]

    assert violations(touching) == 0
    assert violations(apart) == 0
    assert violations(overlapping) == 1


# ---------------------------------------------------------------- validation


def test_fiber_validation():
    with pytest.raises(ValueError):
        fiber(0, (0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        fiber(1, (0, 0, 0), (1, 0, 0), r=0.0)
    f = fiber(1, (0, 0, 0), (3, 4, 0), r=2.0)
    assert f.length == pytest.approx(5.0)
    assert f.volume == pytest.approx(math.pi * 4.0 * 5.0)


@pytest.mark.parametrize("kw", [
    {"box_edge": 0.0},
    {"radius": -1.0},
    {"radius": 30.0, "box_edge": 50.0},
    {"mean_length": 0.0},
    {"length_stddev": -5.0},
    {"target_fraction": 0.0},
    {"target_fraction": 1.0},
    {"max_attempts": -1},
])
def test_model_params_validation(kw):
    with pytest.raises(ValueError):
        ModelParams(**kw)


@pytest.mark.parametrize("name, value", [("max_attempts", math.inf), ("max_attempts", 2.5),
                                         ("seed", 1.5)])
def test_model_params_reject_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ModelParams(**{name: value})


def test_model_params_accept_numpy_integers():
    assert ModelParams(seed=np.int64(3), max_attempts=np.int32(5)).seed == 3


# ---------------------------------------------------------------- generation


SMALL = dict(box_edge=200.0, radius=4.0, mean_length=60.0, length_stddev=12.0,
             target_fraction=0.02, max_attempts=20000)


def test_generate_reaches_small_target_and_is_valid():
    m = generate_model(ModelParams(seed=3, **SMALL))
    assert m.volume_fraction >= 0.02
    assert [f.id for f in m.fibers] == list(range(1, len(m.fibers) + 1))
    report = audit_model(m)
    assert report == {"overlap_violations": 0, "out_of_bounds": 0}


def test_generate_is_deterministic():
    a = generate_model(ModelParams(seed=42, **SMALL))
    b = generate_model(ModelParams(seed=42, **SMALL))
    assert len(a.fibers) == len(b.fibers)
    assert a.attempts_used == b.attempts_used
    for fa, fb in zip(a.fibers, b.fibers):
        np.testing.assert_array_equal(fa.p0, fb.p0)
        np.testing.assert_array_equal(fa.p1, fb.p1)
    c = generate_model(ModelParams(seed=43, **SMALL))
    assert any((fa.p0 != fc.p0).any() for fa, fc in zip(a.fibers, c.fibers))


def test_generate_zero_attempts():
    m = generate_model(ModelParams(seed=0, max_attempts=0))
    assert m.fibers == []
    assert m.attempts_used == 0
    assert m.volume_fraction == 0.0


def test_generate_saturation_guard_stops():
    # Target far above what the box can hold; the consecutive-rejection cap
    # must end the run.
    params = ModelParams(box_edge=60.0, radius=5.0, mean_length=40.0,
                         length_stddev=0.0, target_fraction=0.9,
                         max_attempts=500, seed=1)
    m = generate_model(params)
    assert m.volume_fraction < 0.9
    assert m.attempts_used >= 500
    assert audit_model(m) == {"overlap_violations": 0, "out_of_bounds": 0}


def test_generate_impossible_length_law():
    # stddev 0 and a mean longer than the box diagonal: nothing can ever fit
    params = ModelParams(box_edge=100.0, radius=2.0, mean_length=400.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=50, seed=0)
    m = generate_model(params)
    assert m.fibers == []
    assert m.attempts_used == 50


def test_accepted_lengths_not_biased_short():
    # fibers persist until placed, so accepted lengths follow the drawn law
    params = ModelParams(box_edge=400.0, radius=3.0, mean_length=80.0,
                         length_stddev=15.0, target_fraction=0.03,
                         max_attempts=100000, seed=9)
    m = generate_model(params)
    lengths = np.array([f.length for f in m.fibers])
    assert len(lengths) > 150
    assert abs(lengths.mean() - 80.0) < 15.0 / math.sqrt(len(lengths)) * 4


def test_sampled_directions_uniform_on_sphere():
    rng = np.random.default_rng(123)
    zs = np.array([_sample_direction(rng)[2] for _ in range(4000)])
    norms = np.array([np.linalg.norm(_sample_direction(rng)) for _ in range(100)])
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # z of a uniform direction is U(-1, 1)
    ks = stats.kstest(zs, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert ks.pvalue > 1e-3


def test_audit_flags_planted_violations():
    params = ModelParams(box_edge=100.0, radius=2.0, mean_length=20.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=10, seed=0)
    bad = FiberModel(params=params, fibers=[
        fiber(1, (10, 10, 10), (30, 10, 10), r=2.0),
        fiber(2, (10, 12, 10), (30, 12, 10), r=2.0),   # overlaps fiber 1
        fiber(3, (-5, 50, 50), (15, 50, 50), r=2.0),   # leaves the box
    ])
    report = audit_model(bad)
    assert report["overlap_violations"] == 1
    assert report["out_of_bounds"] == 1


# ---------------------------------------------------------------- audit oracle


def oracle_audit(model: FiberModel) -> dict:
    """The audit with every pair tested: the O(n^2) loop, each fiber against
    all later ones, and a per-fiber bounds check."""
    n = len(model.fibers)
    p0, p1, radii = _fiber_arrays(model.fibers)
    overlaps = 0
    for i in range(n - 1):
        d2 = segment_distance_sq(p0[i], p1[i], p0[i + 1:], p1[i + 1:])
        overlaps += int(np.count_nonzero(d2 < (radii[i] + radii[i + 1:]) ** 2))
    edge = model.params.box_edge
    outside = sum(not all(f.radius <= c <= edge - f.radius for c in [*f.p0, *f.p1])
                  for f in model.fibers)
    return {"overlap_violations": overlaps, "out_of_bounds": outside}


def loose(*ends_and_radii, edge=30.0) -> FiberModel:
    """A model of the given (p0, p1, r) fibers, ids 1.. in order, unpacked."""
    return FiberModel(params=ModelParams(box_edge=edge, radius=1.0),
                      fibers=[fiber(k + 1, *f) for k, f in enumerate(ends_and_radii)])


def assert_audit(model: FiberModel, overlaps: int) -> None:
    audit = audit_model(model)
    assert audit == oracle_audit(model)
    assert audit["overlap_violations"] == overlaps


def test_audit_of_zero_one_and_two_fibers():
    assert audit_model(loose()) == {"overlap_violations": 0, "out_of_bounds": 0}
    assert_audit(loose(((5, 5, 5), (9, 5, 5), 1.0)), 0)
    assert_audit(loose(((5, 5, 5), (9, 5, 5), 1.0), ((7, 4, 4), (7, 6, 6), 0.5)), 1)
    assert_audit(loose(((5, 5, 5), (9, 5, 5), 1.0), ((7, 9, 4), (7, 9, 6), 0.5)), 0)


def test_audit_pairs_exactly_touching_at_sum_of_radii():
    # gaps of exactly r_i + r_j along y, z and the axis are not overlaps
    a = ((0, 10, 10), (10, 10, 10), 1.5)
    assert_audit(loose(a, ((0, 14, 10), (10, 14, 10), 2.5)), 0)
    assert_audit(loose(a, ((3, 10, 12.5), (3, 20, 12.5), 1.0)), 0)
    assert_audit(loose(a, ((12.5, 10, 10), (20, 10, 10), 1.0)), 0)
    assert_audit(loose(a, ((0, 13.9, 10), (10, 13.9, 10), 2.5)), 1)


@pytest.mark.parametrize("far, near", [
    (((12, 5, 5), (20, 5, 5)), ((11.9, 5, 5), (20, 5, 5))),   # x-max meets x-min
    (((0, 7, 5), (10, 7, 5)), ((0, 6.9, 5), (10, 6.9, 5))),   # y faces
    (((0, 5, 7), (10, 5, 7)), ((0, 5, 6.9), (10, 5, 6.9))),   # z faces
])
def test_audit_boxes_meeting_at_one_face(far, near, monkeypatch):
    a = ((0, 5, 5), (10, 5, 5), 1.0)
    rows = []

    def counting(p0, p1, q0, q1):
        rows.append(len(p0))
        return segment_distance_sq(p0, p1, q0, q1)

    monkeypatch.setattr(fibermod, "segment_distance_sq", counting)
    # boxes that touch reach the exact test, which finds the capsules touching
    assert_audit(loose(a, (*far, 1.0)), 0)
    assert rows == [1]
    assert_audit(loose(a, (*near, 1.0)), 1)
    # boxes a hair apart are pruned
    rows.clear()
    apart = [tuple(c + 1e-3 * (c > 5) for c in end) for end in far]
    assert_audit(loose(a, (*apart, 1.0)), 0)
    assert not any(rows)


def test_audit_keeps_pairs_that_round_under_the_threshold():
    # the boxes are 3 ulps apart along y (11.524333275678870 < ...881), yet
    # the computed distance rounds under r_i + r_j: the box slack keeps the pair
    model = loose(((431.57618373833577, -194.37492408090728, 1704.1735258898862),
                   (675.9062581461163, 8.58298012455383, 1811.6644832565573),
                   2.9413531511250413),
                  ((675.9062581461163, 17.15923892331872, 1811.6644832565573),
                   (783.3972155127875, 220.11714312877984, 1567.3344088487768),
                   5.634905647639841), edge=2000.0)
    a, b = model.fibers
    assert a.p1[1] + a.radius < b.p0[1] - b.radius
    assert_audit(model, 1)


def test_audit_tied_x_min():
    # all six boxes start at x = 4, with mixed radii
    assert_audit(loose(((5, 0, 3), (5, 10, 3), 1.0),
                       ((4.5, 0, 1.5), (4.5, 10, 1.5), 0.5),
                       ((5, 0, 0), (5, 10, 0), 1.0),
                       ((6, 0, 20), (6, 10, 20), 2.0),
                       ((5, 10, 4.5), (5, 0, 4.5), 1.0),
                       ((6, 5, -1), (6, 5, 9), 2.0)), 5)


def test_audit_axis_parallel_fibers():
    assert_audit(loose(((0, 5, 5), (10, 5, 5), 1.0),      # along x
                       ((5, 0, 6.5), (5, 10, 6.5), 1.0),  # along y, 1.5 above it
                       ((5.5, 5.5, 0), (5.5, 5.5, 10), 0.5),  # along z through both
                       ((20, 5, 5), (20, 5, 15), 1.0),    # along z, apart
                       ((0, 5, 5), (10, 5, 5), 1.0)), 6)  # a duplicate of the first


def random_fibers(rng, n, edge, overlaps):
    """n random fibers in a box of edge ``edge``, then ``overlaps`` shifted
    copies of random ones."""
    centers = rng.uniform(0, edge, (n, 3))
    axes = rng.normal(size=(n, 3)) * rng.uniform(0.05 * edge, 0.3 * edge, (n, 1))
    radii = rng.choice([0.5, 1.0, 2.5], n)
    ends = [(c - a, c + a, r) for c, a, r in zip(centers, axes, radii)]
    for k in rng.integers(0, n, overlaps):
        shift = rng.normal(0, 0.5, 3)
        ends.append((ends[k][0] + shift, ends[k][1] + shift, ends[k][2]))
    return loose(*ends, edge=edge)


@pytest.mark.parametrize("block", [1, 3])
def test_audit_blocks_split_inside_one_run(block, monkeypatch):
    model = random_fibers(np.random.default_rng(block), 40, 30.0, 10)
    expected = oracle_audit(model)
    assert expected["overlap_violations"] > 10
    monkeypatch.setattr(fibermod, "_AUDIT_PAIRS", block)
    assert audit_model(model) == expected
    assert_audit(loose(((5, 0, 3), (5, 10, 3), 1.0), ((5, 0, 0), (5, 10, 0), 1.0),
                       ((5, 0, 1.5), (5, 10, 1.5), 1.0), ((5, 0, 4.5), (5, 10, 4.5), 1.0),
                       ((5, 0, 6), (5, 10, 6), 1.0)), 4)


# quarter-micrometer grid values make ties, touching boxes and exactly
# touching capsules common
COORD = st.one_of(st.integers(0, 80).map(lambda v: v / 4),
                  st.floats(0.0, 20.0, allow_nan=False))


@st.composite
def fiber_lists(draw):
    ends = []
    for _ in range(draw(st.integers(0, 24))):
        r = draw(st.sampled_from([0.25, 0.5, 1.0, 2.5]))
        if ends and draw(st.booleans()):  # a shifted copy of an earlier fiber
            p0, p1, _ = ends[draw(st.integers(0, len(ends) - 1))]
            shift = np.array([draw(st.integers(-4, 4)) / 4 for _ in range(3)])
            ends.append((p0 + shift, p1 + shift, r))
            continue
        p0 = np.array([draw(COORD) for _ in range(3)])
        axis = draw(st.sampled_from([None, 0, 1, 2]))
        if axis is None:
            p1 = np.array([draw(COORD) for _ in range(3)])
        else:
            p1 = p0.copy()
            p1[axis] = draw(COORD)
        if np.linalg.norm(p1 - p0) < 0.25:
            p1[0] += 1.0
        ends.append((p0, p1, r))
    return ends


@settings(max_examples=200, deadline=None)
@given(fiber_lists(), st.sampled_from([1, 2, 3, 7, fibermod._AUDIT_PAIRS]))
def test_audit_equals_oracle(ends, block):
    model = loose(*ends, edge=20.0)
    with mock.patch.object(fibermod, "_AUDIT_PAIRS", block):
        assert audit_model(model) == oracle_audit(model)


def test_audit_memory_is_bounded_by_the_block():
    # 3 000 unpacked table1-like fibers: 1.08 M box pairs meet along x,
    # 8.7 MB for each int64 array of all of them at once
    rng = np.random.default_rng(5)
    n = 3000
    centers = rng.uniform(0, 2000, (n, 3))
    axes = rng.normal(size=(n, 3))
    axes *= rng.normal(250, 50, (n, 1)) / np.linalg.norm(axes, axis=1, keepdims=True)
    model = FiberModel(params=ModelParams(), fibers=[
        fiber(k + 1, c - a, c + a, 6.5) for k, (c, a) in enumerate(zip(centers, axes))])
    tracemalloc.start()
    try:
        audit = audit_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit["overlap_violations"] > 0
    assert peak < 4e6


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("FIBERVOX_SLOW") != "1",
                    reason="set FIBERVOX_SLOW=1 to pack table1 (~20 s) and audit it both ways")
def test_table1_audit_equals_oracle():
    params = PipelineConfig.load(REPO / "configs" / "table1.json").model_params()
    model = generate_model(params)
    assert len(model.fibers) == 6509
    assert audit_model(model) == oracle_audit(model) \
        == {"overlap_violations": 0, "out_of_bounds": 0}
    rng = np.random.default_rng(0)
    planted = [fiber(len(model.fibers) + k + 1, f.p0 + shift, f.p1 + shift, f.radius)
               for k, (f, shift) in enumerate(zip(rng.choice(model.fibers, 200),
                                                  rng.normal(0, 5, (200, 3))))]
    model.fibers += planted
    audit = audit_model(model)
    assert audit == oracle_audit(model)
    assert audit["overlap_violations"] >= 200


# ---------------------------------------------------------------- statistics


def test_canonical_axes_hemisphere():
    axes = hemisphere(np.array([
        [0.0, 0.0, -1.0],                      # -z flips to +z
        [0.0, -1.0, 0.0],                      # z=0, -y flips to +y
        [-1.0, 0.0, 0.0],                      # z=0, y=0, -x flips to +x
        np.full(3, 1 / math.sqrt(3)),
    ]))
    np.testing.assert_allclose(axes[0], [0, 0, 1])
    np.testing.assert_allclose(axes[1], [0, 1, 0])
    np.testing.assert_allclose(axes[2], [1, 0, 0])
    np.testing.assert_allclose(axes[3], np.full(3, 1 / math.sqrt(3)))
    assert hemisphere(np.empty((0, 3))).shape == (0, 3)


def test_weight_fraction_closed_form():
    # vf*rho_f / (vf*rho_f + (1-vf)*rho_m) at the standard densities
    assert weight_fraction(0.054) == pytest.approx(0.0996498162, abs=1e-9)
    assert weight_fraction(0.0) == 0.0
    assert weight_fraction(1.0) == 1.0
    assert weight_fraction(0.5, 2.0, 2.0) == pytest.approx(0.5)
    assert GLASS_DENSITY == 2.54 and EPOXY_DENSITY == 1.31


def test_model_statistics_single_fiber():
    params = ModelParams(box_edge=100.0, radius=2.0, mean_length=50.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=1, seed=0)
    m = FiberModel(params=params,
                   fibers=[fiber(1, (25, 50, 50), (75, 50, 50), r=2.0)])
    s = model_statistics(m)
    assert s.fiber_count == 1
    assert s.min_length == s.max_length == s.mean_length == pytest.approx(50.0)
    vf = math.pi * 4 * 50 / 100**3
    assert s.volume_fraction == pytest.approx(vf)
    assert s.weight_fraction == pytest.approx(weight_fraction(vf))
    # axis +x: theta 0 deg -> first bin, phi 0 deg -> first bin
    assert s.theta_hist[0] == 1 and s.theta_hist.sum() == 1
    assert s.phi_hist[0] == 1 and s.phi_hist.sum() == 1
    assert len(s.theta_hist) == 18 and len(s.phi_hist) == 36


def test_model_statistics_axis_bins():
    params = ModelParams(box_edge=100.0, radius=1.0, mean_length=50.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=1, seed=0)
    m = FiberModel(params=params, fibers=[
        fiber(1, (50, 50, 20), (50, 50, 80), r=1.0),   # +z: theta 90
        fiber(2, (80, 50, 50), (20, 50, 50), r=1.0),   # canonical +x after flip
        fiber(3, (50, 20, 50), (50, 80, 50), r=1.0),   # +y: phi 90
    ])
    s = model_statistics(m)
    assert s.theta_hist[-1] == 1        # 90 deg lands in the last bin
    assert s.theta_hist[0] == 2
    assert s.phi_hist[0] == 2           # +x azimuth 0
    assert s.phi_hist[9] == 1           # 90 deg / 10 deg bins


def test_model_statistics_empty():
    s = model_statistics(FiberModel(params=ModelParams()))
    assert s.fiber_count == 0
    assert s.volume_fraction == 0.0
    assert s.theta_hist.sum() == 0


# ---------------------------------------------------------------- CSV io


def test_csv_roundtrip(tmp_path):
    m = generate_model(ModelParams(seed=7, **SMALL))
    path = tmp_path / "fibers.csv"
    write_fibers_csv(m.fibers, path)
    first = path.read_bytes()
    back = read_fibers_csv(path)
    assert len(back) == len(m.fibers)
    for orig, rb in zip(m.fibers, back):
        assert rb.id == orig.id
        np.testing.assert_allclose(rb.p0, orig.p0, atol=5e-7)
        np.testing.assert_allclose(rb.radius, orig.radius, atol=5e-7)
    # writing what was read back reproduces the file byte for byte
    write_fibers_csv(back, path)
    assert path.read_bytes() == first
    assert first.startswith(b"id,x0,y0,z0,x1,y1,z1,radius_um\n")


def test_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="bad fiber CSV header"):
        read_fibers_csv(path)


# ---------------------------------------------------------------- stop reason


def test_stop_reason_target():
    assert generate_model(ModelParams(seed=3, **SMALL)).stop_reason == "target"


def test_stop_reason_saturated():
    params = ModelParams(box_edge=60.0, radius=5.0, mean_length=40.0,
                         length_stddev=0.0, target_fraction=0.9,
                         max_attempts=500, seed=1)
    assert generate_model(params).stop_reason == "saturated"


def test_stop_reason_no_length_fits():
    params = ModelParams(box_edge=100.0, radius=2.0, mean_length=400.0,
                         length_stddev=0.0, target_fraction=0.5,
                         max_attempts=50, seed=0)
    assert generate_model(params).stop_reason == "no_length_fits"


def test_fiber_model_constructor_without_stop_reason():
    m = FiberModel(params=ModelParams())
    assert m.stop_reason == "" and m.fibers == [] and m.attempts_used == 0


def test_saturated_model_names_stalled_fiber():
    params = ModelParams(box_edge=60.0, radius=5.0, mean_length=40.0,
                         length_stddev=0.0, target_fraction=0.9,
                         max_attempts=500, seed=1)
    stalled = generate_model(params).stalled
    assert stalled["length_um"] == 40.0
    direction = np.array(stalled["direction"])
    assert np.linalg.norm(direction) == pytest.approx(1.0)
    # the feasible center box keeps the capsule inside: r + L/2 |d| from each face
    lo = 5.0 + 20.0 * np.abs(direction)
    np.testing.assert_allclose(stalled["center_lo_um"], lo)
    np.testing.assert_allclose(stalled["center_hi_um"], 60.0 - lo)
    assert generate_model(ModelParams(seed=3, **SMALL)).stalled is None


def test_csv_header_only_reads_empty(tmp_path):
    path = tmp_path / "fibers.csv"
    write_fibers_csv([], path)
    assert path.read_text() == "id,x0,y0,z0,x1,y1,z1,radius_um\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_fibers_csv(path) == []


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_volume_fraction_is_the_statistics_sum(seed):
    m = generate_model(ModelParams(seed=seed, **SMALL))
    assert m.volume_fraction == model_statistics(m).volume_fraction
    # one stacked sum gives the per-fiber volumes' sum bit for bit
    assert m.volume_fraction == sum(f.volume for f in m.fibers) / SMALL["box_edge"] ** 3
    assert FiberModel(params=ModelParams()).volume_fraction == 0.0
