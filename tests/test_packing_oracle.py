"""The cell-table packer against a plain sequential reference.

``_reference_generate`` is the packing loop as it was before the cell table
and the batched offers: one center per attempt, tested against every
accepted fiber whose bounding sphere it can reach. The packer must give the
same model, attempt count and stop reason, fiber for fiber and bit for bit.
"""

import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibervox.config import PipelineConfig
from fibervox.fibers import (
    _AXIS_STEP,
    ModelParams,
    _CellTable,
    _sample_direction,
    _sample_length,
    generate_model,
    segment_distance_sq,
)
from test_fibers import SMALL

REPO = Path(__file__).resolve().parents[1]

SATURATION = dict(box_edge=60.0, radius=5.0, mean_length=40.0, length_stddev=0.0,
                  target_fraction=0.9, max_attempts=500, seed=1)
IMPOSSIBLE = dict(box_edge=100.0, radius=2.0, mean_length=400.0, length_stddev=0.0,
                  target_fraction=0.5, max_attempts=50, seed=0)


def _reference_generate(params: ModelParams):
    """Endpoints (n, 3) x 2, attempts and stop reason of a sequential pack."""
    rng = np.random.default_rng(params.seed)
    edge = params.box_edge
    radius = params.radius
    cap = 4096
    p0s = np.empty((cap, 3))
    p1s = np.empty((cap, 3))
    mids = np.empty((cap, 3))
    # Bounding-sphere reach of each accepted fiber: half length + both radii.
    reach = np.empty(cap)
    count = attempts = rejections = 0
    total_volume = 0.0
    pending = None
    stop_reason = "saturated"
    while rejections < params.max_attempts and total_volume / edge**3 < params.target_fraction:
        attempts += 1
        if pending is None:
            direction = _sample_direction(rng)
            length = _sample_length(rng, params, direction)
            if length is None:
                rejections += 1
                stop_reason = "no_length_fits"
                continue
            half = 0.5 * length
            span = half * np.abs(direction)
            pending = (direction, length, half, radius + span, edge - radius - span)
        direction, length, half, c_lo, c_hi = pending
        center = rng.uniform(c_lo, c_hi)
        p0 = center - half * direction
        p1 = center + half * direction
        if count:
            diff = mids[:count] - center
            near = np.einsum("ij,ij->i", diff, diff) < (reach[:count] + half) ** 2
            if near.any():
                idx = np.nonzero(near)[0]
                dist2 = segment_distance_sq(p0, p1, p0s[idx], p1s[idx])
                if dist2.min() < (2 * radius) ** 2:
                    rejections += 1
                    stop_reason = "saturated"
                    continue
        if count == cap:
            cap *= 2
            p0s, p1s = np.resize(p0s, (cap, 3)), np.resize(p1s, (cap, 3))
            mids, reach = np.resize(mids, (cap, 3)), np.resize(reach, cap)
        p0s[count], p1s[count], mids[count] = p0, p1, center
        reach[count] = half + 2 * radius
        count += 1
        total_volume += math.pi * radius**2 * length
        pending = None
        rejections = 0
    if total_volume / edge**3 >= params.target_fraction:
        stop_reason = "target"
    return p0s[:count], p1s[:count], attempts, stop_reason


def assert_same_model(params: ModelParams):
    model = generate_model(params)
    p0, p1, attempts, stop_reason = _reference_generate(params)
    got0 = np.array([f.p0 for f in model.fibers]).reshape(-1, 3)
    got1 = np.array([f.p1 for f in model.fibers]).reshape(-1, 3)
    # Bitwise: tobytes() also tells -0.0 from 0.0.
    assert got0.tobytes() == p0.tobytes()
    assert got1.tobytes() == p1.tobytes()
    assert (model.attempts_used, model.stop_reason) == (attempts, stop_reason)
    return model


@pytest.mark.parametrize("seed", [3, 42])
def test_small_matches_reference(seed):
    assert_same_model(ModelParams(seed=seed, **SMALL))


def test_desk_box_matches_reference():
    model = assert_same_model(ModelParams(box_edge=499.2, max_attempts=2000))
    assert model.stop_reason == "saturated"


@pytest.mark.parametrize("kw", [SATURATION, IMPOSSIBLE], ids=["saturation", "impossible"])
def test_stop_rule_sets_match_reference(kw):
    assert_same_model(ModelParams(**kw))


@pytest.mark.parametrize("max_attempts", [1, 2, 3, 5])
def test_batch_cap_matches_reference(max_attempts):
    # Crowded enough that offers are rejected, so batches meet the cap.
    assert_same_model(ModelParams(box_edge=60.0, radius=5.0, mean_length=40.0,
                                  length_stddev=6.0, target_fraction=0.9,
                                  max_attempts=max_attempts, seed=2))


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("FIBERVOX_SLOW") != "1",
                    reason="set FIBERVOX_SLOW=1 to pack table1 at vf 0.03 (~15 s)")
def test_table1_vf003_matches_reference():
    params = PipelineConfig.load(REPO / "configs" / "table1.json").model_params()
    assert_same_model(dataclasses.replace(params, target_fraction=0.03, seed=0))


# ---------------------------------------------------------------- cell superset


def _axis_samples(p0, p1):
    length = float(np.linalg.norm(p1 - p0))
    t = np.linspace(0.0, 1.0, math.ceil(length / _AXIS_STEP) + 1)[:, None]
    return p0 + t * (p1 - p0)


@st.composite
def _packings(draw):
    edge = draw(st.sampled_from([30.0, 60.0, 120.0, 250.0]))
    radius = draw(st.sampled_from([1.0, 4.0, 6.5]))
    lengths = st.floats(1.0, edge - 2 * radius)
    if draw(st.booleans()):
        lengths = st.just(draw(lengths))  # a length law with stddev 0
    # Axes may run on the box faces and corners, where cell indices clamp to nc - 1.
    coord = st.sampled_from([0.0, edge]) | st.floats(0.0, edge)
    fiber = st.tuples(coord, coord, coord, st.floats(-1.0, 1.0),
                      st.floats(0.0, 2 * math.pi), lengths)

    def segment(x, y, z, u, angle, length):
        s = math.sqrt(1.0 - u * u)
        p0 = np.array([x, y, z])
        p1 = p0 + length * np.array([s * math.cos(angle), s * math.sin(angle), u])
        return p0, np.clip(p1, 0.0, edge)

    accepted = [segment(*f) for f in draw(st.lists(fiber, min_size=1, max_size=12))]
    return edge, radius, accepted, segment(*draw(fiber))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_packings())
def test_cell_candidates_cover_every_overlap(packing):
    edge, radius, accepted, (q0, q1) = packing
    cells = _CellTable(edge, radius)
    for index, (p0, p1) in enumerate(accepted):
        cells.add(index, _axis_samples(p0, p1))
    _, found = cells.candidates(_axis_samples(q0, q1)[None])
    p0s = np.array([p0 for p0, _ in accepted])
    p1s = np.array([p1 for _, p1 in accepted])
    overlapping = np.nonzero(segment_distance_sq(q0, q1, p0s, p1s) < (2 * radius) ** 2)[0]
    assert set(overlapping) <= set(found.tolist())
