from itertools import combinations

import numpy as np
import pytest

from fibervox.metrics import (
    adjusted_rand_index,
    contingency_table,
    dice,
    evaluate,
)
from fibervox.volume import GridSpec, LabelVolume


def ari_bruteforce(a, b):
    """Literal all-pairs definition: agreement counts over every voxel pair."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    both = neither = 0
    for i, j in combinations(range(n), 2):
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        both += sa and sb
        neither += (not sa) and (not sb)
    pairs = n * (n - 1) // 2
    # expected index / max index form
    t1 = sum(int(c) * (int(c) - 1) // 2 for c in np.bincount(a))
    t2 = sum(int(c) * (int(c) - 1) // 2 for c in np.bincount(b))
    sij = both
    exp = t1 * t2 / pairs
    mx = 0.5 * (t1 + t2)
    if mx == exp:
        return 1.0 if t1 == t2 == sij else 0.0
    return (sij - exp) / (mx - exp)


# ------------------------------------------------------------------- dice


def test_dice_closed_forms():
    assert dice([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert dice([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0
    # |truth|=3, |pred|=3, overlap 2 -> 4/6
    assert dice([1, 1, 1, 0, 0], [0, 1, 1, 1, 0]) == pytest.approx(4 / 6)
    assert dice([0, 0], [0, 0]) == 1.0


def test_dice_rejects_nonbinary():
    with pytest.raises(ValueError, match="binary"):
        dice([0, 2], [0, 1])


@pytest.mark.parametrize("truth, pred", [([-1, 0, 1], [1, 0, 1]), ([1, 0, 1], [1, 0, -1])])
def test_dice_rejects_negative_labels(truth, pred):
    with pytest.raises(ValueError, match="binary"):
        dice(truth, pred)


def test_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        dice(np.zeros((2, 2)), np.zeros((2, 3)))


def test_dice_accepts_label_volumes():
    g = GridSpec((2, 2, 1), 1.0)
    a = LabelVolume(g, np.array([[1, 0], [1, 0]], dtype=np.uint32).reshape(2, 2, 1))
    b = LabelVolume(g, np.array([[1, 0], [0, 0]], dtype=np.uint32).reshape(2, 2, 1))
    assert dice(a, b) == pytest.approx(2 / 3)


# ------------------------------------------------------------------- contingency


def test_contingency_table_counts():
    truth = np.array([0, 1, 1, 2, 2, 2])
    pred = np.array([5, 5, 7, 7, 7, 7])
    t = contingency_table(truth, pred, ignore_background=True)
    # domain excludes the truth-0 voxel
    assert t.n == 5
    np.testing.assert_array_equal(t.truth_labels, [1, 2])
    np.testing.assert_array_equal(t.pred_labels, [5, 7])
    np.testing.assert_array_equal(t.joint, [[1, 1], [0, 3]])
    assert t.joint.dtype == np.int64
    np.testing.assert_array_equal(t.truth_sizes, [2, 3])
    np.testing.assert_array_equal(t.pred_sizes, [1, 4])

    t_all = contingency_table(truth, pred, ignore_background=False)
    assert t_all.n == 6
    assert 0 in t_all.truth_labels


def test_contingency_table_of_an_empty_domain():
    # every truth voxel is background, so no voxel is counted
    t = contingency_table(np.zeros((2, 3, 4), np.uint32), np.ones((2, 3, 4), np.uint32))
    assert t.n == 0 and t.joint.shape == (0, 0) and t.joint.dtype == np.int64
    assert t.truth_sizes.shape == t.pred_sizes.shape == (0,)


# ------------------------------------------------------------------- ari


def test_ari_hand_case_negative_half():
    truth = np.array([1, 1, 2, 2])
    pred = np.array([1, 2, 1, 2])
    assert adjusted_rand_index(truth, pred, ignore_background=False) == pytest.approx(-0.5)


def test_ari_perfect_and_relabeled():
    truth = np.array([1, 1, 2, 2, 3])
    assert adjusted_rand_index(truth, truth, ignore_background=False) == 1.0
    relabeled = np.array([7, 7, 4, 4, 9])
    assert adjusted_rand_index(truth, relabeled, ignore_background=False) == 1.0


def test_ari_symmetry():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=40)
    b = rng.integers(0, 4, size=40)
    ab = adjusted_rand_index(a, b, ignore_background=False)
    ba = adjusted_rand_index(b, a, ignore_background=False)
    assert ab == pytest.approx(ba, abs=1e-15)


def test_ari_degenerate_denominator():
    one_cluster = np.ones(5, dtype=int)
    assert adjusted_rand_index(one_cluster, one_cluster * 3,
                               ignore_background=False) == 1.0
    singletons = np.arange(1, 6)
    assert adjusted_rand_index(singletons, singletons + 10,
                               ignore_background=False) == 1.0
    # one cluster vs all singletons is not degenerate; it scores 0
    assert adjusted_rand_index(one_cluster, singletons,
                               ignore_background=False) == 0.0


def test_ari_needs_two_voxels():
    with pytest.raises(ValueError, match="at least 2 voxels"):
        adjusted_rand_index(np.array([1]), np.array([1]), ignore_background=False)
    with pytest.raises(ValueError, match="at least 2 voxels"):
        # ignore_background empties the domain
        adjusted_rand_index(np.zeros(10, dtype=int), np.ones(10, dtype=int))


def test_ari_ignore_background_restricts_domain():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred_garbage_on_bg = np.array([9, 8, 1, 1, 2, 2])
    assert adjusted_rand_index(truth, pred_garbage_on_bg) == 1.0
    assert adjusted_rand_index(truth, pred_garbage_on_bg,
                               ignore_background=False) < 1.0


def test_ari_matches_bruteforce_oracle():
    rng = np.random.default_rng(77)
    for trial in range(60):
        shape = tuple(rng.integers(2, 5, size=3))
        k = int(rng.integers(1, 5))
        a = rng.integers(0, k + 1, size=shape)
        b = rng.integers(0, k + 1, size=shape)
        for ig in (False, True):
            if ig and np.count_nonzero(a) < 2:
                continue
            got = adjusted_rand_index(a, b, ignore_background=ig)
            if ig:
                dom = a != 0
                want = ari_bruteforce(a[dom], b[dom])
            else:
                want = ari_bruteforce(a, b)
            assert got == pytest.approx(want, abs=1e-12), (trial, ig)


def test_ari_large_counts_stay_exact():
    # counts big enough that float pair arithmetic would lose bits
    n = 3_000_000
    a = np.zeros(n, dtype=np.uint32)
    a[: n // 2] = 1
    b = a.copy()
    b[0] = 0
    val = adjusted_rand_index(a, b, ignore_background=False)
    assert 0.99 < val < 1.0


# ------------------------------------------------------------------- evaluate


def test_evaluate_report():
    g = GridSpec((2, 2, 2), 1.0)
    truth = LabelVolume(g, np.array([1, 1, 2, 2, 0, 0, 0, 0],
                                    dtype=np.uint32).reshape(g.dims, order="F"))
    pred = LabelVolume(g, np.array([1, 1, 2, 0, 3, 0, 0, 0],
                                   dtype=np.uint32).reshape(g.dims, order="F"))
    r = evaluate(truth, pred)
    assert r.tp == 3 and r.fn == 1 and r.fp == 1
    assert r.dice == pytest.approx(6 / 8)
    assert r.n == 4  # truth foreground size
    d = r.to_dict()
    assert set(d) == {"dice", "ari", "tp", "fp", "fn", "n", "ignore_background"}
    assert d["ignore_background"] is True
