"""Segmentation scoring: Dice over binary masks, Adjusted Rand Index over
instance labelings.

Pair counts are accumulated exactly (Python integers for all products), so the
ARI matches a brute-force all-pairs oracle to floating-point rounding only in
the final division.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .volume import LabelVolume


def _labelings(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    """The label arrays of two same-shape labelings (volumes or arrays)."""
    a, b = (x.data if isinstance(x, LabelVolume) else np.asarray(x) for x in (truth, pred))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True)
class ContingencyTable:
    """Joint label-overlap counts between two labelings of one voxel domain.

    ``joint[i, j]`` is the number of voxels carrying ``truth_labels[i]`` in
    the first input and ``pred_labels[j]`` in the second.
    """

    truth_labels: np.ndarray
    pred_labels: np.ndarray
    joint: np.ndarray
    n: int

    @property
    def truth_sizes(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def pred_sizes(self) -> np.ndarray:
        return self.joint.sum(axis=0)


@dataclass(frozen=True)
class MetricReport:
    dice: float
    ari: float
    tp: int
    fp: int
    fn: int
    n: int
    ignore_background: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[float, int, int, int]:
    """Dice, true-positive, false-positive and false-negative voxel counts of
    two same-shape labelings, foreground being nonzero. Both empty gives Dice
    1.0 by convention."""
    ta = a != 0
    tb = b != 0
    tp = int(np.count_nonzero(ta & tb))
    fp = int(np.count_nonzero(~ta & tb))
    fn = int(np.count_nonzero(ta & ~tb))
    size_sum = 2 * tp + fp + fn
    return (1.0 if size_sum == 0 else 2.0 * tp / size_sum), tp, fp, fn


def dice(truth, pred) -> float:
    """Dice overlap 2|B and B'| / (|B| + |B'|) of two binary masks.

    Values must be 0 or 1. Both masks empty returns 1.0 by convention.
    """
    a, b = _labelings(truth, pred)
    if any(x.min(initial=0) < 0 or x.max(initial=0) > 1 for x in (a, b)):
        raise ValueError("dice requires binary masks with values in {0, 1}")
    return _overlap(a, b)[0]


def contingency_table(truth, pred, ignore_background: bool = True) -> ContingencyTable:
    """Contingency table of two labelings.

    With ``ignore_background`` the domain is restricted to voxels whose truth
    label is nonzero; otherwise all voxels count and label 0 forms an ordinary
    cluster in each partition.
    """
    a, b = _labelings(truth, pred)
    if ignore_background:
        domain = a != 0
        a = a[domain]
        b = b[domain]
    else:
        a = a.ravel()
        b = b.ravel()
    truth_labels, ai = np.unique(a, return_inverse=True)
    pred_labels, bi = np.unique(b, return_inverse=True)
    shape = (len(truth_labels), len(pred_labels))
    joint = np.bincount(ai * shape[1] + bi, minlength=shape[0] * shape[1]).reshape(shape)
    return ContingencyTable(truth_labels=truth_labels, pred_labels=pred_labels,
                            joint=joint, n=int(a.size))


def _pair_count_sum(counts: np.ndarray) -> int:
    """Sum of c*(c-1)/2 over the counts, in Python integers (no int64 wrap)."""
    return sum(c * (c - 1) // 2 for c in counts[counts > 1].tolist())


def adjusted_rand_index(truth, pred, ignore_background: bool = True) -> float:
    """Adjusted Rand Index between two labelings.

    ARI = (Sij - t3) / ((t1 + t2)/2 - t3) with t1, t2 the within-partition
    voxel-pair counts, Sij the joint pair count, and t3 = 2*t1*t2 / (n*(n-1)).
    All counts and products are exact integers; only the final quotient is a
    float. A degenerate zero denominator returns 1.0 when the two partitions
    are identical and 0.0 otherwise. The value can be negative for partitions
    that agree less than chance.
    """
    table = contingency_table(truth, pred, ignore_background=ignore_background)
    n = table.n
    if n < 2:
        raise ValueError(f"ARI needs at least 2 voxels in the evaluation domain, got {n}")
    t1 = _pair_count_sum(table.truth_sizes)
    t2 = _pair_count_sum(table.pred_sizes)
    sij = _pair_count_sum(table.joint.ravel())
    pairs_total = n * (n - 1) // 2
    # Scaled by 2*pairs_total to stay in integers: t3 = t1*t2 / pairs_total.
    num = 2 * (sij * pairs_total - t1 * t2)
    den = (t1 + t2) * pairs_total - 2 * t1 * t2
    if den == 0:
        return 1.0 if t1 == t2 == sij else 0.0
    return num / den


def evaluate(truth, pred, ignore_background: bool = True) -> MetricReport:
    """Full report: Dice on the binarized masks plus ARI on the labelings."""
    a, b = _labelings(truth, pred)
    dice_value, tp, fp, fn = _overlap(a, b)
    ari_value = adjusted_rand_index(a, b, ignore_background=ignore_background)
    return MetricReport(dice=dice_value, ari=ari_value, tp=tp, fp=fp, fn=fn,
                        n=tp + fn if ignore_background else int(a.size),
                        ignore_background=ignore_background)
